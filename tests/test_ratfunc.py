"""Exact rational-function field: arithmetic, canonical forms, substitution."""

from fractions import Fraction
from math import lcm

import pytest
import torusquot.ratfunc as ratfunc
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st
from sympy.polys.domains import QQ
from sympy.polys.fields import field
from sympy.polys.orderings import grlex

from torusquot.ratfunc import (
    RationalFunction,
    _field_for,
    _fraction,
    compose,
    identity_substitution,
)

NAMES = ("x", "y")
TARGET = ("x", "u")
ARITHMETIC = (
    "__add__", "__sub__", "__mul__", "__truediv__", "__radd__", "__rsub__",
    "__rmul__", "__rtruediv__", "__neg__", "__pow__",
)
PROPERTY = settings(
    derandomize=True, database=None, max_examples=40, deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)


def reference_subs(f, mapping, target_names):
    """Substitution with a cancellation after every product and sum."""
    images = [
        mapping[name] if name in mapping
        else RationalFunction.variable(name, target_names) if name in target_names
        else RationalFunction.constant(0, target_names)
        for name in f.names
    ]

    def evaluate(terms):
        total = RationalFunction.constant(0, target_names)
        for mon, coeff in terms:
            term = RationalFunction.constant(coeff, target_names)
            for img, e in zip(images, mon):
                if e:
                    term = term * img ** e
            total = total + term
        return total

    den = evaluate(f.denom_terms())
    if den.is_zero:
        raise ZeroDivisionError("substitution sends the denominator to zero")
    return evaluate(f.numer_terms()) / den


def _polynomial(draw, names, low, high, max_terms):
    """A sum of up to max_terms terms with small coefficients and exponents."""
    exps = st.tuples(*[st.integers(low, high)] * len(names))
    total = RationalFunction.constant(0, names)
    for mon, c in draw(st.lists(st.tuples(exps, st.integers(-3, 3)), min_size=1, max_size=max_terms)):
        term = RationalFunction.constant(c, names)
        for name, e in zip(names, mon):
            term = term * RationalFunction.variable(name, names) ** e
        total = total + term
    return total


@st.composite
def rational_functions(draw, names):
    den = _polynomial(draw, names, 0, 2, 3)
    assume(not den.is_zero)
    return _polynomial(draw, names, 0, 2, 3) / den


@st.composite
def images(draw, names):
    """A Laurent monomial, a polynomial or a constant (possibly zero)."""
    kind = draw(st.sampled_from(["laurent", "polynomial", "constant"]))
    if kind == "laurent":
        mono = _polynomial(draw, names, -2, 2, 1)
        assume(not mono.is_zero)
        return mono
    if kind == "polynomial":
        return _polynomial(draw, names, 0, 2, 3)
    return RationalFunction.constant(draw(st.integers(-2, 2)), names)


@st.composite
def laurent_monomials(draw, names):
    """A nonzero rational multiple of a Laurent monomial."""
    mono = _polynomial(draw, names, -2, 2, 1)
    assume(not mono.is_zero)
    return mono / draw(st.integers(1, 3))


_X = RationalFunction.variable("x", NAMES)
THREE = ("x", "y", "z")
EXPONENTS = st.tuples(*[st.integers(0, 3)] * len(THREE))
COEFFS = st.builds(Fraction, st.integers(-6, 6).filter(bool), st.integers(1, 4))


BINOMIALS = st.dictionaries(EXPONENTS, st.integers(-6, 6).filter(bool), min_size=2, max_size=2)
QQ_FIELD = field(list(THREE), QQ, order=grlex)[0]


def _shifted(terms, shift):
    return {tuple(e + s for e, s in zip(mon, shift)): c for mon, c in terms.items()}


def _polys(num, den):
    """num and den as polynomials of THREE's integer ring, both scaled by the
    lcm of their coefficients' denominators, so that num/den is unchanged."""
    ring = _field_for(THREE).ring
    scale = lcm(*(Fraction(c).denominator for c in (*num.values(), *den.values())))
    return tuple(
        ring.from_dict({mon: int(c * scale) for mon, c in terms.items()}) for terms in (num, den)
    )


def _coefficients(poly):
    return {mon: Fraction(int(c.numerator), int(c.denominator)) for mon, c in poly.items()}


def _xy():
    v = identity_substitution(NAMES)
    return v["x"], v["y"]


def test_field_arithmetic_cancels():
    x, y = _xy()
    f = (x * x - y * y) / (x - y)
    assert f == x + y
    assert (f - x - y).is_zero


def test_mixed_scalar_arithmetic():
    x, _ = _xy()
    f = 1 + x / 2 - Fraction(1, 2) * x
    assert f == RationalFunction.constant(1, NAMES)
    assert (2 / (x / x)).evaluate({"x": 7, "y": 1}) == 2


def test_pow_and_neg():
    x, y = _xy()
    assert x ** 3 / x == x * x
    assert -(x - y) == y - x
    assert x ** -1 == 1 / x
    with pytest.raises(ZeroDivisionError):
        (y - y) ** -1


def test_canonical_is_deterministic():
    x, y = _xy()
    f = (y + x) / (y * x)
    assert f.canonical() == ((x + y) / (x * y)).canonical()
    assert f.canonical() == "(x + y)/(x*y)"


def test_evaluate_exact():
    x, y = _xy()
    f = (x + y) / (x - y)
    assert f.evaluate({"x": Fraction(3, 2), "y": 1}) == Fraction(5)
    with pytest.raises(ZeroDivisionError):
        f.evaluate({"x": 1, "y": 1})


def test_subs_renames_and_composes():
    x, y = _xy()
    target = ("u",)
    u = RationalFunction.variable("u", target)
    image = (x / y).subs({"x": u + 1, "y": u - 1}, target_names=target)
    assert image == (u + 1) / (u - 1)


def test_subs_missing_image_only_matters_if_used():
    x, y = _xy()
    f = x + 1
    out = f.subs({"x": RationalFunction.variable("x", ("x",))}, target_names=("x",))
    assert out.names == ("x",)
    with pytest.raises(ValueError):
        (x + y).subs({"x": RationalFunction.variable("x", ("x",))}, target_names=("x",))


def test_substitution_composition_order():
    x, y = _xy()
    first = {"x": y, "y": x}  # swap
    second = {"x": x + 1, "y": y}
    both = compose(second, first)
    # first swap, then shift: x -> y -> y, y -> x -> x + 1
    assert both["x"] == y
    assert both["y"] == x + 1
    ident = identity_substitution(NAMES)
    assert compose(first, first) == ident


def test_zero_denominator_rejected():
    x, y = _xy()
    with pytest.raises(ZeroDivisionError):
        x / (y - y)


def test_zero_denominator_substitution_rejected():
    x, y = _xy()
    u = RationalFunction.variable("u", ("u",))
    with pytest.raises(ZeroDivisionError, match="denominator to zero"):
        (x / (x - y)).subs({"x": u, "y": u}, target_names=("u",))


@PROPERTY
@given(
    f=rational_functions(NAMES),
    mapping=st.fixed_dictionaries({"y": images(TARGET)}, optional={"x": images(TARGET)}),
)
def test_subs_matches_the_per_product_reference(f, mapping):
    try:
        expected = reference_subs(f, mapping, TARGET)
    except ZeroDivisionError:
        with pytest.raises(ZeroDivisionError):
            f.subs(mapping, target_names=TARGET)
        return
    got = f.subs(mapping, target_names=TARGET)
    assert got == expected
    assert hash(got) == hash(expected)
    assert got.canonical() == expected.canonical()


def test_subs_calls_no_arithmetic_operator(monkeypatch):
    x, y = _xy()
    u, v = (RationalFunction.variable(name, ("u", "v")) for name in ("u", "v"))
    f = (x ** 2 - 3 * y) / (x * y + 1)
    mapping = {"x": u / (v + 1), "y": u * v ** 2 - 2}
    expected = reference_subs(f, mapping, ("u", "v"))
    called = []
    for name in ARITHMETIC:
        original = vars(RationalFunction)[name]

        def counted(*args, _name=name, _original=original):
            called.append(_name)
            return _original(*args)

        monkeypatch.setattr(RationalFunction, name, counted)
    assert f.subs(mapping) == expected
    assert called == []


@settings(PROPERTY, max_examples=200)
@given(
    single=st.dictionaries(EXPONENTS, COEFFS, min_size=1, max_size=1),
    other=st.dictionaries(EXPONENTS, COEFFS, max_size=4),
    shift=EXPONENTS,
    single_on_top=st.booleans(),
)
@example(single={(0, 0, 0): Fraction(3, 2)}, other={(0, 0, 0): Fraction(-9, 4)},
         shift=(0, 0, 0), single_on_top=True)  # constants, negative denominator
@example(single={(1, 0, 0): Fraction(1)}, other={}, shift=(0, 0, 0),
         single_on_top=False)  # zero numerator
@example(single={(2, 1, 0): Fraction(-4, 3)},
         other={(1, 1, 1): Fraction(-2), (0, 2, 0): Fraction(6, 5)},
         shift=(1, 0, 2), single_on_top=True)  # negative leading term, shared factor
@example(single={(0, 1, 0): Fraction(5)},
         other={(3, 0, 0): Fraction(10), (1, 1, 1): Fraction(-15, 7), (0, 0, 0): Fraction(1)},
         shift=(0, 0, 0), single_on_top=False)  # multi-term numerator
def test_one_term_reduction_is_sympys_cancel(single, other, shift, single_on_top):
    """`_fraction` without a gcd gives exactly the form `cancel` gives, and
    the integer coefficients are those `cancel` gives over QQ."""
    num, den = (single, other) if single_on_top and other else (other, single)
    num, den = _shifted(num, shift), _shifted(den, shift)
    over_qq = QQ_FIELD.new(*(
        QQ_FIELD.ring.from_dict({mon: QQ(c.numerator, c.denominator) for mon, c in terms.items()})
        for terms in (num, den)
    ))
    num, den = _polys(num, den)
    fld = _field_for(THREE)
    got, expected = _fraction(fld, num, den), fld.new(num, den)
    assert (got.numer, got.denom) == (expected.numer, expected.denom)
    assert all(type(c) is int for poly in (got.numer, got.denom) for c in poly.values())
    assert (_coefficients(got.numer), _coefficients(got.denom)) == (
        _coefficients(over_qq.numer), _coefficients(over_qq.denom)
    )
    got, expected = RationalFunction(THREE, got), RationalFunction(THREE, expected)
    assert hash(got) == hash(expected)
    assert got.canonical() == expected.canonical()


@settings(PROPERTY, max_examples=300)
@given(
    num=BINOMIALS,
    den=BINOMIALS,
    num_shift=EXPONENTS,
    den_shift=EXPONENTS,
    associate=st.sampled_from([0, 0, 1, -1, 3, -2]),
)
@example(num={(1, 0, 0): 1, (0, 1, 0): -1}, den={(1, 0, 0): -2, (0, 1, 0): 2},
         num_shift=(0, 0, 1), den_shift=(1, 0, 0), associate=0)  # associate pair
@example(num={(1, 0, 0): 1, (0, 1, 0): -1}, den={(2, 0, 0): 1, (0, 2, 0): -1},
         num_shift=(0, 0, 0), den_shift=(0, 0, 0), associate=0)  # (x - y)/(x**2 - y**2)
@example(num={(2, 0, 0): 1, (0, 2, 0): -1}, den={(2, 0, 0): 1, (0, 2, 0): 1},
         num_shift=(0, 0, 0), den_shift=(0, 0, 0), associate=0)  # (x**2 - y**2)/(x**2 + y**2)
@example(num={(0, 0, 1): 2, (1, 1, 0): -2}, den={(1, 1, 0): 1, (0, 0, 1): -1},
         num_shift=(0, 0, 0), den_shift=(0, 0, 0), associate=0)  # (2z - 2xy)/(xy - z)
def test_two_term_reduction_is_sympys_cancel(num, den, num_shift, den_shift, associate):
    """Binomial over binomial: `_fraction` gives exactly the form `cancel`
    gives, for associates, coprime irreducibles and the pairs left to it."""
    if associate:
        den = {mon: associate * c for mon, c in num.items()}
    num, den = _polys(_shifted(num, num_shift), _shifted(den, den_shift))
    fld = _field_for(THREE)
    got, expected = _fraction(fld, num, den), fld.new(num, den)
    assert (got.numer, got.denom) == (expected.numer, expected.denom)
    got, expected = RationalFunction(THREE, got), RationalFunction(THREE, expected)
    assert hash(got) == hash(expected)
    assert got.canonical() == expected.canonical()


def _counting_new(fld, calls):
    original = fld.new

    def counted(*args):
        calls.append(args)
        return original(*args)

    return counted


@PROPERTY
@given(
    f=laurent_monomials(NAMES),
    mapping=st.fixed_dictionaries(
        {"y": laurent_monomials(TARGET)}, optional={"x": laurent_monomials(TARGET)}
    ),
)
def test_monomial_subs_is_an_exponent_map(f, mapping):
    """Monomials under nonzero monomial images never reach sympy's cancel,
    nor the common-denominator path."""
    expected = reference_subs(f, mapping, TARGET)
    fld, calls, powers = _field_for(TARGET), [], []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(fld, "new", _counting_new(fld, calls))
        mp.setattr(ratfunc, "_powers", lambda *args: powers.append(args))
        got = f.subs(mapping, target_names=TARGET)
    assert calls == [] and powers == []
    assert got == expected
    assert got.canonical() == expected.canonical()


def test_exponent_map_keeps_large_coefficients_exact():
    """Coefficients beyond a float's precision survive the exponent map,
    under images with negative exponents."""
    x, y = _xy()
    u, v = (RationalFunction.variable(name, TARGET) for name in TARGET)
    f = Fraction(3 ** 40, 7 ** 40) * x ** 2 / y ** 3
    cx, cy = Fraction(-5 ** 30, 11 ** 20), Fraction(7 ** 13, 2 ** 70)
    mapping = {"x": cx * u ** -2 * v, "y": cy / v ** 3}
    expected = reference_subs(f, mapping, TARGET)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ratfunc, "_powers", None)  # the common-denominator path would call it
        got = f.subs(mapping, target_names=TARGET)
    assert got == expected
    assert got.canonical() == expected.canonical()
    assert got == Fraction(3 ** 40, 7 ** 40) * cx ** 2 / cy ** 3 * u ** -4 * v ** 11


def test_inexact_scalars_are_refused():
    x, _ = _xy()
    for bad in (0.1, 0.5, "1/3"):
        with pytest.raises(TypeError):
            RationalFunction.constant(bad, NAMES)
        with pytest.raises(TypeError):
            RationalFunction.from_terms(NAMES, {(1, 0): bad}, {(0, 0): 1})
        with pytest.raises(TypeError):
            RationalFunction.from_terms(NAMES, {(1, 0): 1}, {(0, 0): bad})
        with pytest.raises(TypeError):
            x.evaluate({"x": bad, "y": 1})
        with pytest.raises(TypeError):
            x + bad
    third = RationalFunction.constant(Fraction(1, 3), NAMES)
    assert third.evaluate({"x": 0, "y": Fraction(1, 2)}) == Fraction(1, 3)
    assert RationalFunction.from_terms(NAMES, {(1, 0): Fraction(1, 2)}, {(0, 0): 3}) == x / 6


def test_arithmetic_reduces_through_the_one_term_rule(monkeypatch):
    """Every operator result is a `_Reduced`; only a numerator and a
    denominator with several terms each, not both irreducible binomials,
    reach sympy's cancel."""
    x, y = _xy()
    fld, calls = _field_for(NAMES), []
    monkeypatch.setattr(fld, "new", _counting_new(fld, calls))
    monomial = (2 * x * y / (3 * x ** 2) - x / y) * (x ** 3 / -y) + 1
    assert calls == []
    assert monomial.canonical() == "(x**4 - 2/3*x**2*y**2 + y**2)/(y**2)"
    binomial = (x + y) / (x - y) * (x - y)
    gx, gy = fld.ring.gens
    assert calls == [(gx ** 2 - gy ** 2, gx - gy)]  # x**2 - y**2 has no exponent step of 1
    assert binomial == x + y
    values = (x, x ** -1, -x, x + 1, x - y, x * y, x / y, 1 / x, 2 - x, monomial, binomial)
    assert all(isinstance(v.elem, ratfunc._Reduced) for v in values)


def test_exponent_map_leaves_the_errors_of_subs():
    x, y = _xy()
    u = RationalFunction.variable("u", ("u",))
    zero = RationalFunction.constant(0, ("u",))
    assert (x ** 2 / y).subs({"x": zero, "y": u}).is_zero
    with pytest.raises(ZeroDivisionError, match="denominator to zero"):
        (x / y ** 2).subs({"x": u, "y": zero})
    with pytest.raises(ValueError, match="no image"):
        (x * y).subs({"x": u})
    v = RationalFunction.variable("v", ("v",))
    with pytest.raises(ValueError, match="mixed variable sets"):
        (x / y).subs({"x": u, "y": v})


@PROPERTY
@given(a=rational_functions(NAMES), b=rational_functions(NAMES), c=rational_functions(NAMES))
@example(a=_X, b=-_X, c=_X)  # (-x)**-1: a negative leading coefficient inverted
@example(a=_X, b=_X - 1, c=_X)  # (x - 1)**2 through sympy's `square`
def test_canonical_form_ignores_the_order_of_operations(a, b, c):
    assume(not c.is_zero)
    left, right = (a * b) / c, a * (b / c)
    assert left == right
    assert left.canonical() == right.canonical()
    assert hash(left) == hash(right)
    left, right = (a + b) - c, a - (c - b)
    assert left.canonical() == right.canonical()
    assert hash(left) == hash(right)
    if not b.is_zero:
        for left, right in (((-b) ** -1, -(b ** -1)), ((-b) ** -2, 1 / (b * b))):
            assert (left.elem.numer, left.elem.denom) == (right.elem.numer, right.elem.denom)
            assert hash(left) == hash(right)


@PROPERTY
@given(
    f=rational_functions(NAMES),
    first=st.fixed_dictionaries({"x": images(NAMES), "y": images(NAMES)}),
    second=st.fixed_dictionaries({"y": images(TARGET)}, optional={"x": images(TARGET)}),
)
def test_compose_is_substitution_in_turn(f, first, second):
    try:
        expected = f.subs(first).subs(second, target_names=TARGET)
        got = f.subs(compose(second, first), target_names=TARGET)
    except ZeroDivisionError:
        assume(False)
    assert got == expected
    assert got.canonical() == expected.canonical()
