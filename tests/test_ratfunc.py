"""Exact rational-function field: arithmetic, canonical forms, substitution."""

from fractions import Fraction
from math import lcm

import pytest
import torusquot.ratfunc as ratfunc
from conftest import (
    count_fallbacks,
    sympy_canonical,
    sympy_coefficients,
    sympy_evaluate,
    sympy_field,
    sympy_pow,
    sympy_subs,
    sympy_value,
)
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st
from sympy.polys.domains import QQ

from torusquot.ratfunc import (
    RationalFunction,
    _cancel,
    _fraction,
    _terms,
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


def reference_subs(f, mapping):
    """Substitution with a cancellation after every product and sum."""
    target = next(iter(mapping.values())).names

    def evaluate(poly):
        total = RationalFunction.constant(0, target)
        for mon, coeff in poly.items():
            term = RationalFunction.constant(coeff, target)
            for name, e in zip(f.names, mon):
                if e:
                    term = term * mapping[name] ** e
            total = total + term
        return total

    den = evaluate(f.denom)
    if den.is_zero:
        raise ZeroDivisionError("substitution sends the denominator to zero")
    return evaluate(f.numer) / den


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
# x of the target: the image a map spells out to keep x
TARGET_X = RationalFunction.variable("x", TARGET)
THREE = ("x", "y", "z")
EXPONENTS = st.tuples(*[st.integers(0, 3)] * len(THREE))
COEFFS = st.builds(Fraction, st.integers(-6, 6).filter(bool), st.integers(1, 4))


BINOMIALS = st.dictionaries(EXPONENTS, st.integers(-6, 6).filter(bool), min_size=2, max_size=2)
POLYNOMIALS = st.dictionaries(EXPONENTS, st.integers(-6, 6).filter(bool), min_size=1, max_size=8)
SHIFTS = st.tuples(*[st.integers(-3, 3)] * len(THREE))
QQ_FIELD = sympy_field(THREE)


def _shifted(terms, shift):
    return {tuple(e + s for e, s in zip(mon, shift)): c for mon, c in terms.items()}


def _polys(num, den):
    """num and den as integer coefficient maps, both scaled by the lcm of
    their coefficients' denominators, so that num/den is unchanged."""
    scale = lcm(*(Fraction(c).denominator for c in (*num.values(), *den.values())))
    return tuple({mon: int(c * scale) for mon, c in terms.items()} for terms in (num, den))


def _as_fractions(poly):
    return {mon: Fraction(c) for mon, c in poly.items()}


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
    image = (x / y).subs({"x": u + 1, "y": u - 1})
    assert image.names == target
    assert image == (u + 1) / (u - 1)


def test_subs_missing_image_only_matters_if_used():
    """The target is the images' tuple; an unmapped variable that does
    not occur needs no image, one that occurs is refused by name."""
    x, y = _xy()
    keep = {"x": RationalFunction.variable("x", ("x",))}
    out = (x + 1).subs(keep)
    assert out.names == ("x",)
    assert out == keep["x"] + 1
    with pytest.raises(ValueError, match="no image provided for occurring variable 'y'"):
        (x + y).subs(keep)


def test_empty_map_leaves_a_constant_over_its_own_tuple():
    third = RationalFunction.constant(Fraction(1, 3), NAMES)
    for c in (third, RationalFunction.constant(0, NAMES)):
        out = c.subs({})
        assert out.names == NAMES
        assert out == c
    x, _ = _xy()
    with pytest.raises(ValueError, match="no image provided for occurring variable 'x'"):
        (x + 1).subs({})


# Grassmannian and flag quotient coordinates share names such as Y_1_1.
GRASSMANN_Y, FLAG_Y = ("Y_1_1", "Y_1_2"), ("Y_1_1", "Y_2_1")


@pytest.mark.parametrize("path", ["bare variable", "exponent map", "common denominator"])
def test_subs_never_keeps_a_variable_by_name(path):
    """A map missing an occurring variable is refused by name, even when
    the target has a variable of that name, on each path of `subs`."""
    a, b = (RationalFunction.variable(name, GRASSMANN_Y) for name in GRASSMANN_Y)
    source = {"bare variable": a, "exponent map": 2 * a / b ** 2,
              "common denominator": (a + b) / (a - 1)}[path]
    mapping = {"Y_1_2": RationalFunction.variable("Y_2_1", FLAG_Y)}
    with pytest.raises(ValueError, match="no image provided for occurring variable 'Y_1_1'"):
        source.subs(mapping)
    mapping["Y_1_1"] = RationalFunction.variable("Y_1_1", FLAG_Y)
    assert source.subs(mapping) == reference_subs(source, mapping)


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
        (x / (x - y)).subs({"x": u, "y": u})


@pytest.mark.parametrize("mapping,kind", [
    ({"x": 2}, "int"),
    ({"x": Fraction(1, 2)}, "Fraction"),
    ({"x": _X, "y": 3}, "int"),
])
def test_subs_refuses_scalar_images_by_type(mapping, kind):
    """An image must be a value over the target, not a scalar; the
    refusal names the type before any image's variables are read."""
    with pytest.raises(TypeError, match=f"must be a RationalFunction, got {kind}$"):
        _X.subs(mapping)


def test_evaluate_refuses_unknown_names_as_subs_does():
    x, y = _xy()
    with pytest.raises(ValueError, match="unknown variable 'z'"):
        x.evaluate({"x": 1, "z": 5})
    with pytest.raises(ValueError, match="unknown variable 'z'"):
        x.subs({"x": x, "z": y})
    with pytest.raises(ValueError, match="no value for occurring variable 'y'"):
        (x * y).evaluate({"x": 1})
    assert (x + 1).evaluate({"x": 2}) == 3  # y does not occur: no value needed


@PROPERTY
@given(
    f=rational_functions(NAMES),
    mapping=st.fixed_dictionaries(
        {"x": st.just(TARGET_X) | images(TARGET), "y": images(TARGET)}
    ),
)
def test_subs_matches_the_per_product_reference(f, mapping):
    try:
        expected = reference_subs(f, mapping)
    except ZeroDivisionError:
        with pytest.raises(ZeroDivisionError):
            f.subs(mapping)
        return
    got = f.subs(mapping)
    assert got == expected
    assert hash(got) == hash(expected)
    assert got.canonical() == expected.canonical()


def test_subs_calls_no_arithmetic_operator(monkeypatch):
    x, y = _xy()
    u, v = (RationalFunction.variable(name, ("u", "v")) for name in ("u", "v"))
    f = (x ** 2 - 3 * y) / (x * y + 1)
    mapping = {"x": u / (v + 1), "y": u * v ** 2 - 2}
    expected = reference_subs(f, mapping)
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
    """`_fraction` reduces without the fallback and gives exactly the form
    the fallback, sympy's `cancel` over ZZ, gives; the integer coefficients
    are those `cancel` gives over QQ."""
    num, den = (single, other) if single_on_top and other else (other, single)
    num, den = _shifted(num, shift), _shifted(den, shift)
    over_qq = sympy_value(QQ_FIELD, num, den)
    num, den = _polys(num, den)
    with count_fallbacks() as calls:
        got = _fraction(num, den)
    assert calls == []
    expected = _cancel(num, den)
    assert got == expected
    assert all(type(c) is int for poly in got for c in poly.values())
    assert tuple(map(_as_fractions, got)) == (
        sympy_coefficients(over_qq.numer), sympy_coefficients(over_qq.denom)
    )
    got, expected = RationalFunction(THREE, *got), RationalFunction(THREE, *expected)
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
    """Binomial over binomial: `_fraction` gives exactly the form the
    fallback gives, for associates, coprime irreducibles and the pairs left
    to it, and reaches the fallback for none of the first two kinds."""
    if associate:
        den = {mon: associate * c for mon, c in num.items()}
    irreducible = all(1 in (abs(y - x) for x, y in zip(*poly)) for poly in (num, den))
    num, den = _polys(_shifted(num, num_shift), _shifted(den, den_shift))
    with count_fallbacks() as calls:
        got = _fraction(num, den)
    if associate or irreducible:
        assert calls == []
    expected = _cancel(num, den)
    assert got == expected
    got, expected = RationalFunction(THREE, *got), RationalFunction(THREE, *expected)
    assert hash(got) == hash(expected)
    assert got.canonical() == expected.canonical()


@settings(PROPERTY, max_examples=300)
@given(poly=POLYNOMIALS, shift=SHIFTS, scalar=COEFFS, flip=st.booleans())
@example(poly={(1, 0, 0): 1, (0, 1, 0): -1, (0, 0, 1): 2, (0, 0, 0): -2}, shift=(-1, 2, 0),
         scalar=Fraction(-3, 2), flip=False)  # four terms, a negative shift entry
@example(poly={(3, 0, 0): 5}, shift=(0, 0, 0), scalar=Fraction(1), flip=True)  # one term
def test_associate_reduction_is_sympys_cancel(poly, shift, scalar, flip):
    """A polynomial times a nonzero rational and a Laurent monomial, over
    the polynomial (or the other way up): `_fraction` reduces it to one
    term over one term without the fallback, and gives exactly the form
    the fallback gives."""
    low = tuple(max(-s, 0) for s in shift)
    num = _shifted({mon: scalar * c for mon, c in poly.items()}, tuple(s + b for s, b in zip(shift, low)))
    den = _shifted(poly, low)
    num, den = _polys(*((den, num) if flip else (num, den)))
    with count_fallbacks() as calls:
        got = _fraction(num, den)
    assert calls == []
    assert got == _cancel(num, den)
    assert len(got[0]) == len(got[1]) == 1


@settings(PROPERTY, max_examples=150)
@given(pair=st.integers(2, 5).flatmap(lambda k: st.tuples(*[st.dictionaries(
    EXPONENTS, st.integers(-6, 6).filter(bool), min_size=k, max_size=k)] * 2)))
@example(pair=({(1, 0, 0): 1, (0, 1, 0): 2, (0, 0, 1): 3},
               {(2, 0, 0): 1, (1, 1, 0): 2, (1, 0, 1): 4}))  # one coefficient off
@example(pair=({(1, 0, 0): 1, (0, 1, 0): 1, (0, 0, 0): 1},
               {(2, 0, 0): 1, (1, 1, 0): 1, (0, 0, 1): 1}))  # one exponent off
def test_equal_length_pairs_that_are_not_associates_reach_the_fallback(pair):
    """Equal term counts alone do not make an associate pair: a quotient
    that is not one term over one term goes to the fallback (unless it is
    two irreducible binomials) and comes back as the fallback gives it."""
    num, den = pair
    expected = _cancel(num, den)
    assume(len(expected[0]) > 1 or len(expected[1]) > 1)
    irreducible = len(num) == 2 and all(1 in (abs(y - x) for x, y in zip(*poly)) for poly in pair)
    with count_fallbacks() as calls:
        got = _fraction(num, den)
    assert calls == ([] if irreducible else [(num, den)])
    assert got == expected


def test_changing_an_identity_dict_leaves_the_next_one_alone():
    """`identity_substitution` is built once per name tuple and handed out
    as a fresh dict."""
    ident = identity_substitution(THREE)
    expected = dict(ident)
    for name in ident:
        ident[name] = RationalFunction.constant(1, THREE)
    ident["w"] = RationalFunction.constant(2, THREE)
    assert identity_substitution(THREE) == expected
    assert identity_substitution(list(THREE)) == expected
    assert identity_substitution(THREE) is not identity_substitution(THREE)
    assert [v.canonical() for v in identity_substitution(THREE).values()] == list(THREE)


@PROPERTY
@given(
    f=laurent_monomials(NAMES),
    mapping=st.fixed_dictionaries(
        {"x": st.just(TARGET_X) | laurent_monomials(TARGET), "y": laurent_monomials(TARGET)}
    ),
)
def test_monomial_subs_is_an_exponent_map(f, mapping):
    """Monomials under nonzero monomial images never reach the fallback,
    nor the common-denominator path; nor does the monomial arithmetic of
    the per-product reference."""
    powers = []
    with count_fallbacks() as calls:
        expected = reference_subs(f, mapping)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(ratfunc, "_powers", lambda *args: powers.append(args))
            got = f.subs(mapping)
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
    expected = reference_subs(f, mapping)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ratfunc, "_powers", None)  # the common-denominator path would call it
        got = f.subs(mapping)
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


@pytest.mark.parametrize("names,numer,denom", [
    (NAMES, {(1,): 1}, {(0, 0): 1}),  # too short: it would add as a second x
    (NAMES, {(1, 0): 1}, {(0, 0, 0): 1}),  # too long
    (("x",), {(-1,): 1}, {(0,): 1}),  # negative: the one-term shift would make it 1/x
    (NAMES, {(1, 0): 1}, {(0, -2): 1}),
])
def test_from_terms_refuses_malformed_monomials(names, numer, denom):
    with pytest.raises(ValueError, match="nonnegative exponents"):
        RationalFunction.from_terms(names, numer, denom)


def test_arithmetic_reduces_through_the_one_term_rule():
    """Every operator result is already in the fallback's reduced form;
    only a numerator and a denominator with several terms each, neither
    associates nor both irreducible binomials, reach the fallback."""
    x, y = _xy()
    with count_fallbacks() as calls:
        monomial = (2 * x * y / (3 * x ** 2) - x / y) * (x ** 3 / -y) + 1
        assert calls == []
        product = (x + y) / (x - y) * (x - y)
        quotient = (x ** 2 - y ** 2) / (x - y)
    # x**2 - y**2 has no exponent step of 1
    assert calls == [({(2, 0): 1, (0, 2): -1}, {(1, 0): 1, (0, 1): -1})] * 2
    assert monomial.canonical() == "(x**4 - 2/3*x**2*y**2 + y**2)/(y**2)"
    assert product == quotient == x + y
    values = (x, x ** -1, -x, x + 1, x - y, x * y, x / y, 1 / x, 2 - x, monomial, product, quotient)
    assert all((v.numer, v.denom) == _cancel(v.numer, v.denom) for v in values)


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
            assert (left.numer, left.denom) == (right.numer, right.denom)
            assert hash(left) == hash(right)


@PROPERTY
@given(
    f=rational_functions(NAMES),
    first=st.fixed_dictionaries({"x": images(NAMES), "y": images(NAMES)}),
    second=st.fixed_dictionaries({"x": st.just(TARGET_X) | images(TARGET), "y": images(TARGET)}),
)
def test_compose_is_substitution_in_turn(f, first, second):
    try:
        expected = f.subs(first).subs(second)
        got = f.subs(compose(second, first))
    except ZeroDivisionError:
        assume(False)
    assert got == expected
    assert got.canonical() == expected.canonical()



# -- the native arithmetic against sympy's field over QQ ----------------------

FIELDS = ((), ("x",), ("x", "y"), ("x", "y", "z"))
SMALL_FRACTIONS = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3))


@st.composite
def recipes(draw, k):
    """Numerator and denominator coefficient maps over k variables: one to
    three terms a side with exponents up to 2, or a constant."""
    if draw(st.integers(0, 3)) == 0:
        return {(0,) * k: draw(SMALL_FRACTIONS)}, {(0,) * k: Fraction(1)}
    exps = st.tuples(*[st.integers(0, 2)] * k)
    numer, denom = (
        draw(st.dictionaries(exps, SMALL_FRACTIONS, min_size=1, max_size=3)) for _ in range(2)
    )
    assume(any(denom.values()))
    return numer, denom


def _both(names, recipe):
    """The recipe as a native value and as an element of sympy's field."""
    return RationalFunction.from_terms(names, *recipe), sympy_value(sympy_field(names), *recipe)


def _assert_matches(got, expected):
    """Byte-identical canonical strings, equal coefficient maps, and the
    terms in sympy's grlex order."""
    assert got.canonical() == sympy_canonical(expected)
    assert (_as_fractions(got.numer), _as_fractions(got.denom)) == (
        sympy_coefficients(expected.numer), sympy_coefficients(expected.denom)
    )
    for mine, poly in ((got.numer, expected.numer), (got.denom, expected.denom)):
        assert [mon for mon, _ in _terms(mine)] == [mon for mon, _ in poly.terms()]


@settings(PROPERTY, max_examples=150)
@given(data=st.data())
def test_arithmetic_matches_the_sympy_reference(data):
    names = data.draw(st.sampled_from(FIELDS), label="names")
    (a, ra), (b, rb) = (_both(names, data.draw(recipes(len(names)))) for _ in range(2))
    c = data.draw(SMALL_FRACTIONS, label="scalar")
    k = data.draw(st.integers(-3, 3), label="k")
    rc = ra.field(QQ(c.numerator, c.denominator))
    pairs = [(a, ra), (a + b, ra + rb), (a - b, ra - rb), (a * b, ra * rb), (-a, -ra),
             (a + c, ra + rc), (c - a, rc - ra), (c * a, rc * ra)]
    if not b.is_zero:
        pairs += [(a / b, ra / rb), (c / b, rc / rb)]
    if k > 0 or not a.is_zero:  # sympy refuses 0**0
        pairs.append((a ** k, sympy_pow(ra, k)))
    for got, expected in pairs:
        _assert_matches(got, expected)


def test_a_constant_finds_its_scalar_key():
    two = RationalFunction.constant(2, ("x",))
    assert two == 2 and {2: "a"}[two] == "a"
    assert {Fraction(-1, 3): "b"}[RationalFunction.constant(Fraction(-1, 3), ())] == "b"


@PROPERTY
@given(data=st.data())
def test_a_value_equal_to_a_scalar_hashes_like_it(data):
    names = data.draw(st.sampled_from(FIELDS), label="names")
    f = RationalFunction.from_terms(names, *data.draw(recipes(len(names))))
    scalars = [data.draw(SMALL_FRACTIONS, label="scalar")]
    if not any(map(any, (*f.numer, *f.denom))):  # no variable occurs
        scalars.append(f.evaluate({}))  # the constant's own value
    for s in scalars:
        for scalar in (s, s.numerator) if s.denominator == 1 else (s,):
            if f == scalar:
                assert hash(f) == hash(scalar)


@settings(PROPERTY, max_examples=150)
@given(data=st.data())
def test_subs_and_evaluate_match_the_sympy_reference(data):
    names = data.draw(st.sampled_from(FIELDS), label="names")
    # an empty map leaves a value over its own tuple
    target = data.draw(st.sampled_from(FIELDS), label="target") if names else ()
    f, rf = _both(names, data.draw(recipes(len(names))))
    mapping, images, fld = {}, [], sympy_field(target)
    for name in names:
        if name in target and data.draw(st.booleans(), label=f"{name} to itself"):
            mapping[name] = RationalFunction.variable(name, target)
            images.append(fld.gens[target.index(name)])
        else:
            mapping[name], image = _both(target, data.draw(recipes(len(target))))
            images.append(image)
    try:
        expected = sympy_subs(rf, images, fld)
    except ZeroDivisionError:
        with pytest.raises(ZeroDivisionError):
            f.subs(mapping)
    else:
        _assert_matches(f.subs(mapping), expected)
    # a point of negative rationals, zeros and plain ints
    point = [data.draw(st.integers(-2, 2) | SMALL_FRACTIONS) for _ in names]
    _assert_evaluates_as_sympy(f, rf, point)


def _assert_evaluates_as_sympy(f, rf, point):
    """`f` at `point` is the reference value as a `Fraction`, or the
    reference has a pole there and `f` refuses it by name."""
    values = dict(zip(f.names, point))
    try:
        expected = sympy_evaluate(rf, [Fraction(v) for v in point])
    except ZeroDivisionError:
        with pytest.raises(ZeroDivisionError, match="^denominator vanishes at the point$"):
            f.evaluate(values)
    else:
        got = f.evaluate(values)
        assert type(got) is Fraction
        assert got == expected


F = Fraction
EVALUATE_EDGES = {
    # x = 0 while the other terms have x**0: 0**0 counts as 1
    "zero coordinate": (({(1, 1): F(1), (0, 0): F(1)}, {(0, 2): F(1), (0, 0): F(3)}), (0, 2)),
    "zero coordinate in the denominator": (({(0, 1): F(2)}, {(2, 0): F(1), (0, 1): F(1)}),
                                           (0, F(-1, 3))),
    "int point": (({(2, 1): F(1)}, {(1, 0): F(1), (0, 1): F(1)}), (2, 1)),
    "negative rationals": (({(1, 0): F(1), (0, 1): F(-1)}, {(2, 0): F(1), (0, 0): F(1)}),
                           (F(-1, 2), F(-3, 4))),
    "pole": (({(1, 0): F(1)}, {(1, 0): F(1), (0, 1): F(1)}), (1, -1)),
    "constant": (({(0, 0): F(-5, 3)}, {(0, 0): F(1)}), (7, F(1, 2))),
    "zero": (({}, {(0, 0): F(1)}), (0, 0)),
}


@pytest.mark.parametrize("case", sorted(EVALUATE_EDGES))
def test_evaluate_edge_cases_match_the_sympy_reference(case):
    recipe, point = EVALUATE_EDGES[case]
    _assert_evaluates_as_sympy(*_both(NAMES, recipe), point)
