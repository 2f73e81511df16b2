"""Exact rational-function field: arithmetic, canonical forms, substitution."""

from fractions import Fraction

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from torusquot.ratfunc import (
    RationalFunction,
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
