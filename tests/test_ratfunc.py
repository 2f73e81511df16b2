"""Exact rational-function field: arithmetic, canonical forms, substitution."""

from fractions import Fraction

import pytest

from torusquot.ratfunc import (
    RationalFunction,
    compose,
    identity_substitution,
)

NAMES = ("x", "y")


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
