"""Weights over the simple roots and the rounding representatives."""

from fractions import Fraction

import pytest

from torusquot.weights import (
    act,
    fundamental_weight,
    minuscule_floor_element,
    pairing,
    weight,
)
from torusquot.weyl import all_permutations, from_word, min_coset_reps, simple_reflection


def q(*vals):
    return tuple(Fraction(v) for v in vals)


def test_fundamental_weight_coeffs():
    # n = 4: omega_2 = (1/2, 1, 1/2) over the simple roots
    assert fundamental_weight(2, 4).coeffs == q(Fraction(1, 2), 1, Fraction(1, 2))


def test_pairing_with_coroots_is_cartan_shaped():
    n = 5
    for r in range(1, n):
        omega = fundamental_weight(r, n)
        for i in range(1, n):
            assert pairing(omega, i) == (1 if i == r else 0)


def test_act_is_a_group_action():
    n = 4
    chi = weight(q(1, 3, 2))
    for u in all_permutations(n):
        for i in (1, 2, 3):
            s = simple_reflection(i, n)
            assert act(s * u, chi) == act(s, act(u, chi))


def test_act_frozen_example():
    w = from_word((2, 1, 4, 3, 2), 5)
    img = act(w, fundamental_weight(2, 5))
    assert img.coeffs == q(
        Fraction(-2, 5), Fraction(-4, 5), Fraction(-1, 5), Fraction(-3, 5)
    )


@pytest.mark.parametrize("mode,lo,hi", [("ceil", Fraction(-1), Fraction(0)), ("floor", Fraction(0), Fraction(1))])
@pytest.mark.parametrize("n,r", [(4, 1), (4, 2), (5, 2), (5, 3), (6, 3)])
def test_rounding_element_exists_uniquely(mode, lo, hi, n, r):
    omega = fundamental_weight(r, n)
    found = minuscule_floor_element(omega, mode)
    I = tuple(i for i in range(1, n) if i != r)

    def in_window(c):
        return lo < c <= hi if mode == "ceil" else lo <= c < hi

    hits = [
        w
        for w in min_coset_reps(I, n)
        if all(in_window(c) for c in act(w, omega).coeffs)
    ]
    assert hits == [found]


def test_rounding_rejects_unreachable_targets():
    with pytest.raises(ValueError):
        # not minuscule: some coroot pairing exceeds 1, so the
        # single-root descent stalls and must fail loudly
        minuscule_floor_element(weight(q(4, 8, 4)), "ceil")
