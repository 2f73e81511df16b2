"""Weights over the simple roots and the rounding representatives."""

import random
from fractions import Fraction

import pytest
from conftest import cartan_matrix, min_coset_reps, reduced_word, solve_linear

from torusquot.weights import (
    act,
    fundamental_weight,
    minuscule_floor_element,
    pairing,
    weight,
)
from torusquot.weyl import all_permutations, from_word, simple_reflection


def q(*vals):
    return tuple(Fraction(v) for v in vals)


def test_fundamental_weight_coeffs():
    # n = 4: omega_2 = (1/2, 1, 1/2) over the simple roots
    assert fundamental_weight(2, 4).coeffs == q(Fraction(1, 2), 1, Fraction(1, 2))


def test_fundamental_weight_closed_form_is_the_cartan_solve():
    for n in range(2, 14):
        for r in range(1, n):
            e = [int(j == r) for j in range(1, n)]
            solved = tuple(solve_linear(cartan_matrix(n - 1), e))
            assert fundamental_weight(r, n).coeffs == solved
            assert repr(fundamental_weight(r, n).coeffs) == repr(solved)


def test_pairing_with_coroots_is_cartan_shaped():
    n = 5
    for r in range(1, n):
        omega = fundamental_weight(r, n)
        for i in range(1, n):
            assert pairing(omega, i) == (1 if i == r else 0)


def random_weight(rng, rank):
    return weight(Fraction(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(rank))


def cartan_pairing(coeffs, j):
    """<chi, alpha_j^vee> as the row sum against the Cartan matrix."""
    a = cartan_matrix(len(coeffs))
    return sum((m * a[i][j - 1] for i, m in enumerate(coeffs)), Fraction(0))


def act_by_reflections(w, coeffs):
    """Reference action: s_i(chi) = chi - <chi, alpha_i^vee> alpha_i along
    a reduced word for w, the rightmost letter first."""
    for i in reversed(reduced_word(w)):
        p = cartan_pairing(coeffs, i)
        coeffs = tuple(m - p if k == i else m for k, m in enumerate(coeffs, start=1))
    return coeffs


@pytest.mark.parametrize("rank", range(1, 7))
def test_pairing_is_the_cartan_row_sum(rank):
    rng = random.Random(rank)
    for _ in range(5):
        chi = random_weight(rng, rank)
        for j in range(1, rank + 1):
            assert pairing(chi, j) == cartan_pairing(chi.coeffs, j)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_act_equals_the_reflection_word_product(n):
    rng = random.Random(n)
    for _ in range(3):
        chi = random_weight(rng, n - 1)
        for w in all_permutations(n):
            assert act(w, chi).coeffs == act_by_reflections(w, chi.coeffs)


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
