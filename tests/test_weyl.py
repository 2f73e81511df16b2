"""Symmetric group basics: words, descents, cosets, the two orders."""

import itertools

import pytest
from conftest import (
    bruhat_leq,
    bruhat_leq_classical,
    is_min_coset_rep,
    left_descents,
    length,
    min_coset_reps,
    reduced_word,
)

from torusquot.schubert import all_cells, grassmann_leq, to_permutation
from torusquot.weyl import (
    Permutation,
    all_permutations,
    from_word,
    identity,
    longest_element,
    parabolic_elements,
    simple_reflection,
)


def test_one_line_validation():
    with pytest.raises(ValueError):
        Permutation((1, 1, 3))
    with pytest.raises(ValueError):
        Permutation((0, 1, 2))


def test_simple_reflection_swaps_adjacent_values():
    s2 = simple_reflection(2, 4)
    assert s2.images == (1, 3, 2, 4)
    assert s2 * s2 == identity(4)


def test_composition_acts_right_factor_first():
    s1 = simple_reflection(1, 3)
    s2 = simple_reflection(2, 3)
    # (s1 s2)(1) = s1(s2(1)) = s1(1) = 2
    assert (s1 * s2)(1) == 2
    assert (s1 * s2).images == (2, 3, 1)
    assert (s2 * s1).images == (3, 1, 2)


def test_word_length_roundtrip():
    for n in (2, 3, 4):
        for w in all_permutations(n):
            word = reduced_word(w)
            assert from_word(word, n) == w
            assert len(word) == length(w)


def test_descents_track_length_drop():
    for w in all_permutations(4):
        for i in (1, 2, 3):
            s = simple_reflection(i, 4)
            assert (i in left_descents(w)) == (length(s * w) < length(w))


def test_longest_element_reverses():
    w0 = longest_element(range(1, 4), 4)
    assert w0.images == (4, 3, 2, 1)
    assert length(w0) == 6
    sub = longest_element([1, 2], 4)
    assert sub.images == (3, 2, 1, 4)


def test_min_coset_decomposition():
    """Every w factors uniquely as u v with u a minimal representative
    and v in W_I, and the lengths add."""
    n, I = 4, (1, 3)
    reps = list(min_coset_reps(I, n))
    assert all(is_min_coset_rep(u, I) for u in reps)
    factors = {u * v: (u, v) for u in reps for v in parabolic_elements(I, n)}
    assert len(factors) == len(reps) * len(list(parabolic_elements(I, n)))
    for w in all_permutations(n):
        u, v = factors[w]
        assert length(u) + length(v) == length(w)


@pytest.mark.parametrize("n,r", [(4, 2), (5, 2), (5, 3), (6, 3)])
def test_min_coset_reps_count_binomial(n, r):
    I = tuple(i for i in range(1, n) if i != r)
    reps = list(min_coset_reps(I, n))
    assert len(reps) == len(list(itertools.combinations(range(n), r)))
    assert len(set(reps)) == len(reps)


def test_parabolic_subgroup_order():
    assert len(list(parabolic_elements((1, 2), 4))) == 6
    assert len(list(parabolic_elements((), 4))) == 1


def test_two_orders_agree_on_grassmannian_quotients():
    """The length-additive order and the subword order coincide on
    minimal representatives for a maximal parabolic (but not on all of W),
    and with the componentwise cell order the main path uses, on every
    cell with n <= 6."""
    for n in range(2, 7):
        for r in range(1, n):
            cells = list(all_cells(n, r))
            perms = [to_permutation(g) for g in cells]
            I = tuple(i for i in range(1, n) if i != r)
            assert set(perms) == set(min_coset_reps(I, n))
            for g, u in zip(cells, perms):
                for h, w in zip(cells, perms):
                    assert bruhat_leq(u, w) == bruhat_leq_classical(u, w) == grassmann_leq(g, h)


def test_two_orders_differ_somewhere_on_s4():
    pairs = [
        (u, w)
        for u in all_permutations(4)
        for w in all_permutations(4)
        if bruhat_leq(u, w) != bruhat_leq_classical(u, w)
    ]
    assert pairs, "orders should differ away from the quotient"
