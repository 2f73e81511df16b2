"""Symmetric group basics: the group laws, words, descents, cosets, the two orders."""

import doctest
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
from hypothesis import given, settings
from hypothesis import strategies as st

from torusquot import weyl
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
        Permutation((1, 1))
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


@st.composite
def permutation_triples(draw):
    """Three permutations of one S_n, 1 <= n <= 7."""
    n = draw(st.integers(1, 7))
    perm = st.permutations(range(1, n + 1)).map(lambda images: Permutation(tuple(images)))
    return draw(perm), draw(perm), draw(perm)


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(triple=permutation_triples())
def test_permutation_group_laws(triple):
    u, v, w = triple
    e = identity(u.n)
    assert (u * v) * w == u * (v * w)
    assert e * u == u == u * e
    assert u * u.inverse() == e == u.inverse() * u
    assert all((u * v)(i) == u(v(i)) for i in range(1, u.n + 1))


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(triple=permutation_triples(), indices=st.sets(st.integers(1, 6)))
def test_unchecked_results_equal_their_validated_rebuilds(triple, indices):
    """Products, inverses, parabolic elements and the enumeration of S_n
    skip the constructor's check; each equals the permutation that the
    checked constructor builds from its images."""
    u, v, w = triple
    n = u.n
    built = [u * v, v * w * u, u.inverse(), (u * w).inverse()]
    built += parabolic_elements([i for i in indices if i < n], n)
    if n <= 5:
        built += all_permutations(n)
    for p in built:
        rebuilt = Permutation(tuple(p.images))
        assert rebuilt == p and hash(rebuilt) == hash(p)
        assert type(p.images) is tuple and p.n == n


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


def test_parabolic_elements_are_the_block_preserving_permutations_in_order():
    """The block-by-block product yields what filtering S_n for
    permutations that keep each I-connected block of positions yields,
    in the same order."""

    def keeps_blocks(w, I):
        for i in range(1, w.n + 1):
            lo = hi = i
            while lo - 1 in I:
                lo -= 1
            while hi in I:
                hi += 1
            if not lo <= w(i) <= hi:
                return False
        return True

    for n in range(1, 7):
        for k in range(n):
            for I in itertools.combinations(range(1, n), k):
                expected = [w for w in all_permutations(n) if keeps_blocks(w, I)]
                assert list(parabolic_elements(I, n)) == expected


@pytest.mark.parametrize("I", [(0,), (4,), (1, 5)])
def test_parabolic_elements_refuses_indices_outside_the_rank(I):
    with pytest.raises(ValueError, match="out of range for S_4"):
        list(parabolic_elements(I, 4))


def test_weyl_doctests_pass():
    result = doctest.testmod(weyl)
    assert (result.attempted, result.failed) == (4, 0)


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
