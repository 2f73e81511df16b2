"""Sampling Hilbert-Mumford oracle: certificates, verdicts, determinism.

The oracle is the independent side of every cross-check, so its own
internals get direct coverage: exact minors, support stabilization,
feasibility certificates re-verified by hand, and the subset-bump
closure test.
"""

from fractions import Fraction

from torusquot import schubert
from torusquot.oracle import (
    SAMPLE_BOUND,
    cell_semistable,
    cell_support,
    flag_cell_of,
    flag_point_semistable,
    hm_semistable,
    int_det,
    minor_support,
    reflection_preserves_closure,
    sample_cell_matrix,
    subset_leq,
    weight_image,
)
from torusquot.weyl import Permutation, simple_reflection


def test_int_det_integer_exact():
    assert int_det([[2, 1], [7, 4]]) == 1
    assert int_det([[1, 2, 3], [4, 5, 6], [7, 8, 9]]) == 0
    big = [[10**12, 1], [1, 10**12]]
    assert int_det(big) == 10**24 - 1


def test_sample_cell_matrix_lands_in_cell():
    import random

    g = schubert.GrassmannElement(5, 2, (2, 4))
    w = schubert.to_permutation(g)
    mat = sample_cell_matrix(w, 2, random.Random(3))
    assert len(mat) == 5 and len(mat[0]) == 2
    assert all(abs(e) <= SAMPLE_BOUND for row in mat for e in row)
    # pivot rows a_i + 1 = (3, 5) dominate every supported subset
    support = minor_support(mat, 5, 2)
    assert (3, 5) in support
    assert all(subset_leq(s, (3, 5)) for s in support)


def test_cell_support_deterministic_per_seed():
    g = schubert.GrassmannElement(6, 2, (2, 5))
    w = schubert.to_permutation(g)
    one = cell_support(w, 2, seed=5)
    two = cell_support(w, 2, seed=5)
    assert one == two
    assert one.conclusive


def test_hm_certificate_combination_re_verifies():
    g = schubert.GrassmannElement(5, 2, (2, 4))
    verdict, rep, cert = cell_semistable(schubert.to_permutation(g), 2, seed=0)
    assert verdict == "semistable"
    assert cert.semistable and cert.combination
    total = [Fraction(0)] * 5
    mass = Fraction(0)
    for sub, coef in cert.combination.items():
        assert coef > 0 and sub in rep.support
        mass += coef
        for i in sub:
            total[i - 1] += coef
    assert mass == 1
    assert total == [Fraction(2, 5)] * 5  # barycenter hit exactly


def test_hm_certificate_separator_re_verifies():
    g = schubert.GrassmannElement(5, 2, (1, 4))
    verdict, rep, cert = cell_semistable(schubert.to_permutation(g), 2, seed=0)
    assert verdict == "unstable"
    y = cert.separator
    assert y is not None
    for sub in rep.support:
        assert sum(y[i - 1] for i in sub) + y[5] <= 0
    assert Fraction(2, 5) * sum(y[:5]) + y[5] > 0


def test_hm_on_handmade_supports():
    # full support of a generic point: semistable
    full = frozenset(
        frozenset(s) for s in [(1, 2), (1, 3), (2, 3)]
    )
    assert hm_semistable(full, 3, 2).semistable
    # all subsets through a common column: barycenter unreachable
    pinned = frozenset(frozenset(s) for s in [(1, 2), (1, 3)])
    assert not hm_semistable(pinned, 3, 2).semistable


def test_three_seed_consensus_matches_gateway_n5():
    for g in schubert.all_cells(5, 2):
        w = schubert.to_permutation(g)
        verdicts = {cell_semistable(w, 2, seed=s)[0] for s in (0, 1, 2)}
        assert len(verdicts) == 1
        expected = "semistable" if schubert.has_semistable(g) else "unstable"
        assert verdicts == {expected}


def test_subset_bump_closure():
    top = (3, 5)
    # bumping (3,5) itself at k = 3 gives (4,5), which escapes
    assert [k for k in range(1, 5) if reflection_preserves_closure(top, k, 5)] == [1, 2, 4]


def test_weight_image_signs():
    w = Permutation((2, 3, 1))
    img = weight_image(w, [Fraction(1), Fraction(2)])
    assert len(img) == 2
    s1 = simple_reflection(1, 3)
    assert weight_image(s1, [Fraction(1), Fraction(2)]) != img


def test_flag_cell_of_identifies_pivots():
    mat = [
        [Fraction(0), Fraction(1), Fraction(0)],
        [Fraction(1), Fraction(2), Fraction(0)],
        [Fraction(0), Fraction(0), Fraction(1)],
    ]
    w = flag_cell_of(mat)
    assert w.images == (2, 1, 3)


def test_flag_point_semistable_generic_vs_degenerate():
    generic = [
        [Fraction(1), Fraction(1), Fraction(1)],
        [Fraction(1), Fraction(2), Fraction(4)],
        [Fraction(1), Fraction(3), Fraction(9)],
    ]
    coeffs = [Fraction(1), Fraction(2)]
    assert flag_point_semistable(generic, coeffs)
    degenerate = [
        [Fraction(1), Fraction(0), Fraction(0)],
        [Fraction(0), Fraction(1), Fraction(0)],
        [Fraction(0), Fraction(0), Fraction(1)],
    ]
    assert not flag_point_semistable(degenerate, coeffs)
