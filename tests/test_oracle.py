"""Hilbert-Mumford oracle: supports, certificates, verdicts.

The oracle is the independent side of every cross-check, so its own
internals get direct coverage: the generic support read off a cell's
zero pattern against a second derivation, the Gale-order ideal under the
cell's column set, and against the supports of sampled points (equal at
large coordinates, inside it always, strictly inside at coordinates in
{-1, 1}); the Laplace-expanded minors against determinants; the refusal
of a rank outside 0..n, of a support that is no set of r-subsets of
1..n, of a closure swap or top outside 1..n or with a repeated entry,
and of a flag entry or coefficient that is no int or ``Fraction``; the
zero pattern read off w^{-1} against the inversion positions; the rank
table and the rank families against max |B & S|, one set of rank
families per distinct support, the families' threshold reading against
the rank table's count reading (and a floored threshold that must
differ); Grassmannian verdicts against the rational phase-1 simplex they
replaced (its combination re-verified by hand for a semistable verdict,
the separator's rank inequality for an unstable one) and against
Edmonds' rank criterion, verdict and separator against a brute-force
scan of the row sets; the subset-bump closure test on one family integer
against the sorting reference, its dominated family against the Gale
ideal, and a bump shifted one row too far, which must disagree; the flag
rank inequalities against the N! row-permutation enumeration they
replaced; and the pivot sets of permuted generic points, read off the
generic support, against the column echelons of permuted sampled points.
"""

import ast
import itertools
import math
import operator
import os
import random
import subprocess
import sys
from fractions import Fraction
from functools import cache
from pathlib import Path

import pytest
from conftest import (
    flag_cell_of,
    has_semistable,
    int_det,
    inversion_positions,
    minor_support,
    reference_flag_point_semistable,
    subset_leq,
    weight_image,
)
from hypothesis import example, given, settings
from hypothesis import strategies as st

from torusquot import oracle, schubert
from torusquot.linalg import column_echelon
from torusquot.oracle import (
    cell_semistable,
    cell_support,
    flag_point_semistable,
    generic_pivot_sets,
    hm_semistable,
    reflection_preserves_closure,
)
from torusquot.weyl import Permutation, all_permutations, simple_reflection


def reference_sample_cell_matrix(w, r, rng, bound=10**6):
    """n x r integer matrix spanning a random point of the cell of w: the
    first r columns of u w, u unipotent upper triangular with a nonzero
    coordinate in [-bound, bound] at each inversion position of w^{-1}."""
    n = w.n
    u = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for i, j in inversion_positions(w):
        x = 0
        while x == 0:
            x = rng.randint(-bound, bound)
        u[i - 1][j - 1] = x
    return [[u[i][w(k) - 1] for k in range(1, r + 1)] for i in range(n)]


def reference_minor_support(mat, n, r):
    """Row subsets whose r x r minor `int_det` finds nonzero."""
    return frozenset(
        tuple(i + 1 for i in rows)
        for rows in itertools.combinations(range(n), r)
        if int_det([mat[i] for i in rows]) != 0
    )


def reference_sweep_level(mat, n, c):
    """The nonzero c x c minors of the first c columns, by `int_det`,
    keyed by row bitmask."""
    level = {}
    for rows in itertools.combinations(range(n), c):
        minor = int_det([mat[i][:c] for i in rows])
        if minor:
            level[sum(1 << i for i in rows)] = minor
    return level


def recording_sweep(monkeypatch):
    """Patch `oracle._minor_sweep` to record the sparse columns of each
    call; return that list."""
    calls = []
    sweep = oracle._minor_sweep

    def record(columns):
        calls.append(columns)
        return sweep(columns)

    monkeypatch.setattr(oracle, "_minor_sweep", record)
    return calls


def densify(columns, n, r):
    """The n x r matrix whose sparse columns these are."""
    mat = [[0] * r for _ in range(n)]
    for c, column in enumerate(columns):
        for i, x in column:
            mat[i][c] = x
    return mat


def reference_preserves_closure(top, k, n):
    """The closure test that sorted both sides of every comparison."""
    for sub in itertools.combinations(range(1, n + 1), len(top)):
        if subset_leq(sub, top) and k in sub and k + 1 not in sub:
            bumped = tuple(sorted(set(sub) - {k} | {k + 1}))
            if not subset_leq(bumped, top):
                return False
    return True


def cells(n):
    """(w, r) for every cell of Gr(r, n), 1 <= r <= n - 1, built from its
    column set, so nothing outside `oracle` is used."""
    for r in range(1, n):
        for head in itertools.combinations(range(1, n + 1), r):
            tail = tuple(i for i in range(1, n + 1) if i not in head)
            yield oracle.Permutation(head + tail), r


def reference_feasible_combination(columns, b):
    """The phase-1 simplex over `Fraction`s, Bland's rule: the reference
    for the oracle's Grassmannian verdicts.  Entries must be `Fraction`s."""
    m = len(b)
    k = len(columns)
    rows = [[columns[j][i] for j in range(k)] for i in range(m)]
    for i in range(m):
        if b[i] < 0:
            rows[i] = [-v for v in rows[i]]
            b = b[:i] + [-b[i]] + b[i + 1 :]
    # tableau: original columns, artificial identity, rhs
    t = [rows[i] + [Fraction(int(i == p)) for p in range(m)] + [b[i]] for i in range(m)]
    basis = [k + i for i in range(m)]
    # reduced costs for phase-1 objective (sum of artificials, basis cost 1)
    z = [Fraction(0)] * (k + m)
    for j in range(k + m):
        z[j] = Fraction(int(j >= k)) - sum(t[i][j] for i in range(m))
    while True:
        enter = next((j for j in range(k + m) if z[j] < 0), None)
        if enter is None:
            break
        leave, best = None, None
        for i in range(m):
            if t[i][enter] > 0:
                ratio = t[i][-1] / t[i][enter]
                if best is None or ratio < best or (
                    ratio == best and basis[i] < basis[leave]
                ):
                    leave, best = i, ratio
        if leave is None:
            raise ArithmeticError("phase-1 objective unbounded")  # impossible
        piv = t[leave][enter]
        t[leave] = [v / piv for v in t[leave]]
        for i in range(m):
            if i != leave and t[i][enter] != 0:
                f = t[i][enter]
                t[i] = [v - f * w for v, w in zip(t[i], t[leave])]
        f = z[enter]
        z = [v - f * w for v, w in zip(z, t[leave][: k + m])]
        basis[leave] = enter
    objective = sum(t[i][-1] for i in range(m) if basis[i] >= k)
    if objective == 0:
        x = [Fraction(0)] * k
        for i in range(m):
            if basis[i] < k:
                x[basis[i]] = t[i][-1]
        return True, x
    # infeasible: read the separating vector off the artificial columns
    y = [Fraction(1) - z[k + i] for i in range(m)]
    return False, y


def reference_combination(support, n, r):
    """The convex combination of the support's indicator vectors that the
    rational simplex finds for the barycenter (r/n, ..., r/n), or None if
    it finds the barycenter outside their hull."""
    subs = sorted(support)
    cols = [
        [Fraction(int(i in sub)) for i in range(1, n + 1)] + [Fraction(1)]
        for sub in subs
    ]
    ok, vec = reference_feasible_combination(cols, [Fraction(r, n)] * n + [Fraction(1)])
    return {sub: c for sub, c in zip(subs, vec) if c != 0} if ok else None


@cache
def cell_supports(n):
    """(r, support) for the generic support of every cell of Gr(r, n)."""
    return tuple((r, cell_support(w, r)) for w, r in cells(n))


def reverify(cert, support, n, r):
    """The verdict checked by hand.  Semistable: no separator, and the
    rational simplex's combination hits the barycenter, in `Fraction`
    arithmetic.  Unstable: the separator is a sorted nonempty row set S
    with n max |B & S| < r |S| over the support."""
    if cert.semistable:
        assert cert.separator is None
        combination = reference_combination(support, n, r)
        assert combination is not None
        assert all(c > 0 and sub in support for sub, c in combination.items())
        assert sum(combination.values()) == 1
        for i in range(1, n + 1):
            mass = sum(c for sub, c in combination.items() if i in sub)
            assert mass == Fraction(r, n)
    else:
        rows = set(cert.separator)
        assert rows <= set(range(1, n + 1)) and cert.separator == tuple(sorted(rows))
        rank = max((len(rows.intersection(sub)) for sub in support), default=0)
        assert n * rank < r * len(rows)


def test_int_det_integer_exact():
    assert int_det([[2, 1], [7, 4]]) == 1
    assert int_det([[1, 2, 3], [4, 5, 6], [7, 8, 9]]) == 0
    big = [[10**12, 1], [1, 10**12]]
    assert int_det(big) == 10**24 - 1


def test_sample_cell_matrix_lands_in_cell():
    g = schubert.GrassmannElement(5, 2, (2, 4))
    w = schubert.to_permutation(g)
    mat = reference_sample_cell_matrix(w, 2, random.Random(3))
    assert len(mat) == 5 and len(mat[0]) == 2
    # pivot rows a_i + 1 = (3, 5) dominate every supported subset
    support = minor_support(mat, 5, 2)
    assert (3, 5) in support
    assert all(subset_leq(s, (3, 5)) for s in support)


def gale_ideal(head, n):
    """The r-subsets I of 1..n with i_k <= head_k for every k: the
    Pluecker coordinates that can be nonzero on the closure of the cell
    with column set `head`, listed by itertools.combinations."""
    return frozenset(
        sub for sub in itertools.combinations(range(1, n + 1), len(head))
        if all(i <= t for i, t in zip(sub, head))
    )


def test_cell_support_is_the_gale_ideal_n_up_to_10():
    """Structural rank over the zero pattern and the Bruhat order on
    column sets are two derivations of one set: a generic point of a cell
    has every Pluecker coordinate that its closure allows."""
    checked = 0
    for n in range(2, 11):
        for w, r in cells(n):
            expected = gale_ideal(w.images[:r], n)
            got = cell_support(w, r)
            # the repr pins the iteration order too
            assert got == expected and repr(got) == repr(expected), (w, r)
            checked += 1
    assert checked == 2026


SAMPLED_CELLS = [(w, r, seed) for n in range(2, 9) for w, r in cells(n) for seed in range(3)]


def test_sampled_supports_lie_inside_the_structural_support_n_up_to_8():
    """Every minor of a sampled point is the minor polynomial at that
    point, so a sampled support lies inside the generic one; with
    coordinates up to 10**6 none of seeds 0-2 lands on a vanishing locus
    at n <= 8, and with coordinates in {-1, 1} some point loses a minor
    by cancellation, so the inclusion is tested where it is strict."""
    assert len(SAMPLED_CELLS) == 1482
    strict = 0
    for w, r, seed in SAMPLED_CELLS:
        generic = cell_support(w, r)
        wide = reference_sample_cell_matrix(w, r, random.Random(seed))
        assert minor_support(wide, w.n, r) == generic, (w, r, seed)
        narrow = reference_sample_cell_matrix(w, r, random.Random(seed), bound=1)
        sampled = minor_support(narrow, w.n, r)
        assert sampled <= generic, (w, r, seed)
        strict += sampled != generic
    assert strict > 0


def test_a_rank_outside_0_to_n_is_refused_before_any_draw():
    cell = schubert.to_permutation(schubert.GrassmannElement(5, 2, (2, 4)))
    for r in (-1, 6):
        with pytest.raises(ValueError, match=f"rank r = {r} is outside 0..n = 5"):
            cell_support(cell, r)
        with pytest.raises(ValueError, match=f"rank r = {r} is outside 0..n = 5"):
            cell_semistable(cell, r)
        with pytest.raises(ValueError, match=f"rank r = {r} is outside 0..n = 5"):
            list(generic_pivot_sets(cell, r, []))
    # ranks 0 and n: one empty minor, and the determinant of a cell point
    assert cell_support(cell, 0) == frozenset({()})
    assert cell_support(cell, 5) == frozenset({(1, 2, 3, 4, 5)})


def test_generic_pivot_sets_are_the_echelon_pivots_of_sampled_points():
    """With coordinates up to 10^6 a sampled point is generic for these
    small cells, so the column echelon of its rows under each permutation
    has the exact pivot set: every row permutation, on every cell of
    every rank with n <= 5 and every semistable rank-2 cell with n = 6."""
    rng, compared = random.Random(0), 0
    for n in range(2, 7):
        for w, r in cells(n):
            if n == 6 and (r != 2 or cell_semistable(w, r)[0] != "semistable"):
                continue
            mat = reference_sample_cell_matrix(w, r, rng)
            sigmas = list(all_permutations(n))
            for sigma, exact in zip(sigmas, generic_pivot_sets(w, r, sigmas)):
                permuted = [mat[sigma.inverse()(i + 1) - 1] for i in range(n)]
                assert exact == frozenset(column_echelon(permuted)[0]), (w, r, sigma)
                compared += 1
    assert compared == 2 * 2 + 6 * 6 + 24 * 14 + 120 * 30 + 720 * 3  # cells times n!


def test_generic_pivot_sets_refuse_a_permutation_on_other_than_n_letters():
    cell = schubert.to_permutation(schubert.GrassmannElement(5, 2, (2, 4)))
    with pytest.raises(ValueError, match="is not on n = 5 letters"):
        list(generic_pivot_sets(cell, 2, [Permutation((2, 1, 3, 4, 5, 6))]))


def test_minor_support_matches_determinants_on_sampled_cells_n_up_to_8():
    """Every sweep key holds the r x r determinant of its rows, and a key
    is there exactly when that determinant is nonzero."""
    for w, r, seed in SAMPLED_CELLS:
        mat = reference_sample_cell_matrix(w, r, random.Random(seed))
        level = reference_sweep_level(mat, w.n, r)
        assert oracle._minor_sweep(oracle._columns(mat, w.n, r))[r] == level, (w, r, seed)
        got, expected = minor_support(mat, w.n, r), reference_minor_support(mat, w.n, r)
        # the repr pins the iteration order too
        assert got == expected and repr(got) == repr(expected), (w, r, seed)


def test_a_key_stays_while_its_minor_is_nonzero():
    # the 2 x 2 minor on rows 1, 2 vanishes, its terms cancelling
    cancelling = [[1, 2], [2, 4], [0, 1]]
    sweep = oracle._minor_sweep(oracle._columns(cancelling, 3, 2))
    assert sweep == [reference_sweep_level(cancelling, 3, c) for c in range(3)]
    assert sweep[2] == {0b101: 1, 0b110: 2}
    # the sparse columns list the nonzero entries only, rows in order
    assert oracle._columns([[1, 0], [3, 0], [5, 6]], 3, 2) == [[(0, 1), (1, 3), (2, 5)], [(2, 6)]]


def test_each_sweep_takes_one_integer_matrix(monkeypatch):
    calls = recording_sweep(monkeypatch)
    mat = [[1, 2], [2, 4], [1, -1]]
    assert minor_support(mat, 3, 2) == reference_minor_support(mat, 3, 2) == frozenset({(1, 3), (2, 3)})
    assert [densify(columns, 3, 2) for columns in calls] == [mat]
    # a flag point with denominators: each column is cleared by the lcm of
    # its own, which scales each prefix minor by a nonzero integer
    point = [
        [Fraction(1, 2), Fraction(1, 3), Fraction(0)],
        [Fraction(1), Fraction(2, 3), Fraction(3, 4)],
        [Fraction(0), Fraction(1), Fraction(5, 2)],
    ]
    for chi in ([Fraction(1), Fraction(2)], [Fraction(2), Fraction(1)], [Fraction(-1, 3), Fraction(1)]):
        calls.clear()
        assert flag_point_semistable(point, chi) == reference_flag_point_semistable(point, chi)
        (columns,) = calls
        assert densify(columns, 3, 3) == [[1, 1, 0], [2, 2, 3], [0, 3, 10]]
        assert all(type(x) is int for column in columns for entry in column for x in entry)


@st.composite
def sparse_matrices(draw):
    """(mat, n, r): n <= 7 rows, 1 <= r <= n columns, mostly zero entries,
    with whole zero rows and columns forced in now and then, and now and
    then a row that is a multiple of another, so that minors also vanish
    by cancellation of nonzero terms."""
    n = draw(st.integers(1, 7))
    r = draw(st.sampled_from(sorted({1, n, draw(st.integers(1, n))})))
    entry = st.one_of(st.just(0), st.just(0), st.integers(-3, 3))
    mat = draw(st.lists(st.lists(entry, min_size=r, max_size=r), min_size=n, max_size=n))
    for i, j, f in draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1),
                                           st.sampled_from([-2, -1, 2, 3])), max_size=1)):
        mat[j] = [f * v for v in mat[i]]
    for i in draw(st.sets(st.integers(0, n - 1), max_size=2)):
        mat[i] = [0] * r
    for c in draw(st.sets(st.integers(0, r - 1), max_size=1)):
        for row in mat:
            row[c] = 0
    return mat, n, r


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(case=sparse_matrices())
@example(case=([[0]], 1, 1))
@example(case=([[1, 2], [3, 4]], 2, 2))
# the determinant vanishes, the permanent does not
@example(case=([[1, 2], [2, 4], [1, -1]], 3, 2))
def test_minor_support_matches_determinants_on_sparse_matrices(case):
    mat, n, r = case
    assert minor_support(mat, n, r) == reference_minor_support(mat, n, r)


def test_minor_support_refuses_a_matrix_of_the_wrong_shape():
    for mat in ([[1, 0], [0, 1]], [[1, 0], [0, 1], [1]]):
        with pytest.raises(ValueError, match="3 x 2"):
            minor_support(mat, 3, 2)


def test_one_rank_table_per_distinct_support(monkeypatch):
    """The Grassmannian test reads its ranks off one set of rank
    families per distinct support."""
    calls = []
    rank_families = oracle._rank_families

    def counting(bases, n):
        calls.append(len(bases))
        return rank_families(bases, n)

    monkeypatch.setattr(oracle, "_rank_families", counting)
    hm_semistable.cache_clear()
    w = schubert.to_permutation(schubert.GrassmannElement(6, 3, (2, 3, 5)))
    runs = [cell_semistable(w, 3, seed=s) for s in (0, 1, 2)]
    assert len({rep.support for _, rep, _ in runs}) == 1
    assert len(calls) == 1
    certs = [cert for _, _, cert in runs]
    assert certs[0] == certs[1] == certs[2]
    assert hm_semistable.cache_info().hits == 2


def test_cell_support_deterministic_per_seed():
    """The verdict reads no random point, so every seed gives one report."""
    w = schubert.to_permutation(schubert.GrassmannElement(6, 2, (2, 5)))
    assert cell_support(w, 2) == cell_support(w, 2)
    one, two = cell_semistable(w, 2, seed=5), cell_semistable(w, 2, seed=6)
    assert one == two
    assert one[1].support == cell_support(w, 2)


def test_a_gr_7_11_cell_has_292_nonzero_minors():
    """Sampled with coordinates in [-50, 50], a point of this cell of
    Gr(7, 11) loses some of these minors in about one draw of thirty,
    often enough that a rule of three agreeing draws once left the cell
    undecided; its generic support is read off the zero pattern, with no
    draw."""
    g = schubert.GrassmannElement(11, 7, (1, 4, 6, 7, 8, 9, 10))
    _, rep, cert = cell_semistable(schubert.to_permutation(g), 7)
    assert len(rep.support) == 292
    assert (rep.draws, rep.resampled, rep.conclusive) == ((), False, True)
    assert cert == hm_semistable(rep.support, 11, 7)


def test_hm_certificate_combination_re_verifies():
    g = schubert.GrassmannElement(5, 2, (2, 4))
    verdict, rep, cert = cell_semistable(schubert.to_permutation(g), 2, seed=0)
    assert verdict == "semistable"
    assert cert.semistable and cert.separator is None
    reverify(cert, rep.support, 5, 2)  # barycenter hit exactly


def test_hm_certificate_separator_re_verifies():
    g = schubert.GrassmannElement(5, 2, (1, 4))
    verdict, rep, cert = cell_semistable(schubert.to_permutation(g), 2, seed=0)
    assert verdict == "unstable"
    assert cert.separator is not None
    reverify(cert, rep.support, 5, 2)


def test_hm_on_handmade_supports():
    # full support of a generic point: semistable
    full = frozenset([(1, 2), (1, 3), (2, 3)])
    assert hm_semistable(full, 3, 2).semistable
    # all subsets through a common column: barycenter unreachable
    pinned = frozenset([(1, 2), (1, 3)])
    assert not hm_semistable(pinned, 3, 2).semistable


@pytest.mark.parametrize("support, n, r, message", [
    # no nonzero Pluecker coordinate: no point of Gr(r, n) has it
    (frozenset(), 3, 2, "empty support"),
    # a row past n, which a bitmask family would drop without a word
    (frozenset({(1, 9)}), 4, 2, "subset \\(1, 9\\) is not 2 increasing entries of 1..4"),
    (frozenset({(1, 2, 3)}), 4, 2, "subset \\(1, 2, 3\\) is not 2 increasing"),
    (frozenset({(1, 2), (2, 1)}), 4, 2, "subset \\(2, 1\\) is not 2 increasing"),
    (frozenset({(1, 2), (3, 3)}), 4, 2, "subset \\(3, 3\\) is not 2 increasing"),
    (frozenset({(0, 2)}), 4, 2, "subset \\(0, 2\\) is not 2 increasing"),
    (frozenset({frozenset({1, 2})}), 4, 2, "is not 2 increasing"),  # not a tuple
    (frozenset({(1, 2)}), 1, 2, "rank r = 2 is outside 0..n = 1"),
])
def test_hm_refuses_a_support_that_is_no_set_of_r_subsets_of_1_to_n(support, n, r, message):
    with pytest.raises(ValueError, match=message):
        hm_semistable(support, n, r)


def test_a_separator_that_fails_re_verification_raises_under_python_O():
    """Rows {1, 2} of the full support at n = 3, r = 2 hold their
    inequality (rank 2), so rank families that leave them out of F_2, and
    so name them as the least violated row set, are caught, also in an
    interpreter that strips `assert` statements."""
    script = (
        "import sys\n"
        "from torusquot import oracle\n"
        "if not sys.flags.optimize:\n"
        "    sys.exit('not optimized')\n"
        "families = oracle._rank_families\n"
        "def dropped(bases, n):\n"
        "    found = families(bases, n)\n"
        "    found[2] &= ~(1 << 0b011)\n"
        "    return found\n"
        "oracle._rank_families = dropped\n"
        "oracle.hm_semistable(frozenset({(1, 2), (1, 3), (2, 3)}), 3, 2)\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-B", "-O", "-c", script], capture_output=True,
                          text=True, env=env)
    assert proc.returncode == 1
    assert proc.stderr.strip().endswith("ArithmeticError: separator failed re-verification")


def test_three_seed_consensus_matches_gateway_n5():
    for g in schubert.all_cells(5, 2):
        w = schubert.to_permutation(g)
        verdicts = {cell_semistable(w, 2, seed=s)[0] for s in (0, 1, 2)}
        assert len(verdicts) == 1
        expected = "semistable" if has_semistable(g) else "unstable"
        assert verdicts == {expected}


def test_subset_bump_closure():
    top = (3, 5)
    # bumping (3,5) itself at k = 3 gives (4,5), which escapes
    assert [k for k in range(1, 5) if reflection_preserves_closure(top, k, 5)] == [1, 2, 4]


def test_closure_test_matches_the_sorting_reference_n_up_to_9():
    """Every top, n and k in order, then 40 seeded tops at each n = 10..13
    with every k, then every top, n and k up to 9 shuffled, so that the
    memo of the last top never answers for another top or n.  The
    shuffled tops also reach n + 1, and k reaches 0 and n, outside the
    cell's range, and those are refused."""
    ordered = [
        (head, k, n)
        for n in range(2, 10)
        for r in range(1, n)
        for head in itertools.combinations(range(1, n + 1), r)
        for k in range(1, n)
    ]
    rng = random.Random(13)
    sampled = [
        (head, k, n)
        for n in range(10, 14)
        for _ in range(40)
        for head in [tuple(sorted(rng.sample(range(1, n + 1), rng.randint(1, n - 1))))]
        for k in range(1, n)
    ]
    wide = [
        (head, k, n)
        for n in range(2, 10)
        for r in range(1, n + 1)
        for head in itertools.combinations(range(1, n + 2), r)
        for k in range(0, n + 1)
    ]
    for head, k, n in ordered + sampled + random.Random(0).sample(wide, len(wide)):
        if not 1 <= k <= n - 1 or head[-1] > n:
            for top in (head, frozenset(head)):
                with pytest.raises(ValueError, match="outside 1..n"):
                    reflection_preserves_closure(top, k, n)
            continue
        expected = reference_preserves_closure(head, k, n)
        assert reflection_preserves_closure(head, k, n) == expected, (head, k, n)
        assert reflection_preserves_closure(frozenset(head), k, n) == expected, (head, k, n)


@pytest.mark.parametrize("top, k, n, message", [
    ((2, 4), 0, 4, "swap index k = 0 is outside 1..n-1 = 1..3"),
    ((2, 4), 4, 4, "swap index k = 4 is outside 1..n-1 = 1..3"),
    ((2, 4), 9, 4, "swap index k = 9 is outside 1..n-1 = 1..3"),
    ((1, 9), 1, 4, "top \\(1, 9\\) has an entry outside 1..n = 1..4"),
    (frozenset({0, 2}), 1, 4, "top \\(0, 2\\) has an entry outside 1..n = 1..4"),
    # a top with a repeated entry is no subset of 1..n
    ((2, 2), 1, 4, "top \\(2, 2\\) has a repeated entry"),
    ((3, 2, 3), 1, 5, "top \\(2, 3, 3\\) has a repeated entry"),
])
def test_closure_test_refuses_a_swap_or_top_outside_1_to_n(top, k, n, message):
    with pytest.raises(ValueError, match=message):
        reflection_preserves_closure(top, k, n)


def test_dominated_family_is_the_gale_ideal_bit_for_bit_n_up_to_8():
    """Bit m of the family is set exactly for the bitmask m of a subset
    in the Gale ideal under the top, the empty top included."""
    for n in range(1, 9):
        for r in range(0, n + 1):
            for head in itertools.combinations(range(1, n + 1), r):
                expected = sum(1 << sum(1 << i for i in sub) for sub in gale_ideal(head, n))
                assert oracle._dominated_family(head) == expected, (head, n)


def family_breakers(top, n, shift):
    """``oracle._closure_breakers`` with the bump of k a shift of the
    family by 2^shift(k)."""
    lacking, _ = oracle._row_families(n + 1)
    dominated = oracle._dominated_family(top)
    return frozenset(
        k for k in range(1, n)
        if ((dominated & ~lacking[k] & lacking[k + 1]) << (1 << shift(k))) & ~dominated
    )


def test_a_bump_shifted_one_row_too_far_disagrees_with_the_reference():
    """Negative control for the closure comparison: the family test as
    written agrees with the oracle, and with each bump a shift by
    2^(k+1) in place of 2^k it disagrees with the sorting reference."""
    disagreements = 0
    for n in range(2, 8):
        for r in range(1, n):
            for head in itertools.combinations(range(1, n + 1), r):
                expected = {k for k in range(1, n) if not reference_preserves_closure(head, k, n)}
                assert family_breakers(head, n, lambda k: k) == expected
                assert oracle._closure_breakers(head, n) == expected
                disagreements += family_breakers(head, n, lambda k: k + 1) != expected
    assert disagreements > 0


def test_layout_is_the_inversion_position_construction_n_up_to_9():
    """Each column's rows read off w^{-1} are the rows i with (i, pivot)
    an inversion position of w^{-1}, in increasing order, then the
    pivot: for every cell of every rank 0..n with n <= 9, and for every
    permutation, not only the minimal ones, with n <= 6."""

    def reference_layout(w, r):
        column = {j: c for c, j in enumerate(w.images[:r])}  # pivot row -> column
        layout = [[] for _ in range(r)]
        for i, j in inversion_positions(w):
            if j in column:
                layout[column[j]].append(i - 1)
        for j, c in column.items():
            layout[c].append(j - 1)
        return layout

    grassmannian = [
        (oracle.Permutation(head + tuple(i for i in range(1, n + 1) if i not in head)), r)
        for n in range(1, 10)
        for r in range(0, n + 1)
        for head in itertools.combinations(range(1, n + 1), r)
    ]
    everything = [(w, r) for n in range(1, 7) for w in all_permutations(n) for r in range(0, n + 1)]
    assert len(grassmannian) == 2 ** 10 - 2
    for w, r in grassmannian + everything:
        assert oracle._layout(w, r) == reference_layout(w, r), (w, r)


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


def _flag_point(w, rng, zeroed):
    """A point u w of the flag cell of w, with small entries of u on the
    inversion positions; each is 0 with probability `zeroed`."""
    n = w.n
    u = [[int(i == j) for j in range(n)] for i in range(n)]
    for i, j in inversion_positions(w):
        u[i - 1][j - 1] = 0 if rng.random() < zeroed else rng.choice([-3, -2, -1, 1, 2, 3])
    return [[Fraction(u[i][w(k) - 1]) for k in range(1, n + 1)] for i in range(n)]


def _characters(rng, n):
    """Simple-root coefficients of an increasing, a dominant and a
    mixed-sign character of the rank n - 1 torus."""
    dominant = [rng.randint(0, 3) for _ in range(n - 1)]  # c_k = <chi, alpha_k>
    return {
        "increasing": sorted(rng.sample(range(1, 3 * n), n - 1)),
        "dominant": [
            sum(Fraction(min(k, j) * (n - max(k, j)), n) * c for k, c in enumerate(dominant, 1))
            for j in range(1, n)
        ],
        "mixed": [rng.randint(-3, 3) for _ in range(n - 1)],
    }


def test_flag_rank_inequalities_match_the_permutation_enumeration():
    """Every cell of S_N for N = 2..5, at a generic point and at one with
    coordinates zeroed, and seeded top cells at N = 6, under increasing,
    dominant and mixed-sign characters: the rank test gives the
    enumeration's verdict."""
    rng = random.Random(5)
    points = [
        _flag_point(w, rng, zeroed)
        for n in range(2, 6)
        for w in all_permutations(n)
        for zeroed in (0.0, 0.4)
    ]
    points += [_flag_point(Permutation((6, 5, 4, 3, 2, 1)), rng, 0.0) for _ in range(2)]
    verdicts = set()
    for mat in points:
        for kind, chi in _characters(rng, len(mat)).items():
            expected = reference_flag_point_semistable(mat, chi)
            assert flag_point_semistable(mat, chi) == expected, (mat, chi)
            verdicts.add((kind, expected))
    # both verdicts occur for every kind of character
    assert len(verdicts) == 6


def test_flag_point_semistable_refusals():
    identity = [[Fraction(int(i == j)) for j in range(3)] for i in range(3)]
    with pytest.raises(ValueError, match="coefficient count must be rank = n - 1"):
        flag_point_semistable(identity, [Fraction(1)])
    singular = [[Fraction(1), Fraction(2), Fraction(0)],
                [Fraction(2), Fraction(4), Fraction(0)],
                [Fraction(0), Fraction(0), Fraction(1)]]
    with pytest.raises(ValueError, match="singular matrix has no flag cell"):
        flag_point_semistable(singular, [Fraction(1), Fraction(2)])


_VANDERMONDE = [[Fraction(i ** j) for j in range(3)] for i in range(1, 4)]


@pytest.mark.parametrize("mat, coeffs, kind", [
    # a float has no exact denominator to scale its column by
    ([[1.0, 0, 0], [0, 1, 0], [0, 0, 1]], [Fraction(1), Fraction(2)], "float"),
    # a float coefficient is a binary approximation, not an exact rational
    (_VANDERMONDE, [1.5, Fraction(2)], "float"),
    (_VANDERMONDE, [Fraction(1), "2"], "str"),
])
def test_flag_point_semistable_refuses_inexact_input(mat, coeffs, kind):
    with pytest.raises(TypeError, match=f"expected an int or a Fraction, got {kind}"):
        flag_point_semistable(mat, coeffs)


def test_int_input_and_unlike_denominators_give_the_enumeration_verdict():
    """Every cell of S_N for N = 2..5 at a point with coordinates zeroed,
    once with int entries and int coefficients, once with ``Fraction``
    entries and coefficients of unlike denominators, so that the c_k
    have unlike denominators too: the verdict is the enumeration's."""
    rng = random.Random(11)
    verdicts = set()
    for n in range(2, 6):
        for w in all_permutations(n):
            point = _flag_point(w, rng, 0.3)
            ints = [[int(x) for x in row] for row in point]
            fractions = [[x / rng.choice((1, 2, 3, 4, 6)) for x in row] for row in point]
            for mat, coeffs in (
                (ints, [rng.randint(-3, 3) for _ in range(n - 1)]),
                (fractions, [Fraction(rng.randint(-9, 9), rng.choice((1, 2, 3, 5)))
                             for _ in range(n - 1)]),
            ):
                expected = reference_flag_point_semistable(
                    [[Fraction(x) for x in row] for row in mat], [Fraction(c) for c in coeffs]
                )
                assert flag_point_semistable(mat, coeffs) == expected, (mat, coeffs)
                verdicts.add(expected)
    assert verdicts == {True, False}


def test_verdicts_equal_the_rational_reference_n4_to_7():
    for n in range(4, 8):
        for r, support in cell_supports(n):
            expected = reference_combination(support, n, r) is not None
            assert hm_semistable(support, n, r).semistable == expected, (n, r, sorted(support))


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(case=st.integers(0, 7).flatmap(
    lambda n: st.tuples(st.just(n), st.lists(st.integers(0, (1 << n) - 1), max_size=10))
))
# no bases; bases of three sizes; a basis inside another
@example(case=(3, []))
@example(case=(4, [0b0001, 0b0110, 0b1011]))
@example(case=(5, [0b00110, 0b01110, 0b10001]))
def test_rank_table_is_the_largest_intersection_with_a_basis(case):
    n, bases = case
    expected = [max(((b & s).bit_count() for b in bases), default=0) for s in range(1 << n)]
    assert oracle._rank_table(bases, n) == expected
    # F_t holds exactly the row sets of rank at least t
    families = oracle._rank_families(bases, n)
    assert len(families) == n + 1
    assert [[s for s in range(1 << n) if f >> s & 1] for f in families] == [
        [s for s in range(1 << n) if expected[s] >= t] for t in range(n + 1)
    ]


@st.composite
def supports(draw):
    """(n, r, support): n <= 7, 1 <= r <= n, and any nonempty set of
    r-subsets of 1..n (the empty one is refused)."""
    n = draw(st.integers(1, 7))
    r = draw(st.integers(1, n))
    subset = st.sets(st.integers(1, n), min_size=r, max_size=r).map(lambda s: tuple(sorted(s)))
    return n, r, frozenset(draw(st.sets(subset, min_size=1, max_size=12)))


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(case=supports())
@example(case=(4, 2, frozenset({(1, 2), (3, 4)})))
@example(case=(5, 2, frozenset({(1, 2), (1, 3), (2, 3)})))
def test_hm_verdict_and_separator_are_the_least_violated_row_set(case):
    """The verdict and separator equal a brute-force scan: the least row
    bitmask S with n max |B & S| < r |S| over B in the support."""
    n, r, support = case
    bases = [sum(1 << (i - 1) for i in sub) for sub in support]
    least = next(
        (s for s in range(1, 1 << n)
         if n * max(((b & s).bit_count() for b in bases), default=0) < r * s.bit_count()),
        None,
    )
    cert = hm_semistable(support, n, r)
    assert cert.semistable == (least is None)
    assert cert.separator == (None if least is None else tuple(i + 1 for i in range(n) if least >> i & 1))


def count_reading(support, n, r):
    """(verdict, separator) by the count reading: the rank table of the
    support, and the least nonempty S with n rk(S) < r |S|."""
    bases = [sum(1 << (i - 1) for i in sub) for sub in support]
    least = oracle._violated_rows([(r, 1, bases)], n)
    return least is None, None if least is None else tuple(i + 1 for i in range(n) if least >> i & 1)


def family_reading(support, n, r, threshold):
    """(verdict, separator) read off the rank families: the least S of
    size m outside F_threshold(r m, n), as `hm_semistable` reads them with
    the ceiling."""
    families = oracle._rank_families([sum(1 << (i - 1) for i in sub) for sub in support], n)
    _, by_size = oracle._row_families(n)
    violated = 0
    for m in range(1, n + 1):
        violated |= by_size[m] & ~families[threshold(r * m, n)]
    least = (violated & -violated).bit_length() - 1
    return not violated, None if not violated else tuple(i + 1 for i in range(n) if least >> i & 1)


def ceiling(a, b):
    return -(-a // b)


HANDMADE_SUPPORTS = [
    (3, 2, frozenset({(1, 2), (1, 3)})),
    (4, 2, frozenset({(1, 2), (3, 4)})),
    (4, 2, frozenset({(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)})),
    (5, 3, frozenset({(1, 2, 3)})),
    (5, 5, frozenset({(1, 2, 3, 4, 5)})),
    (6, 0, frozenset({()})),
    (6, 1, frozenset({(2,), (5,)})),
    (6, 3, frozenset(itertools.combinations(range(1, 7), 3))),
    (6, 3, frozenset({(1, 2, 3), (4, 5, 6)})),
    (8, 4, frozenset({(1, 2, 3, 4), (5, 6, 7, 8)})),
    (8, 4, frozenset({(1, 2, 5, 6), (3, 4, 7, 8), (1, 3, 5, 7)})),
] + [
    (n, r, frozenset(rng.sample(list(itertools.combinations(range(1, n + 1), r)), k)))
    for rng in [random.Random(11)]
    for n in range(2, 9)
    for r in range(1, n)
    for k in (1, 2, 5)
    if k <= math.comb(n, r)
]


def test_family_reading_equals_the_count_reading_n_up_to_8():
    """`hm_semistable` reads S as violated when it is outside
    F_ceil(r |S| / n); the rank table gives the same verdict and the same
    least separator on the generic support of every cell for n <= 8 and
    on hand-made ones.  With the floor in place of the ceiling, the family
    reading disagrees somewhere, so the comparison can fail."""
    cases = [(n, r, support) for n in range(2, 9) for r, support in cell_supports(n)]
    cases += HANDMADE_SUPPORTS
    floored = 0
    for n, r, support in cases:
        expected = count_reading(support, n, r)
        cert = hm_semistable(support, n, r)
        assert (cert.semistable, cert.separator) == expected, (n, r, sorted(support))
        assert family_reading(support, n, r, ceiling) == expected, (n, r, sorted(support))
        floored += family_reading(support, n, r, operator.floordiv) != expected
    assert floored > 0


def test_verdict_is_edmonds_rank_criterion_n_up_to_6():
    # (r/n, ..., r/n) lies in the base polytope iff r |S| <= n rk(S) for every S
    for n in range(2, 7):
        subsets = [set(s) for size in range(n + 1) for s in itertools.combinations(range(1, n + 1), size)]
        for r, support in cell_supports(n):
            expected = all(
                r * len(s) <= n * max(len(s.intersection(base)) for base in support)
                for s in subsets
            )
            cert = hm_semistable(support, n, r)
            assert cert.semistable == expected, (n, r, sorted(support))
            reverify(cert, support, n, r)


def test_oracle_imports_only_permutation_from_the_package():
    tree = ast.parse(Path(oracle.__file__).read_text())
    internal = [
        (node.module, [alias.name for alias in node.names])
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        and (node.level or (node.module or "").split(".")[0] == "torusquot")
    ]
    plain = [
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.Import)
        for alias in node.names
        if alias.name.split(".")[0] == "torusquot"
    ]
    assert internal == [("weyl", ["Permutation"])] and plain == []


def test_no_package_module_imports_a_private_name_from_another():
    """Each module reaches another only through its public names (a dunder
    such as ``__version__`` is public); the relative imports found show
    that the walk reads them at all."""
    found, private = 0, []
    for path in sorted(Path(oracle.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.level:
                found += 1
                names = (a.name for a in node.names)
                private += [(path.name, x) for x in names if x[:1] == "_" and x[1:2] != "_"]
    assert found > 10 and private == []
