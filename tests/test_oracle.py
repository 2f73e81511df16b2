"""Sampling Hilbert-Mumford oracle: certificates, verdicts, determinism.

The oracle is the independent side of every cross-check, so its own
internals get direct coverage: the Laplace-expanded minors against
determinants, the r-column sampler against the n x n one it replaced,
support stabilization, feasibility certificates re-verified by hand, one
LP per distinct support, the fraction-free simplex against the rational
one it replaced, the verdict against Edmonds' rank criterion, and the
subset-bump closure test.
"""

import ast
import itertools
import random
from fractions import Fraction
from functools import cache
from pathlib import Path

import pytest
from conftest import has_semistable, int_det, subset_leq
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from torusquot import oracle, schubert
from torusquot.oracle import (
    SAMPLE_BOUND,
    HMCertificate,
    cell_semistable,
    cell_support,
    feasible_combination,
    flag_cell_of,
    flag_point_semistable,
    hm_semistable,
    inversion_positions,
    minor_support,
    reflection_preserves_closure,
    sample_cell_matrix,
    weight_image,
)
from torusquot.weyl import Permutation, simple_reflection


def reference_sample_cell_matrix(w, r, rng):
    """The sampler that built the n x n unipotent u: the reference for the
    r-column one in `oracle`, draw for draw."""
    n = w.n
    u = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for i, j in inversion_positions(w):
        x = 0
        while x == 0:
            x = rng.randint(-SAMPLE_BOUND, SAMPLE_BOUND)
        u[i - 1][j - 1] = x
    return [[u[i][w(k) - 1] for k in range(1, r + 1)] for i in range(n)]


def reference_minor_support(mat, n, r):
    """Row subsets whose r x r minor `int_det` finds nonzero."""
    return frozenset(
        tuple(i + 1 for i in rows)
        for rows in itertools.combinations(range(n), r)
        if int_det([mat[i] for i in rows]) != 0
    )


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
    for the fraction-free one in `oracle`.  Entries must be `Fraction`s."""
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


def reference_certificate(support, n, r):
    """The certificate `hm_semistable` returned with the rational simplex."""
    subs = sorted(support)
    cols = [
        [Fraction(int(i in sub)) for i in range(1, n + 1)] + [Fraction(1)]
        for sub in subs
    ]
    ok, vec = reference_feasible_combination(cols, [Fraction(r, n)] * n + [Fraction(1)])
    if ok:
        return HMCertificate(True, {sub: c for sub, c in zip(subs, vec) if c != 0}, None)
    return HMCertificate(False, None, tuple(vec))


@cache
def conclusive_supports(n):
    """(r, seed, support) for every conclusive sampled support of a cell of
    Gr(r, n), seeds 0-2."""
    out = []
    for w, r in cells(n):
        for seed in range(3):
            rep = cell_support(w, r, seed=seed)
            if rep.conclusive:
                out.append((r, seed, rep.support))
    return tuple(out)


def reverify(cert, support, n, r):
    """The certificate's conditions, checked in `Fraction` arithmetic."""
    if cert.semistable:
        assert cert.separator is None
        assert all(c > 0 and sub in support for sub, c in cert.combination.items())
        assert sum(cert.combination.values()) == 1
        for i in range(1, n + 1):
            mass = sum(c for sub, c in cert.combination.items() if i in sub)
            assert mass == Fraction(r, n)
    else:
        assert cert.combination is None
        y = cert.separator
        for sub in support:
            assert sum(y[i - 1] for i in sub) + y[n] <= 0
        assert Fraction(r, n) * sum(y[:n]) + y[n] > 0


def test_int_det_integer_exact():
    assert int_det([[2, 1], [7, 4]]) == 1
    assert int_det([[1, 2, 3], [4, 5, 6], [7, 8, 9]]) == 0
    big = [[10**12, 1], [1, 10**12]]
    assert int_det(big) == 10**24 - 1


def test_sample_cell_matrix_lands_in_cell():
    g = schubert.GrassmannElement(5, 2, (2, 4))
    w = schubert.to_permutation(g)
    mat = sample_cell_matrix(w, 2, random.Random(3))
    assert len(mat) == 5 and len(mat[0]) == 2
    assert all(abs(e) <= SAMPLE_BOUND for row in mat for e in row)
    # pivot rows a_i + 1 = (3, 5) dominate every supported subset
    support = minor_support(mat, 5, 2)
    assert (3, 5) in support
    assert all(subset_leq(s, (3, 5)) for s in support)


SAMPLED_CELLS = [(w, r, seed) for n in range(2, 9) for w, r in cells(n) for seed in range(3)]


def test_sampler_draws_the_reference_stream_n_up_to_8():
    assert len(SAMPLED_CELLS) == 1482
    # a Grassmannian w inverts only into its first r columns; any other w
    # also draws values that the r columns do not keep
    others = [
        (Permutation(images), r, seed)
        for n in range(2, 6)
        for images in itertools.permutations(range(1, n + 1))
        for r in range(1, n)
        for seed in range(3)
    ]
    for w, r, seed in SAMPLED_CELLS + others:
        got = sample_cell_matrix(w, r, random.Random(seed))
        assert got == reference_sample_cell_matrix(w, r, random.Random(seed)), (w, r, seed)


def test_minor_support_matches_determinants_on_sampled_cells_n_up_to_8():
    for w, r, seed in SAMPLED_CELLS:
        mat = sample_cell_matrix(w, r, random.Random(seed))
        got, expected = minor_support(mat, w.n, r), reference_minor_support(mat, w.n, r)
        # the repr pins the iteration order too, which SupportReport's repr shows
        assert got == expected and repr(got) == repr(expected), (w, r, seed)


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
    with pytest.raises(ValueError, match="3 x 2"):
        minor_support([[1, 0], [0, 1]], 3, 2)
    with pytest.raises(ValueError, match="3 x 2"):
        minor_support([[1, 0], [0, 1], [1]], 3, 2)


def test_one_lp_per_distinct_support(monkeypatch):
    calls = []

    def counting(columns, b):
        calls.append(len(columns))
        return feasible_combination(columns, b)

    monkeypatch.setattr(oracle, "feasible_combination", counting)
    hm_semistable.cache_clear()
    w = schubert.to_permutation(schubert.GrassmannElement(6, 3, (2, 3, 5)))
    runs = [cell_semistable(w, 3, seed=s) for s in (0, 1, 2)]
    assert len({rep.support for _, rep, _ in runs}) == 1
    assert len(calls) == 1
    certs = [cert for _, _, cert in runs]
    assert certs[0] == certs[1] == certs[2]
    assert hm_semistable.cache_info().hits == 2


def test_cell_support_deterministic_per_seed():
    g = schubert.GrassmannElement(6, 2, (2, 5))
    w = schubert.to_permutation(g)
    one = cell_support(w, 2, seed=5)
    two = cell_support(w, 2, seed=5)
    assert one == two
    assert one.conclusive


def test_a_gr_7_11_cell_settles_in_three_draws():
    """With coordinates in [-50, 50] this cell's eight draws never gave
    three agreeing supports in a row, so lemma-2.7 --n 11 --r 7 was
    inconclusive; the Schwartz-Zippel bound in the module docstring says
    why."""
    g = schubert.GrassmannElement(11, 7, (1, 4, 6, 7, 8, 9, 10))
    rep = cell_support(schubert.to_permutation(g), 7, seed=1)
    assert rep.conclusive and len(rep.draws) == 3
    assert len(rep.support) == 292


def test_hm_certificate_combination_re_verifies():
    g = schubert.GrassmannElement(5, 2, (2, 4))
    verdict, rep, cert = cell_semistable(schubert.to_permutation(g), 2, seed=0)
    assert verdict == "semistable"
    assert cert.semistable and cert.combination
    reverify(cert, rep.support, 5, 2)  # barycenter hit exactly


def test_hm_certificate_separator_re_verifies():
    g = schubert.GrassmannElement(5, 2, (1, 4))
    verdict, rep, cert = cell_semistable(schubert.to_permutation(g), 2, seed=0)
    assert verdict == "unstable"
    assert cert.separator is not None
    reverify(cert, rep.support, 5, 2)


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
        expected = "semistable" if has_semistable(g) else "unstable"
        assert verdicts == {expected}


def test_subset_bump_closure():
    top = (3, 5)
    # bumping (3,5) itself at k = 3 gives (4,5), which escapes
    assert [k for k in range(1, 5) if reflection_preserves_closure(top, k, 5)] == [1, 2, 4]


def test_closure_test_matches_the_sorting_reference_n_up_to_7():
    for n in range(2, 8):
        for r in range(1, n):
            for head in itertools.combinations(range(1, n + 1), r):
                for k in range(1, n):
                    expected = reference_preserves_closure(head, k, n)
                    assert reflection_preserves_closure(head, k, n) == expected
                    assert reflection_preserves_closure(frozenset(head), k, n) == expected


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


SIMPLEX_PROPERTY = settings(
    derandomize=True, database=None, max_examples=50, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
ENTRIES = st.one_of(
    st.integers(-4, 4),
    st.fractions(min_value=-4, max_value=4, max_denominator=6),
)


@st.composite
def linear_programs(draw):
    """(columns, b): m <= 5 rows, k <= 8 columns, signed int and Fraction
    entries, b with negative entries allowed and zeros frequent, so that
    degenerate pivots put Bland's tie-break to work."""
    m = draw(st.integers(1, 5))
    k = draw(st.integers(0, 8))
    columns = draw(st.lists(st.lists(ENTRIES, min_size=m, max_size=m), min_size=k, max_size=k))
    b = draw(st.lists(st.one_of(st.just(0), ENTRIES), min_size=m, max_size=m))
    return columns, b


@SIMPLEX_PROPERTY
@given(lp=linear_programs())
# a ratio tie that the lower basis index breaks, not the lower row
@example(lp=([[-2, 2, 2], [0, 2, 1]], [0, 1, 1]))
def test_fraction_free_simplex_matches_the_rational_reference(lp):
    columns, b = lp
    as_fractions = ([[Fraction(v) for v in col] for col in columns], [Fraction(v) for v in b])
    try:
        expected = reference_feasible_combination(*as_fractions)
    except ArithmeticError:
        try:
            feasible_combination(columns, b)
        except ArithmeticError:
            return
        raise AssertionError("the reference raised, the fraction-free simplex did not")
    got = feasible_combination(columns, b)
    assert got == expected
    assert all(type(v) is Fraction for v in got[1])


def test_certificates_equal_the_rational_reference_n4_to_7():
    for n in range(4, 8):
        for r, _, support in conclusive_supports(n):
            got = hm_semistable(support, n, r)
            expected = reference_certificate(support, n, r)
            assert got == expected and repr(got) == repr(expected), (n, r, sorted(support))


def test_verdict_is_edmonds_rank_criterion_n_up_to_6():
    # (r/n, ..., r/n) lies in the base polytope iff r |S| <= n rk(S) for every S
    for n in range(2, 7):
        subsets = [set(s) for size in range(n + 1) for s in itertools.combinations(range(1, n + 1), size)]
        for r, _, support in conclusive_supports(n):
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
