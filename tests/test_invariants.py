"""Cross-ratio invariants, the certified weight-zero lattice basis, and
re-expression of invariant functions in it."""

import dataclasses
import random
import re

import pytest
from conftest import (
    dense_flag_generators,
    dense_vector,
    dense_weight,
    dense_y_exponent,
    hermite_left_inverse,
    integer_kernel_basis,
    reference_kernel_report,
    root_weight,
    solve_linear,
    support_of,
    weight_first_reexpress,
)
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from torusquot import action, flag, invariants, linalg, schubert
from torusquot.invariants import (
    InvariantLattice,
    ReexpressionError,
    _certify,
    cross_ratio_inverse,
    cross_ratios,
    induced_action,
    monomial_weight,
    reexpress,
    verify_kernel_basis,
    y_labels,
    y_monomials,
)
from torusquot.ratfunc import RationalFunction, identity_substitution
from torusquot.weyl import longest_element


def _arr(n, r, a):
    return schubert.inversion_array(schubert.GrassmannElement(n, r, a))


def test_y_labels_count():
    arr = _arr(5, 2, (2, 4))
    assert y_labels(arr) == [(1, 1)]
    arr = _arr(6, 2, (4, 5))
    assert y_labels(arr) == [(1, 1), (1, 2), (1, 3)]
    arr = _arr(6, 3, (2, 3, 5))
    assert y_labels(arr) == [(1, 1), (2, 1)]


def test_y_exponent_is_weight_zero():
    """Each cross-ratio uses every matrix row's worth of torus weight
    exactly zero times: the interval weights cancel in pairs."""
    for n, r, a in [(5, 2, (2, 4)), (6, 2, (4, 5)), (6, 3, (2, 3, 5)), (7, 3, (2, 4, 6))]:
        arr = _arr(n, r, a)
        positions = arr.positions()
        for support in cross_ratios(arr):
            total = [0] * n
            for t, e in support:
                lo, hi = arr.root_at(*positions[t])
                for letter in range(lo, hi + 1):
                    total[letter - 1] += e
            assert all(t == 0 for t in total)


@pytest.mark.parametrize("n", range(2, 9))
def test_cross_ratios_are_the_supports_of_the_dense_reference(n):
    """Every cell of every G(r, n): each cross-ratio's four sorted
    (position, exponent) pairs are the nonzero entries of its dense
    exponent vector, in the order of `y_labels`."""
    for r in range(1, n):
        for g in schubert.all_cells(n, r):
            arr = schubert.inversion_array(g)
            supports = cross_ratios(arr)
            assert all(len(s) == 4 for s in supports), g
            assert supports == tuple(
                support_of(dense_y_exponent(arr, i, j)) for i, j in y_labels(arr)
            ), g


def test_kernel_report_frozen_example():
    rep = verify_kernel_basis(_arr(5, 2, (2, 4)))
    assert rep.ok
    assert rep.kernel_rank == rep.expected_rank == 1
    rep = verify_kernel_basis(_arr(7, 2, (4, 6)))
    assert rep.ok and rep.kernel_rank == 3


@pytest.mark.parametrize("n", [4, 5, 6])
def test_kernel_certified_for_all_semistable_cells(n):
    count = 0
    for r in range(2, n - 1):
        for g in schubert.semistable_cells(n, r):
            rep = verify_kernel_basis(schubert.inversion_array(g))
            assert rep.ok, g
            count += 1
    assert count > 0


def test_kernel_rank_counts_invariants_not_rows():
    # expected rank sums a_i - i over the first r - 1 rows only
    rep = verify_kernel_basis(_arr(6, 3, (2, 3, 5)))
    assert rep.expected_rank == (2 - 1) + (3 - 2)
    assert rep.ok


@pytest.mark.parametrize("n", range(2, 9))
def test_kernel_report_equals_the_hermite_reference_on_every_cell(n):
    """Every cell of every G(r, n), unstable cells and cells without Y's
    among them."""
    for r in range(1, n):
        for g in schubert.all_cells(n, r):
            arr = schubert.inversion_array(g)
            assert verify_kernel_basis(arr) == reference_kernel_report(arr), g


def _intervals(rank):
    """Interval roots (j, k), 1 <= j <= k <= rank."""
    return st.tuples(st.integers(1, rank), st.integers(1, rank)).map(sorted).map(tuple)


@st.composite
def kernel_cases(draw):
    """Interval roots of sl_(m+1), m <= 4, with at least one more
    coordinate than m, a reference kernel basis B of their dense weights,
    and a unimodular integer matrix U made of elementary row operations."""
    rank = draw(st.integers(1, 4))
    count = draw(st.integers(rank + 1, rank + 5))
    roots = tuple(draw(st.lists(_intervals(rank), min_size=count, max_size=count)))
    weights = [root_weight(root, rank) for root in roots]
    basis = integer_kernel_basis([list(row) for row in zip(*weights)])
    k = len(basis)
    mix = [[int(a == b) for b in range(k)] for a in range(k)]
    if k > 1:
        pairs = st.tuples(st.integers(0, k - 1), st.integers(0, k - 1), st.integers(-3, 3))
        for i, j, f in draw(st.lists(pairs, max_size=6)):
            if i != j:
                mix[i] = [x + f * y for x, y in zip(mix[i], mix[j])]
    return roots, basis, mix


def _times(mix, basis):
    """The rows of mix times the matrix whose rows are basis."""
    return [tuple(sum(m * v[t] for m, v in zip(row, basis)) for t in range(len(basis[0]))) for row in mix]


def _supports(gens):
    """The generators as `_certify` takes them: their supports."""
    return [support_of(v) for v in gens]


_SEEDED = settings(derandomize=True, database=None, max_examples=100, deadline=None)


@_SEEDED
@given(case=kernel_cases())
def test_certificate_accepts_every_unimodular_basis(case):
    roots, basis, mix = case
    gens = _times(mix, basis)
    assert _certify(roots, _supports(gens), hermite_left_inverse(gens)) == (len(basis), True, True)


@_SEEDED
@given(case=kernel_cases())
def test_certificate_refuses_an_index_two_sublattice(case):
    """No integer rows pair to the identity with a sublattice of index
    two, so the left inverse of the basis before doubling is refused."""
    roots, basis, mix = case
    inverse = hermite_left_inverse(_times(mix, basis))
    mix[0] = [2 * x for x in mix[0]]  # |det| = 2
    gens = _times(mix, basis)
    assert hermite_left_inverse(gens) is None
    assert _certify(roots, _supports(gens), inverse) == (len(basis), True, False)


@_SEEDED
@given(case=kernel_cases())
def test_certificate_refuses_one_vector_too_few(case):
    """The rows left over still pair to the identity; the count refuses."""
    roots, basis, mix = case
    gens = _times(mix, basis)
    inverse = hermite_left_inverse(gens)
    assert _certify(roots, _supports(gens[1:]), inverse[1:]) == (len(basis), True, False)


@_SEEDED
@given(case=kernel_cases(), data=st.data())
def test_certificate_refuses_a_vector_off_the_kernel(case, data):
    roots, basis, mix = case
    gens = _times(mix, basis)
    inverse = hermite_left_inverse(gens)
    t = data.draw(st.integers(0, len(roots) - 1))
    gens[0] = tuple(e + (s == t) for s, e in enumerate(gens[0]))  # weight moves by roots[t]
    assert _certify(roots, _supports(gens), inverse) == (len(basis), False, False)


@st.composite
def weight_pairs(draw):
    """Interval roots of sl_(m+1), m <= 5, and two exponent vectors u and
    v over them.  Each is a combination of a kernel basis of the dense
    weights plus a perturbation that may be zero, and v starts from u, so
    equal and zero weights come up as often as different ones."""
    rank = draw(st.integers(1, 5))
    count = draw(st.integers(1, 7))
    roots = tuple(draw(st.lists(_intervals(rank), min_size=count, max_size=count)))
    basis = integer_kernel_basis([list(row) for row in zip(*(root_weight(r, rank) for r in roots))])
    small = st.integers(-2, 2)

    def moved(start):
        out = list(start)
        for b in basis:
            c = draw(small)
            out = [x + c * y for x, y in zip(out, b)]
        for t in draw(st.lists(st.integers(0, count - 1), max_size=2)):
            out[t] += draw(small)
        return tuple(out)

    u = moved((0,) * count)
    return rank, roots, u, moved(u)


@_SEEDED
@given(case=weight_pairs())
def test_monomial_weight_agrees_with_the_dense_weight(case):
    """The e-coordinates are sorted and nonzero; two monomials share them
    exactly when their simple-root coefficients are equal, and they are
    empty exactly when those coefficients are zero."""
    rank, roots, u, v = case
    wu, wv = monomial_weight(enumerate(u), roots), monomial_weight(support_of(v), roots)
    assert wu == monomial_weight(support_of(u), roots) and wv == monomial_weight(enumerate(v), roots)
    du, dv = dense_weight(u, roots, rank), dense_weight(v, roots, rank)
    assert all(c for _, c in wu) and [i for i, _ in wu] == sorted({i for i, _ in wu})
    assert (wu == wv) == (du == dv)
    assert (wu == ()) == (not any(du))


def _off_by_one(rows, gens):
    """Row 0 moved by one at the first position of the first generator's
    support, so it no longer pairs to 1 with it."""
    t = gens[0][0][0]
    return [rows[0] + ((t, 1),)] + list(rows[1:])


@pytest.mark.parametrize(
    "corrupt",
    [_off_by_one, lambda rows, gens: rows[1:], lambda rows, gens: rows[::-1]],
    ids=["entry off by one", "row dropped", "rows reversed"],
)
def test_a_corrupted_left_inverse_is_caught(monkeypatch, corrupt):
    def corrupted(arr):
        return corrupt(true_inverse(arr), cross_ratios(arr))

    true_inverse = invariants.cross_ratio_inverse
    monkeypatch.setattr(invariants, "cross_ratio_inverse", corrupted)
    rep = verify_kernel_basis(_arr(7, 2, (4, 6)))
    assert rep.kernel_rank == rep.expected_rank == 3 and rep.generators_in_kernel
    assert not rep.lattice_equality and not rep.ok


def _random_invariant(names, rng, top=2):
    """A quotient of two sums of Y monomials with seeded integer exponents
    in [-top, top]."""

    def part():
        total = RationalFunction.constant(0, names)
        for _ in range(rng.randint(1, 3)):
            term = RationalFunction.constant(rng.choice([-3, -1, 1, 2, 5]), names)
            for name in names:
                term = term * RationalFunction.variable(name, names) ** rng.randint(-top, top)
            total = total + term
        return total

    den = part()
    while den.is_zero:
        den = part()
    return part() / den


@pytest.mark.parametrize(
    "n,r,a", [(5, 2, (2, 4)), (6, 2, (4, 5)), (6, 3, (2, 3, 5)), (7, 3, (2, 4, 6))]
)
def test_grassmann_reexpression_round_trip(n, r, a):
    g = schubert.GrassmannElement(n, r, a)
    rng = random.Random(n * 100 + sum(a))
    for _ in range(4):
        f = _random_invariant(action.y_names(g), rng)
        lattice = action.invariant_lattice(g)
        fx = f.subs(y_monomials(lattice))
        assert reexpress(fx, lattice) == f


@pytest.mark.parametrize("n", [2, 3])
def test_flag_reexpression_round_trip_keeps_the_sign(n):
    # each displayed quotient coordinate is minus its lattice monomial, so
    # a function pushed through the display comes back as f(-Y)
    w0 = flag.top_cell(n)
    to_x = flag.pi_tau(longest_element(range(1, n), n + 1), n)
    ynames = flag.flag_y_names(n - 1)
    negate = {name: -y for name, y in identity_substitution(ynames).items()}
    rng = random.Random(n)
    for _ in range(4):
        f = _random_invariant(ynames, rng)
        fx = f.subs(to_x)
        assert fx.names == flag.flag_x_names(w0)
        assert reexpress(fx, flag.flag_lattice(n)) == f.subs(negate)


def test_grassmann_reexpression_refuses_non_invariants():
    g = schubert.GrassmannElement(6, 2, (4, 5))
    lattice = action.invariant_lattice(g)
    x11, x12 = action.x_variable(g, 1, 1), action.x_variable(g, 1, 2)
    with pytest.raises(ReexpressionError, match="nonzero torus weight"):
        reexpress(x11 / x12, lattice)
    with pytest.raises(ReexpressionError, match="numerator is not weight-homogeneous"):
        reexpress((x11 + x12) / x12, lattice)
    with pytest.raises(ReexpressionError, match="denominator is not weight-homogeneous"):
        reexpress(x12 / (x11 + x12), lattice)


def reference_reexpress(f, lattice):
    """One exact rational solve per monomial and a field product per Y,
    pivoting on the lex-least denominator monomial (`reexpress` may pivot
    on any of them)."""
    ynames = lattice.y_names
    num, den = f.numer, f.denom
    pivot = min(den)
    gens = [dense_vector(v, len(pivot)) for v in lattice.generators]
    mat = [[v[t] for v in gens] for t in range(len(pivot))]

    def image(mono, coeff):
        out = RationalFunction.constant(coeff, ynames)
        target = [e - p for e, p in zip(mono, pivot)]
        if not any(target):
            return out
        sol = solve_linear(mat, target)
        if sol is None or any(z.denominator != 1 for z in sol):
            raise ReexpressionError("monomial outside the invariant lattice")
        for name, z in zip(ynames, sol):
            if z:
                out = out * RationalFunction.variable(name, ynames) ** int(z)
        return out

    def evaluate(terms):
        total = RationalFunction.constant(0, ynames)
        for mono, coeff in terms.items():
            total = total + image(mono, coeff)
        return total

    return evaluate(num) / evaluate(den)


def _grassmann_case(n, r, a):
    lattice = action.invariant_lattice(schubert.GrassmannElement(n, r, a))
    return lattice, y_monomials(lattice)


def _flag_case(n):
    # pi_tau displays each coordinate with a leading minus; the lattice's Y has none
    shown = flag.pi_tau(longest_element(range(1, n), n + 1), n)
    return flag.flag_lattice(n), {name: -y for name, y in shown.items()}


LATTICES = {
    **{
        f"grassmann {(g.n, g.r, g.a_seq)}": _grassmann_case(g.n, g.r, g.a_seq)
        for n in range(4, 8)
        for r in range(2, n - 1)
        for g in schubert.semistable_cells(n, r)
    },
    **{f"flag n={n}": _flag_case(n) for n in range(1, 6)},
}


@settings(
    derandomize=True, database=None, max_examples=10, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(seed=st.integers(0, 2**16))
def test_reexpress_matches_the_solve_linear_reference(seed):
    """Every semistable cell with n <= 7 and every flag lattice with n <= 5.
    Y exponents run over [-2, 2], and over [-1, 1] beyond nine X's: there
    some images reach sympy's heuristic gcd, which takes seconds on them."""
    for case, (lattice, to_x) in LATTICES.items():
        top = 2 if len(lattice.x_names) <= 9 else 1
        f = _random_invariant(lattice.y_names, random.Random(f"{case} {seed}"), top)
        # without Ys, f is a constant, which an empty map leaves over ()
        fx = f.subs(to_x) if to_x else RationalFunction.constant(f.evaluate({}), lattice.x_names)
        got = reexpress(fx, lattice)
        assert got == reference_reexpress(fx, lattice) == f, case
        assert got.canonical() == f.canonical(), case


ONE_PASS_CASES = [case for case in LATTICES if case != "flag n=5"]


def _pushed_invariant(case, rng, top=2):
    """A random nonzero invariant of the case's Y's, pushed to the X's;
    Y exponents run over [-top, top], and over [-1, 1] beyond nine X's."""
    lattice, to_x = LATTICES[case]
    top = top if len(lattice.x_names) <= 9 else 1
    f = _random_invariant(lattice.y_names, rng, top)
    while f.is_zero:
        f = _random_invariant(lattice.y_names, rng, top)
    return f.subs(to_x) if to_x else RationalFunction.constant(f.evaluate({}), lattice.x_names)


@pytest.mark.parametrize("seed", range(3))
def test_reexpress_matches_the_weight_first_reference(seed):
    """Every semistable cell with n <= 7 and every flag lattice with n <= 4:
    the one-pass re-expression gives the value, coefficient maps and
    printing of the weight-first one that reduces again."""
    for case in ONE_PASS_CASES:
        lattice, _ = LATTICES[case]
        rng = random.Random(f"{case} one pass {seed}")
        for _ in range(3):
            fx = _pushed_invariant(case, rng)
            got, expected = reexpress(fx, lattice), weight_first_reexpress(fx, lattice)
            assert (got.names, got.numer, got.denom) == (
                expected.names, expected.numer, expected.denom
            ), case
            assert got.canonical() == expected.canonical(), case


@pytest.mark.parametrize("seed", range(2))
def test_reexpress_names_the_first_of_two_defects_as_the_reference_does(seed):
    """A numerator that is not weight-homogeneous in a function of nonzero
    weight, both sides not weight-homogeneous, and a denominator that is
    not weight-homogeneous and has terms outside the lattice: the refusal
    names the defect that the weight-first reference checks first."""
    for case in ONE_PASS_CASES:
        lattice, _ = LATTICES[case]
        if not lattice.x_names:
            continue
        rng = random.Random(f"{case} defects {seed}")
        fx = _pushed_invariant(case, rng, top=1)  # small, since the defects need polynomial gcds
        xs = identity_substitution(lattice.x_names)
        t, s = (xs[rng.choice(lattice.x_names)] for _ in range(2))
        inputs = [
            ("numerator is not weight-homogeneous", (fx + t) * s),
            ("numerator is not weight-homogeneous", (fx + t) / (1 + s)),
            ("denominator is not weight-homogeneous", fx / (1 + t)),
        ]
        for defect, bad in inputs:
            with pytest.raises(ReexpressionError) as reference:
                weight_first_reexpress(bad, lattice)
            assert str(reference.value) == defect, case
            with pytest.raises(ReexpressionError, match=f"^{defect}$"):
                reexpress(bad, lattice)


def test_lattice_refuses_generators_of_nonzero_weight():
    """`reexpress` runs the weight pass only when a lattice check fails,
    which is sound only if every generator has weight zero."""
    lattice, _ = LATTICES["grassmann (7, 2, (4, 6))"]
    bent = list(lattice.generators[0])
    bent.remove(next(entry for entry in bent if entry[1] == 1))  # its first +1 exponent to 0
    with pytest.raises(ValueError, match="nonzero torus weight"):
        InvariantLattice(
            lattice.x_names, lattice.roots, lattice.y_names[:1], (tuple(bent),),
            lattice.left_inverse[:1],
        )


_ONE_Y_NAME = "one Y name per generator"
_ONE_PER_X = "one root per X name"


@pytest.mark.parametrize(
    "field, resize, mismatch",
    [
        ("y_names", lambda names: names + ("Y_9_9",), _ONE_Y_NAME),
        ("y_names", lambda names: names[1:], _ONE_Y_NAME),
        ("roots", lambda roots: roots + ((1, 1),), _ONE_PER_X),
        ("roots", lambda roots: roots[:-1], _ONE_PER_X),
    ],
    ids=["y name extra", "y name missing", "root extra", "root missing"],
)
def test_lattice_refuses_mismatched_lengths(field, resize, mismatch):
    """Each length is checked, not cut short by `zip`: with one Y name
    too many, `reexpress` would build a function over more names than its
    exponent tuples have entries."""
    lattice = action.invariant_lattice(schubert.GrassmannElement(6, 3, (2, 4, 5)))
    values = {name: getattr(lattice, name) for name in
              ("x_names", "roots", "y_names", "generators", "left_inverse")}
    assert len(lattice.generators) > 1
    with pytest.raises(ValueError, match=f"^expected {mismatch}$"):
        InvariantLattice(**{**values, field: resize(values[field])})
    assert InvariantLattice(**values) == lattice


def _first_support(change):
    """The lattice's generators with the first support changed by `change`."""
    return lambda gens: (tuple(change(list(gens[0]))),) + gens[1:]


@pytest.mark.parametrize(
    "malform, defect",
    [
        (_first_support(lambda s: s + [(8, 1)]), "position 8 outside 0..7"),
        (_first_support(lambda s: [(-1, 1)] + s), "position -1 outside 0..7"),
        (_first_support(lambda s: s[:1] + [(s[1][0], 0)] + s[2:]), "exponent 0, which is zero"),
        (_first_support(lambda s: s[:1] + [(s[1][0], 1.0)] + s[2:]),
         "exponent 1.0, which is zero or not an integer"),
        (_first_support(lambda s: [(1.0, -1)] + s[1:]), "position 1.0 outside"),
        (_first_support(lambda s: s[:1] + [s[0]] + s[1:]), "position 0 repeated or out of order"),
        (_first_support(lambda s: s[1:2] + s[:1] + s[2:]), "position 0 repeated or out of order"),
    ],
    ids=["position past the end", "position before the start", "zero exponent",
         "float exponent", "float position", "repeated position", "unsorted positions"],
)
def test_lattice_refuses_a_malformed_support(malform, defect):
    """Each support is checked before any of its positions is read: a
    position outside the X's would raise IndexError in the pairing, or
    with -1 silently read the last X's column."""
    lattice = action.invariant_lattice(schubert.GrassmannElement(6, 3, (2, 4, 5)))
    assert len(lattice.x_names) == 8 and lattice.generators[0][0][0] == 0
    with pytest.raises(ValueError, match=re.escape(f"support of Y_1_1 has {defect}")):
        InvariantLattice(
            lattice.x_names, lattice.roots, lattice.y_names, malform(lattice.generators),
            lattice.left_inverse,
        )


def test_y_monomials_are_the_cross_ratios():
    g = schubert.GrassmannElement(7, 3, (2, 4, 6))
    x = action.x_variable
    monomials = y_monomials(action.invariant_lattice(g))
    for i, j in y_labels(schubert.inversion_array(g)):
        li = g.a_seq[i - 1] - i + 1
        cross = x(g, i, li) * x(g, i + 1, j) / (x(g, i, j) * x(g, i + 1, li))
        assert monomials[f"Y_{i}_{j}"] == cross


def _dense_pairings(rows, gens):
    """L G^T for the sparse rows L and the dense generators G, entry by entry."""
    return [[sum(c * v[t] for t, c in row) for v in gens] for row in rows]


def _identity(k):
    return [[int(a == b) for b in range(k)] for a in range(k)]


def test_left_inverse_exists_for_every_cell_and_flag_lattice():
    """Both closed forms pair to the identity: on every cell of every
    G(r, n) with n <= 10, unstable cells and cells without Y's among them,
    and on every flag lattice with n <= 8.  Each of those lattices is
    built, so its generators also meet the weight kernel's rank."""
    for n in range(2, 11):
        for r in range(1, n):
            for g in schubert.all_cells(n, r):
                action.invariant_lattice(g)
                arr = schubert.inversion_array(g)
                gens = [dense_y_exponent(arr, i, j) for i, j in y_labels(arr)]
                assert _dense_pairings(cross_ratio_inverse(arr), gens) == _identity(len(gens)), g
    for n in range(1, 9):
        lattice = flag.flag_lattice(n)
        gens = dense_flag_generators(n)
        assert _dense_pairings(lattice.left_inverse, gens) == _identity(len(gens)), n


def test_y_action_substitution_solves_no_linear_system():
    g = schubert.GrassmannElement(6, 3, (2, 3, 5))
    for k in sorted(action.stabilizer_generators(g)):
        assert action.y_action_substitution(k, g) == action.closed_y_action(k, g)
    assert not hasattr(linalg, "solve_linear")


@pytest.mark.parametrize(
    "lattice",
    [action.invariant_lattice(schubert.GrassmannElement(5, 2, (1, 4))), flag.flag_lattice(1)],
    ids=["cell without Ys", "flag n=1"],
)
def test_lattice_without_generators_reexpresses_constants(lattice):
    assert lattice.generators == () and lattice.left_inverse == ()
    for c in (0, 3, -2):
        f = RationalFunction.constant(c, lattice.x_names)
        assert reexpress(f, lattice) == RationalFunction.constant(c, lattice.y_names)
    with pytest.raises(ReexpressionError, match="nonzero torus weight"):
        reexpress(RationalFunction.variable(lattice.x_names[0], lattice.x_names), lattice)


def test_lattice_refuses_generators_without_integer_left_inverse():
    lattice, _ = LATTICES["grassmann (7, 2, (4, 6))"]
    first, row = lattice.generators[0], lattice.left_inverse[0]
    for gens, inverse in [((tuple((t, 2 * e) for t, e in first),), (row,)), ((first, first), (row, row))]:
        with pytest.raises(ValueError, match="saturated"):
            InvariantLattice(
                lattice.x_names, lattice.roots, lattice.y_names[: len(gens)], gens, inverse
            )


@pytest.mark.parametrize(
    "wrong",
    [
        lambda gens, rows, size: (gens, _off_by_one(rows, gens)),
        lambda gens, rows, size: ((tuple((t, 2 * e) for t, e in gens[0]),) + gens[1:], rows),
        lambda gens, rows, size: (gens[:1] + gens[:-1], rows),
        lambda gens, rows, size: (gens, rows[:-1]),
        lambda gens, rows, size: (gens, (((size, 1),),) + rows[1:]),
    ],
    ids=["entry off by one", "generator doubled", "generator duplicated", "row missing",
         "position past the end"],
)
@pytest.mark.parametrize("case", ["grassmann (7, 2, (4, 6))", "flag n=4"])
def test_lattice_refuses_a_wrong_left_inverse(wrong, case):
    lattice, _ = LATTICES[case]
    gens, rows = wrong(lattice.generators, lattice.left_inverse, len(lattice.x_names))
    with pytest.raises(ValueError, match="saturated"):
        InvariantLattice(lattice.x_names, lattice.roots, lattice.y_names, gens, rows)


def _rebuilt(lattice):
    return InvariantLattice(
        lattice.x_names, lattice.roots, lattice.y_names, lattice.generators, lattice.left_inverse
    )


def test_lattices_built_apart_are_equal_and_show_no_private_field():
    lattice, _ = LATTICES["grassmann (7, 2, (4, 6))"]
    first, second = _rebuilt(lattice), _rebuilt(lattice)
    y_monomials(first)  # only the first holds its Y monomials
    assert first == second == lattice
    assert hash(first) == hash(second) == hash(lattice)
    private = [f.name for f in dataclasses.fields(first) if f.name.startswith("_")]
    assert private
    assert not any(name in repr(first) for name in private + ["left_inverse"])


def test_changing_the_y_monomials_dict_leaves_the_lattice_alone():
    g = schubert.GrassmannElement(6, 3, (2, 3, 5))
    lattice = _rebuilt(action.invariant_lattice(g))
    xsub = action.x_action(min(action.stabilizer_generators(g)), g)
    before = induced_action(lattice, xsub)
    monomials = y_monomials(lattice)
    expected = dict(monomials)
    for name in monomials:
        monomials[name] = RationalFunction.constant(1, lattice.x_names)
    monomials["Y_9_9"] = RationalFunction.constant(2, lattice.x_names)
    assert y_monomials(lattice) == expected
    assert induced_action(lattice, xsub) == before


def test_monomial_outside_the_lattice_is_refused():
    """The X monomial of the second Y lies outside the span of the first
    alone, and no weight defect names it.  A lattice of the first Y alone
    is refused at construction, for rank, so `reexpress` never meets such
    a monomial; the full lattice re-expresses it as the second Y."""
    lattice, to_x = LATTICES["grassmann (7, 2, (4, 6))"]
    outside = to_x[lattice.y_names[1]]
    with pytest.raises(ValueError, match="^1 generators for a weight-zero lattice of rank"):
        InvariantLattice(
            lattice.x_names, lattice.roots, lattice.y_names[:1], lattice.generators[:1],
            lattice.left_inverse[:1],
        )
    assert reexpress(outside, lattice).canonical() == lattice.y_names[1]


def test_lattice_refuses_generators_short_of_the_kernel_rank():
    """One generator dropped with its left-inverse row: the rest still pair
    to the identity, so only the rank tells that they span part of the
    weight kernel.  `reexpress` could then meet a weight-zero monomial
    outside their span, which no weight defect names."""
    for case in ("grassmann (7, 2, (4, 6))", "flag n=4"):
        lattice, _ = LATTICES[case]
        rank = len(lattice.generators)
        assert rank == _certify(lattice.roots, lattice.generators, lattice.left_inverse)[0] > 1
        for drop in (0, rank - 1):
            keep = [b for b in range(rank) if b != drop]
            text = f"^{rank - 1} generators for a weight-zero lattice of rank {rank}, "
            with pytest.raises(ValueError, match=text):
                InvariantLattice(
                    lattice.x_names, lattice.roots, tuple(lattice.y_names[b] for b in keep),
                    tuple(lattice.generators[b] for b in keep),
                    tuple(lattice.left_inverse[b] for b in keep),
                )
