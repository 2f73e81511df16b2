"""Cross-ratio invariants, the certified weight-zero lattice basis, and
re-expression of invariant functions in it."""

import random

import pytest
from conftest import solve_linear
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from torusquot import action, flag, linalg, schubert
from torusquot.invariants import (
    InvariantLattice,
    ReexpressionError,
    reexpress,
    verify_kernel_basis,
    y_exponent,
    y_labels,
)
from torusquot.ratfunc import RationalFunction
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
        for i, j in y_labels(arr):
            vec = y_exponent(arr, i, j)
            total = [0] * n
            for (p, q), e in zip(positions, vec):
                lo, hi = arr.root_at(p, q)
                for letter in range(lo, hi + 1):
                    total[letter - 1] += e
            assert all(t == 0 for t in total)


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


def _random_invariant(names, rng):
    """A quotient of two sums of Y monomials with seeded integer exponents."""

    def part():
        total = RationalFunction.constant(0, names)
        for _ in range(rng.randint(1, 3)):
            term = RationalFunction.constant(rng.choice([-3, -1, 1, 2, 5]), names)
            for name in names:
                term = term * RationalFunction.variable(name, names) ** rng.randint(-2, 2)
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
        fx = f.subs(action.y_to_x(g), target_names=action.x_names(g))
        assert reexpress(fx, action.invariant_lattice(g)) == f
        assert action.reexpress_in_y(fx, g) == f


@pytest.mark.parametrize("n", [2, 3])
def test_flag_reexpression_round_trip_keeps_the_sign(n):
    # each quotient coordinate is minus its X monomial, so monomials of
    # odd total degree pick up a sign on the way back
    w0 = flag.top_cell(n)
    to_x = flag.pi_tau(longest_element(range(1, n), n + 1), n)
    rng = random.Random(n)
    for _ in range(4):
        f = _random_invariant(flag.flag_y_names(n - 1), rng)
        fx = f.subs(to_x, target_names=flag.flag_x_names(w0))
        assert reexpress(fx, flag.flag_lattice(n)) == f
        assert flag.flag_reexpress_in_y(fx, n) == f


def test_grassmann_reexpression_refuses_non_invariants():
    g = schubert.GrassmannElement(6, 2, (4, 5))
    x11, x12 = action.x_variable(g, 1, 1), action.x_variable(g, 1, 2)
    with pytest.raises(ReexpressionError, match="nonzero torus weight"):
        action.reexpress_in_y(x11 / x12, g)
    with pytest.raises(ReexpressionError, match="numerator is not weight-homogeneous"):
        action.reexpress_in_y((x11 + x12) / x12, g)
    with pytest.raises(ReexpressionError, match="denominator is not weight-homogeneous"):
        action.reexpress_in_y(x12 / (x11 + x12), g)


def reference_reexpress(f, lattice):
    """One exact rational solve per monomial and a field product per Y."""
    ynames = lattice.y_names
    num, den = f.numer_terms(), f.denom_terms()
    pivot = den[0][0]
    mat = [[v[t] for v in lattice.generators] for t in range(len(pivot))]

    def image(mono, coeff):
        out = RationalFunction.constant(coeff, ynames)
        target = [e - p for e, p in zip(mono, pivot)]
        if not any(target):
            return out
        sol = solve_linear(mat, target)
        if sol is None or any(z.denominator != 1 for z in sol):
            raise ReexpressionError("monomial outside the invariant lattice")
        if lattice.sign < 0 and sum(sol) % 2:
            out = -out
        for name, z in zip(ynames, sol):
            if z:
                out = out * RationalFunction.variable(name, ynames) ** int(z)
        return out

    def evaluate(terms):
        total = RationalFunction.constant(0, ynames)
        for mono, coeff in terms:
            total = total + image(mono, coeff)
        return total

    return evaluate(num) / evaluate(den)


def _grassmann_case(n, r, a):
    g = schubert.GrassmannElement(n, r, a)
    return action.invariant_lattice(g), action.y_to_x(g)


def _flag_case(n):
    return flag.flag_lattice(n), flag.pi_tau(longest_element(range(1, n), n + 1), n)


LATTICES = {
    "grassmann (6, 3, (2, 3, 5))": _grassmann_case(6, 3, (2, 3, 5)),
    "grassmann (7, 2, (4, 6))": _grassmann_case(7, 2, (4, 6)),
    "flag n=3": _flag_case(3),
}


@settings(
    derandomize=True, database=None, max_examples=30, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(case=st.sampled_from(sorted(LATTICES)), seed=st.integers(0, 2**16))
def test_reexpress_matches_the_solve_linear_reference(case, seed):
    lattice, to_x = LATTICES[case]
    f = _random_invariant(lattice.y_names, random.Random(seed))
    fx = f.subs(to_x, target_names=lattice.x_names)
    got = reexpress(fx, lattice)
    assert got == reference_reexpress(fx, lattice) == f
    assert got.canonical() == f.canonical()


def test_y_to_x_is_the_cross_ratio():
    g = schubert.GrassmannElement(7, 3, (2, 4, 6))
    x = action.x_variable
    for i, j in y_labels(schubert.inversion_array(g)):
        li = g.a_seq[i - 1] - i + 1
        cross = x(g, i, li) * x(g, i + 1, j) / (x(g, i, j) * x(g, i + 1, li))
        assert action.y_to_x(g)[f"Y_{i}_{j}"] == cross


def test_left_inverse_exists_for_every_cell_and_flag_lattice():
    lattices = [
        action.invariant_lattice(g)
        for n in range(4, 8)
        for r in range(2, n - 1)
        for g in schubert.semistable_cells(n, r)
    ] + [flag.flag_lattice(n) for n in range(1, 6)]
    for lattice in lattices:
        gens = lattice.generators
        assert len(lattice.left_inverse) == len(gens)
        for a, row in enumerate(lattice.left_inverse):
            pairings = [sum(c * e for c, e in zip(row, v)) for v in gens]
            assert pairings == [int(a == b) for b in range(len(gens))]


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
    first = lattice.generators[0]
    for gens in [(tuple(2 * e for e in first),), (first, first)]:
        with pytest.raises(ValueError, match="saturated"):
            InvariantLattice(lattice.x_names, lattice.weights, lattice.y_names[: len(gens)], gens, 1)


def test_monomial_outside_the_lattice_is_refused():
    lattice, to_x = LATTICES["grassmann (7, 2, (4, 6))"]
    smaller = InvariantLattice(
        lattice.x_names, lattice.weights, lattice.y_names[:1], lattice.generators[:1], 1
    )
    outside = to_x[lattice.y_names[1]]
    with pytest.raises(ReexpressionError, match="monomial outside the invariant lattice"):
        reexpress(outside, smaller)
    with pytest.raises(ReexpressionError, match="monomial outside the invariant lattice"):
        reference_reexpress(outside, smaller)
