"""Full-flag cells, the quotient coordinate map, and its desk checks."""

import random
import re
from fractions import Fraction
from itertools import accumulate

import pytest
from conftest import length, negative_elements_by_scan, reference_quotient_generator_action
from hypothesis import given, settings
from hypothesis import strategies as st

from torusquot import flag, oracle
from torusquot.flag import (
    PRINTED_DIVERGENCES,
    RegularDominantChar,
    cell_parameter,
    cyclic_element,
    decompose_point,
    desk_check,
    flag_lattice,
    flag_y_names,
    inversion_roots,
    negative_elements,
    pi_point,
    pi_tau,
    point_matrix,
    reflect_root,
    root_order,
    s1_y_action,
    semistable_flag_support,
    subgroup_fixing_last,
    swap_rows,
    symbolic_coords,
    top_cell,
    torus_scale,
)
from torusquot.invariants import ReexpressionError, reexpress, y_monomials
from torusquot.ratfunc import RationalFunction
from torusquot.verify import exhaustive_check
from torusquot.weyl import Permutation, all_permutations, from_word, longest_element


# ---------------------------------------------------------------------------
# interval roots


def test_root_order_blocks_by_start_then_longest_first():
    assert root_order(3) == ((1, 3), (1, 2), (1, 1), (2, 3), (2, 2), (3, 3))
    assert len(root_order(4)) == 10


def add_roots(a, b):
    """Sum of two interval roots, or None when the sum is not a root."""
    if a[1] + 1 == b[0]:
        return (a[0], b[1])
    if b[1] + 1 == a[0]:
        return (b[0], a[1])
    return None


def test_add_roots_concatenates_intervals():
    assert add_roots((1, 2), (3, 5)) == (1, 5)
    assert add_roots((3, 5), (1, 2)) == (1, 5)
    assert add_roots((1, 2), (4, 5)) is None
    assert add_roots((1, 3), (2, 5)) is None


def test_reflect_root_letter_swap():
    # s_2 on [2,2] is the negative root: dropped
    assert reflect_root(2, (2, 2)) is None
    assert reflect_root(2, (1, 1)) == (1, 2)
    assert reflect_root(2, (1, 2)) == (1, 1)
    assert reflect_root(2, (3, 4)) == (2, 4)
    assert reflect_root(1, (3, 4)) == (3, 4)


def test_beta_prime_unique_completion():
    """The quotient map pairs beta = [j, k], j >= 2, with [1, j-1]: up to
    rank 5, the only root through alpha_1 whose sum with beta is a root,
    the sum being [1, k]."""
    for rank in range(1, 6):
        roots = root_order(rank)
        for j, k in roots:
            if j > 1:
                found = [g for g in roots if g[0] == 1 and add_roots(g, (j, k))]
                assert found == [(1, j - 1)]
                assert add_roots(found[0], (j, k)) == (1, k)


# ---------------------------------------------------------------------------
# cells of the semistable shape


def test_cyclic_element_one_line():
    assert cyclic_element(3).images == (2, 3, 4, 1)


def test_cell_parameter_splits_off_cycle():
    c = cyclic_element(3)
    for tau in subgroup_fixing_last(3):
        w = c * tau
        assert cell_parameter(w) == tau
        assert pi_point(w, symbolic_coords(w))[0] == Permutation(tau.images[:3])


def test_cell_parameter_rejects_other_cells():
    with pytest.raises(ValueError):
        cell_parameter(cyclic_element(3) * from_word((3,), 4))


def test_negative_elements_counts():
    import math

    for n in (2, 3):
        chi = RegularDominantChar(n, tuple(range(1, n + 1)))
        elements = negative_elements(chi)  # internally cross-checked
        assert len(elements) == math.factorial(n)
        c = cyclic_element(n)
        assert all(cell_parameter(w) is not None for w in elements)
        assert c in elements


def test_negative_elements_rank_five_is_the_coset_family():
    elements = negative_elements(RegularDominantChar(5, (1, 2, 3, 4, 5)))
    c = cyclic_element(5)
    assert elements == {c * tau for tau in subgroup_fixing_last(5)}
    assert len(elements) == 120


@st.composite
def regular_dominant_chars(draw):
    """A positive strictly increasing character of rank 1 to 6."""
    n = draw(st.integers(1, 6))
    steps = draw(st.lists(st.integers(1, 9), min_size=n, max_size=n))
    return RegularDominantChar(n, tuple(accumulate(steps)))


@settings(derandomize=True, database=None, max_examples=30, deadline=None)
@given(chi=regular_dominant_chars())
def test_negative_elements_are_the_scan_of_every_permutation(chi):
    """The pruned search finds what acting with all of S_{n+1} finds, and
    every element sends n + 1 to 1."""
    elements = negative_elements(chi)
    assert elements == negative_elements_by_scan(chi.coeffs)
    assert {w(chi.rank + 1) for w in elements} == {1}


def test_negative_elements_raise_when_the_coset_family_disagrees(monkeypatch):
    monkeypatch.setattr(flag, "subgroup_fixing_last", lambda n: [])
    with pytest.raises(ArithmeticError, match="disagree with the coset description"):
        negative_elements(RegularDominantChar(3, (1, 2, 3)))


def test_regular_dominant_char_validation():
    with pytest.raises(ValueError):
        RegularDominantChar(3, (1, 2))
    with pytest.raises(ValueError):
        RegularDominantChar(3, (0, 1, 2))
    with pytest.raises(ValueError):
        RegularDominantChar(3, (1, 1, 2))


# ---------------------------------------------------------------------------
# points of a cell and their coordinates


def _random_coords(w, rng):
    return {
        r: Fraction(rng.choice([v for v in range(-9, 10) if v]))
        for r in inversion_roots(w)
    }


@pytest.mark.parametrize("n", [2, 3, 4])
def test_decompose_inverts_point_matrix_everywhere(n):
    rng = random.Random(0)
    for w in all_permutations(n):
        coords = _random_coords(w, rng)
        w2, coords2 = decompose_point(point_matrix(w, coords))
        assert w2 == w
        assert coords2 == coords


def test_inversion_roots_follow_global_order():
    w = top_cell(3)
    roots = inversion_roots(w)
    assert len(roots) == length(w)
    order = root_order(3)
    assert sorted(roots, key=order.index) == list(roots)


def test_torus_scale_rescales_coordinates():
    w = top_cell(2)
    coords = {(1, 1): Fraction(2), (1, 2): Fraction(3), (2, 2): Fraction(5)}
    ts = [Fraction(1), Fraction(2), Fraction(6)]
    _, scaled = decompose_point(torus_scale(point_matrix(w, coords), ts))
    # coordinate at [j,k] rescales by t_j / t_{k+1}
    assert scaled[(1, 1)] == coords[(1, 1)] * ts[0] / ts[1]
    assert scaled[(1, 2)] == coords[(1, 2)] * ts[0] / ts[2]
    assert scaled[(2, 2)] == coords[(2, 2)] * ts[1] / ts[2]


# ---------------------------------------------------------------------------
# the quotient map


def test_pi_tau_frozen_small_cell():
    tau = from_word((1, 2), 4)
    exprs = pi_tau(tau, 3)
    assert {k: v.canonical() for k, v in exprs.items()} == {
        "Y_1_1": "(-X_1_1*X_2_2)/(X_1_2)",
        "Y_1_2": "(-X_1_1*X_2_3)/(X_1_3)",
    }


@pytest.mark.parametrize("n", [2, 3, 4])
def test_pi_tau_on_the_full_cell_is_the_flag_lattice_basis(n):
    """The quotient map on the full cell against the exponent vectors that
    `flag_lattice` writes down on its own: Y = sign * X-monomial."""
    lattice = flag_lattice(n)
    exprs = pi_tau(longest_element(range(1, n), n + 1), n)
    assert tuple(exprs) == lattice.y_names
    assert exprs == y_monomials(lattice)
    for expr, gen in zip(exprs.values(), lattice.generators):
        assert expr.names == lattice.x_names
        [(num, a)], [(den, b)] = expr.numer.items(), expr.denom.items()
        assert a / b == lattice.sign
        assert tuple(p - q for p, q in zip(num, den)) == gen


def test_pi_tau_rejects_moving_last_letter():
    with pytest.raises(ValueError):
        pi_tau(from_word((3,), 4), 3)


def test_pi_tau_weight_check_reads_the_expressions(monkeypatch):
    """A coordinate whose monomials differ in torus weight must raise,
    printing each weight as its nonzero e-coordinates: e_1 - e_4 against
    2 e_1 - e_2 - e_4."""
    real = flag.pi_point

    def off_by_one_root(w, coords):
        small, ys = real(w, coords)
        return small, {r: v * coords[(1, 1)] for r, v in ys.items()}

    monkeypatch.setattr(flag, "pi_point", off_by_one_root)
    text = "Y_1_2 mixes weights [((1, 1), (4, -1)), ((1, 2), (2, -1), (4, -1))]"
    with pytest.raises(ArithmeticError, match=re.escape(text)):
        pi_tau(from_word((1, 2), 4), 3)


@pytest.mark.parametrize("n", [2, 3])
def test_pi_point_matches_symbolic_map(n):
    rng = random.Random(1)
    for tau in subgroup_fixing_last(n):
        w = cyclic_element(n) * tau
        exprs = pi_tau(tau, n)
        coords = _random_coords(w, rng)
        values = {
            f"X_{a}_{b}": v for (a, b), v in coords.items()
        }
        small, yvals = pi_point(w, coords)
        for (a, b), val in yvals.items():
            assert exprs[f"Y_{a}_{b}"].evaluate(values) == val


def test_support_predicate_matches_sampling_oracle():
    """First-row coordinates nonzero iff the point is torus-semistable,
    on every cell of the smallest three flag varieties."""
    rng = random.Random(7)
    for n in (2, 3, 4):
        chi = [Fraction(c) for c in range(1, n + 1)]
        cyc = cyclic_element(n)
        for w in all_permutations(n + 1):
            try:
                member = semistable_flag_support(w, n)
                is_cell = True
            except ValueError:
                is_cell = False
            for _ in range(3):
                coords = _random_coords(w, rng)
                mat = point_matrix(w, coords)
                truth = oracle.flag_point_semistable(
                    [[Fraction(e) for e in row] for row in mat], chi
                )
                if is_cell:
                    assert truth == member(coords)
                else:
                    assert not truth
            if is_cell:
                # vanishing any first-row coordinate destabilizes
                coords = _random_coords(w, rng)
                coords[(1, 1)] = Fraction(0)
                assert not member(coords)
                assert not oracle.flag_point_semistable(
                    [[Fraction(e) for e in row] for row in point_matrix(w, coords)], chi
                )


# ---------------------------------------------------------------------------
# the induced action downstairs


def test_s1_rule_negates_and_shifts_first_row():
    names = flag_y_names(2)
    got = {
        nm: s1_y_action(RationalFunction.variable(nm, names)).canonical()
        for nm in names
    }
    assert got == {"Y_1_1": "-Y_1_1 - 1", "Y_1_2": "-Y_1_2 - 1", "Y_2_2": "Y_2_2"}


def test_s1_rule_is_involution():
    names = flag_y_names(3)
    for nm in names:
        var = RationalFunction.variable(nm, names)
        assert s1_y_action(s1_y_action(var)) == var


def test_reexpress_in_y_roundtrip():
    n = 2
    w0 = top_cell(n)
    coords = symbolic_coords(w0)
    # the signed cross-ratio -X_1_1 X_2_2 / X_1_2 IS the quotient coordinate
    f = -coords[(1, 1)] * coords[(2, 2)] / coords[(1, 2)]
    assert reexpress(f, flag_lattice(n)).canonical() == "Y_1_1"
    assert reexpress(f * f, flag_lattice(n)).canonical() == "Y_1_1**2"
    with pytest.raises(ReexpressionError):
        reexpress(coords[(1, 1)], flag_lattice(n))  # weight nonzero


@pytest.mark.parametrize("n", [2, 3, 4])
def test_quotient_generator_action_matches_the_point_route(n):
    for i in range(1, n + 1):
        assert flag.quotient_generator_action(i, n) == reference_quotient_generator_action(i, n)


def test_swap_rows_keeps_generic_top_cell_point_in_cell():
    w0 = top_cell(2)
    coords = _random_coords(w0, random.Random(3))
    w2, _ = decompose_point(swap_rows(point_matrix(w0, coords), 2))
    assert w2 == w0


# ---------------------------------------------------------------------------
# the desk check, one instance at a time


def _tallies(n, seed=0, samples=30):
    """label -> (holds, total) over every instance the desk check yields."""
    out = {}
    for check, ok, _ in desk_check(n, seed, samples):
        holds, total = out.get(check, (0, 0))
        out[check] = (holds + ok, total + 1)
    return out


def test_stability_report_small():
    tallies = _tallies(2)
    assert all(h == t for c, (h, t) in tallies.items() if c not in PRINTED_DIVERGENCES)
    assert tallies["image support preserved"] == (60, 60)
    assert tallies["torus-translate recovery"] == (40, 40)
    assert tallies["rescale-invariant verdicts"] == (60, 60)
    assert tallies["case 3-middle-equals-inner-ends"] == (30, 30)
    assert tallies["commutation identity [sign-dropped]"] == (60, 60)


def test_every_required_rule_is_hit_at_rank_three():
    tallies = _tallies(3, samples=1)
    for rule in (
        "rule alpha-inverts",
        "rule start-at-i-divides",
        "rule end-at-i-divides-when-partner-absent",
        "rule end-at-i-swaps-when-partner-present",
        "rule end-before-i-swaps",
    ):
        holds, total = tallies[rule]
        assert holds == total >= 1, rule


def test_stability_report_records_sign_convention():
    details = [line.strip() for line in exhaustive_check("thm-5.2", n=2, samples=6).details]
    assert any(
        line.startswith("reading quotient-map-sign:") and "leading minus dropped" in line
        for line in details
    )
    assert any(line.startswith("reading case-3-right-end:") and "s_i" in line for line in details)
    assert any(
        line.startswith("note:") and "dropping the leading minus" in line for line in details
    )


def test_stability_check_refuses_large_rank(monkeypatch):
    """The size limit is checked before the suite builds a single
    quotient map or starts the desk check."""
    ran = []

    def refuse(*args, **kwargs):
        ran.append(args)
        raise AssertionError("ran past the size limit")

    monkeypatch.setattr(flag, "pi_tau", refuse)
    monkeypatch.setattr(flag, "desk_check", refuse)
    with pytest.raises(ValueError, match="n=5 is over the limit n <= 4"):
        exhaustive_check("thm-5.2", n=5)
    assert ran == []
