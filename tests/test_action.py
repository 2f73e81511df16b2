"""Symmetric group action on cell coordinates and on the invariants."""

import random
from fractions import Fraction

import pytest
from conftest import coordinates_of_matrix, count_fallbacks

from torusquot import ratfunc
from torusquot.action import (
    action_case,
    adjoint_torus_action,
    check_equivariance,
    closed_y_action,
    matrix_of_point,
    r2_action,
    r2_names,
    stabilizer_generators,
    standard_rep_action,
    standard_rep_names,
    x_action,
    x_names,
    y_action_substitution,
    y_names,
)
from torusquot.ratfunc import RationalFunction, compose, identity_substitution
from torusquot.schubert import GrassmannElement, semistable_cells


G24 = GrassmannElement(5, 2, (2, 4))


def test_stabilizer_frozen():
    assert stabilizer_generators(G24) == frozenset({1, 2, 4})
    assert stabilizer_generators(GrassmannElement(6, 2, (3, 5))) == frozenset(
        {1, 2, 3, 5}
    )
    # the top cell's closure is everything, so every reflection stays
    assert stabilizer_generators(GrassmannElement(6, 2, (4, 5))) == frozenset(
        {1, 2, 3, 4, 5}
    )


def test_x_names_frozen():
    assert x_names(G24) == ("X_1_1", "X_1_2", "X_2_1", "X_2_2", "X_2_3")
    assert y_names(G24) == ("Y_1_1",)


def test_x_action_is_involution():
    ident = identity_substitution(x_names(G24))
    for k in sorted(stabilizer_generators(G24)):
        sub = x_action(k, G24)
        assert compose(sub, sub) == ident


def test_x_action_permutes_points_like_row_swap():
    """The coordinate action must agree with swapping matrix rows and
    re-reading coordinates, on a generic rational point of every
    semistable cell with n <= 6 and every stabilizing generator."""
    rng = random.Random(0)
    checked = 0
    for n in range(4, 7):
        for r in range(2, n - 1):
            for g in semistable_cells(n, r):
                values = {
                    name: Fraction(rng.choice([v for v in range(-9, 10) if v]), rng.randint(1, 5))
                    for name in x_names(g)
                }
                mat = matrix_of_point(g, values)
                for k in sorted(stabilizer_generators(g)):
                    swapped = [row[:] for row in mat]
                    swapped[k - 1], swapped[k] = swapped[k], swapped[k - 1]
                    sub = x_action(k, g)
                    pulled = {name: sub[name].evaluate(values) for name in sub}
                    assert pulled == coordinates_of_matrix(swapped, g), (g, k)
                    checked += 1
    assert checked == 65


def test_coordinates_of_matrix_rejects_other_cells():
    values = {name: Fraction(1) for name in x_names(G24)}
    mat = matrix_of_point(G24, values)
    # moving the point out of the cell flips a pivot
    mat[2], mat[3] = mat[3], mat[2]
    with pytest.raises(ValueError):
        coordinates_of_matrix(mat, G24)


def test_closed_y_action_frozen_forms():
    one = {k: {n: f.canonical() for n, f in closed_y_action(k, G24).items()}
           for k in (1, 2, 4)}
    assert one[1] == {"Y_1_1": "(1)/(Y_1_1)"}
    assert one[2] == {"Y_1_1": "-Y_1_1 + 1"}
    assert one[4] == {"Y_1_1": "Y_1_1"}


@pytest.mark.parametrize("n,a", [(5, (2, 4)), (6, (3, 5)), (6, (4, 5))])
def test_pushed_through_action_matches_closed_form(n, a):
    g = GrassmannElement(n, 2, a)
    for k in sorted(stabilizer_generators(g)):
        assert y_action_substitution(k, g) == closed_y_action(k, g)


def test_y_action_is_involution_on_semistable_cells_n5():
    for g in semistable_cells(5, 2) + semistable_cells(5, 3):
        ident = identity_substitution(y_names(g))
        for k in sorted(stabilizer_generators(g)):
            sub = y_action_substitution(k, g)
            assert compose(sub, sub) == ident


def test_y_actions_need_no_polynomial_gcd():
    """Through n = 7, both Y actions of every semistable cell reduce each
    fraction by the one- or two-term rule, never by the fallback's gcd."""
    with count_fallbacks() as calls:
        for n in range(4, 8):
            for r in range(2, n - 1):
                for g in semistable_cells(n, r):
                    for k in sorted(stabilizer_generators(g)):
                        y_action_substitution(k, g)
                        closed_y_action(k, g)
    assert calls == []


def test_r2_rules_frozen():
    names = r2_names(3)
    y1, y2 = identity_substitution(names)["Y_1"], identity_substitution(names)["Y_2"]
    # leading swap
    assert r2_action(1, 3, y1) == y2
    # boxed pivot rule
    assert r2_action(2, 3, y1) == y1 / y2
    assert r2_action(2, 3, y2) == 1 / y2
    # affine flip
    assert r2_action(3, 3, y1) == 1 - y1


def test_r2_far_indices_need_ambient_size():
    names = r2_names(3)
    y1 = identity_substitution(names)["Y_1"]
    with pytest.raises(ValueError):
        r2_action(5, 3, y1)
    assert r2_action(5, 3, y1, n=7) == y1  # identity far block
    assert r2_action(4, 3, y1, n=5) == 1 / y1  # tight fit: final swap inverts
    with pytest.raises(ValueError):
        r2_action(4, 3, y1, n=7)  # k = m + 1 never stabilizes


def test_adjoint_model_matches_leading_rules():
    for m in (2, 3, 4):
        for k in range(1, m):
            for j in range(1, m):
                var = RationalFunction.variable(f"Y_{j}", r2_names(m))
                assert adjoint_torus_action(k, m, var) == r2_action(k, m, var)


def test_standard_rep_model_full_equivariance():
    for m in (2, 3):
        rep = check_equivariance(m)
        assert rep.ok
        assert rep.negative_control_failed


def test_standard_rep_action_shape():
    z1 = RationalFunction.variable("Z_1", standard_rep_names(2))
    assert standard_rep_action(2, 2, z1) == 1 - z1
    assert standard_rep_action(1, 2, z1) == 1 / z1


def test_subs_sends_a_bare_variable_to_its_image(monkeypatch):
    """A bare variable goes to the mapped image object itself, with no
    reduction; `compose` is `subs` on each image in turn."""
    fractions = []
    reduce = ratfunc._fraction
    monkeypatch.setattr(ratfunc, "_fraction", lambda *args: fractions.append(args) or reduce(*args))
    for n in range(4, 7):
        for r in range(2, n - 1):
            for g in semistable_cells(n, r):
                for k in sorted(stabilizer_generators(g)):
                    for sub, names in ((x_action(k, g), x_names(g)), (closed_y_action(k, g), y_names(g))):
                        ident = identity_substitution(names)
                        fractions.clear()
                        for name, var in ident.items():
                            assert var.subs(sub) is sub[name]
                        assert fractions == []
                        for second, first in ((sub, sub), (ident, sub), (sub, ident)):
                            assert compose(second, first) == {
                                key: value.subs(second) for key, value in first.items()
                            }


def test_compose_raises_as_subs_does_on_bare_images():
    x, y = (RationalFunction.variable(name, ("x", "y")) for name in ("x", "y"))
    u = RationalFunction.variable("u", ("u",))
    with pytest.raises(ValueError, match="unknown variable 'z'"):
        compose({"z": u}, {"x": y})
    with pytest.raises(ValueError, match="mixed variable sets"):
        compose({"x": u, "y": x}, {"x": y})
    with pytest.raises(ValueError, match="no image provided for occurring variable 'y'"):
        compose({"x": u}, {"x": y})


def test_every_action_case_label_passes_the_prop_3_2_conditions():
    """Every stabilizing generator of three n = 8 cells, whose s_5, s_4 and
    s_3 are the first gap-swap instances, and of the cell (2, 4) at n = 7,
    where s_6 lies past every block: the coordinate action is an
    involution, re-expresses in the invariants, matches the closed form,
    and the outside case is the identity."""
    gap_swaps = {
        GrassmannElement(8, 2, (3, 7)): 5,
        GrassmannElement(8, 3, (2, 6, 7)): 4,
        GrassmannElement(8, 4, (1, 5, 6, 7)): 3,
    }
    outside = GrassmannElement(7, 2, (2, 4))
    labels = set()
    for g in [*gap_swaps, outside]:
        ident = identity_substitution(x_names(g))
        yident = identity_substitution(y_names(g))
        for k in sorted(stabilizer_generators(g)):
            label, _ = action_case(k, g)
            labels.add(label)
            sub = x_action(k, g)
            ysub = y_action_substitution(k, g)
            assert compose(sub, sub) == ident, (g, k)
            assert ysub == closed_y_action(k, g), (g, k)
            assert compose(ysub, ysub) == yident, (g, k)
    for g, k in gap_swaps.items():
        assert action_case(k, g) == ("gap-swap", 1)
    assert action_case(6, outside) == ("outside", 2)
    assert x_action(6, outside) == identity_substitution(x_names(outside))
    assert closed_y_action(6, outside) == identity_substitution(y_names(outside))
    assert labels == {"head-swap", "gap-swap", "pre-block-swap", "row-swap", "inversion", "outside"}
