"""Grassmannian cells: normal forms, the gateway element, inversion arrays."""

import json
import math
import warnings

import pytest
from conftest import from_permutation, has_semistable, length, min_coset_reps, semistable_cells_by_scan
from hypothesis import given, settings
from hypothesis import strategies as st

from torusquot import flag, schubert
from torusquot.cli import run
from torusquot.schubert import (
    GrassmannElement,
    all_cells,
    cell_length,
    grassmann_leq,
    inversion_array,
    row_starts,
    semistable_cells,
    tau_r,
    tau_r_closed_form,
    to_permutation,
    word_of,
)
from torusquot.weights import fundamental_weight, minuscule_floor_element


def test_a_seq_validation():
    with pytest.raises(ValueError):
        GrassmannElement(5, 2, (4, 2))
    with pytest.raises(ValueError):
        GrassmannElement(5, 2, (2, 5))
    with pytest.raises(ValueError):
        GrassmannElement(5, 3, (2, 4))


@pytest.mark.parametrize("n,r", [(4, 2), (5, 2), (5, 3), (6, 2), (6, 3)])
def test_cells_biject_with_minimal_representatives(n, r):
    cells = list(all_cells(n, r))
    I = tuple(i for i in range(1, n) if i != r)
    reps = set(min_coset_reps(I, n))
    perms = {to_permutation(g) for g in cells}
    assert perms == reps
    for g in cells:
        assert from_permutation(to_permutation(g), r) == g
        assert cell_length(g) == length(to_permutation(g))
        assert len(word_of(g)) == cell_length(g)


def test_word_normal_form_frozen():
    assert word_of(GrassmannElement(5, 2, (2, 4))) == (2, 1, 4, 3, 2)
    assert word_of(GrassmannElement(4, 2, (1, 3))) == (1, 3, 2)


def test_tau_frozen_values():
    assert tau_r(5, 2).a_seq == (2, 4)
    assert tau_r(5, 3).a_seq == (1, 3, 4)
    assert tau_r(6, 2).a_seq == (2, 5)
    assert tau_r(7, 2).a_seq == (3, 6)
    assert tau_r(7, 3).a_seq == (2, 4, 6)


def test_tau_case_split_form_diverges_as_a_record(capsys):
    """The case-split shortcut loses to the descent computation.  The
    disagreement is surfaced as a divergence record in the tau report,
    not as a warning from tau_r."""
    assert tau_r_closed_form(5, 3).a_seq == (2, 3, 4)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        g = tau_r(5, 3)
    assert g.a_seq == (1, 3, 4)
    assert run(["tau", "--n", "5", "--r", "3"]) == 0
    out = capsys.readouterr()
    assert out.err == ""
    assert json.loads(out.out)["results"]["divergences"] == [
        "case-split form [2, 3, 4] disagrees with the descent result [1, 3, 4] "
        "for n=5, r=3; the descent result is kept"
    ]


def test_tau_case_split_reliable_exactly_when_remainder_one():
    for n in range(4, 10):
        for r in range(2, n - 1):
            agrees = tau_r_closed_form(n, r) == tau_r(n, r)
            assert agrees == (n % r == 1), (n, r)


def test_tau_ceil_form_always_agrees():
    """The closed form a_j = ceil(j n / r) - 1 is the rounding descent's
    cell, for all 378 pairs with n <= 30."""
    for n in range(4, 31):
        for r in range(2, n - 1):
            descent = minuscule_floor_element(fundamental_weight(r, n), "ceil")
            assert from_permutation(descent, r) == tau_r(n, r)


def test_semistable_cells_frozen():
    def seqs(n, r):
        return sorted(g.a_seq for g in semistable_cells(n, r))

    assert seqs(5, 2) == [(2, 4), (3, 4)]
    assert seqs(4, 2) == [(1, 3), (2, 3)]
    assert seqs(6, 2) == [(2, 5), (3, 5), (4, 5)]
    assert seqs(5, 3) == [(1, 3, 4), (2, 3, 4)]


@pytest.mark.parametrize("n", range(4, 11))
def test_semistable_cells_are_the_cells_passing_has_semistable(n):
    for r in range(2, n - 1):
        assert semistable_cells(n, r) == [g for g in all_cells(n, r) if has_semistable(g)]


@st.composite
def grassmannians(draw):
    n = draw(st.integers(4, 12))
    return n, draw(st.integers(2, n - 2))


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(nr=grassmannians())
def test_semistable_cells_enumerate_the_scan(nr):
    """The up-set enumeration lists exactly the cells the scan of all
    C(n, r) cells keeps, in the same order."""
    assert semistable_cells(*nr) == semistable_cells_by_scan(*nr)


@pytest.mark.parametrize("m", range(2, 12))
def test_semistable_cells_at_half_rank_are_catalan_many(m):
    """tau_m at n = 2m is (1, 3, ..., 2m - 1), and the a-sequences above it
    are the ballot sequences: C_m of them (58,786 at m = 11)."""
    assert len(semistable_cells(2 * m, m)) == math.comb(2 * m, m) // (m + 1)


def test_semistable_cells_refuses_what_tau_refuses():
    with pytest.raises(ValueError, match="need 2 <= r <= n - 2"):
        semistable_cells(1, 2)


def test_semistable_cells_computes_tau_once(monkeypatch):
    calls = []
    real = schubert.tau_r

    def counting_tau_r(n, r):
        calls.append((n, r))
        return real(n, r)

    monkeypatch.setattr(schubert, "tau_r", counting_tau_r)
    assert semistable_cells(9, 4)
    assert calls == [(9, 4)]


def test_has_semistable_is_upward_closed():
    for g in all_cells(6, 2):
        if has_semistable(g):
            for h in all_cells(6, 2):
                if grassmann_leq(g, h):
                    assert has_semistable(h)


def test_grassmann_leq_componentwise():
    a = GrassmannElement(6, 2, (2, 4))
    b = GrassmannElement(6, 2, (3, 5))
    c = GrassmannElement(6, 2, (1, 5))
    assert grassmann_leq(a, b)
    assert not grassmann_leq(a, c)  # 2 > 1 in the first slot


@pytest.mark.parametrize(
    "name,broken",
    [("row_starts", lambda g, i: row_starts(g, i)[1:]), ("cell_length", lambda g: cell_length(g) + 1)],
)
def test_inversion_array_checks_its_shape_with_a_raise(monkeypatch, name, broken):
    """Both checks are raises, so no interpreter flag strips them."""
    monkeypatch.setattr(schubert, name, broken)
    with pytest.raises(ArithmeticError):
        inversion_array(GrassmannElement(6, 3, (2, 4, 5)))


def test_inversion_array_shape_and_intervals():
    g = GrassmannElement(5, 2, (2, 4))
    arr = inversion_array(g)
    assert arr.rows == (((1, 2), (2, 2)), ((1, 4), (2, 4), (4, 4)))
    assert row_starts(g, 2) == [1, 2, 4]  # skips a_1 + 1 = 3
    w = to_permutation(g)
    assert set(r for row in arr.rows for r in row) == set(flag.inversion_roots(w))

