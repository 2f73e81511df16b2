"""Exact linear algebra and integer lattice normal forms."""

import random
from fractions import Fraction

import pytest
from conftest import int_det, solve_linear
from hypothesis import given, settings
from hypothesis import strategies as st

from torusquot.linalg import (
    column_echelon,
    hnf_columns,
    integer_kernel_basis,
    lattice_canonical_form,
)


def test_solve_linear_unique():
    a = [[2, 1], [1, 3]]
    x = solve_linear(a, [5, 10])
    assert x == [Fraction(1), Fraction(3)]


def test_solve_linear_inconsistent_returns_none():
    assert solve_linear([[1, 2], [2, 4]], [1, 3]) is None


def test_column_echelon_normal_form():
    # column 1 pivots at its lowest row 1; column 2 at row 2, and then
    # loses its entry in row 1
    pivots, cols = column_echelon([[1, 2], [3, 4], [0, 2]])
    assert pivots == [1, 2]
    assert cols == [[Fraction(1, 3), 1, 0], [Fraction(1, 3), 0, 1]]
    assert all(isinstance(x, (int, Fraction)) for col in cols for x in col)


def test_column_echelon_pivot_set_depends_only_on_span():
    rng = random.Random(0)
    for _ in range(200):
        mat = [[rng.randint(-2, 2) for _ in range(3)] for _ in range(5)]
        mix = [[rng.randint(-3, 3) for _ in range(3)] for _ in range(3)]
        if int_det(mix) == 0:
            continue
        try:
            pivots, _ = column_echelon(mat)
        except ValueError:
            continue
        mixed = [[sum(a * b for a, b in zip(row, col)) for col in zip(*mix)] for row in mat]
        assert sorted(column_echelon(mixed)[0]) == sorted(pivots)


def test_column_echelon_refuses_dependent_columns():
    with pytest.raises(ValueError, match="dependent"):
        column_echelon([[1, 2], [2, 4], [3, 6]])
    with pytest.raises(ValueError, match="dependent"):
        column_echelon([[1, 0], [2, 0]])


def test_hnf_transform_is_unimodular():
    a = [[2, 4, 4], [-6, 6, 12], [10, 4, 16]]
    h, u = hnf_columns(a)
    m = len(a[0])
    prod = [
        [sum(a[i][k] * u[k][j] for k in range(m)) for j in range(m)]
        for i in range(len(a))
    ]
    assert prod == h
    assert int_det(u) in (1, -1)
    # column-style triangular with positive pivots
    pivots = []
    for j in range(m):
        nz = [i for i in range(len(h)) if h[i][j]]
        if nz:
            pivots.append(nz[0])
            assert h[nz[0]][j] > 0
    assert pivots == sorted(pivots)


@st.composite
def integer_matrices(draw):
    """1-4 rows, 1-5 columns, small signed entries with zeros frequent."""
    rows = draw(st.integers(1, 4))
    cols = draw(st.integers(1, 5))
    entry = st.one_of(st.just(0), st.integers(-6, 6))
    return draw(st.lists(st.lists(entry, min_size=cols, max_size=cols), min_size=rows, max_size=rows))


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(a=integer_matrices())
def test_hnf_is_a_times_a_unimodular_transform(a):
    h, u = hnf_columns(a)
    m = len(a[0])
    assert len(u) == m and all(len(row) == m for row in u)
    assert h == [[sum(a[i][k] * u[k][j] for k in range(m)) for j in range(m)] for i in range(len(a))]
    assert int_det(u) in (1, -1)


def test_integer_kernel_basis_exact():
    a = [[1, 1, 1], [0, 1, 2]]
    basis = integer_kernel_basis(a)
    assert len(basis) == 1
    v = basis[0]
    # primitive kernel vector, up to sign
    assert [abs(c) for c in v] == [1, 2, 1]
    for row in a:
        assert sum(x * y for x, y in zip(row, v)) == 0


def test_lattice_canonical_form_detects_equality():
    basis1 = [[1, 0, -1], [0, 1, -1]]
    basis2 = [[1, 1, -2], [1, -1, 0]]  # same lattice? no: index 2 sublattice
    same = [[1, 0, -1], [1, 1, -2]]
    assert lattice_canonical_form(basis1) == lattice_canonical_form(same)
    assert lattice_canonical_form(basis1) != lattice_canonical_form(basis2)
