"""Exact linear algebra and integer lattice normal forms."""

from fractions import Fraction

from torusquot.linalg import (
    determinant,
    hnf_columns,
    integer_kernel_basis,
    lattice_canonical_form,
    solve_linear,
)


def test_solve_linear_unique():
    a = [[2, 1], [1, 3]]
    x = solve_linear(a, [5, 10])
    assert x == [Fraction(1), Fraction(3)]


def test_solve_linear_inconsistent_returns_none():
    assert solve_linear([[1, 2], [2, 4]], [1, 3]) is None


def test_rank_and_determinant():
    assert determinant([[1, 2], [3, 4]]) == -2
    assert determinant([[Fraction(1, 2), 0], [0, 4]]) == 2


def test_hnf_transform_is_unimodular():
    a = [[2, 4, 4], [-6, 6, 12], [10, 4, 16]]
    h, u = hnf_columns(a)
    m = len(a[0])
    prod = [
        [sum(a[i][k] * u[k][j] for k in range(m)) for j in range(m)]
        for i in range(len(a))
    ]
    assert prod == h
    assert determinant(u) in (1, -1)
    # column-style triangular with positive pivots
    pivots = []
    for j in range(m):
        nz = [i for i in range(len(h)) if h[i][j]]
        if nz:
            pivots.append(nz[0])
            assert h[nz[0]][j] > 0
    assert pivots == sorted(pivots)


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
