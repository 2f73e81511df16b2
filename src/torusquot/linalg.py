"""Small exact linear algebra: a column echelon generic over the scalar
and Hermite forms over the integers.

Everything here works on plain lists of lists; matrices are modest
(at most a few dozen rows), so clarity wins over asymptotics.
"""

from __future__ import annotations

from fractions import Fraction as Q
from typing import List, Sequence, Tuple

IntMatrix = List[List[int]]


def column_echelon(mat: Sequence[Sequence]) -> Tuple[List[int], List[list]]:
    """Pivot rows and reduced columns of a matrix with independent columns.

    Columns are reduced left to right: each is cleared against earlier
    columns until its lowest nonzero entry sits in a fresh row, its
    pivot, which is scaled to 1; then every pivot row is cleared from
    the columns to its right.  Any exact scalar works (int, Fraction,
    RationalFunction); int entries divide as Fractions.  The set of
    pivot rows (0-based, one per column) depends only on the column
    span.  Raises ValueError if the columns are dependent.
    """
    nrows = len(mat)
    ncols = len(mat[0]) if nrows else 0
    cols = [[mat[i][j] for i in range(nrows)] for j in range(ncols)]
    pivots: List[int] = []
    for j in range(ncols):
        col = cols[j]
        while True:
            low = next((i for i in range(nrows - 1, -1, -1) if col[i] != 0), None)
            if low is None:
                raise ValueError("columns are linearly dependent")
            if low not in pivots:
                break
            f = col[low]
            col = [a - f * b for a, b in zip(col, cols[pivots.index(low)])]
        piv = col[low]
        # pristine permutation entries are plain ints; int/int must not float
        if piv != 1:
            col = [
                Q(a, piv) if isinstance(a, int) and isinstance(piv, int) else a / piv
                for a in col
            ]
        cols[j] = col
        pivots.append(low)
    for j, p in enumerate(pivots):
        for j2 in range(j + 1, ncols):
            f = cols[j2][p]
            if f != 0:
                cols[j2] = [a - f * b for a, b in zip(cols[j2], cols[j])]
    return pivots, cols


def hnf_columns(a: Sequence[Sequence[int]]) -> Tuple[IntMatrix, IntMatrix]:
    """Column-style Hermite form H = A U with U unimodular.

    Columns of H are echelonized left to right: each pivot is positive,
    entries to the right of a pivot in its row vanish, entries to the
    left are reduced into [0, pivot), and zero columns are pushed to
    the right.  This form is unique per column lattice, so equality of
    forms decides equality of lattices.  (H, U) is returned.
    """
    nrows = len(a)
    ncols = len(a[0]) if nrows else 0
    # Every column operation acts on A stacked over the identity, so the
    # top rows become H and the bottom rows accumulate U.
    h = [[int(x) for x in row] for row in a]
    h += [[int(i == j) for j in range(ncols)] for i in range(ncols)]

    def swap(c1: int, c2: int) -> None:
        for row in h:
            row[c1], row[c2] = row[c2], row[c1]

    def addmul(dst: int, src: int, f: int) -> None:
        for row in h:
            row[dst] += f * row[src]

    def negate(c: int) -> None:
        for row in h:
            row[c] = -row[c]

    pivots = []
    col = 0
    for row in range(nrows):
        if col == ncols:
            break
        # gcd sweep on h[row][col:]
        while True:
            nz = [c for c in range(col, ncols) if h[row][c] != 0]
            if not nz:
                break
            cmin = min(nz, key=lambda c: abs(h[row][c]))
            swap(col, cmin)
            done = True
            for c in range(col + 1, ncols):
                if h[row][c] != 0:
                    addmul(c, col, -(h[row][c] // h[row][col]))
                    if h[row][c] != 0:
                        done = False
            if done:
                break
        if h[row][col] == 0:
            continue
        if h[row][col] < 0:
            negate(col)
        pivots.append((row, col))
        col += 1
    # Reduce entries left of each pivot into [0, pivot).  Top-down order
    # keeps already reduced pivot rows untouched (pivot columns vanish
    # above their own pivot row).
    for row, col in pivots:
        for c in range(col):
            q = h[row][c] // h[row][col]
            if q:
                addmul(c, col, -q)
    return h[:nrows], h[nrows:]


def integer_kernel_basis(a: Sequence[Sequence[int]]) -> List[List[int]]:
    """A basis of the lattice {x integral : A x = 0}."""
    nrows = len(a)
    ncols = len(a[0]) if nrows else 0
    h, u = hnf_columns(a)
    basis = []
    for c in range(ncols):
        if all(h[r][c] == 0 for r in range(nrows)):
            basis.append([u[r][c] for r in range(ncols)])
    return basis


def lattice_canonical_form(vectors: Sequence[Sequence[int]]) -> IntMatrix:
    """Canonical form of the lattice spanned by the given vectors.

    Two generating sets span the same lattice iff their canonical
    forms coincide (Hermite form of the matrix with the vectors as
    columns, zero columns dropped).
    """
    if not vectors:
        return []
    ncols = len(vectors[0])
    mat = [[vec[r] for vec in vectors] for r in range(ncols)]
    h, _ = hnf_columns(mat)
    keep = [c for c in range(len(vectors)) if any(h[r][c] != 0 for r in range(ncols))]
    return [[h[r][c] for c in keep] for r in range(ncols)]
