"""Small exact linear algebra: a column echelon generic over the scalar
and the column Hermite form over the integers, whose transform gives the
integer left inverse that certifies a saturated lattice basis.  The
kernel basis and lattice canonical form that the certificate is checked
against are references in ``tests/conftest.py``.

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
    # top rows become H and the bottom rows accumulate U.  Columns are
    # held as lists, so that an operation is one list comprehension.
    cols = [[int(row[j]) for row in a] + [0] * ncols for j in range(ncols)]
    for j in range(ncols):
        cols[j][nrows + j] = 1

    def addmul(dst: int, src: int, f: int) -> None:
        cols[dst] = [x + f * y for x, y in zip(cols[dst], cols[src])]

    pivots = []
    col = 0
    for row in range(nrows):
        if col == ncols:
            break
        # gcd sweep on row `row` of the columns col, col + 1, ...
        while True:
            nz = [c for c in range(col, ncols) if cols[c][row] != 0]
            if not nz:
                break
            cmin = min(nz, key=lambda c: abs(cols[c][row]))
            cols[col], cols[cmin] = cols[cmin], cols[col]
            done = True
            for c in range(col + 1, ncols):
                if cols[c][row] != 0:
                    addmul(c, col, -(cols[c][row] // cols[col][row]))
                    if cols[c][row] != 0:
                        done = False
            if done:
                break
        if cols[col][row] == 0:
            continue
        if cols[col][row] < 0:
            cols[col] = [-x for x in cols[col]]
        pivots.append((row, col))
        col += 1
    # Reduce entries left of each pivot into [0, pivot).  Top-down order
    # keeps already reduced pivot rows untouched (pivot columns vanish
    # above their own pivot row).
    for row, col in pivots:
        for c in range(col):
            q = cols[c][row] // cols[col][row]
            if q:
                addmul(c, col, -q)
    rows = [list(r) for r in zip(*cols)] if cols else [[] for _ in range(nrows)]
    return rows[:nrows], rows[nrows:]
