"""Small exact linear algebra: a column echelon generic over the scalar.

The lattice certificates need no normal form: each invariant lattice
states its integer left inverse in closed form (see ``invariants``).
The column Hermite form, and the kernel basis and lattice canonical form
built on it that the certificate is checked against, are references in
``tests/conftest.py``.

Everything here works on plain lists of lists; matrices are modest
(at most a few dozen rows), so clarity wins over asymptotics.
"""

from __future__ import annotations

from fractions import Fraction as Q
from typing import List, Sequence, Tuple


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
