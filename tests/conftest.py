"""Shared test plumbing: collect acceptance lines and show them last, and
the reference implementations that the package's main path is checked
against.  None of these is called by the package itself.

- ``int_det``: the determinant that the oracle's minors and the HNF
  transform are checked against.
- ``solve_linear`` and ``cartan_matrix``: the Cartan solve that
  ``weights.fundamental_weight``'s closed form is checked against, and
  the exact solver behind the reference re-expression.
- ``length``, ``left_descents``, ``reduced_word``, ``bruhat_leq``,
  ``bruhat_leq_classical``, ``is_min_coset_rep``, ``min_coset_reps``:
  Coxeter words and two partial orders on S_n.  ``bruhat_leq`` is the
  length-additive order (u <= w iff l(w) = l(u) + l(w u^-1), the left
  weak order) and ``bruhat_leq_classical`` the usual subword order.  The
  main path orders Grassmannian cells by ``schubert.grassmann_leq``; the
  tests check that all three orders agree on Grassmannian quotients.
- ``tau_r_ceil_form`` and ``has_semistable``: the evenly spread form of
  the minimal semistable cell and the gateway test for one cell.
- ``subset_leq``: the componentwise order on column sets.
- ``coordinates_of_matrix``: cell coordinates read back from a matrix,
  the reference for the Prop 3.2 row-swap test.
"""

from fractions import Fraction as Q
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from torusquot.linalg import column_echelon
from torusquot.schubert import GrassmannElement, grassmann_leq, row_starts, tau_r
from torusquot.weyl import Permutation, all_permutations, simple_reflection

ACCEPTANCE_LINES = []


def int_det(rows):
    """Determinant of an integer matrix by fraction-free elimination."""
    a = [row[:] for row in rows]
    m = len(a)
    if m == 0:
        return 1
    sign = 1
    prev = 1
    for k in range(m - 1):
        if a[k][k] == 0:
            for i in range(k + 1, m):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, m):
            for j in range(k + 1, m):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[-1][-1]


# ---------------------------------------------------------------------------
# exact linear solves and the Cartan matrix

Matrix = List[List[Q]]


def _to_q(rows: Sequence[Sequence]) -> Matrix:
    return [[Q(x) for x in row] for row in rows]


def solve_linear(a: Sequence[Sequence], b: Sequence) -> Optional[List[Q]]:
    """One solution of A x = b over the rationals, or None if inconsistent.

    If the system is underdetermined the free variables are set to 0.
    """
    m = _to_q(a)
    rhs = [Q(x) for x in b]
    nrows = len(m)
    ncols = len(m[0]) if nrows else 0
    if len(rhs) != nrows:
        raise ValueError("dimension mismatch")
    pivots: List[Tuple[int, int]] = []
    row = 0
    for col in range(ncols):
        piv = next((r for r in range(row, nrows) if m[r][col] != 0), None)
        if piv is None:
            continue
        m[row], m[piv] = m[piv], m[row]
        rhs[row], rhs[piv] = rhs[piv], rhs[row]
        inv = 1 / m[row][col]
        m[row] = [x * inv for x in m[row]]
        rhs[row] *= inv
        for r in range(nrows):
            if r != row and m[r][col] != 0:
                f = m[r][col]
                m[r] = [x - f * y for x, y in zip(m[r], m[row])]
                rhs[r] -= f * rhs[row]
        pivots.append((row, col))
        row += 1
        if row == nrows:
            break
    for r in range(row, nrows):
        if rhs[r] != 0:
            return None
    x = [Q(0)] * ncols
    for r, c in pivots:
        x[c] = rhs[r]
    return x


def cartan_matrix(rank: int) -> List[List[int]]:
    """Type A Cartan matrix: 2 on the diagonal, -1 off by one."""
    return [
        [2 if i == j else (-1 if abs(i - j) == 1 else 0) for j in range(rank)]
        for i in range(rank)
    ]


# ---------------------------------------------------------------------------
# words, descents, cosets and two orders on S_n


def length(w: Permutation) -> int:
    """Coxeter length = number of inversions."""
    img = w.images
    return sum(1 for i in range(w.n) for j in range(i + 1, w.n) if img[i] > img[j])


def left_descents(w: Permutation) -> Tuple[int, ...]:
    """Indices i with l(s_i w) < l(w), i.e. i appears after i+1 in w."""
    inv = w.inverse().images
    return tuple(i for i in range(1, w.n) if inv[i - 1] > inv[i])


def reduced_word(w: Permutation) -> Tuple[int, ...]:
    """Reduced word for w, peeling the smallest left descent first."""
    letters = []
    cur = w
    while True:
        des = left_descents(cur)
        if not des:
            break
        i = des[0]
        letters.append(i)
        cur = simple_reflection(i, cur.n) * cur
    return tuple(letters)


def bruhat_leq(u: Permutation, w: Permutation) -> bool:
    """Length-additive order: u <= w iff l(w) = l(u) + l(w u^-1)."""
    if u.n != w.n:
        raise ValueError("dimension mismatch")
    return length(w) == length(u) + length(w * u.inverse())


def bruhat_leq_classical(u: Permutation, w: Permutation) -> bool:
    """Subword (classical Bruhat) order, via prefix dominance.

    u <= w iff for every k the sorted initial values u(1..k) are
    dominated entrywise by the sorted initial values w(1..k).
    """
    if u.n != w.n:
        raise ValueError("dimension mismatch")
    for k in range(1, u.n):
        us = sorted(u.images[:k])
        ws = sorted(w.images[:k])
        if any(a > b for a, b in zip(us, ws)):
            return False
    return True


def is_min_coset_rep(w: Permutation, I: Iterable[int]) -> bool:
    """True iff w sends every simple root indexed by I to a positive root."""
    return all(w(i) < w(i + 1) for i in I)


def min_coset_reps(I: Iterable[int], n: int) -> Iterator[Permutation]:
    """All minimal coset representatives in W / W_I (small n only)."""
    iset = sorted(set(I))
    for w in all_permutations(n):
        if is_min_coset_rep(w, iset):
            yield w


# ---------------------------------------------------------------------------
# Grassmannian cells


def tau_r_ceil_form(n: int, r: int) -> GrassmannElement:
    """Minimal semistable cell as evenly spread rounding: a_i = ceil(i n / r) - 1.

    Equivalently w([1, r]) = {ceil(j n / r) : j = 1..r}, the column set
    whose running count matches floor(k r / n) at every k.  Tests verify
    this agrees with the descent computation exhaustively.
    """
    return GrassmannElement(n, r, tuple(-(i * n // -r) - 1 for i in range(1, r + 1)))


def has_semistable(g: GrassmannElement) -> bool:
    """True iff the cell of g contains a semistable point (tau_r <= g)."""
    return grassmann_leq(tau_r(g.n, g.r), g)


def subset_leq(s: Tuple[int, ...], t: Tuple[int, ...]) -> bool:
    """Componentwise comparison of sorted column sets (cell-closure order)."""
    return all(a <= b for a, b in zip(sorted(s), sorted(t)))


def coordinates_of_matrix(
    mat: Sequence[Sequence[Q]], g: GrassmannElement
) -> Dict[str, Q]:
    """Cell coordinates of a column span lying in the open cell of g.

    The echelon's columns, sorted by pivot row, are echelonized again:
    that clears each pivot row from the columns above it and leaves the
    canonical cell form.  Raises if the span's pivot set is not this
    cell's column set.
    """
    pivots, cols = column_echelon(mat)
    if sorted(pivots) != list(g.a_seq):
        raise ValueError(
            f"point lies in the cell with pivots {sorted(i + 1 for i in pivots)}, "
            f"not {[x + 1 for x in g.a_seq]}"
        )
    by_pivot = sorted(range(g.r), key=pivots.__getitem__)
    _, ordered = column_echelon(list(zip(*(cols[j] for j in by_pivot))))
    out: Dict[str, Q] = {}
    for j in range(1, g.r + 1):
        for q, start in enumerate(row_starts(g, j), start=1):
            out[f"X_{j}_{q}"] = ordered[j - 1][start - 1]
    return out


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
