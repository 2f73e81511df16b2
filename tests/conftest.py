"""Shared test plumbing: collect acceptance lines and show them last, and
the reference implementations that the package's main path is checked
against.  None of these is called by the package itself.

- ``int_det``: the determinant that the oracle's minors and the HNF
  transform are checked against.
- ``minor_support``: the Pluecker support of one dense integer matrix,
  read off the oracle's Laplace sweep of its sparse columns.  The
  oracle reads a cell's generic support off its zero pattern, so only
  tests ask this of an explicit point.
- ``hnf_columns``: the column Hermite form H = A U with its unimodular
  transform, the one integer normal form the tests build on.
- ``root_weight`` and ``dense_weight``: the simple-root coefficients of
  an interval root and of a monomial in coordinates with those roots,
  the dense reference for ``invariants.monomial_weight``.
- ``dense_y_exponent`` and ``dense_flag_generators``: the exponent vector
  of a cross-ratio, and those of the full flag cell's quotient
  coordinates, one entry per X, the references for the sparse supports of
  ``invariants.cross_ratios`` and ``flag.flag_lattice``; ``dense_vector``
  and ``support_of`` turn a support into its vector and back.
- ``integer_kernel_basis``, ``lattice_canonical_form`` and
  ``reference_kernel_report``: a kernel basis from the Hermite transform,
  the Hermite form of a spanning set, and the kernel certificate of a
  cell built from the two, the reference for
  ``invariants.verify_kernel_basis``' rank-and-saturation proof.
- ``weight_first_reexpress``: ``invariants.reexpress`` with the weight
  checks first and a second reduction through ``from_terms``, the
  reference for the one-pass re-expression, its values and its refusals.
- ``hermite_left_inverse``: an integer left inverse read off one Hermite
  form, or None when the generators are no basis of a saturated lattice;
  the candidate that ``invariants._certify`` is checked with on
  generators that have no closed form.
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
- ``from_permutation``: the a-sequence of a minimal representative, the
  reader that turns the rounding descent into a cell for the ``tau_r``
  comparison.
- ``has_semistable`` and ``semistable_cells_by_scan``: the gateway test
  for one cell, and every cell of ``all_cells`` filtered by it, the
  reference for ``semistable_cells``' up-set enumeration.
- ``subset_leq``: the componentwise order on column sets.
- ``matrix_of_point`` and ``coordinates_of_matrix``: the matrix of a
  cell point with given coordinates, and the coordinates read back from
  a matrix, the references for the Prop 3.2 row-swap test.
- ``weight`` and ``negative_elements_by_scan``: a weight from any
  rationals, and the w in S_{n+1} found by acting on a character with
  every permutation, the reference for ``flag.negative_elements``'
  pruned search.
- ``weight_image``, ``flag_cell_of`` and
  ``reference_flag_point_semistable``: the Hilbert-Mumford test for a
  full flag by enumeration of all N! row permutations, each reduced to
  its pivot cell with ``Fraction``s; the reference for the oracle's
  flag-matroid rank inequalities.
- ``sympy_field``, ``sympy_value``, ``sympy_pow``, ``sympy_subs``,
  ``sympy_evaluate``, ``sympy_canonical`` and ``sympy_coefficients``:
  rational functions as elements of sympy's ``field(names, QQ,
  order=grlex)``, printed by sympy; the reference for ``ratfunc``'s
  native arithmetic.
- ``count_fallbacks``: the pairs that reach ``ratfunc._cancel``, the one
  reduction that runs a polynomial gcd.
- ``clear_program_caches``: empties every ``functools`` cache in the
  package, so that a count taken next sees each cached build run again.
"""

import contextlib
import itertools
from fractions import Fraction as Q
from math import prod
from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Set, Tuple

import pytest
from sympy.polys.domains import QQ
from sympy.polys.fields import field
from sympy.polys.orderings import grlex

from torusquot import oracle
from torusquot.flag import root_order
from torusquot.invariants import (
    InvariantLattice,
    KernelReport,
    ReexpressionError,
    monomial_weight,
    y_labels,
)
from torusquot.linalg import column_echelon
from torusquot.ratfunc import RationalFunction
from torusquot.schubert import (
    GrassmannElement,
    InversionArray,
    all_cells,
    grassmann_leq,
    row_starts,
    tau_r,
)
from torusquot.weights import Weight, act
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


def minor_support(mat, n, r):
    """Row subsets with nonvanishing r x r minor of an n x r integer
    matrix, by the oracle's sweep, inserted in lexicographic order; a
    matrix not n x r is refused with ``ValueError``."""
    minors = oracle._minor_sweep(oracle._columns(mat, n, r))[r]
    return frozenset(
        sub for sub in itertools.combinations(range(1, n + 1), r)
        if sum(1 << (i - 1) for i in sub) in minors
    )


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
# integer lattices: the Hermite form, and the kernel basis, canonical form
# and left inverse the kernel certificate is checked against


IntMatrix = List[List[int]]


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


def integer_kernel_basis(a: Sequence[Sequence[int]]) -> List[List[int]]:
    """A basis of the lattice {x integral : A x = 0}: the transform columns
    under the zero columns of the Hermite form A U."""
    nrows = len(a)
    ncols = len(a[0]) if nrows else 0
    h, u = hnf_columns(a)
    return [
        [u[r][c] for r in range(ncols)]
        for c in range(ncols)
        if all(h[r][c] == 0 for r in range(nrows))
    ]


def lattice_canonical_form(vectors: Sequence[Sequence[int]]) -> List[List[int]]:
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


def hermite_left_inverse(generators: Sequence[Sequence[int]]) -> Optional[Tuple[tuple, ...]]:
    """Sparse integer rows L with L G^T = I, G the generators as rows, or
    None when there are none.

    The Hermite form G U has the identity as its leading block exactly
    when such rows exist; they are then the first columns of U.
    """
    k = len(generators)
    if not k:
        return ()
    h, u = hnf_columns(generators)
    if any(row[:k] != [int(a == c) for c in range(k)] for a, row in enumerate(h)):
        return None
    return tuple(tuple((t, e) for t, e in enumerate(col) if e) for col in zip(*(row[:k] for row in u)))


def root_weight(root: Tuple[int, int], rank: int) -> Tuple[int, ...]:
    """Simple-root coefficients of the interval root [j, k] of sl_(rank+1)."""
    j, k = root
    return (0,) * (j - 1) + (1,) * (k - j + 1) + (0,) * (rank - k)


def dense_weight(exps: Sequence[int], roots: Sequence[Tuple[int, int]], rank: int) -> List[int]:
    """Simple-root coefficients of the monomial with these exponents in
    coordinates of these interval roots."""
    total = [0] * rank
    for e, root in zip(exps, roots):
        total = [t + e * c for t, c in zip(total, root_weight(root, rank))]
    return total


def dense_vector(support: Sequence[Tuple[int, int]], size: int) -> Tuple[int, ...]:
    """The exponent vector over `size` positions with this support."""
    v = [0] * size
    for t, e in support:
        v[t] = e
    return tuple(v)


def support_of(v: Sequence[int]) -> Tuple[Tuple[int, int], ...]:
    """The (position, exponent) pairs of the nonzero entries of v."""
    return tuple((t, e) for t, e in enumerate(v) if e)


def dense_y_exponent(arr: InversionArray, i: int, j: int) -> Tuple[int, ...]:
    """Exponents of X_{i,L_i} X_{i+1,j} / (X_{i,j} X_{i+1,L_i}), L_i = a_i - i + 1,
    one entry per X, row major."""
    li = arr.g.a_seq[i - 1] - i + 1
    lengths = [len(row) for row in arr.rows]
    start = sum(lengths[: i - 1]) - 1  # row i's (i, q) sits at start + q, row major
    below = start + lengths[i - 1]
    exps = [0] * sum(lengths)
    for t, e in ((start + li, 1), (below + j, 1), (start + j, -1), (below + li, -1)):
        exps[t] += e
    return tuple(exps)


def dense_flag_generators(n: int) -> List[Tuple[int, ...]]:
    """Exponents of X_[a+1,b+1] X_[1,a] / X_[1,b+1] over the roots of the
    full flag cell in ``root_order(n)``, one vector per Y_{a,b}."""
    positions = root_order(n)
    idx = {r: t for t, r in enumerate(positions)}
    gens = []
    for a, b in root_order(n - 1):
        v = [0] * len(positions)
        v[idx[(a + 1, b + 1)]] += 1
        v[idx[(1, a)]] += 1
        v[idx[(1, b + 1)]] -= 1
        gens.append(tuple(v))
    return gens


def reference_kernel_report(arr: InversionArray) -> KernelReport:
    """The kernel certificate of a cell computed the long way: a kernel
    basis of the dense weight matrix, and canonical-form equality with
    the Y's."""
    g = arr.g
    roots = [root for row in arr.rows for root in row]
    weights = [root_weight(root, g.n - 1) for root in roots]
    kernel = integer_kernel_basis([list(row) for row in zip(*weights)])
    ys = [list(dense_y_exponent(arr, i, j)) for i, j in y_labels(arr)]
    in_kernel = all(not any(dense_weight(v, roots, g.n - 1)) for v in ys)
    same = lattice_canonical_form(kernel) == lattice_canonical_form(ys)
    expected = sum(max(g.a_seq[i - 1] - i, 0) for i in range(1, g.r))
    return KernelReport(g.n, g.r, g.a_seq, len(kernel), expected, in_kernel, same)


def weight_first_reexpress(f: RationalFunction, lattice: InvariantLattice) -> RationalFunction:
    """``invariants.reexpress`` in its weight-first form: the weight
    checks on every monomial come first, then each monomial's Y exponents
    from the left-inverse rows, confirmed by the generators, and the
    result is reduced again by ``RationalFunction.from_terms``."""
    if f.names != lattice.x_names:
        raise ValueError("expected a function of this cell's X coordinates")
    ynames = lattice.y_names
    if f.is_zero:
        return RationalFunction.constant(0, ynames)
    num, den = f.numer, f.denom
    wn, wd = ({monomial_weight(enumerate(m), lattice.roots) for m in terms} for terms in (num, den))
    if len(wn) > 1:
        raise ReexpressionError("numerator is not weight-homogeneous")
    if len(wd) > 1:
        raise ReexpressionError("denominator is not weight-homogeneous")
    if wn != wd:
        raise ReexpressionError("function has nonzero torus weight")
    pivot = next(iter(den))
    gens = [dense_vector(v, len(pivot)) for v in lattice.generators]

    def y_exponents(mono):
        shift = [e - p for e, p in zip(mono, pivot)]
        z = [sum(c * shift[t] for t, c in row) for row in lattice.left_inverse]
        back = [sum(c * v[t] for c, v in zip(z, gens)) for t in range(len(shift))]
        if back != shift:
            raise ReexpressionError("monomial outside the invariant lattice")
        return z

    zs = [[(y_exponents(m), c) for m, c in terms.items()] for terms in (num, den)]
    low = [min(col) for col in zip(*(z for terms in zs for z, _ in terms))]
    num_y, den_y = (
        {
            tuple(e - m for e, m in zip(z, low)): -c if lattice.sign < 0 and sum(z) % 2 else c
            for z, c in terms
        }
        for terms in zs
    )
    return RationalFunction.from_terms(ynames, num_y, den_y)


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


def from_permutation(w: Permutation, r: int) -> GrassmannElement:
    """Inverse of ``schubert.to_permutation``; requires w minimal for W_{I_r}."""
    n = w.n
    if not 1 <= r <= n - 1:
        raise ValueError(f"r={r} out of range for n={n}")
    for i in range(1, n):
        if i != r and w(i) > w(i + 1):
            raise ValueError(f"{w!r} is not increasing away from position {r}")
    return GrassmannElement(n, r, tuple(w(j) - 1 for j in range(1, r + 1)))


def has_semistable(g: GrassmannElement) -> bool:
    """True iff the cell of g contains a semistable point (tau_r <= g)."""
    return grassmann_leq(tau_r(g.n, g.r), g)


def semistable_cells_by_scan(n: int, r: int) -> List[GrassmannElement]:
    """Every cell of G_{r,n} tested against tau_r, in lexicographic order."""
    return [g for g in all_cells(n, r) if has_semistable(g)]


def subset_leq(s: Tuple[int, ...], t: Tuple[int, ...]) -> bool:
    """Componentwise comparison of sorted column sets (cell-closure order)."""
    return all(a <= b for a, b in zip(sorted(s), sorted(t)))


def matrix_of_point(g: GrassmannElement, values: Mapping[str, Q]) -> List[List[Q]]:
    """The n x r column-span matrix of the cell point with the given X's,
    the inverse of ``coordinates_of_matrix``."""
    mat = [[Q(0)] * g.r for _ in range(g.n)]
    for j in range(1, g.r + 1):
        mat[g.a_seq[j - 1]][j - 1] = Q(1)
        for q, start in enumerate(row_starts(g, j), start=1):
            mat[start - 1][j - 1] = Q(values[f"X_{j}_{q}"])
    return mat


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


# ---------------------------------------------------------------------------
# full flags: the negative set, pivot cells, weight images and the N!
# Hilbert-Mumford test


def weight(coeffs: Iterable) -> Weight:
    return Weight(tuple(Q(c) for c in coeffs))


def negative_elements_by_scan(coeffs: Sequence[int]) -> Set[Permutation]:
    """Every w in S_{n+1} whose image of chi = sum m_i alpha_i is nonpositive."""
    chi = weight(coeffs)
    return {
        w
        for w in all_permutations(chi.rank + 1)
        if all(c <= 0 for c in act(w, chi).coeffs)
    }


def weight_image(w: Permutation, coeffs: Sequence[Q]) -> Tuple[Q, ...]:
    """Simple-root coefficients of w(chi) for chi given by coefficients.

    Works in the coordinate basis: the coefficient vector is converted
    to successive differences, permuted by w, and re-accumulated.
    """
    n = w.n
    m = [Q(c) for c in coeffs]
    if len(m) != n - 1:
        raise ValueError("coefficient count must be rank = n - 1")
    diffs = [m[0]] + [m[i] - m[i - 1] for i in range(1, n - 1)] + [-m[-1]]
    out = [Q(0)] * n
    for i in range(1, n + 1):
        out[w(i) - 1] = diffs[i - 1]
    acc = Q(0)
    result = []
    for i in range(n - 1):
        acc += out[i]
        result.append(acc)
    return tuple(result)


def flag_cell_of(mat: List[List[Q]]) -> Permutation:
    """Pivot permutation of the cell U_w w B containing a column flag.

    Columns are reduced left to right; each column's lowest nonzero row,
    after clearing rows already claimed by earlier columns from below,
    is its pivot.
    """
    n = len(mat)
    cols = [[Q(mat[i][j]) for i in range(n)] for j in range(n)]
    pivots: List[int] = []
    for j in range(n):
        col = cols[j]
        while True:
            low = max((i for i in range(n) if col[i] != 0), default=None)
            if low is None:
                raise ValueError("singular matrix has no flag cell")
            if low not in pivots:
                break
            j0 = pivots.index(low)
            f = col[low] / cols[j0][low]
            col = [c - f * p for c, p in zip(col, cols[j0])]
        cols[j] = col
        pivots.append(low)
    return Permutation(tuple(p + 1 for p in pivots))


def reference_flag_point_semistable(mat: List[List[Q]], coeffs: Sequence[Q]) -> bool:
    """Hilbert-Mumford verdict for a full flag and a character.

    The flag spanned by the columns is semistable iff for every
    permutation sigma of the rows, the pivot cell w of the permuted
    flag satisfies w(chi) <= 0 coefficientwise.
    """
    n = len(mat)
    for images in itertools.permutations(range(1, n + 1)):
        inverse = Permutation(images).inverse()
        permuted = [mat[inverse(i + 1) - 1] for i in range(n)]
        w = flag_cell_of(permuted)
        if not all(c <= 0 for c in weight_image(w, coeffs)):
            return False
    return True


def reference_quotient_generator_action(i: int, n: int) -> Dict[str, object]:
    """The induced action of s_i on the flag quotient coordinates by the
    point route: the quotient map of the full cell's generic point moved by
    s_i, each coordinate re-expressed in the Y's of the source."""
    from torusquot import flag
    from torusquot.invariants import reexpress

    w0 = flag.top_cell(n)
    w2, coords = flag.move_point(i, w0, flag.symbolic_coords(w0))
    assert w2 == w0
    small, yvals = flag.pi_point(w2, coords)
    return {
        f"Y_{a}_{b}": reexpress(yvals[(a, b)], flag.flag_lattice(n))
        for a, b in flag.inversion_roots(small)
    }


# ---------------------------------------------------------------------------
# rational functions in sympy's field over QQ


def sympy_field(names: Sequence[str]):
    """sympy's field of rational functions over QQ in `names`, grlex order."""
    return field(list(names), QQ, order=grlex)[0]


def sympy_value(fld, numer: Mapping[Tuple[int, ...], Q], denom: Mapping[Tuple[int, ...], Q]):
    """numer/denom in `fld`, from exponent -> coefficient maps."""
    num, den = (
        fld.ring.from_dict({mon: QQ(c.numerator, c.denominator) for mon, c in terms.items()})
        for terms in (numer, denom)
    )
    return fld(num) / fld(den)


def sympy_pow(value, k: int):
    """value**k; a negative power as a quotient, since sympy's own negative
    power leaves the denominator's leading coefficient unnormalised."""
    return value ** k if k >= 0 else value.field.one / value ** -k


def _sympy_poly_at(poly, images, one):
    total = one * 0
    for mon, c in poly.terms():
        term = one * c
        for img, e in zip(images, mon):
            if e:  # sympy refuses 0**0
                term *= img ** e
        total += term
    return total


def sympy_subs(value, images: Sequence, target):
    """`value` with generator i sent to images[i], all in the field `target`;
    a denominator sent to zero raises ZeroDivisionError."""
    den = _sympy_poly_at(value.denom, images, target.one)
    if not den:
        raise ZeroDivisionError("substitution sends the denominator to zero")
    return _sympy_poly_at(value.numer, images, target.one) / den


def sympy_evaluate(value, point: Sequence[Q]) -> Q:
    """`value` at `point`, term by term in ``Fraction``s."""
    num, den = (
        sum(c * prod((v ** e for v, e in zip(point, mon)), start=Q(1))
            for mon, c in sympy_coefficients(poly).items())
        for poly in (value.numer, value.denom)
    )
    if den == 0:
        raise ZeroDivisionError("denominator vanishes at the point")
    return num / den


def sympy_coefficients(poly) -> Dict[Tuple[int, ...], Q]:
    return {mon: Q(int(c.numerator), int(c.denominator)) for mon, c in poly.items()}


def sympy_canonical(value) -> str:
    """sympy's printing of `value` with the denominator scaled to leading
    coefficient 1: the numerator alone when the denominator is 1, else
    both sides in parentheses."""
    if not value:
        return "0"
    lc = value.denom.LC
    num, den = value.numer.quo_ground(lc), value.denom.quo_ground(lc)
    return str(num) if den == 1 else f"({num})/({den})"


@contextlib.contextmanager
def count_fallbacks():
    """The (numerator, denominator) pairs passed to ``ratfunc._cancel``
    inside the block, in order."""
    from torusquot import ratfunc

    calls, original = [], ratfunc._cancel
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ratfunc, "_cancel", lambda *pair: calls.append(pair) or original(*pair))
        yield calls


def clear_program_caches():
    """Empty every functools cache of every module of the package."""
    import importlib
    import pkgutil

    import torusquot

    for info in pkgutil.iter_modules(torusquot.__path__):
        for value in vars(importlib.import_module(f"torusquot.{info.name}")).values():
            if hasattr(value, "cache_clear"):
                value.cache_clear()


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
