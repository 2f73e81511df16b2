"""Independent ground truth for semistability and stabilizer checks.

Everything here recomputes its answers from first principles: explicit
integer matrices for generic cell points, Laplace expansion of the minors
for Pluecker supports, a fraction-free integer phase-1 simplex for the
barycenter feasibility test (one LP per distinct support), and direct
subset bumping for cell-closure stability.  No code is shared with the
modules under test beyond the Permutation type, so agreement between the
two sides is evidence, not tautology.

Verdicts are exact.  Genericity of a sampled point is the only
probabilistic ingredient; the sampling protocol demands identical
supports from three consecutive draws and reports "inconclusive"
rather than guessing when the draws keep disagreeing.  A nonzero minor
of a cell point has degree at most r in its coordinates, so by
Schwartz-Zippel one draw sends some nonzero minor to zero with
probability at most C(n, r) r / (2 SAMPLE_BOUND).  A bound of 50 puts
that at 23 for n = 11, r = 7, where three agreeing draws become rare;
at 10**6 it stays below 0.002 for every n <= 11.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from numbers import Rational
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from .weyl import Permutation

Subset = Tuple[int, ...]

SAMPLE_BOUND = 10**6  # coordinates are nonzero integers in [-SAMPLE_BOUND, SAMPLE_BOUND]


# ---------------------------------------------------------------------------
# generic points of Grassmannian cells


def inversion_positions(w: Permutation) -> List[Tuple[int, int]]:
    """Matrix positions (i, j), i < j, of the roots inverted by w^{-1}."""
    winv = w.inverse()
    n = w.n
    return [
        (i, j)
        for i in range(1, n + 1)
        for j in range(i + 1, n + 1)
        if winv(i) > winv(j)
    ]

def sample_cell_matrix(
    w: Permutation, r: int, rng: random.Random
) -> List[List[int]]:
    """n x r integer matrix spanning a random point of the cell of w.

    The point is u . w . P with u unipotent upper triangular supported on
    the inversion positions of w^{-1}; its column span is the span of
    columns w(1), ..., w(r) of u, written here without building u.  One
    value is drawn per inversion position, kept or not, so the random
    stream does not depend on r.
    """
    n = w.n
    column = {w(k): k - 1 for k in range(1, r + 1)}
    mat = [[0] * r for _ in range(n)]
    for j, k in column.items():
        mat[j - 1][k] = 1
    for i, j in inversion_positions(w):
        x = 0
        while x == 0:
            x = rng.randint(-SAMPLE_BOUND, SAMPLE_BOUND)
        if j in column:
            mat[i - 1][column[j]] = x
    return mat


def minor_support(mat: List[List[int]], n: int, r: int) -> FrozenSet[Subset]:
    """Row subsets with nonvanishing r x r minor, by Laplace expansion.

    After column c the nonzero c x c minors of the first c columns are
    kept in a dict keyed by row bitmask; each extends to c + 1 columns
    through the nonzero entries of column c, with sign
    (-1)^(rows below the new row + c).
    """
    if len(mat) != n or any(len(row) != r for row in mat):
        raise ValueError(f"expected an {n} x {r} matrix")
    minors: Dict[int, int] = {0: 1}
    for c in range(r):
        entries = [(1 << i, row[c]) for i, row in enumerate(mat) if row[c] != 0]
        grown: Dict[int, int] = {}
        for rows, minor in minors.items():
            for bit, v in entries:
                if not rows & bit:
                    term = minor * v
                    if ((rows & (bit - 1)).bit_count() + c) & 1:
                        term = -term
                    grown[rows | bit] = grown.get(rows | bit, 0) + term
        minors = {rows: m for rows, m in grown.items() if m != 0}
    # inserted in lexicographic order, so the set iterates (and prints) as
    # one built from itertools.combinations does
    return frozenset(sorted(
        tuple(i + 1 for i in range(n) if rows >> i & 1) for rows in minors
    ))


@dataclass(frozen=True)
class SupportReport:
    """Outcome of the resampling protocol for one cell."""

    support: Optional[FrozenSet[Subset]]
    draws: Tuple[FrozenSet[Subset], ...]
    conclusive: bool

    @property
    def resampled(self) -> bool:
        return len(self.draws) > 3


def cell_support(
    w: Permutation, r: int, seed: int = 0, extra_draws: int = 5
) -> SupportReport:
    """Pluecker support of a generic cell point, by repeated sampling.

    Three consecutive identical draws are accepted; a disagreement (a
    random value landing on a minor's vanishing locus) triggers up to
    `extra_draws` further attempts before giving up.
    """
    draws: List[FrozenSet[Subset]] = []
    for k in range(3 + extra_draws):
        rng = random.Random(1_000_003 * seed + k)
        draws.append(minor_support(sample_cell_matrix(w, r, rng), w.n, r))
        if len(draws) >= 3 and draws[-1] == draws[-2] == draws[-3]:
            return SupportReport(draws[-1], tuple(draws), True)
    return SupportReport(None, tuple(draws), False)


# ---------------------------------------------------------------------------
# fraction-free phase-1 simplex for barycenter membership


def _cleared(v: Rational, scale: int) -> int:
    """v * scale, for a multiple `scale` of v's denominator."""
    return v.numerator * (scale // v.denominator)


def feasible_combination(
    columns: Sequence[Sequence[Rational]], b: Sequence[Rational]
) -> Tuple[bool, List[Fraction]]:
    """Solve sum_j x_j col_j = b, x >= 0 by phase-1 simplex, Bland's rule.

    Returns (True, x) with the feasible point, or (False, y) with a
    separating vector satisfying y . col_j <= 0 for all j and y . b > 0.

    The arithmetic is fraction-free (Edmonds, 1967).  Every row is first
    multiplied by the lcm D of all denominators; that only rescales the
    artificial variables and the objective, so the pivots, x and y are
    those of the simplex over the rationals.  The tableau, objective row
    included, is then kept in integers over one positive common
    denominator d: a pivot on p replaces every other row v by
    (v * p - f * w) // d, an exact division, and sets d = p.
    """
    m = len(b)
    k = len(columns)
    scale = math.lcm(
        *(v.denominator for col in columns for v in col), *(v.denominator for v in b)
    )
    # tableau: original columns, artificial identity, rhs
    t: List[List[int]] = []
    for i in range(m):
        row = [_cleared(col[i], scale) for col in columns]
        rhs = _cleared(b[i], scale)
        if rhs < 0:
            row, rhs = [-v for v in row], -rhs
        t.append(row + [int(i == p) for p in range(m)] + [rhs])
    basis = [k + i for i in range(m)]
    # reduced costs for phase-1 objective (sum of artificials, basis cost 1)
    z = [int(j >= k) - sum(row[j] for row in t) for j in range(k + m)]
    d = 1
    while True:
        enter = next((j for j, v in enumerate(z) if v < 0), None)
        if enter is None:
            break
        leave = None
        for i, row in enumerate(t):
            if row[enter] > 0:
                if leave is None:
                    leave = i
                    continue
                # ratio test by cross-multiplication; ties go to the lower basis index
                lhs = row[-1] * t[leave][enter]
                rhs = t[leave][-1] * row[enter]
                if lhs < rhs or (lhs == rhs and basis[i] < basis[leave]):
                    leave = i
        if leave is None:
            raise ArithmeticError("phase-1 objective unbounded")  # impossible
        lead = t[leave]
        p = lead[enter]
        for i, row in enumerate(t):
            if i != leave:
                f = row[enter]
                t[i] = [(v * p - f * w) // d for v, w in zip(row, lead)]
        f = z[enter]
        z = [(v * p - f * w) // d for v, w in zip(z, lead)]
        basis[leave] = enter
        d = p
    objective = sum(t[i][-1] for i in range(m) if basis[i] >= k)
    if objective == 0:
        x = [Fraction(0)] * k
        for i in range(m):
            if basis[i] < k:
                x[basis[i]] = Fraction(t[i][-1], d)
        return True, x
    # infeasible: read the separating vector off the artificial columns
    y = [1 - Fraction(z[k + i], d) for i in range(m)]
    return False, y


@dataclass(frozen=True)
class HMCertificate:
    """Re-verified witness for a semistability verdict."""

    semistable: bool
    combination: Optional[Dict[Subset, Fraction]]
    separator: Optional[Tuple[Fraction, ...]]


@lru_cache(maxsize=None)
def hm_semistable(
    support: FrozenSet[Subset], n: int, r: int
) -> HMCertificate:
    """Barycenter membership test for a Pluecker support.

    A point with this support is semistable for the torus action iff
    (r/n, ..., r/n) is a convex combination of the indicator vectors of
    the support.  The returned certificate is checked by direct inner
    products, in integers after clearing its denominators, before being
    trusted.  It depends on (support, n, r) alone, so it is computed once
    per distinct support; callers must not mutate it.
    """
    subs = sorted(support)
    cols = [[int(i in sub) for i in range(1, n + 1)] + [1] for sub in subs]
    nb = [r] * n + [n]
    b = [Fraction(v, n) for v in nb]
    ok, vec = feasible_combination(cols, b)
    if ok:
        comb = {sub: coef for sub, coef in zip(subs, vec) if coef != 0}
        column = dict(zip(subs, cols))
        scale = math.lcm(*(c.denominator for c in comb.values()))
        coefs = [_cleared(c, scale) for c in comb.values()]
        for i in range(n + 1):
            total = sum(c * column[sub][i] for sub, c in zip(comb, coefs))
            assert n * total == scale * nb[i], "feasibility certificate failed re-verification"
        assert all(c >= 0 for c in coefs)
        return HMCertificate(True, comb, None)
    scale = math.lcm(*(y.denominator for y in vec))
    ys = [_cleared(y, scale) for y in vec]
    for col in cols:
        assert sum(y * v for y, v in zip(ys, col)) <= 0, (
            "separating vector failed re-verification"
        )
    assert sum(y * v for y, v in zip(ys, nb)) > 0
    return HMCertificate(False, None, tuple(vec))


def cell_semistable(
    w: Permutation, r: int, seed: int = 0
) -> Tuple[str, SupportReport, Optional[HMCertificate]]:
    """Verdict for one cell: 'semistable', 'unstable', or 'inconclusive'."""
    rep = cell_support(w, r, seed=seed)
    if not rep.conclusive:
        return "inconclusive", rep, None
    cert = hm_semistable(rep.support, w.n, r)
    return ("semistable" if cert.semistable else "unstable"), rep, cert


# ---------------------------------------------------------------------------
# stabilizer of a cell closure, by subset bumping


def reflection_preserves_closure(top: Subset, k: int, n: int) -> bool:
    """Does swapping k and k+1 map the cell closure of `top` into itself?

    The closure consists of the spans whose support subsets are
    dominated by `top`; the swap sends a dominated subset containing k
    but not k+1 to its bump, which must stay dominated.
    """
    top = tuple(sorted(top))
    for sub in itertools.combinations(range(1, n + 1), len(top)):
        # sub is sorted, and so is its bump, since k + 1 is not in sub
        if k in sub and k + 1 not in sub and all(a <= b for a, b in zip(sub, top)):
            bumped = tuple(k + 1 if a == k else a for a in sub)
            if not all(a <= b for a, b in zip(bumped, top)):
                return False
    return True


# ---------------------------------------------------------------------------
# weight images in coordinate form (independent of the weights module)


def weight_image(w: Permutation, coeffs: Sequence[Fraction]) -> Tuple[Fraction, ...]:
    """Simple-root coefficients of w(chi) for chi given by coefficients.

    Works in the coordinate basis: the coefficient vector is converted
    to successive differences, permuted by w, and re-accumulated.
    """
    n = w.n
    m = [Fraction(c) for c in coeffs]
    if len(m) != n - 1:
        raise ValueError("coefficient count must be rank = n - 1")
    diffs = [m[0]] + [m[i] - m[i - 1] for i in range(1, n - 1)] + [-m[-1]]
    out = [Fraction(0)] * n
    for i in range(1, n + 1):
        out[w(i) - 1] = diffs[i - 1]
    acc = Fraction(0)
    result = []
    for i in range(n - 1):
        acc += out[i]
        result.append(acc)
    return tuple(result)


# ---------------------------------------------------------------------------
# full flag variety: pivot cells and the Hilbert-Mumford test


def flag_cell_of(mat: List[List[Fraction]]) -> Permutation:
    """Pivot permutation of the cell U_w w B containing a column flag.

    Columns are reduced left to right; each column's lowest nonzero row,
    after clearing rows already claimed by earlier columns from below,
    is its pivot.
    """
    n = len(mat)
    cols = [[Fraction(mat[i][j]) for i in range(n)] for j in range(n)]
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


def flag_point_semistable(
    mat: List[List[Fraction]], coeffs: Sequence[Fraction]
) -> bool:
    """Hilbert-Mumford verdict for a full flag and a dominant character.

    The flag spanned by the columns is semistable iff for every
    permutation sigma of the rows, the pivot cell w of the permuted
    flag satisfies w(chi) <= 0 coefficientwise.

    No package code calls this: the tests compare it with
    ``flag.semistable_flag_support``, and the benchmark's oracle
    workload times it.  It stays here until a flag-matroid rank check
    replaces its n! enumeration (ROADMAP item 3).
    """
    n = len(mat)
    for images in itertools.permutations(range(1, n + 1)):
        inverse = Permutation(images).inverse()
        permuted = [mat[inverse(i + 1) - 1] for i in range(n)]
        w = flag_cell_of(permuted)
        if not all(c <= 0 for c in weight_image(w, coeffs)):
            return False
    return True
