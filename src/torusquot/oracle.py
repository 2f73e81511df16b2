"""Independent ground truth for semistability and stabilizer checks.

Everything here recomputes its answers from first principles: explicit
integer matrices for generic cell points, Laplace expansion of the minors
for Pluecker supports, one Hilbert-Mumford test for Grassmannians and
full flags alike, and direct subset bumping for cell-closure stability.
The Hilbert-Mumford test checks the (flag-)matroid rank inequalities of
the supports read off the minors, from a table of the rank of every row
set; a Grassmannian is its one-step case, decided once per distinct
support.  Row sets are bitmasks throughout, and the rank table is built
from families of row sets held as the bits of one integer.  No code is
shared with the modules under test beyond the Permutation type, so
agreement between the two sides is evidence, not tautology.

Verdicts are exact.  Genericity of a sampled point is the only
probabilistic ingredient; the sampling protocol demands identical
supports from three consecutive draws and reports "inconclusive"
rather than guessing when the draws keep disagreeing.  One call seeds
one generator and draws its matrices from it in turn: seeding a Mersenne
Twister costs about as much as the draw it serves, and against one seed
per draw that moved the benchmark's `oracle` `wall_rel` median from 1.16
to 1.01 (0.87x; seeds 4101-4110, 2-core x86-64 VM).  The first three
draws share their zero pattern, so their minors are expanded in one
Laplace sweep whose row-set keys carry the three minors together;
against one sweep per draw that moved the same median from 1.004 to
0.824 (0.82x; seeds 5101-5110, 2-core x86-64 VM).  A nonzero minor
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
from operator import add, lt, mul
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple

from .weyl import Permutation

Subset = Tuple[int, ...]

SAMPLE_BOUND = 10**6  # coordinates are nonzero integers in [-SAMPLE_BOUND, SAMPLE_BOUND]
EXTRA_DRAWS = 5  # draws allowed after the first three before a cell is inconclusive
_VALUES = range(-SAMPLE_BOUND, SAMPLE_BOUND + 1)
_BIT_TO_BYTE = bytes.maketrans(b"01", b"\x00\x01")


# ---------------------------------------------------------------------------
# generic points of Grassmannian cells


def inversion_positions(w: Permutation) -> List[Tuple[int, int]]:
    """Matrix positions (i, j), i < j, of the roots inverted by w^{-1}."""
    winv = w.inverse().images
    n = len(winv)
    return [(i + 1, j + 1) for i in range(n) for j in range(i + 1, n) if winv[i] > winv[j]]


def sample_cell_matrix(
    w: Permutation, r: int, rng: random.Random
) -> List[List[int]]:
    """n x r integer matrix spanning a random point of the cell of w.

    The point is u . w . P with u unipotent upper triangular supported on
    the inversion positions of w^{-1}; its column span is the span of
    columns w(1), ..., w(r) of u, written here without building u.  One
    value is drawn per inversion position, kept or not, so the random
    stream does not depend on r.  Raises ``ValueError`` unless
    0 <= r <= n.
    """
    _check_rank(r, w.n)
    return _sample_matrix(w, r, inversion_positions(w), rng)


def _check_rank(r: int, n: int) -> None:
    """Refuse a rank that no cell of a Grassmannian of n-space has."""
    if not 0 <= r <= n:
        raise ValueError(f"rank r = {r} is outside 0..n = {n}")


def _sample_matrix(
    w: Permutation, r: int, positions: List[Tuple[int, int]], rng: random.Random
) -> List[List[int]]:
    """`sample_cell_matrix` with the inversion positions of w^{-1} given."""
    column = {w(k): k - 1 for k in range(1, r + 1)}
    mat = [[0] * r for _ in range(w.n)]
    for j, k in column.items():
        mat[j - 1][k] = 1
    for i, j in positions:
        x = 0
        while x == 0:
            # the same _randbelow draw as rng.randint(-SAMPLE_BOUND, SAMPLE_BOUND)
            x = rng.choice(_VALUES)
        if j in column:
            mat[i - 1][column[j]] = x
    return mat


_Minors = Dict[int, Tuple[int, int, int]]


def _minor_sweep(mats: Sequence[Sequence[Sequence[int]]], n: int, r: int) -> List[_Minors]:
    """The c x c minors of the first c columns of three n x r integer
    matrices, keyed by row bitmask, for c = 0..r, by one Laplace expansion.

    Each key carries the three minors together, and a key is kept while
    any of them is nonzero, so the key, its sign, its dictionary lookup
    and its loop step are paid once for the three.  Each kept c x c minor
    extends to c + 1 columns through the rows where column c is nonzero
    in some matrix, each new row with sign (-1)^(c + its rows above it),
    and the terms landing on one row set are summed.  The draws of one
    cell share their zero pattern, so their keys are the same; a single
    matrix is swept as three copies of itself.
    """
    if len(mats) != 3 or any(len(mat) != n or set(map(len, mat)) - {r} for mat in mats):
        raise ValueError(f"expected three {n} x {r} matrices")
    first, second, third = mats
    sweep: List[_Minors] = [{0: (1, 1, 1)}]
    for c in range(r):
        grown: _Minors = {}
        for i in range(n):
            x, y, z = first[i][c], second[i][c], third[i][c]
            if x or y or z:
                if c & 1:
                    x, y, z = -x, -y, -z
                bit, above = 1 << i, (1 << i) - 1
                for rows, (p, q, s) in sweep[c].items():
                    if not rows & bit:
                        if (rows & above).bit_count() & 1:
                            p, q, s = -p, -q, -s
                        key = rows | bit
                        if key in grown:
                            u, v, t = grown[key]
                            grown[key] = (u + p * x, v + q * y, t + s * z)
                        else:
                            grown[key] = (p * x, q * y, s * z)
        sweep.append({rows: m for rows, m in grown.items() if m != (0, 0, 0)})
    return sweep


@lru_cache(maxsize=None)
def _subsets(n: int, r: int) -> Tuple[Tuple[int, Subset], ...]:
    """Every r-subset of 1..n as (row bitmask, sorted tuple), in
    lexicographic order."""
    return tuple(
        (sum(1 << (i - 1) for i in sub), sub)
        for sub in itertools.combinations(range(1, n + 1), r)
    )


def _supports(mats: Sequence[List[List[int]]], n: int, r: int) -> Tuple[FrozenSet[Subset], ...]:
    """Row subsets with nonvanishing r x r minor, one set for each of one
    or three n x r integer matrices, read off one ``_minor_sweep``."""
    minors = _minor_sweep(mats * (3 // len(mats)), n, r)[r]
    # inserted in lexicographic order, so each set iterates (and prints) as
    # one built from itertools.combinations does
    kept = [(rows, sub) for rows, sub in _subsets(n, r) if rows in minors]
    if all(map(all, minors.values())):  # one support for every matrix
        return (frozenset([sub for _, sub in kept]),) * len(mats)
    return tuple(frozenset([sub for rows, sub in kept if minors[rows][j]]) for j in range(len(mats)))


def minor_support(mat: List[List[int]], n: int, r: int) -> FrozenSet[Subset]:
    """Row subsets with nonvanishing r x r minor, by Laplace expansion
    (``_minor_sweep``)."""
    return _supports([mat], n, r)[0]


@dataclass(frozen=True)
class SupportReport:
    """Outcome of the resampling protocol for one cell."""

    support: Optional[FrozenSet[Subset]]
    draws: Tuple[FrozenSet[Subset], ...]
    conclusive: bool

    @property
    def resampled(self) -> bool:
        return len(self.draws) > 3


def cell_support(w: Permutation, r: int, seed: int = 0) -> SupportReport:
    """Pluecker support of a generic cell point, by repeated sampling.

    One ``random.Random(seed)`` is seeded per call, and the draws are
    successive matrices of its stream.  Three consecutive identical
    draws are accepted; a disagreement (a random value landing on a
    minor's vanishing locus) triggers up to EXTRA_DRAWS further draws
    before giving up.  The first three matrices are drawn up front and
    their minors expanded in one ``_minor_sweep``; each further draw is
    swept on its own.  Raises ``ValueError`` unless 0 <= r <= n.
    """
    _check_rank(r, w.n)
    positions = inversion_positions(w)
    rng = random.Random(seed)
    first = [_sample_matrix(w, r, positions, rng) for _ in range(3)]
    draws = list(_supports(first, w.n, r))
    while not draws[-1] == draws[-2] == draws[-3]:
        if len(draws) == 3 + EXTRA_DRAWS:
            return SupportReport(None, tuple(draws), False)
        draws.append(minor_support(_sample_matrix(w, r, positions, rng), w.n, r))
    return SupportReport(draws[-1], tuple(draws), True)


# ---------------------------------------------------------------------------
# the Hilbert-Mumford test as matroid rank inequalities


def _rank_table(bases: Iterable[int], n: int) -> List[int]:
    """rk(S) = max |B & S| over B in `bases`, for every row bitmask S < 2^n.

    A row set is independent when some basis contains it, and rk(S) is
    the number of m >= 1 for which S contains an independent m-set.  A
    family of row sets is held as one integer with bit S set for each
    member S, so that adding or dropping row i in every member is a
    shift by 2^i, restricted by ``lacking[i]``, the sets without row i;
    one pass over the rows closes a family under that step.
    """
    lacking, by_size = _row_families(n)
    independent = 0
    for b in bases:
        independent |= 1 << b
    for i, without in enumerate(lacking):
        independent |= (independent >> (1 << i)) & without
    counts = 0  # byte S counts the m found so far for S
    for family in by_size[1:]:
        family &= independent
        if not family:
            break
        for i, without in enumerate(lacking):
            family |= (family & without) << (1 << i)
        # bit S of the family becomes byte S of the counts
        spread = format(family, f"0{1 << n}b").encode().translate(_BIT_TO_BYTE)
        counts += int.from_bytes(spread, "big")
    return list(counts.to_bytes(1 << n, "little"))


@lru_cache(maxsize=None)
def _row_families(n: int) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
    """(lacking, by_size) over the row bitmasks S < 2^n, each family an
    integer with bit S set for each member S: lacking[i] holds the S
    without row i, by_size[m] the S with |S| = m."""
    size = 1 << n
    # the low 2^i bits of every block of 2^(i+1), a geometric series of blocks
    blocks = [((1 << size) - 1) // ((1 << (2 << i)) - 1) for i in range(n)]
    lacking = tuple(((1 << (1 << i)) - 1) * block for i, block in enumerate(blocks))
    by_size = [0] * (n + 1)
    for s in range(size):
        by_size[s.bit_count()] |= 1 << s
    return lacking, tuple(by_size)


@lru_cache(maxsize=None)
def _popcounts(n: int) -> Tuple[int, ...]:
    """|S| for every row bitmask S < 2^n."""
    return tuple(s.bit_count() for s in range(1 << n))


def _violated_rows(steps: Sequence[Tuple[int, int, Iterable[int]]], n: int) -> Optional[int]:
    """Least nonempty row bitmask S with n sum_k c_k rk_k(S) < |S| sum_k k c_k,
    or None; each step is (k, c_k, bases_k), rk_k the rank over bases_k.
    The empty S holds with equality."""
    total = sum(k * c for k, c, _ in steps)
    weighted = [0] * (1 << n)  # n sum_k c_k rk_k(S)
    for _, c, bases in steps:
        rank = _rank_table(bases, n)
        weighted = list(map(add, weighted, map(mul, itertools.repeat(n * c), rank)))
    below = map(lt, weighted, map(mul, itertools.repeat(total), _popcounts(n)))
    return next(itertools.compress(itertools.count(), below), None)


@dataclass(frozen=True)
class HMCertificate:
    """Semistability verdict; when unstable, the violated row set."""

    semistable: bool
    separator: Optional[Subset]


@lru_cache(maxsize=None)
def hm_semistable(
    support: FrozenSet[Subset], n: int, r: int
) -> HMCertificate:
    """Hilbert-Mumford verdict for a Pluecker support of Gr(r, n).

    The moment polytope of the torus-orbit closure is the base polytope
    of the support (Gelfand, Goresky, MacPherson and Serganova, 1987), and
    it holds the barycenter (r/n, ..., r/n) iff n rk(S) >= r |S| for every
    row set S (Edmonds, 1970): the one-step case c_k = [k = r] of
    ``flag_point_semistable``.  A violated S is an integer separator,
    re-checked against the support before it is returned; checking every
    S certifies the semistable side.  The verdict depends on (support, n,
    r) alone, so it is computed once per distinct support.
    """
    s = _violated_rows([(r, 1, [sum(1 << (i - 1) for i in sub) for sub in support])], n)
    if s is None:
        return HMCertificate(True, None)
    rows = tuple(i + 1 for i in range(n) if s >> i & 1)
    rank = max((len(set(rows).intersection(sub)) for sub in support), default=0)
    if n * rank >= r * len(rows):
        raise ArithmeticError("separator failed re-verification")
    return HMCertificate(False, rows)


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
    return k not in _closure_breakers(tuple(sorted(top)), n)


@lru_cache(maxsize=1)  # callers ask about every k for one top in turn
def _closure_breakers(top: Subset, n: int) -> FrozenSet[int]:
    """The k whose swap bumps a subset of 1..n dominated by `top` to one
    that is not.  Subsets are bitmasks with bit i for i, so a bump of k
    adds 2^k; it stays dominated iff it is among the dominated subsets
    of 1..n+1 listed here."""
    subs = [(0, 0)]  # (subset, its largest element)
    for t in top:
        subs = [(m | 1 << v, v) for m, last in subs for v in range(last + 1, min(t, n + 1) + 1)]
    dominated = {m for m, _ in subs}
    starts = [m for m in dominated if m < 2 << n]
    return frozenset(
        k for k in range(1, n + 1)
        if any((m >> k) & 3 == 1 and m + (1 << k) not in dominated for m in starts)
    )


# ---------------------------------------------------------------------------
# full flag variety: the Hilbert-Mumford test as flag-matroid rank inequalities


def flag_point_semistable(
    mat: List[List[Fraction]], coeffs: Sequence[Fraction]
) -> bool:
    """Hilbert-Mumford verdict for the full flag spanned by the columns.

    chi has simple-root coefficients m_1, ..., m_{N-1}; with m_0 = m_N = 0
    and c_k = 2 m_k - m_{k-1} - m_{k+1}, chi = sum_k c_k omega_k.  Let
    bases_k be the row subsets with a nonzero minor on the first k
    columns (one ``_minor_sweep`` gives every k), so rk_k(S) = max |B & S|
    over B in bases_k (``_rank_table``) is the rank of rows S there.  The
    sweep gets each column times the lcm of its denominators: scaling a
    column by a nonzero integer scales every minor through that column
    alike, so no bases_k changes, and the expansion multiplies integers,
    not ``Fraction``s.  The flag is semistable iff

        N * sum_k c_k rk_k(S) >= |S| * sum_k k c_k  for every nonempty S.

    ``hm_semistable`` is the one-step case; steps with c_k = 0 are skipped.

    Why this is the Hilbert-Mumford test over all N! row permutations
    sigma (every pivot cell w of a permuted flag has w(chi) <= 0
    coefficientwise), for every chi, dominant or not:

    - In coordinates w(chi) = sum_k c_k (1_{B_k} - k/N), where
      B_k = w({1..k}) is the set of pivot rows of the first k columns.
    - Each column's pivot is the lowest row not claimed by an earlier
      column, so B_k is the greedy basis of bases_k taken from the
      bottom row up (Edmonds, Math. Programming 1, 1971).  One chain
      B_1 < ... < B_N therefore gives |B_k & T| = rk_k(T) for every k
      at once, T any set of bottom rows.
    - Coefficient j of w(chi) is sum_k c_k (k - |B_k & T| - j k/N) with
      T the last N - j rows, so it is <= 0 exactly when the inequality
      holds for S, the rows that sigma puts last.  Every S of size
      1..N-1 arises this way; S = [N] holds with equality.

    The inequalities cut out the moment polytope of the torus-orbit
    closure (Gelfand and Serganova, Russian Math. Surveys 42, 1987), and
    a violated one is an integer separator.
    """
    n = len(mat)
    m = [Fraction(0), *(Fraction(c) for c in coeffs), Fraction(0)]
    if len(m) != n + 1:
        raise ValueError("coefficient count must be rank = n - 1")
    scales = [math.lcm(*(x.denominator for x in col)) for col in zip(*mat)]
    ints = [[int(x * d) for x, d in zip(row, scales)] for row in mat]
    sweep = _minor_sweep([ints] * 3, n, n)  # sweep[k]: the minors on the first k columns
    if not sweep[n]:
        raise ValueError("singular matrix has no flag cell")
    c = [2 * m[k] - m[k - 1] - m[k + 1] for k in range(1, n)]
    scale = math.lcm(*(ck.denominator for ck in c))  # integer c_k, same inequalities
    steps = [(k, int(ck * scale), sweep[k]) for k, ck in enumerate(c, start=1) if ck]
    return _violated_rows(steps, n) is None
