"""Independent ground truth for semistability and stabilizer checks.

Everything here recomputes its answers from first principles: explicit
integer points of cells, Laplace expansion of the minors for Pluecker
supports, the Hilbert-Mumford test as (flag-)matroid rank inequalities
for Grassmannians and full flags alike, and direct subset bumping for
cell-closure stability.  Row sets are bitmasks throughout.  The rank
inequalities are read off families of row sets, each held as the bits
of one integer: F_t, the row sets of rank at least t, for each t.  A
Grassmannian's inequality n rk(S) >= r |S| is membership of S in one
F_t, decided once per distinct support; a flag's weighted sum of ranks
is counted off the families of each step.  No code is shared with the
modules under test beyond the Permutation type, so agreement between
the two sides is evidence, not tautology.

Verdicts are exact.  Genericity of a sampled point is the only
probabilistic ingredient; the sampling protocol demands identical
supports from three consecutive draws and reports "inconclusive"
rather than guessing when the draws keep disagreeing.  One call seeds
one generator and draws from it in turn: seeding a Mersenne Twister
costs about as much as the draw it serves, and against one seed per
draw that moved the benchmark's `oracle` `wall_rel` median from 1.16 to
1.01 (0.87x; seeds 4101-4110, 2-core x86-64 VM).  The first three
draws share their zero pattern, so their minors are expanded in one
Laplace sweep whose row-set keys carry the three minors together;
against one sweep per draw that moved the same median from 1.004 to
0.824 (0.82x; seeds 5101-5110, 2-core x86-64 VM).  That zero pattern
is known before any draw: a column is nonzero only at its pivot row
and the inversion rows above it.  So one layout per call says where
each drawn value goes, a draw is a list of values, and the sweep walks
sparse columns rather than scanning dense matrices; with the
Grassmannian test read off rank families, that moved the median from
0.830 to 0.656 (0.79x; seeds 7801-7810, 2-core x86-64 VM).  A nonzero minor
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
    columns w(1), ..., w(r) of u, written here without building u: one
    draw of ``_layout`` written out densely.  One value is drawn per
    inversion position, kept or not, so the random stream does not
    depend on r.  Raises ``ValueError`` unless 0 <= r <= n.
    """
    _check_rank(r, w.n)
    layout, count = _layout(w, r)
    values = _draw(count, rng)
    mat = [[0] * r for _ in range(w.n)]
    for c, column in enumerate(layout):
        for i, slot in column:
            mat[i][c] = values[slot]
    return mat


def _check_rank(r: int, n: int) -> None:
    """Refuse a rank that no cell of a Grassmannian of n-space has."""
    if not 0 <= r <= n:
        raise ValueError(f"rank r = {r} is outside 0..n = {n}")


_Layout = List[List[Tuple[int, int]]]


def _layout(w: Permutation, r: int) -> Tuple[_Layout, int]:
    """The zero pattern of a point of the cell of w, and the number of
    values one draw takes.

    Column c (0-based) of the point is column w(c + 1) of u, nonzero only
    at its pivot row w(c + 1) and at the rows i above it with (i, w(c + 1))
    an inversion position.  Each column lists (row index, slot) from the
    top row down: slot s >= 1 is the s-th inversion position in
    ``inversion_positions`` order, the order of the draws, and the pivot
    has slot 0, which ``_draw`` fills with 1.
    """
    column = {j: c for c, j in enumerate(w.images[:r])}  # pivot row -> column
    layout: _Layout = [[] for _ in range(r)]
    positions = inversion_positions(w)
    for slot, (i, j) in enumerate(positions, start=1):
        if j in column:
            layout[column[j]].append((i - 1, slot))
    for j, c in column.items():
        layout[c].append((j - 1, 0))  # below every inversion row of its column
    return layout, len(positions)


def _draw(count: int, rng: random.Random) -> List[int]:
    """1, then `count` nonzero values in [-SAMPLE_BOUND, SAMPLE_BOUND]
    from `rng`: the slots of one ``_layout`` draw.

    Each value is the draw of ``rng.randint(-SAMPLE_BOUND, SAMPLE_BOUND)``,
    redrawn while it is 0.  ``randint`` takes an index below the range's
    length from ``getrandbits`` of the length's bit count, redrawn while
    too large, so both redraws are one loop over the same bits.
    """
    size, low = len(_VALUES), _VALUES[0]
    bits, getrandbits = size.bit_length(), rng.getrandbits
    values = [1]
    while len(values) <= count:
        x = getrandbits(bits)
        if x < size and x != -low:
            values.append(x + low)
    return values


# per column, (row index, x, y, z) for each row where some of the three
# matrices is nonzero, rows in increasing order
_Columns = List[List[Tuple[int, int, int, int]]]
_Minors = Dict[int, Tuple[int, int, int]]


def _fill(layout: _Layout, draws: Sequence[List[int]]) -> _Columns:
    """The sparse columns of three ``_draw``s of one layout; a single
    draw stands for three copies of itself."""
    x, y, z = draws * (3 // len(draws))
    return [[(i, x[s], y[s], z[s]) for i, s in column] for column in layout]


def _columns(mats: Sequence[Sequence[Sequence[int]]], n: int, r: int) -> _Columns:
    """The sparse columns of three n x r integer matrices."""
    if len(mats) != 3 or any(len(mat) != n or set(map(len, mat)) - {r} for mat in mats):
        raise ValueError(f"expected three {n} x {r} matrices")
    rows = list(enumerate(zip(*mats)))
    return [[(i, x[c], y[c], z[c]) for i, (x, y, z) in rows if x[c] or y[c] or z[c]] for c in range(r)]


def _minor_sweep(columns: _Columns) -> List[_Minors]:
    """The c x c minors of the first c columns of three integer matrices,
    keyed by row bitmask, for c = 0..r, by one Laplace expansion of their
    sparse columns.

    Each key carries the three minors together, and a key is kept while
    any of them is nonzero, so the key, its sign, its dictionary lookup
    and its loop step are paid once for the three.  Each kept c x c minor
    extends to c + 1 columns through the rows that column c lists, those
    where some matrix is nonzero, each new row with sign (-1)^(c + its
    rows above it), and the terms landing on one row set are summed.  The
    draws of one cell share their zero pattern, so their keys are the
    same; a single matrix is swept as three copies of itself.
    """
    sweep: List[_Minors] = [{0: (1, 1, 1)}]
    for c, column in enumerate(columns):
        level, grown = sweep[c], {}
        for i, x, y, z in column:
            if c & 1:
                x, y, z = -x, -y, -z
            bit, above = 1 << i, (1 << i) - 1
            for rows, (p, q, s) in level.items():
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
def _subsets(n: int, r: int) -> Dict[Subset, int]:
    """Every r-subset of 1..n as a sorted tuple, in lexicographic order,
    mapped to its row bitmask."""
    return {
        sub: sum(1 << (i - 1) for i in sub)
        for sub in itertools.combinations(range(1, n + 1), r)
    }


def _supports(columns: _Columns, n: int, r: int, count: int) -> Tuple[FrozenSet[Subset], ...]:
    """Row subsets with nonvanishing r x r minor, one set for each of the
    first `count` of the three n x r matrices with these sparse columns,
    read off one ``_minor_sweep``."""
    minors = _minor_sweep(columns)[r]
    # inserted in lexicographic order, so each set iterates (and prints) as
    # one built from itertools.combinations does
    kept = [(rows, sub) for sub, rows in _subsets(n, r).items() if rows in minors]
    if all(map(all, minors.values())):  # one support for every matrix
        return (frozenset([sub for _, sub in kept]),) * count
    return tuple(frozenset([sub for rows, sub in kept if minors[rows][j]]) for j in range(count))


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
    successive value lists of its stream, filling one ``_layout`` found
    once per call.  Three consecutive identical draws are accepted; a
    disagreement (a random value landing on a minor's vanishing locus)
    triggers up to EXTRA_DRAWS further draws before giving up.  The first
    three draws are taken up front and their minors expanded in one
    ``_minor_sweep``; each further draw is swept on its own.  Raises
    ``ValueError`` unless 0 <= r <= n.
    """
    _check_rank(r, w.n)
    layout, count = _layout(w, r)
    rng = random.Random(seed)
    first = [_draw(count, rng) for _ in range(3)]
    draws = list(_supports(_fill(layout, first), w.n, r, 3))
    while not draws[-1] == draws[-2] == draws[-3]:
        if len(draws) == 3 + EXTRA_DRAWS:
            return SupportReport(None, tuple(draws), False)
        draws.extend(_supports(_fill(layout, [_draw(count, rng)]), w.n, r, 1))
    return SupportReport(draws[-1], tuple(draws), True)


# ---------------------------------------------------------------------------
# the Hilbert-Mumford test as matroid rank inequalities


def _rank_families(bases: Iterable[int], n: int) -> List[int]:
    """F_t for t = 0..n: the row bitmasks S < 2^n with rk(S) >= t, where
    rk(S) = max |B & S| over B in `bases`.

    A row set is independent when some basis contains it, and S is in
    F_t when it contains an independent t-set.  A family of row sets is
    held as one integer with bit S set for each member S, so that adding
    or dropping row i in every member is a shift by 2^i, restricted by
    ``lacking[i]``, the sets without row i; one pass over the rows closes
    a family under that step.  The independent sets are the bases closed
    downwards, and F_t is their t-sets closed upwards.
    """
    lacking, by_size = _row_families(n)
    independent = 0
    for b in bases:
        independent |= 1 << b
    for i, without in enumerate(lacking):
        independent |= (independent >> (1 << i)) & without
    families = [(1 << (1 << n)) - 1] + [0] * n
    for t in range(1, n + 1):
        family = by_size[t] & independent
        if not family:
            break
        for i, without in enumerate(lacking):
            family |= (family & without) << (1 << i)
        families[t] = family
    return families


def _rank_table(bases: Iterable[int], n: int) -> List[int]:
    """rk(S) = max |B & S| over B in `bases`, for every row bitmask S < 2^n:
    the number of t >= 1 with S in F_t (``_rank_families``)."""
    counts = 0  # byte S counts the t found so far for S
    for family in _rank_families(bases, n)[1:]:
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
    ``flag_point_semistable``.  As rk(S) is an integer, S violates its
    inequality iff it is not in F_t for t = ceil(r |S| / n), the row sets
    of rank at least t (``_rank_families``); the least violated S is the
    lowest set bit of the union over m of the m-sets outside
    F_ceil(r m / n).  A violated S is an integer separator, re-checked
    against the support before it is returned; checking every S
    certifies the semistable side.  The verdict depends on (support, n,
    r) alone, so it is computed, and the support checked, once per
    distinct support.  Raises ``ValueError`` unless 0 <= r <= n, for an
    empty support, and for one with a subset that is not a tuple of r
    increasing entries of 1..n.
    """
    _check_rank(r, n)
    if not support:
        raise ValueError("empty support: no nonzero Pluecker coordinate")
    masks = _subsets(n, r)
    try:
        bases = [masks[sub] for sub in support]
    except KeyError as err:
        raise ValueError(f"support subset {err.args[0]} is not {r} increasing entries of 1..{n}") from None
    families = _rank_families(bases, n)
    _, by_size = _row_families(n)
    violated = 0
    for m in range(1, n + 1):
        violated |= by_size[m] & ~families[-(-r * m // n)]
    if not violated:
        return HMCertificate(True, None)
    s = (violated & -violated).bit_length() - 1
    rows = tuple(i + 1 for i in range(n) if s >> i & 1)
    rank = max(len(set(rows).intersection(sub)) for sub in support)
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
    but not k+1 to its bump, which must stay dominated.  Raises
    ``ValueError`` unless 1 <= k <= n - 1 and every entry of `top` is in
    1..n.
    """
    if not 1 <= k <= n - 1:
        raise ValueError(f"swap index k = {k} is outside 1..n-1 = 1..{n - 1}")
    top = tuple(sorted(top))
    if top and not 1 <= top[0] <= top[-1] <= n:
        raise ValueError(f"top {top} has an entry outside 1..n = 1..{n}")
    return k not in _closure_breakers(top, n)


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
    over B in bases_k (``_rank_table``, counted off ``_rank_families``) is
    the rank of rows S there.  The
    sweep gets each column times the lcm of its denominators: scaling a
    column by a nonzero integer scales every minor through that column
    alike, so no bases_k changes, and the expansion multiplies integers,
    not ``Fraction``s.  The flag is semistable iff

        N * sum_k c_k rk_k(S) >= |S| * sum_k k c_k  for every nonempty S.

    ``hm_semistable`` is the one-step case, read there as a threshold on
    one rank; with several weighted steps no such threshold exists, so the
    ranks are summed.  Steps with c_k = 0 are skipped.

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
    sweep = _minor_sweep(_columns([ints] * 3, n, n))  # sweep[k]: the minors on the first k columns
    if not sweep[n]:
        raise ValueError("singular matrix has no flag cell")
    c = [2 * m[k] - m[k - 1] - m[k + 1] for k in range(1, n)]
    scale = math.lcm(*(ck.denominator for ck in c))  # integer c_k, same inequalities
    steps = [(k, int(ck * scale), sweep[k]) for k, ck in enumerate(c, start=1) if ck]
    return _violated_rows(steps, n) is None
