"""Independent ground truth for semistability and stabilizer checks.

Everything here recomputes its answers from first principles: Pluecker
supports from the zero pattern of a cell's points, Laplace expansion of
the minors of explicit points, the Hilbert-Mumford test as
(flag-)matroid rank inequalities for Grassmannians and full flags alike,
and direct subset bumping for cell-closure stability.  Row sets are
bitmasks throughout, and both tests read families of row sets, each held
as the bits of one integer.  The rank inequalities are read off F_t, the
row sets of rank at least t, for each t.  A Grassmannian's inequality
n rk(S) >= r |S| is membership of S in one F_t, decided once per
distinct support; a flag's weighted sum of ranks is counted off the
families of each step.  The closure test bumps every subset dominated by
a cell's column set at once, as one shift of their family.  No code
is shared with the modules under test beyond the Permutation type, so
agreement between the two sides is evidence, not tautology.

Verdicts are exact, and no step draws a random point.  A point of the
cell of w has a known zero pattern: each column is a constant 1 at its
pivot row and an independent coordinate at each inversion row above it.
A maximal minor is a signed sum over the perfect matchings of its rows
to the columns along nonzero slots, and as each column has exactly one
constant slot, two matchings never give the same monomial.  So the minor
is a nonzero polynomial, and nonzero at a generic point, exactly when
such a matching exists: the structural rank of the pattern (Edmonds,
"Systems of distinct representatives and linear algebra", J. Res. NBS
71B, 1967).  The generic support is read off the pattern alone, and the
Hilbert-Mumford test off the support; the main path decides the same
question by ``tau_r``'s prefix inequality, which the oracle never uses.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from operator import add, lt, mul
from typing import Dict, FrozenSet, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from .weyl import Permutation

Subset = Tuple[int, ...]

_BIT_TO_BYTE = bytes.maketrans(b"01", b"\x00\x01")


# ---------------------------------------------------------------------------
# generic points of Grassmannian cells


def _check_rank(r: int, n: int) -> None:
    """Refuse a rank that no cell of a Grassmannian of n-space has."""
    if not 0 <= r <= n:
        raise ValueError(f"rank r = {r} is outside 0..n = {n}")


def _layout(w: Permutation, r: int) -> List[List[int]]:
    """The zero pattern of a point of the cell of w: for each of its r
    columns, the rows (0-based) where it may be nonzero.

    A point is u . w . P with u unipotent upper triangular supported on
    the inversion positions (i, j), i < j and w^{-1}(i) > w^{-1}(j), of
    w^{-1}, and column c (0-based) of it is column j = w(c + 1) of u: a 1
    at its pivot row j, below the rows i < j with w^{-1}(i) > c + 1, each
    an independent coordinate, all read off w^{-1} in increasing order.
    """
    winv = w.inverse().images
    return [
        [i for i in range(j - 1) if winv[i] > c] + [j - 1]
        for c, j in enumerate(w.images[:r], start=1)
    ]


def _generic_bases(w: Permutation, r: int) -> Set[int]:
    """The generic support as r-row bitmasks: the row sets with a perfect
    matching to the columns along the nonzero slots of ``_layout``, found
    as ``_minor_sweep`` expands minors, column by column, with sets of row
    bitmasks in place of values.  Raises ``ValueError`` unless 0 <= r <= n."""
    _check_rank(r, w.n)
    matched = {0}
    for column in _layout(w, r):
        matched = {rows | 1 << i for rows in matched for i in column if not rows >> i & 1}
    return matched


def cell_support(w: Permutation, r: int) -> FrozenSet[Subset]:
    """Pluecker support of a generic point of the cell of w (the module
    docstring says why it is exact), its r-subsets inserted in
    lexicographic order, so it prints as one built from
    ``itertools.combinations``.  Raises ``ValueError`` unless 0 <= r <= n."""
    bases = _generic_bases(w, r)
    return frozenset(sorted(map(_subset_of(w.n, r).__getitem__, bases)))


def generic_pivot_sets(
    w: Permutation, r: int, sigmas: Iterable[Permutation]
) -> Iterator[FrozenSet[int]]:
    """For each sigma, the pivot rows (0-based) of the column echelon of
    a generic point of the cell of w with each row j moved to row sigma(j).

    Lowest-entry pivots are the greedy basis from the bottom row up
    (``flag_point_semistable``): a position is a pivot when its row raises
    the rank of the rows below it.  The rows are walked bottom-up as one
    growing bitmask, ranked by one ``_rank_table`` of the generic support.
    Raises ``ValueError`` unless 0 <= r <= n and each sigma is on n letters.
    """
    n = w.n
    rank = _rank_table(_generic_bases(w, r), n)
    for sigma in sigmas:
        if sigma.n != n:
            raise ValueError(f"row permutation {sigma!r} is not on n = {n} letters")
        rows, below, pivots, i = sigma.inverse().images, 0, [], n
        while len(pivots) < r:  # the n rows have rank r
            i -= 1
            below |= 1 << (rows[i] - 1)
            if rank[below] > len(pivots):
                pivots.append(i)
        yield frozenset(pivots)


# per column, (row index, entry) for each nonzero entry, rows in increasing order
_Columns = List[List[Tuple[int, int]]]


def _columns(mat: Sequence[Sequence[int]], n: int, r: int) -> _Columns:
    """The sparse columns of an n x r integer matrix."""
    if len(mat) != n or set(map(len, mat)) - {r}:
        raise ValueError(f"expected an {n} x {r} matrix")
    return [[(i, row[c]) for i, row in enumerate(mat) if row[c]] for c in range(r)]


def _minor_sweep(columns: _Columns) -> List[Dict[int, int]]:
    """The nonzero c x c minors of the first c columns of an integer
    matrix, keyed by row bitmask, for c = 0..r, by one Laplace expansion
    of its sparse columns.

    Each nonzero c x c minor extends to c + 1 columns through the nonzero
    entries of column c, each new row with sign (-1)^(c + its rows above
    it), and the terms landing on one row set are summed.
    """
    sweep: List[Dict[int, int]] = [{0: 1}]
    for c, column in enumerate(columns):
        level, grown = sweep[c], {}
        for i, x in column:
            if c & 1:
                x = -x
            bit, above = 1 << i, (1 << i) - 1
            for rows, p in level.items():
                if not rows & bit:
                    if (rows & above).bit_count() & 1:
                        p = -p
                    key = rows | bit
                    grown[key] = grown.get(key, 0) + p * x
        sweep.append({rows: m for rows, m in grown.items() if m})
    return sweep


@lru_cache(maxsize=None)
def _subsets(n: int, r: int) -> Dict[Subset, int]:
    """Every r-subset of 1..n as a sorted tuple, mapped to its row bitmask."""
    return {
        sub: sum(1 << (i - 1) for i in sub)
        for sub in itertools.combinations(range(1, n + 1), r)
    }


@lru_cache(maxsize=None)
def _subset_of(n: int, r: int) -> Dict[int, Subset]:
    """The inverse of ``_subsets(n, r)``: each r-row bitmask's subset."""
    return {rows: sub for sub, rows in _subsets(n, r).items()}


@dataclass(frozen=True)
class SupportReport:
    """The Pluecker support behind one cell's verdict.  The support is
    read off the zero pattern, not sampled, so ``draws``, ``resampled``
    and ``conclusive`` answer as a sampler that never needed a draw
    would, for readers that still count them."""

    support: FrozenSet[Subset]

    @property
    def draws(self) -> Tuple[()]:
        return ()

    @property
    def resampled(self) -> bool:
        return False

    @property
    def conclusive(self) -> bool:
        return True


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


@lru_cache(maxsize=256)
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
    before it is returned as n max |B & S| < r |S| over the support's row
    bitmasks B; checking every S certifies the semistable side.  The
    verdict depends on (support, n, r) alone, so the last 256 distinct
    supports keep theirs; a sweep that asks once per cell gains nothing
    from keeping more.  Raises
    ``ValueError`` unless 0 <= r <= n, for an empty support, and for one
    with a subset that is not a tuple of r increasing entries of 1..n.
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
    if n * max((b & s).bit_count() for b in bases) >= r * s.bit_count():
        raise ArithmeticError("separator failed re-verification")
    return HMCertificate(False, tuple(i + 1 for i in range(n) if s >> i & 1))


def cell_semistable(
    w: Permutation, r: int, seed: int = 0
) -> Tuple[str, SupportReport, HMCertificate]:
    """Verdict for one cell, 'semistable' or 'unstable': ``hm_semistable``
    of the generic support (``cell_support``).  The verdict is exact and
    ignores `seed`, which is kept for callers that still pass one."""
    support = cell_support(w, r)
    cert = hm_semistable(support, w.n, r)
    return ("semistable" if cert.semistable else "unstable"), SupportReport(support), cert


# ---------------------------------------------------------------------------
# stabilizer of a cell closure, by subset bumping


def reflection_preserves_closure(top: Subset, k: int, n: int) -> bool:
    """Does swapping k and k+1 map the cell closure of `top` into itself?

    The closure consists of the spans whose support subsets are
    dominated by `top`; the swap sends a dominated subset containing k
    but not k+1 to its bump, which must stay dominated.  Raises
    ``ValueError`` unless 1 <= k <= n - 1 and the entries of `top` are
    distinct and in 1..n.
    """
    if not 1 <= k <= n - 1:
        raise ValueError(f"swap index k = {k} is outside 1..n-1 = 1..{n - 1}")
    top = tuple(sorted(top))
    if top and not 1 <= top[0] <= top[-1] <= n:
        raise ValueError(f"top {top} has an entry outside 1..n = 1..{n}")
    if len(set(top)) < len(top):
        raise ValueError(f"top {top} has a repeated entry")
    return k not in _closure_breakers(top, n)


@lru_cache(maxsize=1)  # callers ask about every k for one top in turn
def _closure_breakers(top: Subset, n: int) -> FrozenSet[int]:
    """The k in 1..n-1 whose swap bumps a subset of 1..n dominated by
    `top` to one that is not.  Subsets are bitmasks with bit i for i, so
    the bump of a subset holding k but not k+1 adds 2^k to it.  On the
    family of dominated subsets (``_dominated_family``) that is a shift
    by 2^k of the members outside ``lacking[k]`` and inside
    ``lacking[k + 1]`` (``_row_families``), and k breaks the closure iff
    the shift lands outside the family."""
    lacking, _ = _row_families(n + 1)
    dominated = _dominated_family(top)
    outside = ~dominated
    return frozenset(
        k for k in range(1, n)
        if ((dominated & ~lacking[k] & lacking[k + 1]) << (1 << k)) & outside
    )


def _dominated_family(top: Subset) -> int:
    """The subsets dominated by the increasing tuple `top`, those whose
    i-th least element is at most top[i] for each i, as one family
    integer with bit m set for each member bitmask m, as in
    ``_rank_families``.

    The family grows from the empty set (bit 0) one entry t of `top` at a
    time.  Its members below 2^v are the subsets whose elements are all
    below v, and adding v to each is a shift by 2^v, for each v in 1..t;
    the shifts for different v give subsets with different largest
    elements, so they never collide.
    """
    dominated = 1
    for t in top:
        grown = 0
        for v in range(1, t + 1):
            grown |= (dominated & ((1 << (1 << v)) - 1)) << (1 << v)
        dominated = grown
    return dominated


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
    the rank of rows S there.  The sweep gets each column times the lcm
    d of its denominators, each entry x as the integer
    x.numerator * (d // x.denominator): scaling a column by a nonzero
    integer scales every minor through that column alike, so no bases_k
    changes, and the expansion multiplies integers, not ``Fraction``s;
    the c_k go to integers the same way.  The flag is semistable iff

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
    a violated one is an integer separator.  Raises ``TypeError`` for an
    entry or coefficient that is not an int or a ``Fraction``, so no float
    enters the arithmetic, and ``ValueError`` unless there are n - 1
    coefficients and the matrix is n x n and nonsingular.
    """
    for x in itertools.chain(coeffs, *mat):
        if not isinstance(x, (int, Fraction)):
            raise TypeError(f"expected an int or a Fraction, got {type(x).__name__}")
    n = len(mat)
    m = [0, *coeffs, 0]
    if len(m) != n + 1:
        raise ValueError("coefficient count must be rank = n - 1")
    scales = [math.lcm(*(x.denominator for x in col)) for col in zip(*mat)]
    ints = [[x.numerator * (d // x.denominator) for x, d in zip(row, scales)] for row in mat]
    sweep = _minor_sweep(_columns(ints, n, n))  # sweep[k]: the minors on the first k columns
    if not sweep[n]:
        raise ValueError("singular matrix has no flag cell")
    c = [2 * m[k] - m[k - 1] - m[k + 1] for k in range(1, n)]
    scale = math.lcm(*(ck.denominator for ck in c))  # integer c_k, same inequalities
    steps = [(k, ck.numerator * (scale // ck.denominator), sweep[k])
             for k, ck in enumerate(c, start=1) if ck]
    return _violated_rows(steps, n) is None
