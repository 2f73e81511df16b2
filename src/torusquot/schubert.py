"""Grassmannian minimal coset representatives and their inversion arrays.

An element of W^{I_r} (increasing on 1..r and on r+1..n) is encoded by
the vector a with a_j = w(j) - 1.  The block word

    (s_{a_1} ... s_1)(s_{a_2} ... s_2) ... (s_{a_r} ... s_r)

is reduced, where entries with a_j = j - 1 at the head stand for absent
blocks; the identity is (0, 1, ..., r-1).  Entries strictly increase
and a_j <= n - r + j - 1.

The positive roots inverted by w^{-1} form r rows of interval roots:
row i consists of the intervals [j, a_i] whose start j avoids every
a_k + 1 with k < i.  For cells that admit semistable points no two of
these intervals sum to a root, which is what makes the coordinate
calculus of the action module work.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Tuple

from .weyl import Permutation
from .weights import fundamental_weight, minuscule_floor_element

Interval = Tuple[int, int]  # (j, k) stands for alpha_j + ... + alpha_k


@dataclass(frozen=True)
class GrassmannElement:
    """A cell label for the quotient by the parabolic P_r."""

    n: int
    r: int
    a_seq: Tuple[int, ...]

    def __post_init__(self) -> None:
        n, r, a = self.n, self.r, self.a_seq
        if not 1 <= r <= n - 1:
            raise ValueError(f"r={r} out of range for n={n}")
        if len(a) != r:
            raise ValueError(f"a-sequence must have length r={r}, got {a}")
        prev = -1
        for j, aj in enumerate(a, start=1):
            if aj <= prev:
                raise ValueError(f"a-sequence must strictly increase: {a}")
            if not j - 1 <= aj <= n - r + j - 1:
                raise ValueError(f"a_{j}={aj} out of range [{j-1}, {n-r+j-1}]")
            prev = aj
        # absent blocks (a_j = j - 1) may only form a head
        seen_active = False
        for j, aj in enumerate(a, start=1):
            if aj >= j:
                seen_active = True
            elif seen_active:
                raise ValueError(f"absent block after an active one: {a}")

    @property
    def start_index(self) -> int:
        """Index of the first active block; r + 1 for the identity."""
        for j, aj in enumerate(self.a_seq, start=1):
            if aj >= j:
                return j
        return self.r + 1

    def is_identity(self) -> bool:
        return self.start_index == self.r + 1


def word_of(g: GrassmannElement) -> Tuple[int, ...]:
    """The block reduced word, read left to right."""
    letters: List[int] = []
    for j, aj in enumerate(g.a_seq, start=1):
        if aj >= j:
            letters.extend(range(aj, j - 1, -1))
    return tuple(letters)


def to_permutation(g: GrassmannElement) -> Permutation:
    """One-line form: w(j) = a_j + 1 on 1..r, remaining values increasing."""
    head = [aj + 1 for aj in g.a_seq]
    tail = sorted(set(range(1, g.n + 1)) - set(head))
    return Permutation(tuple(head + tail))


def from_permutation(w: Permutation, r: int) -> GrassmannElement:
    """Inverse of :func:`to_permutation`; requires w minimal for W_{I_r}."""
    n = w.n
    if not 1 <= r <= n - 1:
        raise ValueError(f"r={r} out of range for n={n}")
    for i in range(1, n):
        if i != r and w(i) > w(i + 1):
            raise ValueError(f"{w!r} is not increasing away from position {r}")
    return GrassmannElement(n, r, tuple(w(j) - 1 for j in range(1, r + 1)))


def cell_length(g: GrassmannElement) -> int:
    return sum(aj - j + 1 for j, aj in enumerate(g.a_seq, start=1) if aj >= j)


def all_cells(n: int, r: int) -> Iterator[GrassmannElement]:
    """All of W^{I_r}, in lexicographic a-sequence order."""
    import itertools

    for vals in itertools.combinations(range(1, n + 1), r):
        yield GrassmannElement(n, r, tuple(v - 1 for v in vals))


def grassmann_leq(g: GrassmannElement, h: GrassmannElement) -> bool:
    """g <= h in the length-additive order, componentwise on a-sequences.

    Equivalent to: h's start index <= g's and the active entries of h
    dominate those of g.
    """
    if (g.n, g.r) != (h.n, h.r):
        raise ValueError("dimension mismatch")
    return all(a <= b for a, b in zip(g.a_seq, h.a_seq))


def tau_r_closed_form(n: int, r: int) -> GrassmannElement:
    """Case-split form of the minimal semistable cell, cross-check only.

    Writing n = q r + t with 1 <= t <= r, the entries are i (q + 1) for
    i <= t - 1 and i q + t - 1 for t <= i <= r.  The case split is
    reliable only when t = 1 (n = 1 mod r); the tau command records any
    disagreement with tau_r as a divergence.  (A variant with t + 1 in
    the second branch overflows a_r <= n - 1 and is not used.)
    """
    q, t = divmod(n, r)
    if t == 0:
        q, t = q - 1, r
    a = tuple(i * (q + 1) if i <= t - 1 else i * q + t - 1 for i in range(1, r + 1))
    return GrassmannElement(n, r, a)


def tau_r_ceil_form(n: int, r: int) -> GrassmannElement:
    """Minimal semistable cell as evenly spread rounding: a_i = ceil(i n / r) - 1.

    Equivalently w([1, r]) = {ceil(j n / r) : j = 1..r}, the column set
    whose running count matches floor(k r / n) at every k.  Tests verify
    this agrees with the descent computation exhaustively.
    """
    return GrassmannElement(n, r, tuple(-(i * n // -r) - 1 for i in range(1, r + 1)))


def tau_r(n: int, r: int) -> GrassmannElement:
    """Minimal cell whose closure meets the semistable locus.

    Computed as the unique minimal-coset element moving n omega_r to a
    nonpositive weight (descent algorithm).
    """
    if not 2 <= r <= n - 2:
        raise ValueError(f"need 2 <= r <= n - 2, got n={n}, r={r}")
    w = minuscule_floor_element(fundamental_weight(r, n), mode="ceil")
    return from_permutation(w, r)


def has_semistable(g: GrassmannElement) -> bool:
    """True iff the cell of g contains a semistable point (tau_r <= g)."""
    return grassmann_leq(tau_r(g.n, g.r), g)


def semistable_cells(n: int, r: int) -> List[GrassmannElement]:
    """All cells of G_{r,n} containing semistable points: those above tau_r."""
    tau = tau_r(n, r)
    return [g for g in all_cells(n, r) if grassmann_leq(tau, g)]


@dataclass(frozen=True)
class InversionArray:
    """Rows of interval roots inverted by w^{-1}, one row per block."""

    g: GrassmannElement
    rows: Tuple[Tuple[Interval, ...], ...]

    def positions(self) -> List[Tuple[int, int]]:
        """Row-major (i, j) labels, 1-based."""
        return [
            (i, j)
            for i, row in enumerate(self.rows, start=1)
            for j in range(1, len(row) + 1)
        ]

    def root_at(self, i: int, j: int) -> Interval:
        return self.rows[i - 1][j - 1]


def row_starts(g: GrassmannElement, i: int) -> List[int]:
    """Admissible interval starts for row i: 1..a_i avoiding a_k+1, k<i."""
    ai = g.a_seq[i - 1]
    excluded = {g.a_seq[k - 1] + 1 for k in range(1, i)}
    return [j for j in range(1, ai + 1) if j not in excluded]


def inversion_array(g: GrassmannElement) -> InversionArray:
    rows = []
    for i, ai in enumerate(g.a_seq, start=1):
        starts = row_starts(g, i)
        assert len(starts) == max(ai - (i - 1), 0)
        rows.append(tuple((j, ai) for j in starts))
    arr = InversionArray(g, tuple(rows))
    assert len(arr.positions()) == cell_length(g)
    return arr
