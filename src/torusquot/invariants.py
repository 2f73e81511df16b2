"""Torus weights of cell coordinates and the invariant monomial lattice.

Each cell coordinate carries an interval root as its torus weight, so a
Laurent monomial in the X's, written as an integer exponent tuple,
carries the integer combination of those intervals.  The weight-zero
monomials form a lattice.  Both the Grassmannian cells and the full flag
cell coordinatize their torus quotient by a basis of it: the cross-ratio
generators Y_{i,j} below and the flag quotient coordinates.  Each builder
states an integer left inverse of its generators in closed form, checked
once against their supports; with the lattice's rank (a union-find over
the interval roots) that certifies a basis.  `reexpress` rewrites an
invariant rational function in either basis, and `induced_action` gives
the action that a substitution of the X's induces on the Y's.

All of it is integer work in proportion to the nonzero entries: a weight
skips the zero exponents, a lattice keeps the nonzero entries of each
left-inverse row and column and the support of each generator, and it
builds its Y monomials once, on first use.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import accumulate
from typing import List, Optional, Sequence, Tuple

from .ratfunc import Names, RationalFunction, Substitution
from .schubert import Interval, InversionArray

Exponents = Tuple[int, ...]
_Sparse = Tuple[Tuple[int, int], ...]  # (index, nonzero entry) pairs


def root_weight(root: Interval, rank: int) -> Exponents:
    """Simple-root coefficients of the interval root [j, k]."""
    j, k = root
    return (0,) * (j - 1) + (1,) * (k - j + 1) + (0,) * (rank - k)


def position_weights(arr: InversionArray) -> Tuple[Exponents, ...]:
    """Torus weight of each coordinate X_{i,j}, row major: its interval root."""
    return tuple(root_weight(root, arr.g.n - 1) for row in arr.rows for root in row)


def monomial_weight(exps: Exponents, weights: Tuple[Exponents, ...]) -> Exponents:
    """Torus weight of the Laurent monomial with these exponents; a zero
    exponent adds nothing, so only the occurring coordinates are read."""
    total = [0] * len(weights[0]) if weights else []
    for e, row in zip(exps, weights):
        if e:
            total = [t + e * c for t, c in zip(total, row)]
    return tuple(total)


def y_labels(arr: InversionArray) -> List[Tuple[int, int]]:
    """Admissible (i, j): 1 <= i <= r-1 and 1 <= j <= a_i - i."""
    g = arr.g
    return [
        (i, j)
        for i in range(1, g.r)
        for j in range(1, g.a_seq[i - 1] - i + 1)
    ]


def y_exponent(arr: InversionArray, i: int, j: int) -> Exponents:
    """Exponents of X_{i,L_i} X_{i+1,j} / (X_{i,j} X_{i+1,L_i}), L_i = a_i - i + 1."""
    li = arr.g.a_seq[i - 1] - i + 1
    lengths = [len(row) for row in arr.rows]
    start = sum(lengths[: i - 1]) - 1  # row i's (i, q) sits at start + q, row major
    below = start + lengths[i - 1]
    exps = [0] * sum(lengths)
    for t, e in ((start + li, 1), (below + j, 1), (start + j, -1), (below + li, -1)):
        exps[t] += e
    return tuple(exps)


def cross_ratio_inverse(arr: InversionArray) -> Tuple[_Sparse, ...]:
    """An integer left inverse of the cross-ratios, one sparse row per Y_{i,j}.

    The row of Y_{i,j} is minus the unit vectors at X_{m,j} over the rows
    m <= i whose length L_m = a_m - m + 1 is at least j.  Row lengths
    never decrease, since the a's strictly increase.  Y_{i',j'} lives in
    columns j' < L_{i'} and L_{i'} of rows i' and i' + 1, so the row of
    Y_{i,j} pairs with it through column j alone.  If j' = j, Y_{i',j'}
    is -1 at X_{i',j} and +1 at X_{i'+1,j}, both in rows of length at
    least j, so the pairing is [i' <= i] - [i' + 1 <= i] = [i' = i].  If
    L_{i'} = j, Y_{i',j'} is +1 at X_{i',j} and -1 at X_{i'+1,j}, so the
    pairing is -[i' = i], which is 0 because j < L_i.  Otherwise it is 0.
    """
    lengths = [len(row) for row in arr.rows]
    starts = list(accumulate(lengths, initial=0))  # (m, q) sits at starts[m - 1] + q - 1
    return tuple(
        tuple((starts[m - 1] + j - 1, -1) for m in range(1, i + 1) if lengths[m - 1] >= j)
        for i, j in y_labels(arr)
    )


def _supports(generators: Sequence[Exponents]) -> Tuple[_Sparse, ...]:
    """The nonzero entries of each generator."""
    return tuple(tuple((t, e) for t, e in enumerate(v) if e) for v in generators)


def _checked_columns(inverse: Sequence[_Sparse], supports: Sequence[_Sparse],
                     size: int) -> Optional[Tuple[_Sparse, ...]]:
    """The columns of the sparse integer rows `inverse` over `size`
    positions, or None unless they pair to the identity with the
    generators of these supports: row a to 1 with generator a and to 0
    with every other.  Each pairing reads the columns at one support."""
    if len(inverse) != len(supports):
        return None
    columns: List[List[Tuple[int, int]]] = [[] for _ in range(size)]
    for a, row in enumerate(inverse):
        for t, e in row:
            if not (isinstance(e, int) and 0 <= t < size):
                return None
            if e:
                columns[t].append((a, e))
    for b, support in enumerate(supports):
        pairing = {b: 0}
        for t, e in support:
            for a, c in columns[t]:
                pairing[a] = pairing.get(a, 0) + c * e
        if pairing.pop(b) != 1 or any(pairing.values()):
            return None
    return tuple(map(tuple, columns))


@dataclass(frozen=True)
class InvariantLattice:
    """The weight-zero monomials of one cell and a basis of them.

    ``weights`` holds the integer torus weight of each X coordinate and
    ``generators`` the exponents of each quotient coordinate Y; a Y is
    ``sign`` times its X monomial (+1 for the Grassmannian cross-ratios,
    -1 for the flag quotient coordinates).  ``left_inverse``, from the
    builder, holds one sparse integer row per generator as (position,
    entry) pairs; construction raises ``ValueError`` unless each row
    pairs to 1 with its generator and to 0 with the others.

    Two sparse views are derived with it: for each X position, the
    nonzero entries of its left-inverse column, and for each generator,
    its support (four positions for a cross-ratio, three for a flag
    coordinate).  The Y monomials are built on first use.  None of these
    fields, nor the left inverse, takes part in equality, hashing or repr.
    """

    x_names: Names
    weights: Tuple[Exponents, ...]
    y_names: Names
    generators: Tuple[Exponents, ...]
    sign: int
    left_inverse: Tuple[_Sparse, ...] = field(repr=False, compare=False)
    _inverse_columns: Tuple[_Sparse, ...] = field(init=False, repr=False, compare=False)
    _supports: Tuple[_Sparse, ...] = field(init=False, repr=False, compare=False)
    _y_monomials: Optional[Substitution] = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        supports = _supports(self.generators)
        columns = _checked_columns(self.left_inverse, supports, len(self.x_names))
        if columns is None:
            raise ValueError("left inverse does not pair to the identity with the generators, "
                             "so they are not certified a basis of a saturated lattice")
        object.__setattr__(self, "_inverse_columns", columns)
        object.__setattr__(self, "_supports", supports)


class ReexpressionError(ValueError):
    """A function expected to be torus-invariant failed to reduce to Y's."""


def reexpress(f: RationalFunction, lattice: InvariantLattice) -> RationalFunction:
    """Rewrite a torus-invariant rational function of the X's in the Y's.

    Requires numerator and denominator to be weight-homogeneous of a
    common weight (true for any invariant after gcd reduction, since
    distinct monomial weights cannot cancel); each monomial is then a
    weight-zero multiple of a denominator monomial, the pivot, whose
    exponents z in the generator lattice the left inverse gives and the
    generators confirm.  The Y monomial with exponents z stands for
    sign**sum(z) times its X monomial; all of them are shifted by a
    common Y monomial so that numerator and denominator are polynomials.
    That shift cancels the choice of pivot.
    """
    if f.names != lattice.x_names:
        raise ValueError("expected a function of this cell's X coordinates")
    ynames = lattice.y_names
    if f.is_zero:
        return RationalFunction.constant(0, ynames)
    num, den = f.numer, f.denom
    wn, wd = ({monomial_weight(m, lattice.weights) for m in terms} for terms in (num, den))
    if len(wn) > 1:
        raise ReexpressionError("numerator is not weight-homogeneous")
    if len(wd) > 1:
        raise ReexpressionError("denominator is not weight-homogeneous")
    if wn != wd:
        raise ReexpressionError("function has nonzero torus weight")
    pivot = next(iter(den))
    columns, supports = lattice._inverse_columns, lattice._supports

    def y_exponents(mono: Exponents) -> Exponents:
        shift = [e - p for e, p in zip(mono, pivot)]
        z = [0] * len(supports)
        for column, s in zip(columns, shift):
            if s:
                for a, entry in column:
                    z[a] += entry * s
        back = [0] * len(shift)
        for support, c in zip(supports, z):
            if c:
                for t, e in support:
                    back[t] += c * e
        if back != shift:
            raise ReexpressionError("monomial outside the invariant lattice")
        return tuple(z)

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


def y_monomials(lattice: InvariantLattice) -> Substitution:
    """Each quotient coordinate Y as ``sign`` times its X monomial.

    They are built once per lattice; each call returns a fresh dict."""
    if lattice._y_monomials is None:
        monomials = {
            name: RationalFunction.from_terms(
                lattice.x_names,
                {tuple(max(e, 0) for e in exps): lattice.sign},
                {tuple(max(-e, 0) for e in exps): 1},
            )
            for name, exps in zip(lattice.y_names, lattice.generators)
        }
        object.__setattr__(lattice, "_y_monomials", monomials)
    return dict(lattice._y_monomials)


def induced_action(lattice: InvariantLattice, xsub: Substitution) -> Substitution:
    """The action on the Y's induced by the substitution `xsub` of the X's:
    each Y's monomial moved by `xsub` and re-expressed in the Y's."""
    return {name: reexpress(mono.subs(xsub), lattice) for name, mono in y_monomials(lattice).items()}


@dataclass(frozen=True)
class KernelReport:
    """Certification of the cross-ratio basis against the weight kernel.

    ``kernel_rank`` is the rank of the weight-zero lattice K, read off the
    weights; ``generators_in_kernel`` says every Y exponent vector has
    weight zero; ``lattice_equality`` says the Y's were proved to be a
    basis of K, and is False whenever that proof does not go through.
    """

    n: int
    r: int
    a_seq: Tuple[int, ...]
    kernel_rank: int
    expected_rank: int
    generators_in_kernel: bool
    lattice_equality: bool

    @property
    def ok(self) -> bool:
        return (
            self.kernel_rank == self.expected_rank
            and self.generators_in_kernel
            and self.lattice_equality
        )


def _root_graph(weights: Tuple[Exponents, ...]) -> Tuple[int, List[Tuple[int, int]]]:
    """The rank of interval-root weights and the ends (j, k + 1) of each,
    counted from 0.

    The root a_j + ... + a_k is e_j - e_(k+1), so the weights span the
    cut lattice of a graph with one edge (j, k + 1) each, whose rank is
    its number of vertices minus its number of components, counted here
    as merges of a union-find; and a combination of the weights vanishes
    exactly when its signed ends cancel at every vertex.  A weight that is
    not a single run of ones raises ValueError.
    """
    parent = list(range(len(weights[0]) + 1)) if weights else []

    def find(v: int) -> int:
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    merges, ends = 0, []
    for w in weights:
        j = w.index(1) if 1 in w else 0
        k = j + w.count(1)
        if k == j or w != (0,) * j + (1,) * (k - j) + (0,) * (len(w) - k):
            raise ValueError(f"weight {w} is not an interval root")
        ends.append((j, k))
        a, b = find(j), find(k)
        if a != b:
            parent[a] = b
            merges += 1
    return merges, ends


def _weightless(support: _Sparse, ends: List[Tuple[int, int]], vertices: int) -> bool:
    """Whether the monomial with this support has weight zero."""
    total = [0] * vertices
    for t, e in support:
        j, k = ends[t]
        total[j] += e
        total[k] -= e
    return not any(total)


def _certify(weights: Tuple[Exponents, ...], generators: Sequence[Exponents],
             inverse: Sequence[_Sparse]) -> Tuple[int, bool, bool]:
    """(rank of the weight kernel K, generators in K, generators a basis of K).

    Let L be the span of the generators.  If they lie in K, are as many
    as K's rank and have integer rows M with M G^T = I (G the generators
    as rows), then L = K: the generators are independent, so L has full
    rank in K and K/L is finite; and Z^N/L is torsion-free, since m x =
    c G with c integral gives c = m (M x), so x = (M x) G lies in L.
    Hence each x in K, having some multiple in L, lies in L.  The sparse
    rows `inverse` are the candidate M, checked against the supports of G
    before they are trusted.
    """
    merges, ends = _root_graph(weights)
    rank, vertices = len(weights) - merges, len(weights[0]) + 1 if weights else 0
    supports = _supports(generators)
    in_kernel = all(_weightless(support, ends, vertices) for support in supports)
    if not in_kernel or len(generators) != rank:
        return rank, in_kernel, False
    return rank, in_kernel, _checked_columns(inverse, supports, len(weights)) is not None


def verify_kernel_basis(arr: InversionArray) -> KernelReport:
    """Certify that the Y exponent vectors are a basis of the weight-zero lattice.

    The kernel's rank is the number of coordinates minus the rank of the
    interval-root weights.  The Y's lie in the kernel, are as many as
    that rank, and span a saturated lattice, which the closed-form left
    inverse of `cross_ratio_inverse` shows once it pairs to the identity
    with them.  A saturated sublattice of full rank is the whole kernel
    (`_certify` has the proof), so this is lattice equality, exact and
    immune to rational-span coincidences.
    """
    g = arr.g
    expected = sum(max(g.a_seq[i - 1] - i, 0) for i in range(1, g.r))
    ys = [y_exponent(arr, i, j) for i, j in y_labels(arr)]
    rank, in_kernel, same = _certify(position_weights(arr), ys, cross_ratio_inverse(arr))
    return KernelReport(g.n, g.r, g.a_seq, rank, expected, in_kernel, same)
