"""Torus weights of cell coordinates and the invariant monomial lattice.

Each cell coordinate carries an interval root as its torus weight, so a
Laurent monomial in the X's, written as an integer exponent tuple,
carries the integer combination of those intervals.  The weight-zero
monomials form a lattice.  Both the Grassmannian cells and the full flag
cell coordinatize their torus quotient by a basis of it: the cross-ratio
generators Y_{i,j} below, certified to be a basis by the lattice's rank
(a union-find over the interval roots) and one Hermite form, and the
flag quotient coordinates.  `reexpress` rewrites an invariant rational
function in either basis, and `induced_action` gives the action that a
substitution of the X's induces on the Y's.

All of it is integer work in proportion to the nonzero entries: a weight
skips the zero exponents, a lattice keeps the nonzero entries of each
left-inverse column and the support of each generator, and it builds its
Y monomials once, on first use.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from . import linalg
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


@dataclass(frozen=True)
class InvariantLattice:
    """The weight-zero monomials of one cell and a basis of them.

    ``weights`` holds the integer torus weight of each X coordinate and
    ``generators`` the exponents of each quotient coordinate Y; a Y is
    ``sign`` times its X monomial (+1 for the Grassmannian cross-ratios,
    -1 for the flag quotient coordinates).  ``left_inverse`` holds one
    integer row per generator, pairing to 1 with it and to 0 with the
    others; construction raises ``ValueError`` when none exists, that is
    when the generators are not a basis of a saturated lattice.

    Two sparse views are derived with it: for each X position, the
    nonzero entries of its left-inverse column, and for each generator,
    its support (four positions for a cross-ratio, three for a flag
    coordinate).  The Y monomials are built on first use.  None of these
    fields takes part in equality, hashing or the repr.
    """

    x_names: Names
    weights: Tuple[Exponents, ...]
    y_names: Names
    generators: Tuple[Exponents, ...]
    sign: int
    left_inverse: Tuple[Exponents, ...] = field(init=False, repr=False, compare=False)
    _inverse_columns: Tuple[_Sparse, ...] = field(init=False, repr=False, compare=False)
    _supports: Tuple[_Sparse, ...] = field(init=False, repr=False, compare=False)
    _y_monomials: Optional[Substitution] = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        inverse = _left_inverse(self.generators)
        columns = tuple(
            tuple((a, row[t]) for a, row in enumerate(inverse) if row[t])
            for t in range(len(self.x_names))
        )
        supports = tuple(tuple((t, e) for t, e in enumerate(v) if e) for v in self.generators)
        object.__setattr__(self, "left_inverse", inverse)
        object.__setattr__(self, "_inverse_columns", columns)
        object.__setattr__(self, "_supports", supports)


def _left_inverse(generators: Tuple[Exponents, ...]) -> Tuple[Exponents, ...]:
    """Integer rows L with L G^T = I, G the generators as rows.

    The Hermite form G U has the identity as its leading block exactly
    when such rows exist; they are then the first columns of U.
    """
    k = len(generators)
    if not k:
        return ()
    h, u = linalg.hnf_columns(generators)
    if any(row[:k] != [int(a == c) for c in range(k)] for a, row in enumerate(h)):
        raise ValueError("generators are not a basis of a saturated lattice")
    return tuple(zip(*(row[:k] for row in u)))


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


def _weight_rank(weights: Tuple[Exponents, ...]) -> int:
    """Rank of interval-root weights, counted as merges of a union-find.

    The root a_j + ... + a_k is e_j - e_(k+1), so the weights span the
    cut lattice of a graph on 1..n with one edge (j, k + 1) each, whose
    rank is n minus its number of components.  A weight that is not a
    single run of ones raises ValueError.
    """
    parent = list(range(len(weights[0]) + 1)) if weights else []

    def find(v: int) -> int:
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    merges = 0
    for w in weights:
        j = w.index(1) if 1 in w else 0
        k = j + w.count(1)
        if k == j or w != (0,) * j + (1,) * (k - j) + (0,) * (len(w) - k):
            raise ValueError(f"weight {w} is not an interval root")
        a, b = find(j), find(k)
        if a != b:
            parent[a] = b
            merges += 1
    return merges


def _certify(
    weights: Tuple[Exponents, ...], generators: Sequence[Exponents]
) -> Tuple[int, bool, bool]:
    """(rank of the weight kernel K, generators in K, generators a basis of K).

    Let L be the span of the generators.  If they lie in K, are as many
    as K's rank and have integer rows M with M G^T = I (G the generators
    as rows), then L = K: the generators are independent, so L has full
    rank in K and K/L is finite; and Z^N/L is torsion-free, since m x =
    c G with c integral gives c = m (M x), so x = (M x) G lies in L.
    Hence each x in K, having some multiple in L, lies in L.  M comes
    from one Hermite form of G (`_left_inverse`) and is checked against
    the supports of G before it is trusted.
    """
    rank = len(weights) - _weight_rank(weights)
    in_kernel = not any(any(monomial_weight(v, weights)) for v in generators)
    if not in_kernel or len(generators) != rank:
        return rank, in_kernel, False
    try:
        inverse = _left_inverse(tuple(generators))
    except ValueError:
        return rank, in_kernel, False
    if len(inverse) != rank or any(len(row) != len(weights) for row in inverse):
        return rank, in_kernel, False
    # column b of L G^T, summed over the support of generator b
    columns = list(zip(*inverse))
    for b, v in enumerate(generators):
        pairing = [0] * rank
        for t, e in enumerate(v):
            if e:
                pairing = [p + e * c for p, c in zip(pairing, columns[t])]
        if pairing != [int(a == b) for a in range(rank)]:
            return rank, in_kernel, False
    return rank, in_kernel, True


def verify_kernel_basis(arr: InversionArray) -> KernelReport:
    """Certify that the Y exponent vectors are a basis of the weight-zero lattice.

    The kernel's rank is the number of coordinates minus the rank of the
    interval-root weights.  The Y's lie in the kernel, are as many as
    that rank, and span a saturated lattice, which one Hermite form with
    the identity as its leading block shows.  A saturated sublattice of
    full rank is the whole kernel (`_certify` has the proof), so this is
    lattice equality, exact and immune to rational-span coincidences.
    """
    g = arr.g
    expected = sum(max(g.a_seq[i - 1] - i, 0) for i in range(1, g.r))
    ys = [y_exponent(arr, i, j) for i, j in y_labels(arr)]
    rank, in_kernel, same = _certify(position_weights(arr), ys)
    return KernelReport(g.n, g.r, g.a_seq, rank, expected, in_kernel, same)
