"""Torus weights of cell coordinates and the invariant monomial lattice.

Each cell coordinate carries an interval root [j, k] = e_j - e_(k+1) as
its torus weight, and the interval is the only form a weight takes.  A
Laurent monomial in the X's, given by its (position, exponent) pairs,
carries the integer combination of those roots; `monomial_weight` gives
it as its nonzero e-coordinates, and every weight test reads that one
form.  The weight-zero monomials form a lattice.  Both the Grassmannian
cells and the full flag cell coordinatize their torus quotient by a
basis of it: the cross-ratio generators Y_{i,j} below and the flag
quotient coordinates.  Each builder states an integer left inverse of
its generators in closed form, checked once against their supports;
with the lattice's rank (a union-find over the root edges (j, k + 1))
that certifies a basis, which every lattice must have.  A Y is its X
monomial; only `flag` shows the paper's leading minus.  `reexpress`
rewrites an invariant rational function in either basis, checking the
lattice first and weighing the monomials only to name a refusal; its Y
fraction needs no second reduction, since the lattice is saturated (both
argued there).  `induced_action` gives the action that a substitution
of the X's induces on the Y's.

All of it is integer work in proportion to the nonzero entries.  A
generator is only ever its support, the sorted (position, exponent)
pairs of its nonzero entries: four for a cross-ratio, three for a flag
coordinate.  A weight reads the pairs it is given, a lattice keeps the
nonzero entries of each left-inverse row and column, and it builds its Y
monomials once, on first use.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import accumulate, chain
from operator import sub
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .ratfunc import Names, RationalFunction, Substitution, compose
from .schubert import Interval, InversionArray

Exponents = Tuple[int, ...]
_Sparse = Tuple[Tuple[int, int], ...]  # (index, nonzero entry) pairs


def monomial_weight(terms: Iterable[Tuple[int, int]], roots: Sequence[Interval]) -> _Sparse:
    """Torus weight of the Laurent monomial with these (position,
    exponent) pairs, as its nonzero e-coordinates (i, c), sorted: the root
    [j, k] is e_j - e_(k+1).  It is empty exactly when the weight is zero,
    and two monomials share a weight exactly when these tuples are equal.
    A zero exponent adds nothing, so a generator passes its support and a
    dense exponent tuple passes ``enumerate(exps)``."""
    total: Dict[int, int] = {}
    for t, e in terms:
        if e:
            j, k = roots[t]
            total[j] = total.get(j, 0) + e
            total[k + 1] = total.get(k + 1, 0) - e
    return tuple(sorted((i, c) for i, c in total.items() if c))


def y_labels(arr: InversionArray) -> List[Tuple[int, int]]:
    """Admissible (i, j): 1 <= i <= r-1 and 1 <= j <= a_i - i."""
    g = arr.g
    return [
        (i, j)
        for i in range(1, g.r)
        for j in range(1, g.a_seq[i - 1] - i + 1)
    ]


def cross_ratios(arr: InversionArray) -> Tuple[_Sparse, ...]:
    """The support of each cross-ratio, in the order of `y_labels`:
    Y_{i,j} = X_{i,L_i} X_{i+1,j} / (X_{i,j} X_{i+1,L_i}), L_i = a_i - i + 1.

    The X's are numbered row major and row i has length L_i, so with
    X_{i,q} at s + q the four positions s + j < s + L_i < s + L_i + j <
    s + 2 L_i are sorted and distinct, since 1 <= j < L_i and row i + 1
    is no shorter than row i."""
    starts = list(accumulate((len(row) for row in arr.rows), initial=-1))
    supports = []
    for i, j in y_labels(arr):
        s, li = starts[i - 1], len(arr.rows[i - 1])
        supports.append(((s + j, -1), (s + li, 1), (s + li + j, 1), (s + 2 * li, -1)))
    return tuple(supports)


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


def _support_defect(support: _Sparse, size: int) -> Optional[str]:
    """Why `support` is not sorted (position, exponent) pairs over `size`
    positions with nonzero integer exponents, or None if it is."""
    last = -1
    for t, e in support:
        if not (isinstance(t, int) and 0 <= t < size):
            return f"position {t!r} outside 0..{size - 1}"
        if not isinstance(e, int) or not e:
            return f"exponent {e!r}, which is zero or not an integer"
        if t <= last:
            return f"position {t} repeated or out of order"
        last = t
    return None


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

    ``roots`` holds the interval root of each X coordinate, its torus
    weight, and ``generators`` the support of each quotient coordinate Y:
    the (position, exponent) pairs of its nonzero exponents, sorted by
    position (four for a cross-ratio, three for a flag coordinate).  A Y
    is its X monomial.  ``left_inverse``, from the builder, holds one
    sparse integer row per generator as (position, entry) pairs.
    Construction raises ``ValueError`` unless there is one root per X
    name and one Y name per generator, unless each support has its
    positions in 0..len(x_names)-1, strictly increasing, and nonzero
    integer exponents, unless each row pairs to 1 with its generator and
    to 0 with the others, unless each generator has weight zero, and
    unless they are as many as the weight kernel's rank (`_kernel_rank`).

    For each X position, the nonzero entries of its left-inverse column
    are derived with it; the Y monomials are built on first use.  Neither
    these nor the left inverse takes part in equality, hashing or repr.
    """

    x_names: Names
    roots: Tuple[Interval, ...]
    y_names: Names
    generators: Tuple[_Sparse, ...]
    left_inverse: Tuple[_Sparse, ...] = field(repr=False, compare=False)
    _inverse_columns: Tuple[_Sparse, ...] = field(init=False, repr=False, compare=False)
    _y_monomials: Optional[Substitution] = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        size = len(self.x_names)
        if len(self.roots) != size:
            raise ValueError("expected one root per X name")
        if len(self.y_names) != len(self.generators):
            raise ValueError("expected one Y name per generator")
        for name, support in zip(self.y_names, self.generators):
            defect = _support_defect(support, size)
            if defect is not None:
                raise ValueError(f"support of {name} has {defect}")
        columns = _checked_columns(self.left_inverse, self.generators, size)
        if columns is None:
            raise ValueError("left inverse does not pair to the identity with the generators, "
                             "so they are not certified a basis of a saturated lattice")
        if any(monomial_weight(v, self.roots) for v in self.generators):
            raise ValueError("a generator has nonzero torus weight")
        if len(self.generators) != _kernel_rank(self.roots):
            raise ValueError(f"{len(self.generators)} generators for a weight-zero lattice of "
                             f"rank {_kernel_rank(self.roots)}, so they are not a basis of it")
        object.__setattr__(self, "_inverse_columns", columns)


class ReexpressionError(ValueError):
    """A function expected to be torus-invariant failed to reduce to Y's."""


def reexpress(f: RationalFunction, lattice: InvariantLattice) -> RationalFunction:
    """Rewrite a torus-invariant rational function of the X's in the Y's.

    Each monomial of f is a multiple of one denominator monomial, the
    pivot, by a monomial whose exponents z in the generator lattice the
    left inverse gives and the generators confirm.  The Y monomial with
    exponents z stands for the X monomial with exponents z G; all of them
    are shifted by a common Y monomial, the componentwise minimum, so
    that numerator and denominator are polynomials.  That shift cancels
    the choice of pivot.

    The weight pass runs only when some confirmation fails, to name the
    defect: a numerator or a denominator that is not weight-homogeneous, or
    else a nonzero torus weight.  The generators are a basis of the whole
    weight kernel (construction checks it), so a confirmation fails exactly
    when a monomial is off the pivot's weight.

    The shifted pair needs no further reduction, so it is built directly,
    not through `from_terms`.  The certified left inverse M makes the
    lattice L saturated: x = (M x) G + (x - (M x) G) splits Z^N = L + ker M
    as a direct sum, so k[X^±] = k[Y^±][W^±] with Y the generators'
    monomials and W those of a basis of ker M.  A common factor in k[Y^±]
    that is not a monomial would stay one in k[X^±], hence in the reduced X
    fraction f: there is none.  The coefficients are f's, so they stay
    jointly primitive; the shift leaves no monomial factor; and negating
    both sides when the denominator's graded-lex leading coefficient is
    negative gives the form that `_fraction` returns.
    """
    if f.names != lattice.x_names:
        raise ValueError("expected a function of this cell's X coordinates")
    ynames = lattice.y_names
    if f.is_zero:
        return RationalFunction.constant(0, ynames)
    num, den = f.numer, f.denom
    pivot = next(iter(den))
    columns, supports = lattice._inverse_columns, lattice.generators

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
            raise ReexpressionError(_defect(num, den, lattice.roots))
        return tuple(z)

    zs = [[(y_exponents(m), c) for m, c in terms.items()] for terms in (num, den)]
    low = [min(col) for col in zip(*(z for terms in zs for z, _ in terms))]
    num_y, den_y = ({tuple(map(sub, z, low)): c for z, c in terms} for terms in zs)
    if den_y[max(den_y, key=lambda m: (sum(m), m))] < 0:
        num_y, den_y = ({m: -c for m, c in terms.items()} for terms in (num_y, den_y))
    return RationalFunction(ynames, num_y, den_y)


def _defect(num, den, roots: Tuple[Interval, ...]) -> str:
    """The weight defect of a fraction that `reexpress` refused."""
    wn, wd = ({monomial_weight(enumerate(m), roots) for m in terms} for terms in (num, den))
    if len(wn) > 1:
        return "numerator is not weight-homogeneous"
    if len(wd) > 1:
        return "denominator is not weight-homogeneous"
    return "function has nonzero torus weight"


def y_monomials(lattice: InvariantLattice) -> Substitution:
    """Each quotient coordinate Y as its X monomial.

    They are built once per lattice; each call returns a fresh dict."""
    if lattice._y_monomials is None:
        size = len(lattice.x_names)

        def side(support: _Sparse, sign: int) -> Exponents:
            exps = [0] * size
            for t, e in support:
                if sign * e > 0:
                    exps[t] = sign * e
            return tuple(exps)

        monomials = {
            name: RationalFunction.from_terms(
                lattice.x_names, {side(support, 1): 1}, {side(support, -1): 1}
            )
            for name, support in zip(lattice.y_names, lattice.generators)
        }
        object.__setattr__(lattice, "_y_monomials", monomials)
    return dict(lattice._y_monomials)


def induced_action(lattice: InvariantLattice, xsub: Substitution) -> Substitution:
    """The action on the Y's induced by the substitution `xsub` of the X's:
    each Y's monomial moved by `xsub` and re-expressed in the Y's."""
    moved = compose(xsub, y_monomials(lattice))
    return {name: reexpress(image, lattice) for name, image in moved.items()}


@dataclass(frozen=True)
class KernelReport:
    """Certification of the cross-ratio basis against the weight kernel.

    ``kernel_rank`` is the rank of the weight-zero lattice K, read off the
    interval roots; ``generators_in_kernel`` says every Y monomial has
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


def _kernel_rank(roots: Sequence[Interval]) -> int:
    """Rank of the weight kernel K of the monomials in X's with these roots.

    The root [j, k] is e_j - e_(k+1), so the roots span the cut lattice
    of a graph with one edge (j, k + 1) each.  Its rank is the number of
    merges of a union-find over the edges; K's is the number of roots
    minus that."""
    parent = list(range(max((k for _, k in roots), default=0) + 2))

    def find(v: int) -> int:
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    rank = len(roots)
    for j, k in roots:
        a, b = find(j), find(k + 1)
        if a != b:
            parent[a] = b
            rank -= 1
    return rank


def _certify(roots: Sequence[Interval], generators: Sequence[_Sparse],
             inverse: Sequence[_Sparse]) -> Tuple[int, bool, bool]:
    """(rank of the weight kernel K, generators in K, generators a basis of K).

    Let L be the span of the generators.  If they lie in K, are as many
    as K's rank (`_kernel_rank`) and have integer rows M with M G^T = I
    (G the generators as rows), then L = K: the generators are
    independent, so L has full rank in K and K/L is finite; and Z^N/L is
    torsion-free, since m x = c G with c integral gives c = m (M x), so
    x = (M x) G lies in L.  Hence each x in K, having some multiple in L,
    lies in L.  The generators are given by their supports, and the
    sparse rows `inverse` are the candidate M, checked against those
    supports before they are trusted.
    """
    rank = _kernel_rank(roots)
    in_kernel = not any(monomial_weight(v, roots) for v in generators)
    if not in_kernel or len(generators) != rank:
        return rank, in_kernel, False
    return rank, in_kernel, _checked_columns(inverse, generators, len(roots)) is not None


def verify_kernel_basis(arr: InversionArray) -> KernelReport:
    """Certify that the Y monomials' exponents are a basis of the weight-zero lattice.

    The kernel's rank is the number of coordinates minus the rank of
    their interval roots, read as graph edges (j, k + 1).  The Y's lie in
    the kernel (`monomial_weight` is empty on each), are as many as that
    rank, and span a saturated lattice, which the closed-form left
    inverse of `cross_ratio_inverse` shows once it pairs to the identity
    with them.  A saturated sublattice of full rank is the whole kernel
    (`_certify` has the proof), so this is lattice equality, exact and
    immune to rational-span coincidences.
    """
    g = arr.g
    expected = sum(max(g.a_seq[i - 1] - i, 0) for i in range(1, g.r))
    rank, in_kernel, same = _certify(
        tuple(chain.from_iterable(arr.rows)), cross_ratios(arr), cross_ratio_inverse(arr)
    )
    return KernelReport(g.n, g.r, g.a_seq, rank, expected, in_kernel, same)
