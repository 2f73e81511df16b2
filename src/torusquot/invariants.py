"""Torus weights of cell coordinates and the invariant monomial lattice.

Each cell coordinate X_{i,j} carries the interval root at its array
position as a torus weight, so a Laurent monomial in the X's carries
the integer combination of those intervals.  The weight-zero monomials
form a lattice; the cross-ratio generators Y_{i,j} below are certified
to be a basis of it by exact integer linear algebra.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from . import linalg
from .schubert import InversionArray
from .weights import Weight, weight, zero_weight


@dataclass(frozen=True)
class ExponentVector:
    """Integer exponents over the positions of one inversion array."""

    shape: Tuple[int, ...]
    exps: Tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.exps) != sum(self.shape):
            raise ValueError("exponent count does not match the shape")

    def __add__(self, other: "ExponentVector") -> "ExponentVector":
        if self.shape != other.shape:
            raise ValueError("shape mismatch")
        return ExponentVector(self.shape, tuple(a + b for a, b in zip(self.exps, other.exps)))

    def __sub__(self, other: "ExponentVector") -> "ExponentVector":
        if self.shape != other.shape:
            raise ValueError("shape mismatch")
        return ExponentVector(self.shape, tuple(a - b for a, b in zip(self.exps, other.exps)))

    def __neg__(self) -> "ExponentVector":
        return ExponentVector(self.shape, tuple(-a for a in self.exps))


def array_shape(arr: InversionArray) -> Tuple[int, ...]:
    return tuple(len(row) for row in arr.rows)


def position_index(shape: Tuple[int, ...], i: int, j: int) -> int:
    """Flat index of array position (i, j), row major, 1-based."""
    if not 1 <= i <= len(shape) or not 1 <= j <= shape[i - 1]:
        raise ValueError(f"position ({i}, {j}) outside shape {shape}")
    return sum(shape[: i - 1]) + (j - 1)


def unit_vector(arr: InversionArray, i: int, j: int) -> ExponentVector:
    shape = array_shape(arr)
    exps = [0] * sum(shape)
    exps[position_index(shape, i, j)] = 1
    return ExponentVector(shape, tuple(exps))


def torus_weight(e: ExponentVector, arr: InversionArray) -> Weight:
    """Sum of the interval roots at the positions, weighted by exponents."""
    if e.shape != array_shape(arr):
        raise ValueError("shape mismatch")
    rank = arr.g.n - 1
    coeffs = [0] * rank
    for (i, j), exp in zip(arr.positions(), e.exps):
        if exp == 0:
            continue
        start, end = arr.root_at(i, j)
        for k in range(start, end + 1):
            coeffs[k - 1] += exp
    return weight(coeffs)


@dataclass(frozen=True)
class InvariantBasis:
    """Cross-ratio exponent vectors Y_{i,j}, one per admissible (i, j)."""

    arr: InversionArray
    labels: Tuple[Tuple[int, int], ...]
    generators: Tuple[ExponentVector, ...]

    def as_dict(self) -> Dict[Tuple[int, int], ExponentVector]:
        return dict(zip(self.labels, self.generators))


def y_labels(arr: InversionArray) -> List[Tuple[int, int]]:
    """Admissible (i, j): 1 <= i <= r-1 and 1 <= j <= a_i - i."""
    g = arr.g
    return [
        (i, j)
        for i in range(1, g.r)
        for j in range(1, g.a_seq[i - 1] - i + 1)
    ]


def y_exponent(arr: InversionArray, i: int, j: int) -> ExponentVector:
    """Exponent vector of X_{i,L_i} X_{i+1,j} / (X_{i,j} X_{i+1,L_i}), L_i = a_i - i + 1."""
    li = arr.g.a_seq[i - 1] - i + 1
    return (
        unit_vector(arr, i, li)
        + unit_vector(arr, i + 1, j)
        - unit_vector(arr, i, j)
        - unit_vector(arr, i + 1, li)
    )


def y_generators(arr: InversionArray) -> InvariantBasis:
    """The invariant cross-ratio generators of the cell.

    Count is sum(a_i - i) over i < r; rows shorter than their index
    contribute nothing.  Requires r >= 2: with a single block every
    coordinate has a distinct interval weight and no cross-ratio exists.
    """
    if arr.g.r < 2:
        raise ValueError("no invariants of this shape for r < 2")
    labels = tuple(y_labels(arr))
    gens = tuple(y_exponent(arr, i, j) for i, j in labels)
    basis = InvariantBasis(arr, labels, gens)
    for gen in gens:
        assert torus_weight(gen, arr) == zero_weight(arr.g.n - 1)
    return basis


def weight_matrix(arr: InversionArray) -> List[List[int]]:
    """Integer matrix of position -> root-lattice weight, one column per position."""
    rank = arr.g.n - 1
    cols = []
    for i, j in arr.positions():
        start, end = arr.root_at(i, j)
        cols.append([1 if start <= k <= end else 0 for k in range(1, rank + 1)])
    return [[col[k] for col in cols] for k in range(rank)]


@dataclass(frozen=True)
class KernelReport:
    """Certification of the cross-ratio basis against the weight kernel."""

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


def verify_kernel_basis(arr: InversionArray) -> KernelReport:
    """Certify that the Y exponent vectors are a basis of the weight-zero lattice.

    The kernel lattice of the weight matrix is computed by integer
    column reduction; equality of lattices is Hermite-form equality of
    generating sets, which is immune to rational-span coincidences.
    """
    g = arr.g
    expected = sum(max(g.a_seq[i - 1] - i, 0) for i in range(1, g.r))
    mat = weight_matrix(arr)
    npos = len(arr.positions())
    if npos == 0:
        return KernelReport(g.n, g.r, g.a_seq, 0, expected, True, expected == 0)
    kernel = linalg.integer_kernel_basis(mat)
    if g.r < 2:
        ys: List[List[int]] = []
    else:
        ys = [list(vec.exps) for vec in y_generators(arr).generators]
    in_kernel = all(
        torus_weight(ExponentVector(array_shape(arr), tuple(v)), arr)
        == zero_weight(g.n - 1)
        for v in ys
    )
    same = linalg.lattice_canonical_form(kernel) == linalg.lattice_canonical_form(ys)
    return KernelReport(g.n, g.r, g.a_seq, len(kernel), expected, in_kernel, same)
