"""Stratification data for the torus-normalizer quotient of G_{2,n}.

The quotient decomposes into one closed piece, a symmetric-group
quotient of the projectivized trace-zero Cartan subalgebra, plus a
chain of open pieces, symmetric-group quotients of root-hyperplane
complements, one per cell parameter m' from ceil((n-1)/2) to n-2.

Two ways of attaching parameters to stratum indices circulate and they
disagree by one at the top (where one of them would overflow the
quotient dimension); strata() emits the dimension-consistent family
and strata_report() carries the alternate pairing plus explicit
divergence notes.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import factorial
from typing import List, Tuple

from .schubert import tau_r


def _check_n(n: int) -> None:
    if n < 4:
        raise ValueError("the stratification needs n >= 4")


def closed_parameter(n: int) -> int:
    """Cell parameter of the closed stratum: ceil((n-1)/2) = floor(n/2)."""
    _check_n(n)
    return n // 2


@dataclass(frozen=True)
class StratumDescriptor:
    """One stratum of the quotient of G_{2,n}.

    ``cell_parameter`` is the m of the r = 2 cell (m, n-1) whose
    invariants coordinatize the stratum; the finite group S_{m+1}
    (order ``group_order``) acts on the ambient model, whose name and
    dimension m-1 are carried verbatim.
    """

    index: int
    cell_parameter: int
    group_order: int
    ambient: str
    dimension: int
    kind: str  # "closed" | "open"


def strata(n: int) -> List[StratumDescriptor]:
    """The dimension-consistent stratum family for G_{2,n}.

    Index 0 is the closed stratum on the projectivized Cartan
    subalgebra at parameter m = ceil((n-1)/2); index i >= 1 is the open
    stratum on the hyperplane-complement model at parameter m + i - 1,
    so open dimensions run m-1, ..., n-3 and the count is
    floor((n-1)/2) + 1.
    """
    m = closed_parameter(n)
    params = [(0, m)] + [(i, m + i - 1) for i in range(1, (n - 1) // 2 + 1)]
    return [
        StratumDescriptor(
            index=i,
            cell_parameter=mp,
            group_order=factorial(mp + 1),
            ambient=f"root-hyperplane complement V_{mp}" if i
            else f"projective space of a Cartan subalgebra h_{mp}",
            dimension=mp - 1,
            kind="open" if i else "closed",
        )
        for i, mp in params
    ]


@dataclass(frozen=True)
class StrataReport:
    """Stratum family plus the alternate indexing and its divergences."""

    n: int
    t: int
    closed_m: int
    descriptors: Tuple[StratumDescriptor, ...]
    alternate_pairing: Tuple[Tuple[int, int], ...]  # (index i, parameter i + m)
    divergences: Tuple[str, ...]


def strata_report(n: int) -> StrataReport:
    """strata(n) together with the alternate index-to-parameter pairing.

    The alternate rule pairs stratum i with parameter i + m.  Its top
    parameter is then t + m = n - 1, giving ambient dimension n - 2,
    one more than the quotient dimension n - 3 that the invariant count
    of the top cell (n-2, n-1) yields; the emitted family shifts the
    pairing down by one so that dimensions close up.  For even n the
    smallest cell parameter with semistable points sits one below the
    emitted range, which is reported but not silently repaired.
    """
    descs = strata(n)
    m = closed_parameter(n)
    t = (n - 1) // 2
    alternate = tuple((i, i + m) for i in range(1, t + 1))
    divergences = [
        (
            f"alternate pairing tops out at parameter {t + m} = n-1 with ambient "
            f"dimension {n - 2}, exceeding the quotient dimension {n - 3}; the "
            f"emitted family pairs index i with parameter i + {m} - 1 instead"
        )
    ]
    least_semistable = tau_r(n, 2).a_seq[0]
    if least_semistable < m:
        divergences.append(
            f"cells (m', {n - 1}) admit semistable points for m' >= "
            f"{least_semistable}, one below the smallest emitted open "
            f"parameter {m}; the extra parameter is not part of the stated family"
        )
    return StrataReport(
        n=n,
        t=t,
        closed_m=m,
        descriptors=tuple(descs),
        alternate_pairing=alternate,
        divergences=tuple(divergences),
    )
