"""Weights of type A in the simple-root basis, with exact coordinates.

A weight is a rational vector (m_1, ..., m_l) standing for
sum m_i alpha_i, where alpha_1, ..., alpha_l are the simple roots of
sl_{l+1}.  The pairing with the simple coroot alpha_j^vee reads the
j-th row of the tridiagonal Cartan matrix,

    <chi, alpha_j^vee> = 2 m_j - m_{j-1} - m_{j+1}   (m_0 = m_{l+1} = 0).

The Weyl group S_{l+1} acts by permuting coordinates: with
alpha_i = eps_i - eps_{i+1}, chi has eps-coordinates e_j = m_j - m_{j-1},
w sends eps_j to eps_{w(j)}, and prefix sums give the simple-root
coefficients back.  This agrees with the product of the simple
reflections s_i(chi) = chi - <chi, alpha_i^vee> alpha_i along any word
for w; the tests compare the two.

Fundamental weights are obtained by solving the Cartan system, not
from a closed form; the closed form is checked against this in the
tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction as Q
from itertools import accumulate
from typing import Iterable, List, Tuple

from . import linalg
from .weyl import Permutation


@dataclass(frozen=True)
class Weight:
    """Coefficients over the simple roots, exact rationals."""

    coeffs: Tuple[Q, ...]

    @property
    def rank(self) -> int:
        return len(self.coeffs)

    def __sub__(self, other: "Weight") -> "Weight":
        self._check(other)
        return Weight(tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))

    def _check(self, other: "Weight") -> None:
        if self.rank != other.rank:
            raise ValueError("dimension mismatch")


def weight(coeffs: Iterable) -> Weight:
    return Weight(tuple(Q(c) for c in coeffs))


def simple_root(i: int, rank: int) -> Weight:
    if not 1 <= i <= rank:
        raise ValueError(f"simple root index {i} out of range for rank {rank}")
    return Weight(tuple(Q(1) if j == i else Q(0) for j in range(1, rank + 1)))


def cartan_matrix(rank: int) -> List[List[int]]:
    """Type A Cartan matrix: 2 on the diagonal, -1 off by one."""
    return [
        [2 if i == j else (-1 if abs(i - j) == 1 else 0) for j in range(rank)]
        for i in range(rank)
    ]


def pairing(chi: Weight, j: int) -> Q:
    """<chi, alpha_j^vee> = 2 m_j - m_{j-1} - m_{j+1}, the j-th Cartan row."""
    if not 1 <= j <= chi.rank:
        raise ValueError(f"coroot index {j} out of range for rank {chi.rank}")
    m = chi.coeffs
    left = m[j - 2] if j > 1 else 0
    right = m[j] if j < chi.rank else 0
    return 2 * m[j - 1] - left - right


def fundamental_weight(r: int, n: int) -> Weight:
    """omega_r for sl_n, solved from <omega_r, alpha_j^vee> = delta_rj."""
    rank = n - 1
    if not 1 <= r <= rank:
        raise ValueError(f"fundamental weight index {r} out of range for sl_{n}")
    a = cartan_matrix(rank)
    e = [Q(1) if j == r - 1 else Q(0) for j in range(rank)]
    sol = linalg.solve_linear(a, e)
    assert sol is not None  # the Cartan matrix is invertible
    return Weight(tuple(sol))


def act(w: Permutation, chi: Weight) -> Weight:
    """w(chi): the eps-coordinate e_j of chi moves to position w(j)."""
    if w.n != chi.rank + 1:
        raise ValueError("dimension mismatch")
    m = (0,) + chi.coeffs + (0,)
    eps = [Q(0)] * w.n
    for j in range(1, w.n + 1):
        eps[w(j) - 1] = m[j] - m[j - 1]
    return Weight(tuple(accumulate(eps[:-1])))


def height(chi: Weight) -> Q:
    """Sum of the simple-root coefficients."""
    return sum(chi.coeffs, Q(0))


def _extremal_target(omega: Weight, mode: str) -> Weight:
    if mode == "ceil":
        return Weight(tuple(m - math.ceil(m) for m in omega.coeffs))
    if mode == "floor":
        return Weight(tuple(m - math.floor(m) for m in omega.coeffs))
    raise ValueError(f"mode must be 'ceil' or 'floor', got {mode!r}")


def minuscule_floor_element(omega: Weight, mode: str = "ceil") -> Permutation:
    """The unique minimal-coset element moving omega to its rounded image.

    For ``mode='ceil'`` the image has coefficients m_i - ceil(m_i), all
    in (-1, 0]; for ``mode='floor'`` it has m_i - floor(m_i) in [0, 1).
    Requires omega minuscule (all coroot pairings along the orbit stay
    in {-1, 0, 1}); each step subtracts one simple root, choosing the
    smallest qualifying index.
    """
    target = _extremal_target(omega, mode)
    n = omega.rank + 1
    from .weyl import identity, simple_reflection  # local to avoid cycle noise

    w = identity(n)
    chi = omega
    steps = height(chi - target)
    if steps != int(steps):
        raise ValueError("omega is not in the root-translate of its rounding")
    for _ in range(int(steps)):
        moved = False
        for i in range(1, omega.rank + 1):
            if chi.coeffs[i - 1] > target.coeffs[i - 1] and pairing(chi, i) == 1:
                chi = chi - simple_root(i, omega.rank)
                w = simple_reflection(i, n) * w
                moved = True
                break
        if not moved:
            raise ValueError("descent stalled; weight is not minuscule")
    assert chi == target
    return w
