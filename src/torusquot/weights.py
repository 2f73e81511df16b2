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

Fundamental weights come from the inverse Cartan matrix in closed
form, omega_r = sum_j min(r, j) (n - max(r, j)) / n alpha_j; the tests
check it against a solve of the Cartan system.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction as Q
from itertools import accumulate
from typing import Tuple

from .weyl import Permutation, identity, simple_reflection


@dataclass(frozen=True)
class Weight:
    """Coefficients over the simple roots, exact rationals."""

    coeffs: Tuple[Q, ...]

    @property
    def rank(self) -> int:
        return len(self.coeffs)


def pairing(chi: Weight, j: int) -> Q:
    """<chi, alpha_j^vee> = 2 m_j - m_{j-1} - m_{j+1}, the j-th Cartan row."""
    if not 1 <= j <= chi.rank:
        raise ValueError(f"coroot index {j} out of range for rank {chi.rank}")
    m = chi.coeffs
    left = m[j - 2] if j > 1 else 0
    right = m[j] if j < chi.rank else 0
    return 2 * m[j - 1] - left - right


def fundamental_weight(r: int, n: int) -> Weight:
    """omega_r for sl_n: the r-th column of the inverse Cartan matrix.

    The coefficient of alpha_j is min(r, j) (n - max(r, j)) / n, so that
    <omega_r, alpha_j^vee> = delta_rj (Humphreys, Introduction to Lie
    Algebras and Representation Theory, 13.2).
    """
    if not 1 <= r <= n - 1:
        raise ValueError(f"fundamental weight index {r} out of range for sl_{n}")
    return Weight(tuple(Q(min(r, j) * (n - max(r, j)), n) for j in range(1, n)))


def act(w: Permutation, chi: Weight) -> Weight:
    """w(chi): the eps-coordinate e_j of chi moves to position w(j)."""
    if w.n != chi.rank + 1:
        raise ValueError("dimension mismatch")
    m = (0,) + chi.coeffs + (0,)
    eps = [Q(0)] * w.n
    for j in range(1, w.n + 1):
        eps[w(j) - 1] = m[j] - m[j - 1]
    return Weight(tuple(accumulate(eps[:-1])))


def minuscule_floor_element(omega: Weight, mode: str = "ceil") -> Permutation:
    """The unique minimal-coset element moving omega to its rounded image.

    For ``mode='ceil'`` the image has coefficients m_i - ceil(m_i), all
    in (-1, 0]; for ``mode='floor'`` it has m_i - floor(m_i) in [0, 1).
    Requires omega minuscule (all coroot pairings along the orbit stay
    in {-1, 0, 1}); each step subtracts one simple root, choosing the
    smallest index whose coefficient is still above the target and whose
    pairing is 1; if none qualifies before the target, the descent stalls.
    """
    if mode not in ("ceil", "floor"):
        raise ValueError(f"mode must be 'ceil' or 'floor', got {mode!r}")
    rounded = math.ceil if mode == "ceil" else math.floor
    target = tuple(m - rounded(m) for m in omega.coeffs)
    n = omega.rank + 1
    w = identity(n)
    chi = omega
    while chi.coeffs != target:
        for i in range(1, n):
            if chi.coeffs[i - 1] > target[i - 1] and pairing(chi, i) == 1:
                break
        else:
            raise ValueError("descent stalled; weight is not minuscule")
        chi = Weight(tuple(c - 1 if j == i else c for j, c in enumerate(chi.coeffs, start=1)))
        w = simple_reflection(i, n) * w
    return w
