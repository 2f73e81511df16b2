"""Weyl-group actions on cell coordinates and their torus invariants.

The open cell of a Grassmannian Schubert variety carries coordinates
X_{i,j}, one per inversion-array position.  A simple reflection that
stabilizes the closure acts on them by an explicit substitution,
dispatched over the index cases below; on the weight-zero cross-ratios
Y_{i,j} the induced action is computed by pushing through the X's and
re-expressing, with independently stated closed forms used as checks.

The cell (m, n-1) with r = 2 and the reflection representation of the
symmetric group get dedicated closed-form actions so the equivariance
between the two models can be certified symbolically.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import chain
from typing import Optional, Sequence, Tuple

from .invariants import (
    InvariantLattice,
    cross_ratio_inverse,
    cross_ratios,
    induced_action,
    y_labels,
)
from .ratfunc import Names, RationalFunction, Substitution, identity_substitution
from .schubert import GrassmannElement, inversion_array


# ---------------------------------------------------------------------------
# variable naming


@lru_cache(maxsize=None)
def x_names(g: GrassmannElement) -> Names:
    arr = inversion_array(g)
    return tuple(f"X_{i}_{j}" for i, j in arr.positions())


@lru_cache(maxsize=None)
def y_names(g: GrassmannElement) -> Names:
    return tuple(f"Y_{i}_{j}" for i, j in y_labels(inversion_array(g)))


def x_variable(g: GrassmannElement, i: int, j: int) -> RationalFunction:
    return RationalFunction.variable(f"X_{i}_{j}", x_names(g))


def _row_len(g: GrassmannElement, i: int) -> int:
    return max(g.a_seq[i - 1] - i + 1, 0)


# ---------------------------------------------------------------------------
# stabilizer of the cell closure


def stabilizer_generators(g: GrassmannElement) -> frozenset:
    """Simple indices whose reflection maps the cell closure into itself.

    A reflection s_k fails exactly when k sits one past a block end
    whose successor block is two or more steps away (bumping the column
    set {a_j + 1} out of the closure); every other index stabilizes.
    """
    a = g.a_seq
    excluded = set()
    for j in range(1, g.r + 1):
        k = a[j - 1] + 1
        if k > g.n - 1:
            continue
        if j == g.r or a[j] >= a[j - 1] + 2:
            excluded.add(k)
    return frozenset(k for k in range(1, g.n) if k not in excluded)


# ---------------------------------------------------------------------------
# case dispatch


def action_case(k: int, g: GrassmannElement) -> Tuple[str, int]:
    """Which action rule applies for s_k on this cell: (label, block index).

    Labels: ``head-swap`` (column swap in every row), ``gap-swap``
    (column swap below block p), ``pre-block-swap`` (s_{a_p - 1}),
    ``row-swap`` (s_{a_p}, previous block adjacent), ``inversion``
    (s_{a_p}, previous block distant or p = 1), ``outside`` (indices
    past every block; the action is trivial).  An index outside 1..n-1
    or not in ``stabilizer_generators(g)`` is refused.
    """
    a = g.a_seq
    r = g.r
    if not 1 <= k <= g.n - 1:
        raise ValueError(f"simple index {k} out of range for n={g.n}")
    if k not in stabilizer_generators(g):
        raise ValueError(f"cell not stable under s_{k}")
    if k in a:
        p = a.index(k) + 1
        if p >= 2 and a[p - 2] == k - 1:
            return "row-swap", p
        return "inversion", p
    if k + 1 in a:
        return "pre-block-swap", a.index(k + 1) + 1
    if k <= a[0] - 2:
        return "head-swap", 0
    for p in range(1, r):
        if a[p - 1] + 2 <= k <= a[p] - 2:
            return "gap-swap", p
    return "outside", r


# ---------------------------------------------------------------------------
# action on the X coordinates


def _swap_columns(sub: Substitution, g: GrassmannElement, rows: Sequence[int], c1: int, c2: int) -> None:
    for i in rows:
        if _row_len(g, i) >= max(c1, c2):
            sub[f"X_{i}_{c1}"], sub[f"X_{i}_{c2}"] = sub[f"X_{i}_{c2}"], sub[f"X_{i}_{c1}"]


def x_action(k: int, g: GrassmannElement) -> Substitution:
    """Substitution on the X's realizing s_k on the open cell, in a fresh
    dict; it is built once per (k, g).

    Swap cases move whole columns (the start values k and k+1 trade
    places in every affected row); the s_{a_p} case with a distant
    previous block inverts the last coordinate of row p and corrects
    the lower rows by an elementary column operation.
    """
    return dict(_x_action(k, g))


@lru_cache(maxsize=None)
def _x_action(k: int, g: GrassmannElement) -> Substitution:
    label, p = action_case(k, g)
    a = g.a_seq
    r = g.r
    sub = identity_substitution(x_names(g))
    if label == "outside":
        return sub
    if label == "head-swap":
        _swap_columns(sub, g, range(1, r + 1), k, k + 1)
        return sub
    if label == "gap-swap":
        _swap_columns(sub, g, range(p + 1, r + 1), k - p, k - p + 1)
        return sub
    if label == "pre-block-swap":
        c = a[p - 1] - p
        _swap_columns(sub, g, range(p, r + 1), c, c + 1)
        return sub
    if label == "row-swap":
        # adjacent blocks have rows of equal length
        for q in range(1, _row_len(g, p) + 1):
            sub[f"X_{p}_{q}"], sub[f"X_{p - 1}_{q}"] = (
                sub[f"X_{p - 1}_{q}"],
                sub[f"X_{p}_{q}"],
            )
        return sub
    # inversion case at block p
    lp = a[p - 1] - p + 1
    xpl = x_variable(g, p, lp)
    sub[f"X_{p}_{lp}"] = 1 / xpl
    for q in range(1, lp):
        sub[f"X_{p}_{q}"] = x_variable(g, p, q) / xpl
    for j in range(p + 1, r + 1):
        xjl = x_variable(g, j, lp)
        sub[f"X_{j}_{lp}"] = -xjl / xpl
        for q in range(1, lp):
            sub[f"X_{j}_{q}"] = x_variable(g, j, q) - xjl * x_variable(g, p, q) / xpl
    return sub


# ---------------------------------------------------------------------------
# the induced action on the Y coordinates


@lru_cache(maxsize=None)
def invariant_lattice(g: GrassmannElement) -> InvariantLattice:
    """The cross-ratio lattice of the cell: each Y is its X monomial."""
    arr = inversion_array(g)
    return InvariantLattice(
        x_names(g), tuple(chain.from_iterable(arr.rows)), y_names(g), cross_ratios(arr),
        cross_ratio_inverse(arr),
    )


def y_action_substitution(k: int, g: GrassmannElement) -> Substitution:
    """Action of s_k on the Y's, via the X level: each Y's X monomial is
    moved by s_k and re-expressed in the Y's."""
    return induced_action(invariant_lattice(g), _x_action(k, g))


def closed_y_action(k: int, g: GrassmannElement) -> Substitution:
    """Expected images of the Y's under s_k, as standalone closed forms.

    These are stated independently of the X-level computation so the
    two can be compared; the adjacent-block row-swap case is derived
    from the coordinate-level action (its direct closed form does not
    survive in a legible state and is certified by the comparison).
    """
    label, p = action_case(k, g)
    a = g.a_seq
    r = g.r
    names = y_names(g)
    sub = identity_substitution(names)

    def yv(i: int, c: int) -> RationalFunction:
        # convention: out-of-range cross-ratios are 1
        if 1 <= i <= r - 1 and 1 <= c <= a[i - 1] - i:
            return RationalFunction.variable(f"Y_{i}_{c}", names)
        return RationalFunction.constant(1, names)

    if label == "outside":
        return sub
    if label == "head-swap":
        for i in range(1, r):
            if a[i - 1] - i >= k + 1:
                sub[f"Y_{i}_{k}"], sub[f"Y_{i}_{k + 1}"] = (
                    sub[f"Y_{i}_{k + 1}"],
                    sub[f"Y_{i}_{k}"],
                )
        return sub
    if label == "gap-swap":
        for i in range(p + 1, r):
            c = k - p
            sub[f"Y_{i}_{c}"], sub[f"Y_{i}_{c + 1}"] = (
                sub[f"Y_{i}_{c + 1}"],
                sub[f"Y_{i}_{c}"],
            )
        return sub
    if label == "pre-block-swap":
        c = a[p - 1] - p
        for i in range(p, r):
            if a[i - 1] - i == c:
                sub[f"Y_{i}_{c}"] = 1 / yv(i, c)
                for q in range(1, c):
                    sub[f"Y_{i}_{q}"] = yv(i, q) / yv(i, c)
            elif i > p and a[i - 1] - i > c:
                sub[f"Y_{i}_{c}"], sub[f"Y_{i}_{c + 1}"] = (
                    sub[f"Y_{i}_{c + 1}"],
                    sub[f"Y_{i}_{c}"],
                )
        return sub
    if label == "row-swap":
        top = a[p - 1] - p  # common Y-range of rows p-1 and p
        if p >= 3:
            for q in range(1, a[p - 3] - p + 3):
                sub[f"Y_{p - 2}_{q}"] = (
                    yv(p - 2, q) * yv(p - 1, q) / yv(p - 1, a[p - 3] - p + 3)
                )
        for q in range(1, top + 1):
            sub[f"Y_{p - 1}_{q}"] = 1 / yv(p - 1, q)
        if p <= r - 1:
            for q in range(1, top + 1):
                sub[f"Y_{p}_{q}"] = yv(p, q) * yv(p - 1, q)
        return sub
    # inversion case at block p
    lp = a[p - 1] - p + 1
    if p <= r - 1:
        for q in range(1, lp):
            sub[f"Y_{p}_{q}"] = 1 - yv(p, q)
    for i in range(p + 1, r):
        for q in range(1, lp):
            prod = RationalFunction.constant(1, names)
            for m in range(p, i):
                prod = prod * yv(m, q) / yv(m, lp)
            prod_top = prod * yv(i, q) / yv(i, lp)
            sub[f"Y_{i}_{q}"] = (1 - prod_top) / (1 - prod) * yv(i, lp)
    return sub


# ---------------------------------------------------------------------------
# the r = 2 family and the reflection representation


def r2_names(m: int) -> Names:
    return tuple(f"Y_{i}" for i in range(1, m))


def r2_action(
    k: int, m: int, f: RationalFunction, n: Optional[int] = None
) -> RationalFunction:
    """Closed-form action of s_k on the invariants of the cell (m, n-1), r = 2.

    Indices up to m act through the reflection-representation rules;
    indices from m + 2 on act trivially except that for m = n - 2 the
    final index inverts every variable.  k = m + 1 (for m < n - 2) does
    not stabilize the cell and is an error, as is any k needing the
    ambient size when none is given.
    """
    if m < 2:
        raise ValueError("the r = 2 family needs m >= 2")
    names = r2_names(m)
    if f.names != names:
        raise ValueError("expected a function of Y_1 .. Y_{m-1}")
    sub = identity_substitution(names)
    if 1 <= k <= m - 2:
        sub[f"Y_{k}"], sub[f"Y_{k + 1}"] = sub[f"Y_{k + 1}"], sub[f"Y_{k}"]
    elif k == m - 1:
        ym = RationalFunction.variable(f"Y_{m - 1}", names)
        sub[f"Y_{m - 1}"] = 1 / ym
        for i in range(1, m - 1):
            sub[f"Y_{i}"] = RationalFunction.variable(f"Y_{i}", names) / ym
    elif k == m:
        for i in range(1, m):
            sub[f"Y_{i}"] = 1 - RationalFunction.variable(f"Y_{i}", names)
    else:
        if n is None:
            raise ValueError("indices past m need the ambient size n")
        if k > n - 1:
            raise ValueError(f"simple index {k} out of range for n={n}")
        if m == n - 2:
            # only k = n - 1 = m + 1 lands here; the adjacent-block row
            # swap inverts every invariant
            for i in range(1, m):
                sub[f"Y_{i}"] = 1 / RationalFunction.variable(f"Y_{i}", names)
        elif k == m + 1:
            raise ValueError(f"s_{k} is not a listed case for m={m}, n={n}")
        # m <= n - 3, k >= m + 2: identity
    return f.subs(sub)


def standard_rep_names(m: int) -> Names:
    return tuple(f"Z_{i}" for i in range(1, m))


@lru_cache(maxsize=None)
def _standard_rep_substitution(k: int, m: int) -> Tuple[Tuple[str, RationalFunction], ...]:
    xnames = tuple(f"x_{i}" for i in range(1, m + 2))
    znames = standard_rep_names(m)
    xs = identity_substitution(xnames)
    swap = identity_substitution(xnames)
    swap[f"x_{k}"], swap[f"x_{k + 1}"] = swap[f"x_{k + 1}"], swap[f"x_{k}"]
    slice_sub: Substitution = {}
    for i in range(1, m):
        slice_sub[f"x_{i}"] = RationalFunction.variable(f"Z_{i}", znames)
    slice_sub[f"x_{m}"] = RationalFunction.constant(1, znames)
    slice_sub[f"x_{m + 1}"] = RationalFunction.constant(0, znames)
    out = []
    for i in range(1, m):
        zi = (xs[f"x_{i}"] - xs[f"x_{m + 1}"]) / (xs[f"x_{m}"] - xs[f"x_{m + 1}"])
        img = zi.subs(swap).subs(slice_sub)
        out.append((f"Z_{i}", img))
    return tuple(out)


def standard_rep_action(k: int, m: int, f: RationalFunction) -> RationalFunction:
    """Action of s_k on ratios Z_i = (x_i - x_{m+1}) / (x_m - x_{m+1}).

    The x_i are permutation coordinates of the reflection representation
    of the symmetric group on m + 1 letters; the Z's are a complete set
    of invariants for simultaneous translation and scaling, so the
    permuted ratio always re-expresses in them (evaluate on the section
    x = (Z_1, ..., Z_{m-1}, 1, 0)).
    """
    if not 1 <= k <= m:
        raise ValueError(f"index {k} out of range for the rank-{m} model")
    if f.names != standard_rep_names(m):
        raise ValueError("expected a function of Z_1 .. Z_{m-1}")
    return f.subs(dict(_standard_rep_substitution(k, m)))


def adjoint_torus_action(k: int, m: int, f: RationalFunction) -> RationalFunction:
    """Action of s_k on torus characters, in the variables Y_i = e^{eps_i - eps_m}.

    Model for the index range 1..m-1: permuting the eps-coordinates of
    the adjoint torus and rewriting each image character in the Y's
    (with e^{eps_m - eps_m} = 1).
    """
    if not 1 <= k <= m - 1:
        raise ValueError(f"index {k} out of range for the rank-{m} torus model")
    names = r2_names(m)
    if f.names != names:
        raise ValueError("expected a function of Y_1 .. Y_{m-1}")

    def character(i: int) -> RationalFunction:
        if i == m:
            return RationalFunction.constant(1, names)
        return RationalFunction.variable(f"Y_{i}", names)

    def img(i: int) -> int:
        return k + 1 if i == k else (k if i == k + 1 else i)

    sub = {f"Y_{i}": character(img(i)) / character(img(m)) for i in range(1, m)}
    return f.subs(sub)


@dataclass(frozen=True)
class EquivarianceReport:
    """Per-generator comparison of the two closed-form models."""

    m: int
    entries: Tuple[Tuple[int, int, bool], ...]  # (k, i, match)
    negative_control_failed: bool  # perturbed rule must NOT match

    @property
    def ok(self) -> bool:
        return all(match for _, _, match in self.entries) and self.negative_control_failed


def check_equivariance(m: int) -> EquivarianceReport:
    """Does the r = 2 closed action match the reflection representation?

    Compares r2_action and standard_rep_action on every variable for
    every generator index 1..m, after the renaming Y_i -> Z_i; also runs
    a negative control replacing the rule for s_m by Z_i -> 1 + Z_i,
    which must break the match.
    """
    if m < 2:
        raise ValueError("the comparison needs m >= 2")
    ynames = r2_names(m)
    znames = standard_rep_names(m)
    rename = {
        f"Y_{i}": RationalFunction.variable(f"Z_{i}", znames) for i in range(1, m)
    }
    entries = []
    for k in range(1, m + 1):
        for i in range(1, m):
            yi = RationalFunction.variable(f"Y_{i}", ynames)
            lhs = r2_action(k, m, yi).subs(rename)
            rhs = standard_rep_action(
                k, m, RationalFunction.variable(f"Z_{i}", znames)
            )
            entries.append((k, i, lhs == rhs))
    z1 = RationalFunction.variable("Z_1", znames)
    perturbed = 1 + z1
    control = standard_rep_action(m, m, z1) != perturbed
    return EquivarianceReport(m, tuple(entries), control)
