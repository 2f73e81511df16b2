"""Full flag variety: semistable cells and the quotient coordinate map.

Points of GL_{N}/B (N = n + 1) are handled through their Bruhat cells:
a cell is indexed by a permutation w and coordinatized by X_beta for
beta in the inversion set of w^{-1}, positive roots being intervals
[j, k] of simple-root indices.  The semistable locus is the union of
the open subsets V0_tau of the cells c.tau (c the long cycle, tau
fixing the last letter) where every coordinate X_{[1,m]} is nonzero,
and the torus quotient of each V0_tau maps onto a cell of the smaller
flag variety GL_n/B by explicit weight-zero Laurent monomials.

All matrix routines are generic over the scalar: exact Fractions for
sampled points, RationalFunction for symbolic identities.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Dict, List, Mapping, Optional, Sequence, Set, Tuple

from .invariants import InvariantLattice, monomial_weight, reexpress, root_weight
from .linalg import column_echelon
from .ratfunc import Names, RationalFunction, Substitution
from .weights import Weight, act, weight
from .weyl import Permutation, all_permutations, from_word, longest_element, parabolic_elements

Root = Tuple[int, int]  # interval [j, k] <-> alpha_j + ... + alpha_k


# ---------------------------------------------------------------------------
# positive roots as intervals


def all_positive_roots(rank: int) -> List[Root]:
    return [(j, k) for j in range(1, rank + 1) for k in range(j, rank + 1)]


@lru_cache(maxsize=None)
def root_order(rank: int) -> Tuple[Root, ...]:
    """All positive roots in the fixed decreasing order.

    Blocks by start index ascending; within a block, end indices
    descending, so [1,rank] is first and the last simple root is last.
    """
    return tuple(
        (j, k) for j in range(1, rank + 1) for k in range(rank, j - 1, -1)
    )


def reflect_root(i: int, r: Root) -> Optional[Root]:
    """Image of an interval root under s_i; None when the image is negative."""
    j, m = r[0], r[1] + 1

    def sw(t: int) -> int:
        return i + 1 if t == i else (i if t == i + 1 else t)

    a, b = sw(j), sw(m)
    if a < b:
        return (a, b - 1)
    return None


# ---------------------------------------------------------------------------
# the semistable cell family


def check_rank(n: int) -> None:
    """Refuse a flag variety GL_{n+1}/B with n < 1: it has no simple root."""
    if n < 1:
        raise ValueError(f"the flag family needs n >= 1, got n={n}")


def cyclic_element(n: int) -> Permutation:
    """c = s_1 s_2 ... s_n in S_{n+1}: the long cycle j -> j + 1."""
    check_rank(n)
    return from_word(range(1, n + 1), n + 1)


def subgroup_fixing_last(n: int) -> List[Permutation]:
    """W_I: permutations of the first n letters inside S_{n+1}."""
    check_rank(n)
    return list(parabolic_elements(range(1, n), n + 1))


@dataclass(frozen=True)
class RegularDominantChar:
    """Character sum m_i alpha_i with strictly increasing positive m's."""

    rank: int
    coeffs: Tuple[int, ...]

    def __post_init__(self) -> None:
        check_rank(self.rank)
        if len(self.coeffs) != self.rank:
            raise ValueError("need one coefficient per simple root")
        if self.coeffs[0] <= 0 or any(
            b <= a for a, b in zip(self.coeffs, self.coeffs[1:])
        ):
            raise ValueError("coefficients must be positive and strictly increasing")

    def weight(self) -> Weight:
        return weight([Fraction(c) for c in self.coeffs])


def negative_elements(chi: RegularDominantChar) -> Set[Permutation]:
    """All w in S_{n+1} sending chi to a nonpositive root combination.

    Computed directly from the reflection action and independently as
    the coset family {c tau : tau fixes the last letter}; the two must
    agree, and a mismatch raises.
    """
    n = chi.rank
    target = chi.weight()
    direct = {
        w
        for w in all_permutations(n + 1)
        if all(c <= 0 for c in act(w, target).coeffs)
    }
    c = cyclic_element(n)
    coset = {c * tau for tau in subgroup_fixing_last(n)}
    if direct != coset:
        raise ArithmeticError(
            "negative-image elements disagree with the coset description"
        )
    return direct


def cell_parameter(w: Permutation) -> Permutation:
    """The tau with w = c tau, tau fixing the last letter; errors otherwise."""
    n = w.n - 1
    tau = cyclic_element(n).inverse() * w
    if tau(n + 1) != n + 1:
        raise ValueError("element does not index a semistable cell")
    return tau


def restrict_to_first(tau: Permutation) -> Permutation:
    """Drop the fixed last letter: S_{n+1} element fixing n+1 -> S_n."""
    n = tau.n - 1
    if tau(n + 1) != n + 1:
        raise ValueError("element moves the last letter")
    return Permutation(tau.images[:n])


def inversion_roots(w: Permutation) -> Tuple[Root, ...]:
    """R+(w^{-1}) as intervals, in the fixed decreasing order."""
    winv = w.inverse()
    return tuple(
        r for r in root_order(w.n - 1) if winv(r[0]) > winv(r[1] + 1)
    )


def flag_x_names(w: Permutation) -> Names:
    return tuple(f"X_{j}_{k}" for j, k in inversion_roots(w))


def flag_y_names(rank: int) -> Names:
    return tuple(f"Y_{j}_{k}" for j, k in root_order(rank))


# ---------------------------------------------------------------------------
# matrix realization (generic over the scalar type)


def point_matrix(w: Permutation, coords: Mapping[Root, object]) -> List[list]:
    """Matrix of the cell point: unipotent factors in decreasing root
    order applied to the permutation matrix of w (columns e_{w(j)})."""
    nn = w.n
    mat = [[0] * nn for _ in range(nn)]
    for j in range(1, nn + 1):
        mat[w(j) - 1][j - 1] = 1
    for r in reversed(inversion_roots(w)):
        x = coords[r]
        row, src = r[0] - 1, r[1]
        mat[row] = [a + x * b for a, b in zip(mat[row], mat[src])]
    return mat


def swap_rows(mat: Sequence[Sequence[object]], i: int) -> List[list]:
    """Left action of the simple transposition s_i."""
    out = [list(row) for row in mat]
    out[i - 1], out[i] = out[i], out[i - 1]
    return out


def torus_scale(mat: Sequence[Sequence[object]], ts: Sequence[object]) -> List[list]:
    return [[t * v for v in row] for t, row in zip(ts, mat)]


def decompose_point(mat: Sequence[Sequence[object]]) -> Tuple[Permutation, Dict[Root, object]]:
    """Cell permutation and canonical coordinates of a column flag.

    Columns are reduced to the canonical coset form by the column
    echelon, re-assembled into a unipotent matrix, and peeled factor by
    factor in increasing root order; coordinates at non-inversion roots
    must peel to zero.
    """
    nn = len(mat)
    pivots, cols = column_echelon(mat)
    w = Permutation(tuple(p + 1 for p in pivots))
    uni = [[0] * nn for _ in range(nn)]
    for j in range(nn):
        for i in range(nn):
            uni[i][pivots[j]] = cols[j][i]
    coords: Dict[Root, object] = {}
    for r in reversed(root_order(nn - 1)):
        j, k = r
        x = uni[j - 1][k]
        coords[r] = x
        if x != 0:
            for a in range(nn):
                uni[a][k] = uni[a][k] - x * uni[a][j - 1]
    for i in range(nn):
        for j in range(nn):
            if uni[i][j] != (1 if i == j else 0):
                raise ArithmeticError("unipotent peel did not terminate at identity")
    inv = set(inversion_roots(w))
    for r, v in coords.items():
        if r not in inv and v != 0:
            raise ArithmeticError(f"nonzero coordinate at non-inversion root {r}")
    return w, {r: coords[r] for r in inversion_roots(w)}


# ---------------------------------------------------------------------------
# the quotient map


def pi_tau(tau: Permutation, n: int) -> Dict[str, RationalFunction]:
    """Symbolic quotient map on the cell of c tau: pi_point at its generic point.

    Each coordinate is a Laurent monomial in the X's, labeled Y_{a,b}.
    It has weight zero when its numerator and denominator monomials
    share one torus weight; any other coordinate raises.
    """
    check_rank(n)
    if tau.n != n + 1:
        raise ValueError("tau must be given inside the bigger symmetric group")
    if tau(n + 1) != n + 1:
        raise ValueError("tau must fix the last letter")
    w = cyclic_element(n) * tau
    weights = tuple(root_weight(r, n) for r in inversion_roots(w))
    out: Dict[str, RationalFunction] = {}
    for (a, b), expr in pi_point(w, symbolic_coords(w))[1].items():
        monomials = expr.numer_terms() + expr.denom_terms()
        wts = {monomial_weight(mono, weights) for mono, _ in monomials}
        if len(wts) != 1:
            raise ArithmeticError(f"quotient coordinate Y_{a}_{b} mixes weights {sorted(wts)}")
        out[f"Y_{a}_{b}"] = expr
    return out


def pi_point(
    w: Permutation, coords: Mapping[Root, object]
) -> Tuple[Permutation, Dict[Root, object]]:
    """Quotient image of a cell point: smaller-flag cell and coordinates.

    Y_{j-1,k-1} = -X_beta X_{[1,j-1]} / X_{[1,k]} for every inversion root
    beta = [j, k] with j >= 2; the scalar type is the coordinates' own.
    """
    tau = cell_parameter(w)
    small = restrict_to_first(tau)
    out: Dict[Root, object] = {}
    for beta, v in coords.items():
        j, k = beta
        if j == 1:
            continue
        out[(j - 1, k - 1)] = -v * coords[(1, j - 1)] / coords[(1, k)]
    if set(out) != set(inversion_roots(small)):
        raise ArithmeticError("quotient labels do not match the smaller cell")
    return small, out


def semistable_flag_support(w: Permutation, n: int):
    """Membership predicate for the open semistable part of the cell.

    Requires w = c tau with tau fixing the last letter; the predicate
    demands every coordinate at roots through alpha_1 be nonzero.
    """
    cell_parameter(w)  # validates the form
    required = [r for r in inversion_roots(w) if r[0] == 1]
    if len(required) != n:
        raise ArithmeticError("cell is missing first-row coordinates")

    def member(coords: Mapping[Root, object]) -> bool:
        return all(coords[r] != 0 for r in required)

    return member


def s1_y_action(f: RationalFunction) -> RationalFunction:
    """First-generator action on quotient coordinates.

    Y at a root through the first simple root maps to -(1 + Y); every
    other Y is fixed.  An involution, applied by substitution.
    """
    sub: Substitution = {}
    for name in f.names:
        var = RationalFunction.variable(name, f.names)
        j = int(name.split("_")[1])
        sub[name] = -(1 + var) if j == 1 else var
    return f.subs(sub)


# ---------------------------------------------------------------------------
# symbolic generator actions


def symbolic_coords(w: Permutation) -> Dict[Root, RationalFunction]:
    names = flag_x_names(w)
    return {
        r: RationalFunction.variable(f"X_{r[0]}_{r[1]}", names)
        for r in inversion_roots(w)
    }


def generator_pullback(
    i: int, w: Permutation
) -> Tuple[Permutation, Dict[Root, RationalFunction]]:
    """Cell and coordinates of the generic point of cell w moved by s_i."""
    coords = symbolic_coords(w)
    return decompose_point(swap_rows(point_matrix(w, coords), i))


def top_cell(n: int) -> Permutation:
    """The full cell c w_{0,I}: the longest element of S_{n+1}."""
    return cyclic_element(n) * longest_element(range(1, n), n + 1)


@lru_cache(maxsize=None)
def flag_lattice(n: int) -> InvariantLattice:
    """The quotient-coordinate lattice of the full cell.

    Y_{a,b} is minus the X monomial X_beta X_beta' / X_{beta+beta'} with
    beta = [a+1, b+1], beta' = [1, a] and beta + beta' = [1, b+1].
    """
    positions = root_order(n)
    idx = {r: t for t, r in enumerate(positions)}
    gens = []
    for a, b in root_order(n - 1):
        v = [0] * len(positions)
        v[idx[(a + 1, b + 1)]] += 1
        v[idx[(1, a)]] += 1
        v[idx[(1, b + 1)]] -= 1
        gens.append(tuple(v))
    weights = tuple(root_weight(r, n) for r in positions)
    names = flag_x_names(top_cell(n))
    return InvariantLattice(names, weights, flag_y_names(n - 1), tuple(gens), sign=-1)


def flag_reexpress_in_y(f: RationalFunction, n: int) -> RationalFunction:
    """Rewrite an invariant function of the full cell's X's in the Y's."""
    return reexpress(f, flag_lattice(n))


def quotient_generator_action(i: int, n: int) -> Substitution:
    """Induced action of s_i on the quotient coordinates, symbolically.

    Pushes the generic point of the full cell through s_i, applies the
    quotient map, and re-expresses each coordinate of the image in the
    Y's of the source.
    """
    w0 = top_cell(n)
    w2, coords2 = generator_pullback(i, w0)
    if w2 != w0:
        raise ArithmeticError("generic point left the full cell")
    small, yvals = pi_point(w2, coords2)
    return {
        f"Y_{a}_{b}": flag_reexpress_in_y(yvals[(a, b)], n)
        for a, b in inversion_roots(small)
    }


def small_generator_action(j: int, n: int) -> Substitution:
    """Direct action of s_j on the full cell of the smaller flag variety,
    with coordinates named Y to match the quotient side."""
    w0 = longest_element(range(1, n), n)
    ynames = flag_y_names(n - 1)
    coords = {
        r: RationalFunction.variable(f"Y_{r[0]}_{r[1]}", ynames)
        for r in inversion_roots(w0)
    }
    w2, coords2 = decompose_point(swap_rows(point_matrix(w0, coords), j))
    if w2 != w0:
        raise ArithmeticError("generic point left the full cell")
    return {f"Y_{a}_{b}": coords2[(a, b)] for a, b in inversion_roots(w0)}


# ---------------------------------------------------------------------------
# verification: generator stability of the semistable locus and the
# commutation of the quotient map, at desk scale


@dataclass(frozen=True)
class RuleTally:
    """Outcome of checking one printed coordinate rule shape."""

    holds: int
    total: int
    divergent_example: Optional[str] = None

    @property
    def clean(self) -> bool:
        return self.holds == self.total


@dataclass(frozen=True)
class FlagStabilityReport:
    """Aggregate desk-check of generator stability and quotient commutation.

    The sign_note and case read-outs record which conventions validate:
    the quotient coordinates must be taken without the displayed leading
    minus for the commutation identities to hold, the interval-ending
    rule divides only when the shortened interval is not a coordinate,
    and the middle expression of the first commutation case needs the
    longer first-row interval in its denominator.
    """

    n: int
    seed: int
    rule_tallies: Dict[str, RuleTally]
    raising_relabel: RuleTally
    support_preserved: Tuple[int, int]
    global_identity: Dict[str, Tuple[int, int]]
    case_tallies: Dict[str, Tuple[int, int]]
    validated_readings: Dict[str, str]
    injectivity: Tuple[int, int]
    rescale_stable: Tuple[int, int]
    sign_note: str

    @property
    def ok(self) -> bool:
        required = (
            "alpha-inverts",
            "start-at-i-divides",
            "end-at-i-divides-when-partner-absent",
            "end-at-i-swaps-when-partner-present",
            "end-before-i-swaps",
            "first-row-divides",
        )
        return (
            all(self.rule_tallies[k].clean for k in required)
            and self.raising_relabel.clean
            and self.support_preserved[0] == self.support_preserved[1]
            and self.global_identity["sign-dropped"][0]
            == self.global_identity["sign-dropped"][1]
            and all(a == b for a, b in self.case_tallies.values())
            and self.injectivity[0] == self.injectivity[1]
            and self.rescale_stable[0] == self.rescale_stable[1]
        )

    def lines(self) -> List[str]:
        out = [f"generator stability desk check, n={self.n}, seed={self.seed}"]
        for key in sorted(self.rule_tallies):
            t = self.rule_tallies[key]
            out.append(f"  rule {key}: {t.holds}/{t.total}")
            if t.divergent_example:
                out.append(f"    divergence: {t.divergent_example}")
        out.append(
            f"  raising-branch relabel: {self.raising_relabel.holds}/{self.raising_relabel.total}"
        )
        out.append(
            f"  image support preserved: {self.support_preserved[0]}/{self.support_preserved[1]}"
        )
        for key, (a, b) in sorted(self.global_identity.items()):
            out.append(f"  commutation identity [{key}]: {a}/{b}")
        for key, (a, b) in sorted(self.case_tallies.items()):
            out.append(f"  case {key}: {a}/{b}")
        for key, val in sorted(self.validated_readings.items()):
            out.append(f"  reading {key}: {val}")
        out.append(f"  torus-translate recovery: {self.injectivity[0]}/{self.injectivity[1]}")
        out.append(f"  rescale-invariant verdicts: {self.rescale_stable[0]}/{self.rescale_stable[1]}")
        out.append(f"  note: {self.sign_note}")
        return out


def _random_cell_coords(w: Permutation, rng: random.Random) -> Dict[Root, Fraction]:
    pool = [v for v in range(-50, 51) if v]
    return {r: Fraction(rng.choice(pool)) for r in inversion_roots(w)}


def _step2_tallies(n: int) -> Tuple[Dict[str, RuleTally], RuleTally]:
    """Symbolic sweep of every printed coordinate rule over all cells."""
    buckets: Dict[str, List[int]] = {
        k: [0, 0]
        for k in (
            "alpha-inverts",
            "start-at-i-divides",
            "end-at-i-divides-when-partner-absent",
            "end-at-i-swaps-when-partner-present",
            "end-before-i-swaps",
            "first-row-divides",
            "fixed-when-reflection-fixes",
            "start-after-i-two-term-display",
        )
    }
    examples: Dict[str, str] = {}
    raising = [0, 0]
    raising_example: Optional[str] = None
    for tau in subgroup_fixing_last(n):
        w = cyclic_element(n) * tau
        winv = set(inversion_roots(w))
        names = flag_x_names(w)
        xv = symbolic_coords(w)
        wi = w.inverse()
        for i in range(1, n + 1):
            w2, c2 = generator_pullback(i, w)
            if wi(i) < wi(i + 1):
                # cell-raising branch: plain relabel, new coordinate zero
                for r in inversion_roots(w2):
                    sr = reflect_root(i, r)
                    expect = (
                        RationalFunction.constant(0, names)
                        if sr is None
                        else xv.get(sr)
                    )
                    ok = expect is not None and c2[r] == expect
                    raising[0] += ok
                    raising[1] += 1
                    if not ok and raising_example is None:
                        raising_example = (
                            f"cell {w.images}, s_{i}, root {r}: {c2[r]}"
                        )
                continue
            for r in winv:
                a, b = r
                got = c2[r]
                if r == (i, i):
                    key, expect = "alpha-inverts", 1 / xv[r]
                elif a == i and b > i:
                    key, expect = "start-at-i-divides", -xv[r] / xv[(i, i)]
                elif i == 1 and a == 1:
                    key, expect = "first-row-divides", -xv[r] / xv[(1, 1)]
                elif i > 1 and b == i and a < i:
                    if (a, i - 1) in winv:
                        key, expect = (
                            "end-at-i-swaps-when-partner-present",
                            xv[(a, i - 1)],
                        )
                    else:
                        key, expect = (
                            "end-at-i-divides-when-partner-absent",
                            xv[r] / xv[(i, i)],
                        )
                elif i > 1 and b == i - 1 and a < i:
                    key, expect = "end-before-i-swaps", xv[(a, i)]
                elif a == i + 1:
                    key = "start-after-i-two-term-display"
                    expect = xv[(i, i)] * xv[r] + xv[(i, b)]
                else:
                    key, expect = "fixed-when-reflection-fixes", xv[r]
                ok = got == expect
                buckets[key][0] += ok
                buckets[key][1] += 1
                if not ok and key not in examples:
                    examples[key] = f"cell {w.images}, s_{i}, root {r}: {got}"
    tallies = {
        k: RuleTally(v[0], v[1], examples.get(k)) for k, v in buckets.items()
    }
    return tallies, RuleTally(raising[0], raising[1], raising_example)


def verify_w_stability(n: int, seed: int = 0, samples: int = 30) -> FlagStabilityReport:
    """Desk check of generator stability and quotient commutation.

    Symbolically sweeps the coordinate rules for every generator on
    every semistable cell, then samples exact rational points to check
    support preservation, the commutation identity between the quotient
    map and the generators (under both sign conventions), the printed
    middle expressions of the three special cases and the generic case,
    torus-translate recovery, and rescale invariance of all verdicts.
    """
    if n > 4:
        raise ValueError("desk checks are sized for n <= 4")
    rng = random.Random(seed)
    rule_tallies, raising = _step2_tallies(n)

    support_ok = 0
    support_tot = 0
    glob = {"as-printed": [0, 0], "sign-dropped": [0, 0]}
    cases: Dict[str, List[int]] = {
        "1-corrected-middle-equals-outer-ends": [0, 0],
        "2-middle-equals-inner-ends": [0, 0],
        "3-middle-equals-inner-ends": [0, 0],
        "generic-reflected-middle-equals-inner-ends": [0, 0],
    }
    rescale = [0, 0]
    small_roots = all_positive_roots(n - 1)

    def moved(small: Permutation, ycoords: Mapping[Root, object], j: int):
        """Coordinates of the smaller-flag point after s_j."""
        return decompose_point(swap_rows(point_matrix(small, ycoords), j))[1]

    def negated(image):
        small, ycoords = image
        return small, {r: -v for r, v in ycoords.items()}

    def case_instances(w, coords, i, branch_a):
        """Yields (case key, middle value, comparison kind) triples."""
        winv = set(inversion_roots(w))
        for alpha in small_roots:
            a, b = alpha
            if branch_a and alpha == (i - 1, i - 1) and (i, i) in winv:
                yield (
                    "3-middle-equals-inner-ends",
                    coords[(1, i)] / (coords[(1, i - 1)] * coords[(i, i)]),
                    alpha,
                    "inner",
                )
            elif b == i - 1 and 1 <= a < i - 1 and (a + 1, i) in winv:
                yield (
                    "1-corrected-middle-equals-outer-ends",
                    coords[(1, a)] * coords[(a + 1, i)] / coords[(1, i)],
                    alpha,
                    "outer",
                )
            elif branch_a and a == i - 1 and b > i - 1 and (i, b + 1) in winv and (i, i) in winv:
                yield (
                    "2-middle-equals-inner-ends",
                    -coords[(1, i)] * coords[(i, b + 1)] / (coords[(i, i)] * coords[(1, b + 1)]),
                    alpha,
                    "inner",
                )
            elif not branch_a and not (a == i - 1 or (b == i - 1 and a < i - 1)):
                beta, bp, tot = (a + 1, b + 1), (1, a), (1, b + 1)
                imgs = [reflect_root(i, r) for r in (beta, bp, tot)]
                if all(im in winv for im in imgs):
                    # the displayed middle is the quotient-map formula at the
                    # reflected labels, so its leading minus drops with it
                    yield (
                        "generic-reflected-middle-equals-inner-ends",
                        coords[imgs[0]] * coords[imgs[1]] / coords[imgs[2]],
                        alpha,
                        "inner",
                    )

    def case_verdicts(w, coords, i, branch_a, image, moved_image):
        """(case key, verdict) per case instance at a point, given the
        sign-dropped quotient images of the point and of its s_i move."""
        (s1, y1), (s2, y2) = image, moved_image
        for ckey, mid, alpha, kind in case_instances(w, coords, i, branch_a):
            if kind == "outer":
                ok = mid == y1.get(alpha, 0) and mid == moved(s2, y2, i - 1).get(alpha, 0)
            else:
                ok = mid == moved(s1, y1, i - 1).get(alpha, 0) and mid == y2.get(alpha, 0)
            yield ckey, ok

    for tau in subgroup_fixing_last(n):
        w = cyclic_element(n) * tau
        support = semistable_flag_support(w, n)
        tinv = tau.inverse()
        for i in range(2, n + 1):
            branch_a = tinv(i - 1) > tinv(i)
            for _ in range(samples):
                coords = _random_cell_coords(w, rng)
                w2, c2 = decompose_point(swap_rows(point_matrix(w, coords), i))
                support_tot += 1
                supported = semistable_flag_support(w2, n)(c2)
                support_ok += supported
                if not supported:
                    # boundary collision: the pipelines below would divide
                    # by a vanished first-row coordinate
                    continue
                printed = (pi_point(w, coords), pi_point(w2, c2))
                dropped = (negated(printed[0]), negated(printed[1]))
                for key, images in (("as-printed", printed), ("sign-dropped", dropped)):
                    (_, y1), (s2, y2) = images
                    y2_moved = moved(s2, y2, i - 1)
                    for alpha in small_roots:
                        glob[key][0] += y1.get(alpha, 0) == y2_moved.get(alpha, 0)
                        glob[key][1] += 1
                verdicts: List[bool] = []
                for ckey, ok in case_verdicts(w, coords, i, branch_a, *dropped):
                    cases[ckey][0] += ok
                    cases[ckey][1] += 1
                    verdicts.append(ok)
                # rescaling the input by a random torus element must not
                # change any case verdict (weight-zero coordinates)
                ts = [
                    Fraction(rng.choice([v for v in range(1, 9)]), rng.choice([v for v in range(1, 9)]))
                    for _ in range(n + 1)
                ]
                ws, cs = decompose_point(torus_scale(point_matrix(w, coords), ts))
                w2s, c2s = decompose_point(swap_rows(point_matrix(ws, cs), i))
                scaled = (negated(pi_point(ws, cs)), negated(pi_point(w2s, c2s)))
                redo = [ok for _, ok in case_verdicts(ws, cs, i, branch_a, *scaled)]
                rescale[0] += redo == verdicts
                rescale[1] += 1

    inj = [0, 0]
    for tau in subgroup_fixing_last(n):
        w = cyclic_element(n) * tau
        for _ in range(20):
            c1 = _random_cell_coords(w, rng)
            ts = [
                Fraction(rng.choice([v for v in range(-9, 10) if v]), rng.choice(range(1, 8)))
                for _ in range(n + 1)
            ]
            w2, c2 = decompose_point(torus_scale(point_matrix(w, c1), ts))
            _, y1 = pi_point(w, c1)
            _, y2 = pi_point(w2, c2)
            trec = [Fraction(1)] + [c1[(1, m)] / c2[(1, m)] for m in range(1, n + 1)]
            w3, c3 = decompose_point(torus_scale(point_matrix(w, c1), trec))
            good = y1 == y2 and w3 == w and c3 == c2
            # translating any deeper coordinate must change the image
            higher = [r for r in c2 if r[0] >= 2]
            if higher:
                c4 = dict(c2)
                c4[higher[0]] = c4[higher[0]] * 2
                good = good and pi_point(w, c4)[1] != y2
            inj[0] += good
            inj[1] += 1

    return FlagStabilityReport(
        n=n,
        seed=seed,
        rule_tallies=rule_tallies,
        raising_relabel=raising,
        support_preserved=(support_ok, support_tot),
        global_identity={k: (v[0], v[1]) for k, v in glob.items()},
        case_tallies={k: (v[0], v[1]) for k, v in cases.items()},
        validated_readings={
            "quotient-map-sign": "identities validate with the displayed leading minus dropped",
            "case-1-middle": "denominator is the first-row interval ending at i, and the ends are the plain quotient values",
            "case-3-right-end": "evaluated at the point moved by s_i (not s_{i-1})",
            "generic-case-labels": "middle uses the s_i-reflected root labels; the s_{i-1}-reflected reading fails",
        },
        injectivity=(inj[0], inj[1]),
        rescale_stable=(rescale[0], rescale[1]),
        sign_note=(
            "with the quotient coordinates exactly as displayed the induced "
            "first-generator action is 1 - Y rather than -(1 + Y); dropping "
            "the leading minus reconciles every identity"
        ),
    )
