"""Named verification suites cross-checking the library against ground truth.

Each suite compares a component's claims against an independent
computation: exhaustive enumeration over small Weyl groups, the
Hilbert-Mumford oracle, or a second symbolic model.  Suites
are addressed by the short ids used on the command line.

A suite is a generator.  It yields ``(ok, counterexample)`` once per
checked case and returns its detail lines.  `exhaustive_check` runs it
and builds the report: it counts the cases, stops at the first failing
one and keeps its counterexample, and calls a suite inconclusive when no
case was checked.  `_REGISTRY` maps each id to its body and, where they
apply, the least ``n`` the suite's objects exist for, a limit on ``n``
where the cost grows too fast, and the range m..n-m each rank in ``rs``
must lie in; the runner checks all of them before the body runs.
"""

from __future__ import annotations

import inspect
import math
import random
from dataclasses import dataclass
from functools import partial
from itertools import accumulate, tee
from typing import Callable, Dict, Generator, List, Optional, Sequence, Tuple

from . import action, flag, invariants, oracle, schubert, strat, weights
from .ratfunc import RationalFunction, Substitution, compose, identity_substitution
from .schubert import GrassmannElement
from .weyl import all_permutations, parabolic_elements

Cases = Generator[Tuple[bool, Optional[Dict[str, object]]], None, Sequence[str]]


@dataclass(frozen=True)
class CheckReport:
    """Outcome of one named suite."""

    name: str
    params: Dict[str, object]
    status: str  # "pass" | "fail" | "inconclusive"
    checked: int
    details: Tuple[str, ...] = ()
    counterexample: Optional[Dict[str, object]] = None

    @property
    def ok(self) -> bool:
        return self.status == "pass"

    def to_payload(self) -> Dict[str, object]:
        payload: Dict[str, object] = {
            "name": self.name,
            "params": dict(self.params),
            "status": self.status,
            "checked": self.checked,
            "details": list(self.details),
        }
        if self.counterexample is not None:
            payload["counterexample"] = dict(self.counterexample)
        return payload


def _rounding_cases(mode: str, n: int = 6, rs: Sequence[int] = (1, 2, 3)) -> Cases:
    """Existence and uniqueness of the coset element rounding a
    fundamental weight into the half-open unit window."""
    # ceil(c) == 0 exactly on (-1, 0], floor(c) == 0 exactly on [0, 1)
    rounded, window = (math.ceil, "(-1,0]") if mode == "ceil" else (math.floor, "[0,1)")
    for r in rs:
        omega = weights.fundamental_weight(r, n)
        target = weights.Weight(tuple(m - rounded(m) for m in omega.coeffs))
        found = weights.minuscule_floor_element(omega, mode)
        reps = [schubert.to_permutation(g) for g in schubert.all_cells(n, r)]
        if found not in reps:
            yield False, {"n": n, "r": r, "reason": "element is not a minimal representative"}
        for w in reps:
            image = weights.act(w, omega)
            if w == found:
                yield image == target, {"n": n, "r": r, "reason": "image misses the rounded target"}
            else:
                in_window = all(rounded(c) == 0 for c in image.coeffs)
                yield not in_window, {"n": n, "r": r, "w": list(w.images), "reason": "also in the window"}
    return (f"window {window}, exhaustive over minimal representatives, n={n}",)


def _suite_lemma_1_8(n: int = 6, rs: Sequence[int] = (1, 2, 3)) -> Cases:
    """Weight-image order reversal against the cell order, all pairs."""
    for r in rs:
        omega = weights.fundamental_weight(r, n)
        cells = list(schubert.all_cells(n, r))
        images = {g: weights.act(schubert.to_permutation(g), omega) for g in cells}
        for g in cells:
            for h in cells:
                coeffwise = all(a <= b for a, b in zip(images[g].coeffs, images[h].coeffs))
                yield coeffwise == schubert.grassmann_leq(h, g), {
                    "r": r, "first": list(g.a_seq), "second": list(h.a_seq), "coeffwise": coeffwise,
                }
    return (f"all ordered pairs of cells, n={n}, r in {list(rs)}",)


def _suite_lemma_2_7(n: int = 5, rs: Sequence[int] = (2,)) -> Cases:
    """Gateway criterion versus the oracle's exact verdict, every cell of
    each rank."""
    semistable = cells = 0
    for r in rs:
        gate = {g.a_seq for g in schubert.semistable_cells(n, r)}
        semistable += len(gate)
        for g in schubert.all_cells(n, r):
            cells += 1
            verdict = oracle.cell_semistable(schubert.to_permutation(g), r)[0]
            yield (verdict == "semistable") == (g.a_seq in gate), {
                "a_seq": list(g.a_seq), "verdict": verdict, "gateway": g.a_seq in gate,
            }
    return (f"{semistable} semistable cells among {cells}, one exact oracle verdict per cell",)


def _suite_prop_2_9(n: int = 7, rs: Sequence[int] = (2, 3)) -> Cases:
    """Cross-ratio exponents are a certified basis of the weight-zero lattice."""
    for r in rs:
        for g in schubert.semistable_cells(n, r):
            rep = invariants.verify_kernel_basis(schubert.inversion_array(g))
            yield rep.ok, {
                "a_seq": list(g.a_seq), "r": r, "kernel_rank": rep.kernel_rank,
                "expected_rank": rep.expected_rank, "lattice_equality": rep.lattice_equality,
            }
    return ("integer left-inverse lattice equality and rank count per semistable cell",)


def _suite_lemma_3_1(n: int = 6) -> Cases:
    """Closure-stabilizing reflections against the subset-bump oracle."""
    for r in range(1, n):
        for g in schubert.all_cells(n, r):
            top = frozenset(a + 1 for a in g.a_seq)
            stab = action.stabilizer_generators(g)
            for k in range(1, n):
                truth = oracle.reflection_preserves_closure(top, k, n)
                witness = {"a_seq": list(g.a_seq), "r": r, "k": k, "oracle": truth}
                yield (k in stab) == truth, witness
    return (f"every cell and every reflection, all ranks, n={n}",)


def _suite_prop_3_2(n: int = 6) -> Cases:
    """Coordinate actions: involutions, invariant re-expression, closed forms."""
    for r in range(2, n - 1):
        for g in schubert.semistable_cells(n, r):
            ident = identity_substitution(action.x_names(g))
            yident = identity_substitution(action.y_names(g))
            for k in sorted(action.stabilizer_generators(g)):
                sub = action.x_action(k, g)
                ysub = action.y_action_substitution(k, g)  # re-expression must succeed
                if compose(sub, sub) != ident:
                    reason = "coordinate action not an involution"
                elif ysub != action.closed_y_action(k, g):
                    reason = "closed form disagrees with pushed-through action"
                elif compose(ysub, ysub) != yident:
                    reason = "invariant action not an involution"
                else:
                    reason = None
                yield reason is None, {"a_seq": list(g.a_seq), "k": k, "reason": reason}
    return (
        "per generator: involution, exact re-expression in the invariants, closed-form match",
        "the row-swap branch's own displayed form is certified via the derived action "
        "(its direct statement does not survive in a legible state)",
    )


def _suite_lemma_4_1(n: int = 6) -> Cases:
    """No escape: a permutation keeping a generic point in its cell lies in
    the subgroup generated by the closure-stabilizing reflections."""
    for g in schubert.semistable_cells(n, 2):
        group = {u.images for u in parabolic_elements(action.stabilizer_generators(g), n)}
        target = frozenset(g.a_seq)
        sigmas, walked = tee(all_permutations(n))
        pivot_sets = oracle.generic_pivot_sets(schubert.to_permutation(g), 2, walked)
        for sigma, pivots in zip(sigmas, pivot_sets):
            escapes = pivots == target and sigma.images not in group
            yield not escapes, {"a_seq": list(g.a_seq), "sigma": list(sigma.images)}
    return ("one exact generic point per semistable rank-2 cell, all row permutations",)


def _suite_prop_4_2() -> Cases:
    """Closed rules for the two-row family match the general machinery."""
    for m in (2, 3, 4):
        names = action.r2_names(m)
        bridge = {f"Y_1_{j}": RationalFunction.variable(f"Y_{j}", names) for j in range(1, m)}
        for n in (m + 2, m + 3):
            g = GrassmannElement(n, 2, (m, n - 1))
            for k in sorted(action.stabilizer_generators(g)):
                general = action.y_action_substitution(k, g)
                for j in range(1, m):
                    lhs = general[f"Y_1_{j}"].subs(bridge)
                    rhs = action.r2_action(k, m, RationalFunction.variable(f"Y_{j}", names), n=n)
                    yield lhs == rhs, {"m": m, "n": n, "k": k, "variable": f"Y_{j}"}
                for j in range(1, m):
                    var = RationalFunction.variable(f"Y_{j}", names)
                    twice = action.r2_action(k, m, action.r2_action(k, m, var, n=n), n=n)
                    yield twice == var, {"m": m, "n": n, "k": k, "reason": "not an involution"}
    return ("closed rules equal the pushed-through cell action; all involutions",)


def _suite_cor_4_3() -> Cases:
    """Leading-index rules match the adjoint-torus character model."""
    for m in (2, 3, 4):
        names = action.r2_names(m)
        for k in range(1, m):
            for j in range(1, m):
                var = RationalFunction.variable(f"Y_{j}", names)
                lhs = action.r2_action(k, m, var)
                rhs = action.adjoint_torus_action(k, m, var)
                yield lhs == rhs, {"m": m, "k": k, "variable": f"Y_{j}"}
    return ("permuting torus characters reproduces the closed rules for k < m",)


def _suite_cor_4_4() -> Cases:
    """Full equivariance with the reflection-representation model."""
    for m in (2, 3, 4):
        rep = action.check_equivariance(m)
        if not rep.negative_control_failed:
            yield False, {"m": m, "reason": "the perturbed rule matched the model"}
        for k, i, match in rep.entries:
            yield match, {"m": m, "k": k, "variable": f"Y_{i}"}
    return ("generator-by-generator symbolic match, with a negative control",)


def _suite_strata(n: int = 9) -> Cases:
    """Stratification family: count, dimensions, recorded divergences."""
    rep = strat.strata_report(n)
    m = strat.closed_parameter(n)
    open_dims = sorted(d.dimension for d in rep.descriptors if d.kind == "open")
    if len(rep.descriptors) != (n - 1) // 2 + 1:
        reason = f"{len(rep.descriptors)} descriptors"
    elif open_dims != list(range(m - 1, n - 2)):
        reason = f"open dimensions {open_dims}"
    elif not rep.divergences:
        reason = "expected divergence record missing"
    elif n % 2 == 0 and len(rep.divergences) < 2:
        reason = "even case must also record the extra semistable parameter"
    else:
        reason = None
    yield reason is None, {"n": n, "reason": reason}
    return (f"count, open dimensions, and indexing divergences, n={n}",)


def _suite_lemma_5_1(n: int = 3, seed: int = 0) -> Cases:
    """Negative-image elements equal the coset family, random characters."""
    rng = random.Random(seed)
    for _ in range(3):
        coeffs = list(accumulate(rng.randint(1, 4) for _ in range(n)))
        chi = flag.RegularDominantChar(n, tuple(coeffs))
        elements = flag.negative_elements(chi)  # raises on mismatch
        yield len(elements) == math.factorial(n), {"chi": coeffs, "cardinality": len(elements)}
    return ("3 random strictly increasing characters, both sides compared",)


def _suite_thm_5_2(n: int = 3, seed: int = 0, samples: int = 12) -> Cases:
    """Quotient-map desk checks: weights, stability, commutation, recovery."""
    for tau in flag.subgroup_fixing_last(n):
        flag.pi_tau(tau, n)  # raises if any output has nonzero weight
        yield True, None
    tallies: Dict[str, List[int]] = {}
    divergences: Dict[str, Dict[str, object]] = {}
    for check, ok, witness in flag.desk_check(n, seed, samples):
        tally = tallies.setdefault(check, [0, 0])
        tally[0] += ok
        tally[1] += 1
        if check not in flag.PRINTED_DIVERGENCES:
            yield ok, {"check": check, **witness}
        elif not ok:
            divergences.setdefault(check, witness)
    lines = [f"generator stability desk check, n={n}, seed={seed}"]
    for check, (holds, total) in sorted(tallies.items()):
        lines.append(f"  {check}: {holds}/{total}")
        if check in divergences:
            shown = ", ".join(f"{k} {_shown(v)}" for k, v in divergences[check].items())
            lines.append(f"    first divergence: {shown}")
    return lines + [f"  {line}" for line in _THM_5_2_READINGS]


def _shown(value: object) -> str:
    """A witness value for a detail line, with fractions as p/q."""
    if isinstance(value, dict):
        return "{" + ", ".join(f"{_shown(k)}: {_shown(v)}" for k, v in value.items()) + "}"
    if isinstance(value, (list, tuple)):
        return "(" + ", ".join(_shown(v) for v in value) + ")"
    return str(value)


_THM_5_2_READINGS = (
    "reading case-1-middle: denominator is the first-row interval ending at i, "
    "and the ends are the plain quotient values",
    "reading case-3-right-end: evaluated at the point moved by s_i (not s_{i-1})",
    "reading generic-case-labels: middle uses the s_i-reflected root labels; "
    "the s_{i-1}-reflected reading fails",
    "reading quotient-map-sign: identities validate with the displayed leading minus dropped",
    "note: with the quotient coordinates exactly as displayed the induced "
    "first-generator action is 1 - Y rather than -(1 + Y); dropping "
    "the leading minus reconciles every identity",
)


def _sign_dropped_action(i: int, n: int) -> Tuple[Substitution, Substitution]:
    """Identity on the quotient coordinates, and the induced action of s_i
    on them once they drop their displayed leading minus."""
    ynames = flag.flag_y_names(n - 1)
    ident = identity_substitution(ynames)
    neg = {nm: -v for nm, v in ident.items()}
    return ident, {k: -(v.subs(neg)) for k, v in flag.quotient_generator_action(i, n).items()}


def _suite_cor_5_3(n: int = 3) -> Cases:
    """First-generator rule on the quotient: match and involution."""
    ident, induced = _sign_dropped_action(1, n)
    for nm, var in ident.items():
        rule = flag.s1_y_action(var)
        witness = {"variable": nm, "induced": str(induced.get(nm)), "rule": str(rule)}
        yield induced.get(nm, var) == rule, witness
        yield flag.s1_y_action(rule) == var, {"variable": nm, "reason": "rule is not an involution"}
    return (
        "induced action matches the stated rule once the quotient "
        "coordinates drop their displayed leading minus; involution holds",
    )


def _suite_cor_5_4(n: int = 3) -> Cases:
    """Higher generators act on the quotient as on the smaller flag variety."""
    for i in range(2, n + 1):
        ident, induced = _sign_dropped_action(i, n)
        direct = flag.small_generator_action(i - 1, n)
        for nm, var in ident.items():
            yield induced.get(nm, var) == direct.get(nm, var), {"generator": i, "variable": nm}
    return (
        "quotient action of each later generator equals the one-step-down "
        "generator on the smaller flag cell (sign-dropped coordinates)",
    )


@dataclass(frozen=True)
class _Suite:
    body: Callable[..., Cases]
    max_n: Optional[int] = None  # the largest n the suite accepts; None: no limit
    why: str = ""  # the work that grows with n, for the refusal message
    min_n: Optional[int] = None  # the least n the suite accepts; None: no floor
    needs: str = ""  # what an n below min_n lacks, for the refusal message
    # (m, what): each r in rs must lie in m..n-m for `what`; None: no ranks
    ranks: Optional[Tuple[int, str]] = None


# Each Grassmannian G_(r,n) with 1 <= r <= n - 1 needs n >= 2, suites
# that take ranks rs also need each of them in that range (semistable
# cells exist for 2 <= r <= n - 2 only, by schubert.tau_r), and each flag
# variety GL_(n+1)/B needs a simple root.
_GRASSMANNIAN = {"min_n": 2, "needs": "a Grassmannian G_(r,n)"}
_RANKED = {**_GRASSMANNIAN, "ranks": (1, _GRASSMANNIAN["needs"])}
_SEMISTABLE = {**_GRASSMANNIAN, "ranks": (2, "the semistable cells of G_(r,n)")}
_FLAG = {"min_n": 1, "needs": "a flag variety GL_(n+1)/B"}


_REGISTRY: Dict[str, _Suite] = {
    "lemma-1.6": _Suite(partial(_rounding_cases, "ceil"), **_RANKED),
    "lemma-1.7": _Suite(partial(_rounding_cases, "floor"), **_RANKED),
    "lemma-1.8": _Suite(_suite_lemma_1_8, **_RANKED),
    # One CLI process per rank on a 2-core VM takes 0.4-0.8 s at n = 12,
    # 0.5-1.7 s at n = 13 and 0.4-5.7 s at n = 14, the slowest r = 7, and the
    # ranks in rs add up; n = 15, r = 7 took 19 s: the work grows about 3.5x per n.
    "lemma-2.7": _Suite(
        _suite_lemma_2_7, 14, "tests every cell of Gr(r, n) against the oracle", **_SEMISTABLE
    ),
    "prop-2.9": _Suite(_suite_prop_2_9, **_SEMISTABLE),
    # One CLI process on a 2-core VM takes 1.7-2.4 s at n = 12, 5.7-6.1 s at
    # n = 13 and 22 s at n = 14: the work grows about 4x per n.
    "lemma-3.1": _Suite(
        _suite_lemma_3_1, 13, "checks every reflection against the closure of every cell of every rank",
        **_GRASSMANNIAN,
    ),
    "prop-3.2": _Suite(_suite_prop_3_2, **_GRASSMANNIAN),
    # One CLI process on a 2-core VM takes 5.3-7.0 s and 158 MB at n = 9, most
    # of it the top cell's group, all of S_9; both grow like n!.
    "lemma-4.1": _Suite(
        _suite_lemma_4_1, 9, "walks all n! row permutations per semistable rank-2 cell",
        min_n=4, needs="a semistable rank-2 cell",
    ),
    "prop-4.2": _Suite(_suite_prop_4_2),
    "cor-4.3": _Suite(_suite_cor_4_3),
    "cor-4.4": _Suite(_suite_cor_4_4),
    "strata": _Suite(
        _suite_strata, min_n=4, needs="the stratified torus-normalizer quotient of G_(2,n)"
    ),
    # n = 8 takes about 2.4 s on a 2-core VM and n = 9 about 20 s: each
    # family has n! elements.
    "lemma-5.1": _Suite(
        _suite_lemma_5_1, 8, "enumerates all n! elements of both families for each of three characters",
        **_FLAG,
    ),
    # On a 2-core VM one CLI process at n = 4 takes 2.5-2.8 s, and the body
    # alone at n = 5 takes 26-29 s (93,360 cases), mostly exact point arithmetic.
    "thm-5.2": _Suite(
        _suite_thm_5_2, 4, "desk-checks all n! cells under each of the n generators", **_FLAG
    ),
    "cor-5.3": _Suite(_suite_cor_5_3, **_FLAG),
    "cor-5.4": _Suite(_suite_cor_5_4, **_FLAG),
}


def available_suites() -> Tuple[str, ...]:
    return tuple(sorted(_REGISTRY))


def suite_parameters(name: str) -> Dict[str, object]:
    """The parameters a suite takes, with their defaults; unknown ids raise."""
    if name not in _REGISTRY:
        raise ValueError(
            f"unknown check id {name!r}; available: {', '.join(available_suites())}"
        )
    return {k: p.default for k, p in inspect.signature(_REGISTRY[name].body).parameters.items()}


def exhaustive_check(name: str, **params: object) -> CheckReport:
    """Run one named suite with desk-scale defaults.

    Unknown ids and parameter names raise ``ValueError``; parameters
    given as None take their defaults.  The report echoes every bound
    parameter.
    """
    defaults = suite_parameters(name)
    given = {k: v for k, v in params.items() if v is not None}
    unknown = sorted(set(given) - set(defaults))
    if unknown:
        raise ValueError(
            f"suite {name} takes no parameter {', '.join(unknown)}; "
            f"it takes {', '.join(defaults) or 'none'}"
        )
    bound = {k: given.get(k, v) for k, v in defaults.items()}
    suite = _REGISTRY[name]
    if suite.min_n is not None and bound["n"] < suite.min_n:
        raise ValueError(f"{name} needs n >= {suite.min_n} for {suite.needs}, got n={bound['n']}")
    if suite.ranks is not None:
        (m, what), n = suite.ranks, bound["n"]
        bad = next((r for r in bound["rs"] if not m <= r <= n - m), None)
        if bad is not None:
            raise ValueError(f"{name} needs each rank r in {m}..n-{m} for {what}, got r={bad} at n={n}")
    if suite.max_n is not None and bound["n"] > suite.max_n:
        raise ValueError(
            f"{name} {suite.why}; n={bound['n']} is over the limit n <= {suite.max_n}"
        )
    cases = suite.body(**bound)
    status, checked, details, witness = "pass", 0, (), None
    while True:
        try:
            ok, case_witness = next(cases)
        except StopIteration as done:
            details = tuple(done.value)
            break
        checked += 1
        if not ok:
            status, witness = "fail", case_witness
            cases.close()
            break
    if not checked:
        status, details = "inconclusive", ("no case checked",)
    shown = {k: list(v) if isinstance(v, (list, tuple)) else v for k, v in bound.items()}
    return CheckReport(name, shown, status, checked, details, witness)
