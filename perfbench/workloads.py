"""The four workloads: inputs made from the seed, the op list, golden answers.

A workload is a `Plan`: a warm-up on inputs outside the timed set and a
list of `Op`s.  Each op calls the program and returns its answer as a
string; the worker compares that string with the golden answer stored
under the op's label in ``golden/<workload>.json``.  Labels and answers
never depend on the seed, so every seed is checked against the same file.
An op's ``expect`` computes the golden answer from the main path where the
op itself exercises the independent oracle.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import subprocess
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial
from pathlib import Path
from typing import Callable, Dict, List, Optional

ROOT = Path(__file__).resolve().parent.parent
GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
WORKLOADS = ("combinatorics", "oracle", "symbolic", "cli")

ORACLE_COUNTERS = (
    "oracle.draws", "oracle.draw_yield", "oracle.resampled_cells",
    "oracle.inconclusive_cells", "oracle.lp_columns",
    "oracle.cert_combination", "oracle.cert_separator",
)


@dataclass
class Op:
    label: str
    run: Callable[[], str]
    primary: bool = True  # counted in the op latency percentiles
    expect: Optional[Callable[[], str]] = None  # golden source, if not `run`


@dataclass
class Plan:
    warmup: Callable[[], None]
    ops: List[Op]
    counters: Dict[str, float] = field(default_factory=dict)


def load_golden(workload: str) -> Dict[str, str]:
    with open(GOLDEN_DIR / f"{workload}.json") as fh:
        return json.load(fh)


def build(workload: str, seed: int, tiny: bool = False, in_process: bool = False) -> Plan:
    if workload == "cli":
        return cli_plan(seed, tiny, in_process)
    return {"combinatorics": combinatorics_plan, "oracle": oracle_plan,
            "symbolic": symbolic_plan}[workload](seed, tiny)


def _increasing(rng: random.Random, rank: int) -> tuple:
    out, cur = [], 0
    for _ in range(rank):
        cur += rng.randint(1, 4)
        out.append(cur)
    return tuple(out)


def _images(perms) -> str:
    return " ".join("".join(map(str, p)) for p in sorted(w.images for w in perms))


def _canon(sub) -> str:
    return "; ".join(f"{k}={v.canonical()}" for k, v in sorted(sub.items()))


# ---------------------------------------------------------------------------
# combinatorics: gateway cells, kernel certificates, stabilizers, S_n actions


def combinatorics_plan(seed: int, tiny: bool) -> Plan:
    from torusquot import action, flag, invariants, schubert, strat

    def pair(n: int, r: int) -> str:
        lines = [f"tau {schubert.tau_r(n, r).a_seq}"]
        for g in schubert.semistable_cells(n, r):
            rep = invariants.verify_kernel_basis(schubert.inversion_array(g))
            stab = sorted(action.stabilizer_generators(g))
            lines.append(
                f"{g.a_seq} kernel {rep.kernel_rank}/{rep.expected_rank} ok={rep.ok} stab {stab}"
            )
        return "\n".join(lines)

    def negative(chi) -> str:
        elements = flag.negative_elements(chi)
        return f"{len(elements)} {_images(elements)}"

    rng = random.Random(seed)
    rank = 3 if tiny else 5
    ops = []
    for n in range(5, 7 if tiny else 10):
        for r in range(2, n - 1):
            ops.append(Op(f"pair {n} {r}", partial(pair, n, r)))
        ops.append(Op(f"strata {n}", partial(lambda n: repr(strat.strata_report(n)), n), False))
    for i in range(2):
        chi = flag.RegularDominantChar(rank, _increasing(rng, rank))
        ops.append(Op(f"negative rank {rank}", partial(negative, chi), False))
    rng.shuffle(ops)

    def warmup() -> None:
        pair(4, 2)
        strat.strata_report(4)
        negative(flag.RegularDominantChar(2, (1, 2)))

    return Plan(warmup, ops)


# ---------------------------------------------------------------------------
# oracle: sampled supports, minors, the exact simplex, closures, flag points


def oracle_plan(seed: int, tiny: bool) -> Plan:
    from torusquot import action, flag, oracle, schubert
    from torusquot.weyl import all_permutations

    counters: Dict[str, float] = dict.fromkeys(ORACLE_COUNTERS, 0)
    counters["conclusive"] = 0

    def verdict(w, r: int, s: int) -> str:
        answer, rep, cert = oracle.cell_semistable(w, r, seed=s)
        counters["oracle.draws"] += len(rep.draws)
        counters["oracle.resampled_cells"] += rep.resampled
        if rep.conclusive:
            counters["conclusive"] += 1
            counters["oracle.lp_columns"] += len(rep.support)
        else:
            counters["oracle.inconclusive_cells"] += 1
        if cert is not None:
            counters["oracle.cert_combination" if cert.semistable else "oracle.cert_separator"] += 1
        return answer

    def gateway(g) -> str:
        semi = g in schubert.semistable_cells(g.n, g.r)
        return "semistable" if semi else "unstable"

    def closure(top, n: int) -> str:
        return str([k for k in range(1, n) if oracle.reflection_preserves_closure(top, k, n)])

    rng = random.Random(seed)
    ops = []
    for n in range(4, 6 if tiny else 8):
        for r in range(2, n - 1):
            for g in schubert.all_cells(n, r):
                w = schubert.to_permutation(g)
                label = f"verdict {n} {r} {g.a_seq}"
                for _ in range(3):
                    ops.append(Op(label, partial(verdict, w, r, rng.randrange(2**31)),
                                  expect=partial(gateway, g)))
                top = frozenset(a + 1 for a in g.a_seq)
                ops.append(Op(f"closure {n} {r} {g.a_seq}", partial(closure, top, n), False,
                              partial(lambda g: str(sorted(action.stabilizer_generators(g))), g)))

    def in_family(w) -> str:
        chi = flag.RegularDominantChar(3, (1, 2, 3))
        return str(w.images in {c.images for c in flag.negative_elements(chi)})

    # flags at n = 4: a generic point of each cell, a seeded dominant character
    for w in all_permutations(4):
        coords = {
            root: Fraction(rng.choice([v for v in range(-9, 10) if v]))
            for root in flag.inversion_roots(w)
        }
        mat = [[Fraction(e) for e in row] for row in flag.point_matrix(w, coords)]
        chi = [Fraction(c) for c in _increasing(rng, 3)]
        ops.append(Op(f"flag 4 {w.images}",
                      partial(lambda m, c: str(oracle.flag_point_semistable(m, c)), mat, chi),
                      False, partial(in_family, w)))
    rng.shuffle(ops)

    def warmup() -> None:
        for g in schubert.all_cells(4, 1):
            oracle.cell_semistable(schubert.to_permutation(g), 1, seed=seed)
            oracle.reflection_preserves_closure(frozenset(a + 1 for a in g.a_seq), 1, 4)
        oracle.flag_point_semistable([[Fraction(1), Fraction(1)], [Fraction(1), Fraction(2)]],
                                     [Fraction(1)])

    return Plan(warmup, ops, counters)


def finish_oracle_counters(counters: Dict[str, float]) -> Dict[str, float]:
    """The published counters; ``draw_yield`` is 3 x conclusive / draws."""
    out = {k: counters.get(k, 0) for k in ORACLE_COUNTERS}
    draws = counters.get("oracle.draws", 0)
    out["oracle.draw_yield"] = 3 * counters.get("conclusive", 0) / draws if draws else 0.0
    return out


# ---------------------------------------------------------------------------
# symbolic: the sympy-backed actions on invariants and the flag quotient


def symbolic_plan(seed: int, tiny: bool) -> Plan:
    from torusquot import action, flag, ratfunc, schubert, verify

    def involutive_at_point(sub, names, rng: random.Random) -> str:
        """Apply `sub` twice at a seeded rational point, avoiding poles."""
        for _ in range(8):
            p = {nm: Fraction(rng.randint(-60, 60) or 1, rng.randint(1, 60)) for nm in names}
            try:
                q = {nm: sub[nm].evaluate(p) if nm in sub else p[nm] for nm in names}
                back = {nm: sub[nm].evaluate(q) if nm in sub else q[nm] for nm in names}
            except ZeroDivisionError:
                continue
            return str(back == p)
        return "no regular point"

    def cell_action(g, k: int, rng: random.Random) -> str:
        xsub = action.x_action(k, g)
        ysub = action.y_action_substitution(k, g)
        closed = action.closed_y_action(k, g)
        ynames = action.y_names(g)
        return "\n".join([
            f"x {_canon(xsub)}",
            f"y {_canon(ysub)}",
            f"closed {_canon(closed)}",
            f"x_involution {ratfunc.compose(xsub, xsub) == ratfunc.identity_substitution(action.x_names(g))}",
            f"match {ysub == closed}",
            f"y_involution {ratfunc.compose(closed, closed) == ratfunc.identity_substitution(ynames)}",
            f"at_point {involutive_at_point(closed, ynames, rng)}",
        ])

    def equivariance(m: int) -> str:
        rep = action.check_equivariance(m)
        return f"ok={rep.ok} entries={len(rep.entries)}"

    def suite(name: str, n: int) -> str:
        rep = verify.exhaustive_check(name, n=n)
        return f"{rep.status} {rep.checked}"

    rng = random.Random(seed)
    ops = []
    for n in range(4, 6 if tiny else 8):
        for r in range(2, n - 1):
            for g in schubert.semistable_cells(n, r):
                for k in sorted(action.stabilizer_generators(g)):
                    point_rng = random.Random(rng.randrange(2**31))
                    ops.append(Op(f"cell {n} {r} {g.a_seq} s{k}",
                                  partial(cell_action, g, k, point_rng)))
    for m in (2, 3, 4):
        ops.append(Op(f"equivariance {m}", partial(equivariance, m)))
    fn = 3 if tiny else 4
    for tau in flag.subgroup_fixing_last(fn):
        ops.append(Op(f"pi_tau {fn} {tau.images}",
                      partial(lambda t: _canon(flag.pi_tau(t, fn)), tau)))
    for i in range(1, fn + 1):
        ops.append(Op(f"quotient {fn} {i}",
                      partial(lambda i: _canon(flag.quotient_generator_action(i, fn)), i)))
    for name in ("cor-5.3", "cor-5.4"):
        ops.append(Op(f"suite {name} {fn}", partial(suite, name, fn)))
    rng.shuffle(ops)

    def warmup() -> None:
        # an n = 8 cell whose X and Y name tuples occur in no timed cell, so
        # that no field or name cache is warm for the timed inputs
        g = schubert.GrassmannElement(8, 2, (6, 7))
        cell_action(g, 1, random.Random(seed))
        for tau in flag.subgroup_fixing_last(2):
            flag.pi_tau(tau, 2)
        suite("cor-5.3", 2)

    return Plan(warmup, ops)


# ---------------------------------------------------------------------------
# cli: a fixed command list, each in a fresh interpreter


CLI_COMMANDS = (
    ("tau", "--n", "7", "--r", "3"),
    ("semistable-cells", "--n", "8", "--r", "3"),
    ("inversions", "--n", "6", "--r", "3", "--a", "2", "4", "5"),
    ("strata", "--n", "8"),
    ("flag-negative", "--n", "4", "--chi", "1", "3", "6", "10"),
    ("invariants", "--n", "6", "--r", "2", "--a", "4", "5"),
    ("act", "--n", "6", "--r", "3", "--a", "3", "4", "5", "--gen", "3"),
    ("flag-quotient", "--n", "3", "--tau", "1", "2"),
    ("verify", "--suite", "lemma-1.8", "--n", "5", "--r", "2"),
    ("tau", "--n", "3", "--r", "2"),  # refused input: exit 2
)
CLI_WARMUP = ("tau", "--n", "5", "--r", "2")


def run_cli(argv, in_process: bool) -> str:
    """Exit code and stdout of one command."""
    if in_process:
        from torusquot import cli

        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            try:
                code = cli.run(list(argv))
            except SystemExit as exc:
                code = exc.code
        return f"exit {code}\n{out.getvalue()}"
    proc = subprocess.run([sys.executable, "-m", "torusquot.cli", *argv],
                          capture_output=True, cwd=ROOT, timeout=120)
    return f"exit {proc.returncode}\n{proc.stdout.decode()}"


def cli_plan(seed: int, tiny: bool, in_process: bool) -> Plan:
    commands = list(CLI_COMMANDS[:2] + CLI_COMMANDS[-1:] if tiny else CLI_COMMANDS)
    random.Random(seed).shuffle(commands)
    ops = [Op("cli " + " ".join(argv), partial(run_cli, argv, in_process)) for argv in commands]
    return Plan(partial(run_cli, CLI_WARMUP, in_process), ops)
