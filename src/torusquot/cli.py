"""Command-line front end emitting deterministic JSON reports.

Every subcommand prints one report object to standard output with the
fields ``command``, ``params``, ``results``, ``checks``, ``seed`` and
``version``, keys sorted, rationals rendered as ``"p/q"`` in lowest
terms.  Exit status: 0 on success, 1 when a check fails, 2 on usage
errors (diagnostics go to standard error).
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from typing import Dict, List, Optional

from . import __version__, action, flag, invariants, schubert, strat, verify
from .ratfunc import compose, identity_substitution
from .schubert import GrassmannElement
from .weyl import identity, simple_reflection

Check = Dict[str, object]


def _jsonable(obj: object) -> object:
    """Deterministic JSON form: fractions as 'p/q', containers as lists."""
    if isinstance(obj, Fraction):
        return f"{obj.numerator}/{obj.denominator}"
    if isinstance(obj, bool) or isinstance(obj, (int, str)) or obj is None:
        return obj
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (set, frozenset)):
        return sorted(_jsonable(v) for v in obj)
    return str(obj)


def _emit(command: str, params: Dict[str, object], results: object,
          checks: List[Check], seed: int) -> int:
    report = {
        "command": command,
        "params": _jsonable(params),
        "results": _jsonable(results),
        "checks": _jsonable(checks),
        "seed": seed,
        "version": __version__,
    }
    json.dump(report, sys.stdout, sort_keys=True, indent=2)
    sys.stdout.write("\n")
    return 0 if all(c["status"] == "pass" for c in checks) else 1


def _emit_flags(args: argparse.Namespace, results: object, checks: List[Check]) -> int:
    """Report with the parsed flags as ``params`` and seed 0."""
    params = {k: v for k, v in vars(args).items() if k not in ("command", "func")}
    return _emit(args.command, params, results, checks, 0)


def _cell(n: int, r: int, a: List[int]) -> GrassmannElement:
    return GrassmannElement(n, r, tuple(a))


def _cmd_tau(args: argparse.Namespace) -> int:
    g = schubert.tau_r(args.n, args.r)
    results = {"a_seq": list(g.a_seq), "word": list(schubert.word_of(g))}
    case_split = schubert.tau_r_closed_form(args.n, args.r)
    if case_split != g:
        results["divergences"] = [
            f"case-split form {list(case_split.a_seq)} disagrees with the descent "
            f"result {list(g.a_seq)} for n={args.n}, r={args.r}; the descent result is kept"
        ]
    return _emit_flags(args, results, [])


def _cmd_semistable_cells(args: argparse.Namespace) -> int:
    cells = [list(g.a_seq) for g in schubert.semistable_cells(args.n, args.r)]
    results = {"cells": cells, "count": len(cells)}
    return _emit_flags(args, results, [])


def _cmd_inversions(args: argparse.Namespace) -> int:
    g = _cell(args.n, args.r, args.a)
    arr = schubert.inversion_array(g)
    intervals = {
        f"X_{i}_{j}": list(arr.root_at(i, j)) for i, j in arr.positions()
    }
    results = {
        "count": len(intervals),
        "intervals": intervals,
        "labels": [list(p) for p in arr.positions()],
    }
    return _emit_flags(args, results, [])


def _cmd_invariants(args: argparse.Namespace) -> int:
    g = _cell(args.n, args.r, args.a)
    arr = schubert.inversion_array(g)
    positions = arr.positions()
    monomials = {}
    for i, j in invariants.y_labels(arr):
        vec = invariants.y_exponent(arr, i, j)
        monomials[f"Y_{i}_{j}"] = {
            f"X_{p}_{q}": e for (p, q), e in zip(positions, vec) if e
        }
    rep = invariants.verify_kernel_basis(arr)
    check: Check = {"name": "kernel-basis", "status": "pass" if rep.ok else "fail"}
    if not rep.ok:
        check["counterexample"] = {
            "kernel_rank": rep.kernel_rank,
            "expected_rank": rep.expected_rank,
            "lattice_equality": rep.lattice_equality,
        }
    results = {"count": len(monomials), "monomials": monomials}
    return _emit_flags(args, results, [check])


def _cmd_act(args: argparse.Namespace) -> int:
    g = _cell(args.n, args.r, args.a)
    k = args.gen
    if k not in action.stabilizer_generators(g):
        raise ValueError(
            f"generator {k} does not stabilize the closure of cell {args.a}"
        )
    sub = action.closed_y_action(k, g)
    involution = compose(sub, sub) == identity_substitution(action.y_names(g))
    results = {"action": {name: expr.canonical() for name, expr in sub.items()}}
    checks: List[Check] = [
        {"name": "involution", "status": "pass" if involution else "fail"}
    ]
    return _emit_flags(args, results, checks)


def _cmd_strata(args: argparse.Namespace) -> int:
    rep = strat.strata_report(args.n)
    results = {
        "divergences": list(rep.divergences),
        "strata": [
            {
                "ambient": d.ambient,
                "cell_parameter": d.cell_parameter,
                "dimension": d.dimension,
                "group_order": d.group_order,
                "index": d.index,
                "kind": d.kind,
            }
            for d in rep.descriptors
        ],
    }
    return _emit_flags(args, results, [])


def _cmd_flag_negative(args: argparse.Namespace) -> int:
    chi = flag.RegularDominantChar(args.n, tuple(args.chi))
    try:
        elements = flag.negative_elements(chi)
        check: Check = {"name": "matches-coset-family", "status": "pass"}
    except ArithmeticError as exc:
        print(f"error: {exc}", file=sys.stderr)
        check = {"name": "matches-coset-family", "status": "fail"}
        elements = set()
    results = {
        "count": len(elements),
        "elements": sorted(list(w.images) for w in elements),
    }
    return _emit_flags(args, results, [check])


def _cmd_flag_quotient(args: argparse.Namespace) -> int:
    tau = identity(args.n + 1)
    for idx in args.tau:
        if not 1 <= idx <= args.n:
            raise ValueError(f"word letter {idx} out of range 1..{args.n}")
        tau = tau * simple_reflection(idx, args.n + 1)
    exprs = flag.pi_tau(tau, args.n)  # raises if a weight is nonzero
    results = {
        "coordinates": {name: expr.canonical() for name, expr in exprs.items()},
        "tau_one_line": list(tau.images),
    }
    checks: List[Check] = [{"name": "weight-zero", "status": "pass"}]
    return _emit_flags(args, results, checks)


def _cmd_verify(args: argparse.Namespace) -> int:
    # each flag fills the parameter of that name, or the range or list form
    # the suite takes instead; a suite with neither refuses the flag
    takes = verify.suite_parameters(args.suite)
    params: Dict[str, object] = {"seed": args.seed}
    if args.n is not None:
        if "n_min" in takes:
            params["n_min"] = params["n_max"] = args.n
        else:
            params["n"] = args.n
    if args.r is not None:
        if "rs" in takes:
            params["rs"] = (args.r,)
        else:
            params["r"] = args.r
    rep = verify.exhaustive_check(args.suite, **params)
    check: Check = {"name": rep.name, "status": rep.status}
    if rep.counterexample is not None:
        check["counterexample"] = rep.counterexample
    shown = dict(rep.params)
    shown["suite"] = args.suite
    return _emit("verify", shown, rep.to_payload(), [check], args.seed or 0)


def _int_arg(text: str) -> int:
    try:
        return int(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from exc


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="torusquot",
        description="Exact computations for torus quotients of Schubert cells.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, func, help_text: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(func=func)
        return p

    p = add("tau", _cmd_tau, "minimal cell whose closure meets the semistable locus")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--r", type=int, required=True)

    p = add("semistable-cells", _cmd_semistable_cells,
            "all cells containing semistable points")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--r", type=int, required=True)

    p = add("inversions", _cmd_inversions,
            "interval roots labelling the coordinates of a cell")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--a", type=_int_arg, nargs="+", required=True,
                   metavar="A", help="cell parameter sequence")

    p = add("invariants", _cmd_invariants,
            "cross-ratio generators of the torus-invariant field")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--a", type=_int_arg, nargs="+", required=True, metavar="A")

    p = add("act", _cmd_act, "closed-form generator action on the invariants")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--a", type=_int_arg, nargs="+", required=True, metavar="A")
    p.add_argument("--gen", type=int, required=True,
                   help="index of the simple reflection")

    p = add("strata", _cmd_strata, "stratification of the rank-two quotient")
    p.add_argument("--n", type=int, required=True)

    p = add("flag-negative", _cmd_flag_negative,
            "elements sending a dominant character to nonpositive weights")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--chi", type=_int_arg, nargs="+", required=True,
                   metavar="C", help="strictly increasing positive coefficients")

    p = add("flag-quotient", _cmd_flag_quotient,
            "torus-invariant coordinates of a semistable flag cell")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--tau", type=_int_arg, nargs="*", required=True,
                   metavar="W", help="word for the cell parameter (may be empty)")

    p = add("verify", _cmd_verify, "run a named verification suite")
    p.add_argument("--suite", required=True, choices=verify.available_suites())
    p.add_argument("--n", type=int)
    p.add_argument("--r", type=int)
    p.add_argument("--seed", type=int)

    return parser


def run(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
