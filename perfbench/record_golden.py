"""Record the golden answers of every op, then check them on other seeds.

    PYTHONPATH=src python3 perfbench/record_golden.py [--workload W] [--check-seeds K]

An op's golden answer is its ``expect`` (the main path's answer, for ops
that run the independent oracle) or else its own answer at the current
commit.  Ops that share a label must agree.  The answers of the full and
tiny plans for seeds 1..K are then compared with the recorded file, which
shows that no expectation depends on the seed.
"""

from __future__ import annotations

import argparse
import json
import sys

import workloads


def record(workload: str) -> dict:
    golden: dict = {}
    for tiny in (False, True):
        for op in workloads.build(workload, 0, tiny).ops:
            answer = (op.expect or op.run)()
            if golden.setdefault(op.label, answer) != answer:
                raise SystemExit(f"{workload}: ops labelled {op.label!r} disagree")
    return dict(sorted(golden.items()))


def check(workload: str, golden: dict, seeds) -> int:
    bad = 0
    for seed in seeds:
        for tiny in (False, True):
            plans = [workloads.build(workload, seed, tiny)]
            if workload == "cli" and seed == seeds[0]:
                plans.append(workloads.build(workload, seed, tiny, in_process=True))
            for plan in plans:
                for op in plan.ops:
                    if op.run() != golden[op.label]:
                        print(f"{workload} seed {seed}: {op.label} differs", file=sys.stderr)
                        bad += 1
    return bad


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=workloads.WORKLOADS, action="append")
    ap.add_argument("--check-seeds", type=int, default=3)
    args = ap.parse_args()
    bad = 0
    for workload in args.workload or workloads.WORKLOADS:
        golden = record(workload)
        workloads.GOLDEN_DIR.mkdir(exist_ok=True)
        with open(workloads.GOLDEN_DIR / f"{workload}.json", "w") as fh:
            json.dump(golden, fh, indent=1)
            fh.write("\n")
        bad += check(workload, golden, list(range(1, args.check_seeds + 1)))
        print(f"{workload}: {len(golden)} labels recorded", file=sys.stderr)
    sys.exit(1 if bad else 0)


if __name__ == "__main__":
    main()
