"""Run the benchmark on several seeds and summarise each metric.

    python3 perfbench/repeat.py [--workload W ...] [--seeds 1-10] [--trace 0|1]
                                [--seconds S] [--out FILE]

Without ``--workload`` it runs every workload.
For every workload and metric, and for every number run.py prints
alongside the metrics, it prints the median over the seeds and the spread:
the distance between the first and third quartile as a share of the median
(``statistics.quantiles(values, n=4)``), next to the metric's bound from
``BENCHMARK.json``.  ``--out`` writes the medians, the spreads,
every run's metrics and the run metadata as one JSON file.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seeds_arg(text: str) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, cwd=ROOT, check=True,
    )
    lines = proc.stdout.splitlines()
    meta = next(json.loads(ln[5:]) for ln in lines if ln.startswith("meta "))
    result = json.loads(lines[-1])
    notes = {}  # the ungated figures run.py prints as "<workload> <name> = <value> [unit]"
    for ln in lines:
        parts = ln.split()
        if len(parts) >= 4 and parts[0] == workload and parts[2] == "=" \
                and parts[1] not in result["metrics"]:
            try:
                notes[parts[1]] = float(parts[3])
            except ValueError:
                pass
    return {"result": result, "notes": notes, "meta": meta}


def main() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", action="append", choices=WORKLOADS)
    ap.add_argument("--seeds", type=seeds_arg, default=seeds_arg("1-10"))
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out")
    args = ap.parse_args()
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"] + spec["per_layer"]}

    report = {"seconds": args.seconds, "trace": args.trace, "workloads": {}}
    for workload in args.workload or WORKLOADS:
        runs = []
        for seed in args.seeds:
            run = run_once(workload, seed, args.seconds, args.trace)
            runs.append(run)
            res = run["result"]
            print(f"{workload} seed {seed}: correct={res['correct']} "
                  f"fail_frac={res['failed'] / res['attempted']} ({res['failed']}/{res['attempted']})",
                  flush=True)
        summary = {}
        units = {name: m["unit"] for name, m in runs[0]["result"]["metrics"].items()}
        for name in runs[0]["notes"]:
            if all(name in r["notes"] for r in runs):
                units.setdefault(name, "")
        for name, unit in units.items():
            values = [r["result"]["metrics"][name]["value"] if name in r["result"]["metrics"]
                      else r["notes"][name] for r in runs]
            median = statistics.median(values)
            q = statistics.quantiles(values, n=4) if len(values) > 1 else [median] * 3
            spread = (q[2] - q[0]) / median if median else 0.0
            summary[name] = {"median": median, "spread": spread, "unit": unit}
            print(f"{workload} {name}: median {median:.6g} {unit} spread {spread:.4f}"
                  f" bound {bounds.get(name)}", flush=True)
        report["workloads"][workload] = {
            "summary": summary,
            "runs": [{"seed": s, **r["result"], "notes": r["notes"]}
                     for s, r in zip(args.seeds, runs)],
            "meta": {k: v for k, v in runs[0]["meta"].items() if k not in ("seed", "workload")},
        }
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")


if __name__ == "__main__":
    main()
