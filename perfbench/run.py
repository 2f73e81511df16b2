"""torusquot benchmark: one workload, one seed, one measured run.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The run starts fresh worker processes
(``worker.py``), each doing one pass of the workload's fixed op list with
cold program caches, until ``--seconds`` have passed and at least
``MIN_PASSES`` passes are done.  Every answer is checked against
``golden/``.  The metric names and units come from ``BENCHMARK.json``.

``--trace 0`` reports the end-to-end metrics (medians over the passes).
``--trace 1`` reports the per-layer metrics: traced passes, alternating with
untraced ones for ``trace_overhead``, give call counts, self times (medians
over the traced passes) and oracle counters, and separate interpreters give
the import and start-up times.
Human-readable lines come first; the last line is one JSON object.
"""

from __future__ import annotations

import argparse
import compileall
import importlib.metadata
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
MIN_PASSES = 3
WORKER_TIMEOUT_S = 150
NOTE_UNITS = {"wall_s": "s", "reference_s": "s", "op_p50_ms": "ms", "op_p90_ms": "ms",
              "fail_frac": "ratio"}


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    return env


def run_worker(args, *extra: str) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), *extra]
    t0 = time.clock_gettime(time.CLOCK_MONOTONIC)
    proc = subprocess.run(cmd + ["--t0", repr(t0)], capture_output=True, cwd=ROOT,
                          env=child_env(), timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr.decode()[-4000:])
        raise SystemExit(f"worker failed with exit code {proc.returncode}")
    return json.loads(proc.stdout.decode().splitlines()[-1])


def passes(args, seconds: float, minimum: int, *extra: str) -> list:
    results, start = [], time.monotonic()
    while len(results) < minimum or time.monotonic() - start < seconds:
        results.append(run_worker(args, *extra))
    return results


def pass_time(results) -> float:
    """Time for one pass of the op list: each op's median over the passes,
    summed.  Every pass runs the same ops in the same order."""
    return sum(statistics.median(xs) for xs in zip(*(r["op_s"] for r in results)))


def percentile(values, q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def wall_time_ms(cmd) -> float:
    t = time.perf_counter()
    subprocess.run(cmd, capture_output=True, cwd=ROOT, env=child_env(), check=True)
    return (time.perf_counter() - t) * 1e3


def import_times(repeats: int = 3) -> dict:
    """Cumulative import times from ``-X importtime``, and bare start-up."""
    wanted = {"torusquot": "cli.import_ms.torusquot",
              "torusquot.ratfunc": "cli.import_ms.ratfunc", "sympy": "cli.import_ms.sympy"}
    samples = {name: [] for name in wanted.values()}
    for _ in range(repeats):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import torusquot.cli"],
                              capture_output=True, cwd=ROOT, env=child_env(), check=True)
        for line in proc.stderr.decode().splitlines():
            m = re.match(r"import time:\s+\d+ \|\s+(\d+) \|\s*(\S+)$", line)
            if m and m.group(2) in wanted:
                samples[wanted[m.group(2)]].append(int(m.group(1)) / 1e3)
    out = {k: statistics.median(v) for k, v in samples.items()}
    out["cli.python_startup_ms"] = statistics.median(
        wall_time_ms([sys.executable, "-c", "pass"]) for _ in range(5))
    return out


def metadata(args) -> dict:
    try:  # a checkout without .git (or with packed refs) has no readable sha
        ref = (ROOT / ".git" / "HEAD").read_text().strip()
        sha = (ROOT / ".git" / ref[5:]).read_text().strip() if ref.startswith("ref: ") else ref
    except OSError:
        sha = "unknown"
    try:
        sympy_version = importlib.metadata.version("sympy")
    except importlib.metadata.PackageNotFoundError:
        sympy_version = "unknown"
    loc = {p.stem: len(p.read_text().splitlines()) for p in sorted((SRC / "torusquot").glob("*.py"))}
    return {
        "git_sha": sha, "python": platform.python_version(), "sympy": sympy_version,
        "nproc": os.cpu_count(), "seed": args.seed, "workload": args.workload,
        "PYTHONHASHSEED": os.environ.get("PYTHONHASHSEED", "unpinned"),
        "source_loc": loc, "source_loc_total": sum(loc.values()),
    }


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help="smallest inputs, for self-tests")
    args = ap.parse_args()

    if not (SRC / "torusquot" / "__init__.py").is_file():
        raise SystemExit(f"no torusquot sources under {SRC}; run from a full checkout")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    compileall.compile_dir(SRC, quiet=1)  # byte-compile once, outside every timed pass
    # one CPU for this process and every process it starts, so that the
    # reference loop and the ops, cli commands included, share its speed
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    size = ["--tiny"] if args.tiny else []

    if args.trace == 0:
        results = passes(args, args.seconds, MIN_PASSES, *size)
        lat = [x for r in results for x in r["latencies"]]
        # every pass runs the same ops in the same order: take each op's
        # median over the passes, then the median over the ops
        per_op = [statistics.median(xs) for xs in zip(*(r["latencies"] for r in results))]
        wall_s = pass_time(results)
        reference_s = statistics.median(x for r in results for x in r["reference_s"])
        values = {
            "setup_s": statistics.median(r["setup_s"] for r in results),
            # the machine's speed drifts over minutes by more than any useful
            # bound; a fixed loop timed in the same workers divides it out
            "wall_rel": wall_s / reference_s,
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in results),
        }
        # raw seconds and op latencies spread too widely between runs on a
        # noisy machine to be gated; they are reported alongside
        notes = {"wall_s": wall_s, "reference_s": reference_s, "passes": len(results),
                 "op_samples": len(lat), "op_p50_ms": statistics.median(per_op) * 1e3}
        if len(lat) >= 100:
            notes["op_p90_ms"] = percentile(lat, 90) * 1e3
        metrics = spec["end_to_end"]
    else:
        # the cli is traced in-process, so its base is timed in-process too
        base_mode = size + (["--in-process"] if args.workload == "cli" else [])
        # untraced and traced passes alternate, so that a drift in machine
        # speed reaches both sides of trace_overhead alike
        OUT.mkdir(exist_ok=True)
        spans = OUT / f"spans-{args.workload}-{args.seed}.jsonl"
        base, traced, start = [], [], time.monotonic()
        while not traced or time.monotonic() - start < args.seconds:
            base.append(run_worker(args, *base_mode))
            traced.append(run_worker(args, *base_mode, "--spans", str(spans)))
        results = base + traced
        values = {k: statistics.median(t["layers"][k] for t in traced) for k in traced[0]["layers"]}
        values.update(traced[0]["counters"])
        values.update(import_times())
        values["trace_overhead"] = pass_time(traced) / pass_time(base)
        notes = {"traced_passes": len(traced), "spans_file": str(spans.relative_to(ROOT))}
        metrics = spec["per_layer"]

    attempted = sum(r["attempted"] for r in results)
    failures = [f for r in results for f in r["failures"]]
    notes["fail_frac"] = len(failures) / attempted
    meta = metadata(args)
    for f in failures[:10]:
        print(f"FAILED {f}")
    for m in metrics:
        print(f"{args.workload} {m['name']} = {values.get(m['name'], 0)} {m['unit']}")
    for key, value in notes.items():
        print(f"{args.workload} {key} = {value} {NOTE_UNITS.get(key, '')}".rstrip())
    print("meta " + json.dumps(meta, sort_keys=True))
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {m["name"]: {"value": values.get(m["name"], 0), "unit": m["unit"]}
                    for m in metrics},
    }))


if __name__ == "__main__":
    main()
