"""One pass of one workload in a fresh interpreter; prints a JSON result.

Started by ``run.py`` with ``--t0`` set to the CLOCK_MONOTONIC reading
taken just before the process was spawned, so that ``setup_s`` covers
interpreter start, imports and the warm-up.  A fixed pure-Python loop is
timed before, between (every ``REFERENCE_EVERY_S``) and after the ops
(``reference_s``), so that ``run.py`` can divide the machine's current speed
out of ``wall_rel``.
With ``--spans`` the tracer wraps the program for the timed ops only.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time

import workloads

REFERENCE_STEPS = 800_000  # about 0.1 s on a 2-core x86-64 VM
REFERENCE_EVERY_S = 2.0  # longest stretch of ops without a reference sample


def _field_misses() -> int:
    """Fields built so far by ``ratfunc``; 0 where this process never loaded it."""
    ratfunc = sys.modules.get("torusquot.ratfunc")
    return ratfunc._field_for.cache_info().misses if ratfunc else 0


def reference_loop() -> float:
    """Seconds for a fixed pure-Python loop that touches no program code."""
    t, acc = time.perf_counter(), 0
    for k in range(REFERENCE_STEPS):
        acc += k * k % 7
    return time.perf_counter() - t


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--t0", type=float, required=True)
    ap.add_argument("--tiny", action="store_true")
    ap.add_argument("--in-process", action="store_true")
    ap.add_argument("--spans", help="trace the timed ops and write the spans to this file")
    args = ap.parse_args()

    plan = workloads.build(args.workload, args.seed, args.tiny, args.in_process)
    golden = workloads.load_golden(args.workload)
    plan.warmup()
    field_misses = _field_misses()
    tracer = None
    if args.spans:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    setup_s = time.clock_gettime(time.CLOCK_MONOTONIC) - args.t0
    reference_s = [reference_loop()]
    last_reference = time.perf_counter()
    op_s, latencies, failures = [], [], []
    for i, op in enumerate(plan.ops):
        if tracer is not None:
            tracer.op = i
        t = time.perf_counter()
        try:
            answer = op.run()
        except Exception as exc:  # an exception is a failed op, reported below
            answer = f"{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - t
        op_s.append(elapsed)
        if op.primary:
            latencies.append(elapsed)
        if answer != golden.get(op.label):
            failures.append(f"{op.label}: got {answer[:200]!r}")
        if time.perf_counter() - last_reference >= REFERENCE_EVERY_S:
            reference_s.append(reference_loop())
            last_reference = time.perf_counter()
    reference_s.append(reference_loop())

    counters = workloads.finish_oracle_counters(plan.counters)
    counters["ratfunc.field_builds"] = _field_misses() - field_misses
    layers = {}
    if tracer is not None:
        tracer.uninstall()
        layers = tracer.summary()
        tracer.write_spans(args.spans)
    rss_kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                 resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    json.dump({
        "setup_s": setup_s,
        "op_s": op_s,
        "reference_s": reference_s,
        "latencies": latencies,
        "attempted": len(plan.ops),
        "failures": failures,
        "peak_rss_mb": rss_kb / 1024,
        "counters": counters,
        "layers": layers,
    }, sys.stdout)
    sys.stdout.write("\n")


if __name__ == "__main__":
    main()
