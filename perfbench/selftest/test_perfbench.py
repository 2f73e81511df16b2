"""Self-tests of the benchmark.

    PYTHONPATH=src python3 -m pytest perfbench/selftest -q
"""

from __future__ import annotations

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import tracer
import workloads

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(workload: str, trace: int, env=None) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "5",
         "--seconds", "0", "--trace", str(trace), "--tiny"],
        capture_output=True, text=True, cwd=ROOT, env=env, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_smoke_run(workload):
    result = bench(workload, 0)
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_counts_repeat_exactly_across_hash_seeds():
    runs = []
    for hash_seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        runs.append(bench("symbolic", 1, env)["metrics"])
    assert set(runs[0]) == {m["name"] for m in SPEC["per_layer"]}
    counts = [{k: v["value"] for k, v in r.items() if v["unit"] == "count"} for r in runs]
    assert counts[0] == counts[1]
    assert counts[0]["ratfunc.compose.calls"] > 0


def test_self_time_of_nested_spans():
    spans = [
        ("a", 0.0, 10.0, -1, 0),
        ("b", 1.0, 4.0, 0, 0),
        ("c", 2.0, 3.0, 1, 0),
        ("d", 5.0, 9.0, 0, 0),
        ("e", 20.0, 30.0, -1, 1),
        ("f", 19.0, 24.0, 4, 1),  # starts before its parent: clipped
        ("g", 22.0, 26.0, 4, 1),  # overlaps its sibling: counted once
    ]
    assert tracer.self_times(spans) == [3.0, 2.0, 1.0, 4.0, 4.0, 5.0, 4.0]


def _bindings():
    for layer in tracer.LAYERS:
        importlib.import_module(f"torusquot.{layer}")
    from torusquot import ratfunc

    mods = [m for k, m in sys.modules.items() if k == "torusquot" or k.startswith("torusquot.")]
    snap = {(m.__name__, k): v for m in mods for k, v in vars(m).items()}
    snap.update({("RationalFunction", k): v for k, v in vars(ratfunc.RationalFunction).items()})
    return snap


def test_tracer_restores_every_binding():
    from torusquot import flag, schubert, weights

    before = _bindings()
    original_act = weights.act
    t = tracer.Tracer()
    t.install()
    try:
        assert flag.act is weights.act is not original_act
        assert schubert.fundamental_weight is weights.fundamental_weight
        assert schubert.fundamental_weight.__wrapped__ is before[("torusquot.weights", "fundamental_weight")]
        schubert.tau_r(6, 2)
    finally:
        t.uninstall()
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)

    names = [s[0] for s in t.spans]
    top = names.index("schubert.tau_r")
    child = names.index("weights.fundamental_weight")
    assert t.spans[child][3] == top
    assert t.counts["weights.pairing"] > 0

    seen = len(t.spans)
    schubert.tau_r(6, 2)  # untraced after uninstall
    assert len(t.spans) == seen


def test_generator_functions_are_timed_per_resumption():
    from torusquot import flag

    t = tracer.Tracer()
    t.install()
    try:
        elements = flag.subgroup_fixing_last(3)  # list(parabolic_elements(.., 4))
    finally:
        t.uninstall()
    names = [s[0] for s in t.spans]
    outer = names.index("flag.subgroup_fixing_last")
    steps = [s for s in t.spans if s[0] == "weyl.parabolic_elements"]
    inner = [s for s in t.spans if s[0] == "weyl.all_permutations"]
    # one span per item and one for the exhausting step, under the consumer
    assert len(steps) == len(elements) + 1 == 7
    assert all(s[3] == outer for s in steps)
    assert len(inner) == 24 + 1
    assert all(names[s[3]] == "weyl.parabolic_elements" for s in inner)
    summary = t.summary()
    assert summary["weyl.parabolic_elements.calls"] == 1
    assert summary["weyl.all_permutations.calls"] == 1
    assert summary["flag.subgroup_fixing_last.calls"] == 1
    assert summary["weyl.calls"] == 2
