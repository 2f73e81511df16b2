"""The benchmark's op lists run against the package and give their golden
answers, so renaming or changing a function the benchmark calls fails here
and not only in a benchmark run.  Nothing under ``perfbench/`` is written."""

import importlib.util
import sys
from pathlib import Path

import pytest
from conftest import clear_program_caches, count_fallbacks

_SPEC = importlib.util.spec_from_file_location(
    "perfbench_workloads", Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
)
workloads = importlib.util.module_from_spec(_SPEC)
sys.modules[_SPEC.name] = workloads  # dataclasses resolve the module by name
_SPEC.loader.exec_module(workloads)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_benchmark_ops_give_their_golden_answers(workload):
    plan = workloads.build(workload, 1, in_process=True)
    golden = workloads.load_golden(workload)
    plan.warmup()
    assert plan.ops
    wrong = [(op.label, answer) for op in plan.ops if (answer := op.run()) != golden.get(op.label)]
    assert wrong == []


def test_symbolic_ops_need_no_polynomial_gcd():
    """With every program cache emptied, building the `symbolic` plan at
    seed 1, its warm-up and its ops reduce every fraction without
    ``ratfunc._cancel``: each pair left to it is an associate pair."""
    clear_program_caches()
    with count_fallbacks() as calls:
        plan = workloads.build("symbolic", 1, in_process=True)
        plan.warmup()
        for op in plan.ops:
            op.run()
    assert calls == []
