"""The names the benchmark's tracer and worker read from ``ratfunc``, and
the import-time lines its runner parses, still exist.  Renaming one of
them breaks only a traced benchmark run, so it fails here first.  Nothing
under ``perfbench/`` is written.

This test changes together with the benchmark change of ROADMAP item 1:
when the runner stops reading the ``sympy`` import line, or the worker
stops counting ``_field_for`` builds, the matching check here goes too.
"""

import os
import re
import subprocess
import sys
import types
from pathlib import Path

from torusquot import ratfunc
from torusquot.ratfunc import RationalFunction

ROOT = Path(__file__).resolve().parent.parent
_TRACER = ROOT / "perfbench" / "tracer.py"
tracer = types.ModuleType("perfbench_tracer")  # run from source: no bytecode cache is written
exec(compile(_TRACER.read_text(), str(_TRACER), "exec"), vars(tracer))


def test_traced_methods_are_defined_on_the_class():
    """The tracer patches these names from `vars(RationalFunction)`."""
    traced = tracer.ARITH_METHODS + tracer.SPAN_METHODS
    assert [name for name in traced if name not in vars(RationalFunction)] == []


def test_field_builds_are_counted_once_per_variable_tuple():
    """The worker reads `_field_for.cache_info().misses` as
    `ratfunc.field_builds`: one miss for each new variable tuple, however
    many values are then built over it."""
    names = ("hook_u", "hook_v")
    before = ratfunc._field_for.cache_info().misses
    u, v = (RationalFunction.variable(name, names) for name in names)
    w = (u + 1) / (v - u) * RationalFunction.constant(3, names)
    w.subs({"hook_u": v, "hook_v": u})
    RationalFunction.from_terms(names, {(1, 0): 1}, {(0, 1): 2})
    assert ratfunc._field_for.cache_info().misses == before + 1


def test_import_time_lines_name_the_package_ratfunc_and_sympy():
    """The runner takes the median of these three lines of
    ``python -X importtime -c "import torusquot.cli"``; a missing one
    makes its traced run fail."""
    path = os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")])
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import torusquot.cli"],
                          capture_output=True, cwd=ROOT, env=dict(os.environ, PYTHONPATH=path),
                          check=True)
    lines = proc.stderr.decode()
    imported = {m.group(1) for m in re.finditer(r"^import time:.*\|\s*(\S+)$", lines, re.M)}
    assert {"torusquot", "torusquot.ratfunc", "sympy"} <= imported
