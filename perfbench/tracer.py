"""Span tracer installed from outside the torusquot package.

`Tracer.install()` wraps the public functions of every layer module and
replaces every binding of each wrapped function object across the loaded
``torusquot`` modules, so that a call through an imported name (``flag``
binds ``weights.act``, ``schubert`` binds ``fundamental_weight``) is seen
as well.  `RationalFunction` methods are patched on the class.  Hot leaves
get count-only wrappers.  A generator function is counted once per call and
timed per resumption: each step of its iteration is a span under whoever
resumes it, so its loop is charged to it and not to its consumer.
`Tracer.uninstall()` puts every original back.

Each span is ``(name, start, end, parent, op)``: ``parent`` is the index of
the enclosing span or -1, ``op`` the id of the benchmark op that caused it.
Spans stay in memory until `write_spans`.
"""

from __future__ import annotations

import importlib
import inspect
import json
import sys
import time
from typing import Callable, Dict, List, Sequence, Tuple

LAYERS = (
    "weyl", "weights", "linalg", "ratfunc", "schubert", "oracle",
    "invariants", "action", "strat", "flag", "verify", "cli",
)

# Leaves called tens of thousands of times: counted, not timed.
COUNT_ONLY = {"weights.pairing", "oracle.int_det"}

# RationalFunction operators, counted together as ``ratfunc.arith``.
ARITH_METHODS = (
    "__add__", "__sub__", "__mul__", "__truediv__", "__radd__", "__rsub__",
    "__rmul__", "__rtruediv__", "__neg__", "__pow__",
)
SPAN_METHODS = ("subs", "canonical", "evaluate")

# Spans named after their first argument: one row per suite, per subcommand.
NAMED_BY_ARG = {
    "verify.exhaustive_check": lambda args: f"verify.exhaustive_check.{args[0]}",
    "cli.run": lambda args: f"cli.run.{args[0][0]}" if args and args[0] else "cli.run",
}

Span = Tuple[str, float, float, int, int]


def self_times(spans: Sequence[Span]) -> List[float]:
    """Per span: its duration minus the part its child spans cover."""
    children: Dict[int, List[int]] = {}
    for i, span in enumerate(spans):
        if span[3] >= 0:
            children.setdefault(span[3], []).append(i)
    out = []
    for i, (_, start, end, _, _) in enumerate(spans):
        covered, reach = 0.0, start
        for lo, hi in sorted((spans[c][1], spans[c][2]) for c in children.get(i, ())):
            lo, hi = max(lo, reach), min(hi, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((end - start) - covered)
    return out


class Tracer:
    def __init__(self) -> None:
        self.spans: List[List] = []  # [name, start, end, parent, op]
        self.counts: Dict[str, int] = {}
        self.op = -1
        self._stack: List[int] = []
        self._generators: set = set()  # span names counted per call, not per span
        self._patches: List[Tuple[object, str, object]] = []

    # -- wrappers ------------------------------------------------------

    def _span(self, name: str, fn: Callable, name_of: Callable = None) -> Callable:
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(spans)
            label = name_of(args) if name_of else name
            spans.append([label, clock(), 0.0, stack[-1] if stack else -1, self.op])
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = clock()

        wrapper.__wrapped__ = fn
        return wrapper

    def _generator(self, name: str, fn: Callable) -> Callable:
        spans, stack, clock, counts = self.spans, self._stack, time.perf_counter, self.counts
        counts.setdefault(name, 0)
        self._generators.add(name)

        def resume(gen):
            try:
                while True:
                    idx = len(spans)
                    spans.append([name, clock(), 0.0, stack[-1] if stack else -1, self.op])
                    stack.append(idx)
                    try:
                        item = next(gen)
                    except StopIteration:
                        return
                    finally:
                        stack.pop()
                        spans[idx][2] = clock()
                    yield item
            finally:
                gen.close()

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return resume(fn(*args, **kwargs))

        wrapper.__wrapped__ = fn
        return wrapper

    def _counter(self, name: str, fn: Callable) -> Callable:
        counts = self.counts
        counts.setdefault(name, 0)

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- install / uninstall -------------------------------------------

    def _set(self, owner: object, attr: str, value: object) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        modules = {m: importlib.import_module(f"torusquot.{m}") for m in LAYERS}
        wrapped: Dict[int, object] = {}
        for layer, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or isinstance(obj, type) or not callable(obj):
                    continue
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                name = f"{layer}.{attr}"
                if name in COUNT_ONLY:
                    wrapped[id(obj)] = self._counter(name, obj)
                elif inspect.isgeneratorfunction(obj):
                    wrapped[id(obj)] = self._generator(name, obj)
                else:
                    wrapped[id(obj)] = self._span(name, obj, NAMED_BY_ARG.get(name))
        loaded = [
            m for key, m in list(sys.modules.items())
            if m is not None and (key == "torusquot" or key.startswith("torusquot."))
        ]
        for mod in loaded:
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrapped:
                    self._set(mod, attr, wrapped[id(obj)])
        cls = modules["ratfunc"].RationalFunction
        for meth in ARITH_METHODS:
            self._set(cls, meth, self._counter("ratfunc.arith", vars(cls)[meth]))
        for meth in SPAN_METHODS:
            self._set(cls, meth, self._span(f"ratfunc.{meth}", vars(cls)[meth]))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- results -------------------------------------------------------

    def summary(self) -> Dict[str, float]:
        """``<fn>.calls`` and ``<fn>.self_s`` per wrapped function, plus
        ``<layer>.calls`` and ``<layer>.self_s`` per module.  A generator
        function's resumptions add to its self time, not to its calls."""
        out: Dict[str, float] = {}

        def add(key: str, value: float) -> None:
            out[key] = out.get(key, 0) + value

        for span, own in zip(self.spans, self_times(self.spans)):
            layer = span[0].split(".", 1)[0]
            if span[0] not in self._generators:
                add(f"{span[0]}.calls", 1)
                add(f"{layer}.calls", 1)
            add(f"{span[0]}.self_s", own)
            add(f"{layer}.self_s", own)
        for name, count in self.counts.items():
            add(f"{name}.calls", count)
            add(f"{name.split('.', 1)[0]}.calls", count)
        return out

    def write_spans(self, path: str) -> None:
        """One JSON array per span and line: name, start, end, parent, op."""
        with open(path, "w") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps([name, start, end, parent, op]) + "\n")
