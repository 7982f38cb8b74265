"""Span tracing from outside the package.

The tracer wraps, in each ``qsslsvm`` module, every public function that
the module imported from another ``qsslsvm`` module (for example
``qsslsvm.pipeline.glmr_step`` and ``qsslsvm.channels.partial_trace``),
plus ``numpy.linalg.eigh``/``eigvalsh`` and the entry points the benchmark
calls.  A span is named after the layer that defines the function
(``channels.glmr_step``, ``linalg.eig``), so calls within one module are
part of that function's self time.  Nothing under ``src/`` changes: the
wrappers are installed around a traced operation and removed after it.

Spans are kept in memory as ``(op, span, parent, name, start_ns, end_ns)``
and written out when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import pkgutil
import time
import types
from collections import defaultdict

EIG_SPAN = "linalg.eig"


def _layer(module_name: str) -> str:
    return module_name.rsplit(".", 1)[-1]


class Tracer:
    def __init__(self, package, entry_points: list[tuple[str, str]], result_counters: dict):
        """``entry_points`` are ``(module, attribute)`` pairs the benchmark
        calls directly; ``result_counters`` maps a span name to a function
        that turns the call's return value into named counts."""
        self.spans: list[tuple] = []
        self.counts: list[tuple[int, str, float]] = []
        self._result_counters = result_counters
        self._stack: list[int] = []
        self._op = -1
        self._patches = self._plan(package, entry_points)

    def _plan(self, package, entry_points):
        """(owner, attribute, original, wrapper) for every traced call site."""
        modules = [package] + [
            importlib.import_module(f"{package.__name__}.{info.name}")
            for info in pkgutil.iter_modules(package.__path__)
        ]
        wrappers: dict[int, types.FunctionType] = {}
        patches = []

        def add(owner, attr, fn, name):
            if id(fn) not in wrappers:
                wrappers[id(fn)] = self._wrap(name, fn)
            patches.append((owner, attr, fn, wrappers[id(fn)]))

        for module in modules:
            for attr, obj in list(vars(module).items()):
                if (isinstance(obj, types.FunctionType) and not attr.startswith("_")
                        and obj.__module__.startswith(package.__name__ + ".")
                        and obj.__module__ != module.__name__):
                    add(module, attr, obj, f"{_layer(obj.__module__)}.{obj.__name__}")
        for module_name, attr in entry_points:
            module = importlib.import_module(module_name)
            add(module, attr, getattr(module, attr), f"{_layer(module_name)}.{attr}")
        import numpy.linalg

        for attr in ("eigh", "eigvalsh"):
            add(numpy.linalg, attr, getattr(numpy.linalg, attr), EIG_SPAN)
        return patches

    def _wrap(self, name: str, fn):
        counter = self._result_counters.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.span(name, fn, args, kwargs, counter)

        return traced

    def span(self, name, fn, args=(), kwargs=None, counter=None):
        """Call ``fn`` inside a span that is a child of the innermost open one."""
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(None)
        self._stack.append(sid)
        start = time.perf_counter_ns()
        try:
            result = fn(*args, **(kwargs or {}))
        finally:
            end = time.perf_counter_ns()
            self._stack.pop()
            self.spans[sid] = (self._op, sid, parent, name, start, end)
        if counter is not None:
            for key, value in counter(result).items():
                self.counts.append((self._op, f"{name}.{key}", float(value)))
        return result

    def run_op(self, op_id: int, root: str, fn):
        """Run one operation traced: wrappers installed, one root span."""
        self._op = op_id
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)
        try:
            return self.span(root, fn)
        finally:
            for owner, attr, original, _ in self._patches:
                setattr(owner, attr, original)
            self._op = -1

    def _child_ns(self) -> dict[int, int]:
        """Summed duration of each span's direct children.  Spans are
        strictly nested because the benchmark is single-threaded."""
        child_ns: dict[int, int] = defaultdict(int)
        for _, _, parent, _, start, end in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        return child_ns

    def per_op(self) -> dict[int, dict[str, dict[str, float]]]:
        """{op: {span name: {"self_s", "calls", counters...}}}; self time is
        a span's duration minus its children's."""
        child_ns = self._child_ns()
        out: dict[int, dict[str, dict[str, float]]] = defaultdict(
            lambda: defaultdict(lambda: defaultdict(float)))
        for op, sid, _, name, start, end in self.spans:
            rec = out[op][name]
            rec["self_s"] += (end - start - child_ns[sid]) * 1e-9
            rec["calls"] += 1
        for op, key, value in self.counts:
            name, _, field = key.rpartition(".")
            out[op][name][field] += value
        return out

    def self_sum_error_ns(self, root: str) -> int:
        """Largest |sum of an operation's self times - its root span's
        duration| over operations; 0 when the spans account for all time."""
        child_ns = self._child_ns()
        self_sum: dict[int, int] = defaultdict(int)
        root_ns: dict[int, int] = {}
        for op, sid, parent, name, start, end in self.spans:
            self_sum[op] += end - start - child_ns[sid]
            if parent < 0 and name == root:
                root_ns[op] = end - start
        return max((abs(self_sum[op] - root_ns[op]) for op in root_ns), default=0)
