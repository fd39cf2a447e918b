"""Per-layer tracing of mechpoly from outside the package.

Every public function defined in the traced modules (and the ``linprog``
that ``mechpoly.solver`` imports from scipy) is replaced by a wrapper in
every ``mechpoly.*`` namespace that refers to it.  Names imported by value
into other modules and local imports such as ``from .bic import
enumerate_vertices`` therefore all resolve to the wrapper.

A wrapper records one span (name, parent span, item, start, end) per call
while recording is on, in flat typed arrays, so a run with hundreds of
thousands of calls stays small in memory.  Self time is computed at the end:
a span's duration minus the durations of its direct children.  An exception
is counted once, under the innermost wrapped function it leaves.  A few
wrappers also count output-derived quantities (vertices returned, grid
points swept, continuation equilibria, report bytes).
"""

import functools
import importlib
import inspect
import os
import re
import sys
import time
from array import array
from collections import Counter

import numpy as np

TRACED_MODULES = ("game", "bic", "solver", "mechanisms", "cli")


RUNTIME_MS = re.compile(rb'"runtime_ms": [-+.0-9eE]+')


def _count_report(counters, args, kwargs, result):
    """Report size without the runtime_ms value, the one field that varies."""
    argv = list(args[0] if args else kwargs.get("argv") or [])
    path = argv[argv.index("--out") + 1] if "--out" in argv else None
    if path is not None and os.path.exists(path):
        with open(path, "rb") as fh:
            counters["cli.report_bytes"] += len(RUNTIME_MS.sub(b'"runtime_ms": ', fh.read()))


def _count_lp(counters, args, kwargs, result):
    prob = args[0] if args else kwargs["prob"]
    counters["solver.lp_rows"] += len(prob.relations)
    counters["solver.lp_cols"] += len(prob.c)


def _count_notion(counters, args, kwargs, result):
    counters["mechanisms.continuation_equilibria"] += sum(
        c["n_continuation_equilibria"] for c in result.checks)
    counters["mechanisms.deviation_checks"] += len(result.checks)
    counters["mechanisms.infeasible_subgames"] += len(result.infeasible)


def _count_rounds(counters, args, kwargs, result):
    counters["mechanisms.simulate.rounds"] += int(result["rounds"])


# Output-derived counters, keyed by the wrapped function they observe.
OBSERVERS = {
    "bic.enumerate_vertices":
        lambda c, a, k, r: c.update({"bic.vertices_out": len(r)}),
    "solver.solve_lp": _count_lp,
    "solver.minmax":
        lambda c, a, k, r: c.update({"solver.grid_points": r.info.get("n_points", 0)}),
    "solver.maxmin":
        lambda c, a, k, r: c.update(
            {"solver.vertex_products": r.info.get("n_vertex_products", 0)}),
    "mechanisms.check_equilibrium_notion": _count_notion,
    "mechanisms.simulate": _count_rounds,
    "cli.main": _count_report,
}


class Tracer:
    """Wraps mechpoly's public functions and records spans while recording."""

    def __init__(self):
        self.names = []
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_item = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stack = [-1]
        self.item = -1
        self.recording = False
        self.counters = Counter()
        self.errors = Counter()
        self.originals = {}   # id(original) -> wrapper
        self._keep = []

    def _wrap(self, name, fn):
        nid = len(self.names)
        self.names.append(name)
        observe = OBSERVERS.get(name)
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.recording:
                return fn(*args, **kwargs)
            idx = len(tracer.span_start)
            tracer.span_name.append(nid)
            tracer.span_parent.append(tracer.stack[-1])
            tracer.span_item.append(tracer.item)
            tracer.span_end.append(0.0)
            tracer.stack.append(idx)
            tracer.span_start.append(clock())
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                # counted once, by the innermost wrapper it passes through
                if not getattr(exc, "_perfbench_counted", False):
                    tracer.errors[f"{name}:{type(exc).__name__}"] += 1
                    exc._perfbench_counted = True
                raise
            finally:
                tracer.span_end[idx] = clock()
                tracer.stack.pop()
            if observe is not None:
                observe(tracer.counters, args, kwargs, result)
            return result

        self.originals[id(fn)] = wrapper
        return wrapper

    def install(self):
        """Wrap the traced functions and patch every mechpoly namespace.

        Returns the number of wrapped functions.  Raises RuntimeError when a
        namespace still holds an original afterwards (the coverage check).
        """
        keep = []   # originals stay alive so their ids cannot be reused
        for short in TRACED_MODULES:
            mod = importlib.import_module(f"mechpoly.{short}")
            for attr, obj in sorted(vars(mod).items()):
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not attr.startswith("_")):
                    self._wrap(f"{short}.{attr}", obj)
                    keep.append(obj)
        linprog = sys.modules["mechpoly.solver"].linprog
        self._wrap("solver.linprog", linprog)
        keep.append(linprog)
        for mod in self._namespaces():
            for attr, obj in list(vars(mod).items()):
                wrapper = self.originals.get(id(obj))
                if wrapper is not None:
                    setattr(mod, attr, wrapper)
        self._keep = keep
        left = self.unwrapped()
        if left:
            raise RuntimeError(f"original functions left unwrapped: {left}")
        return len(self.originals)

    def unwrapped(self):
        """(module, attribute) pairs that still refer to an original function."""
        ids = {id(fn) for fn in self._keep}
        return [(mod.__name__, attr) for mod in self._namespaces()
                for attr, obj in vars(mod).items() if id(obj) in ids]

    @staticmethod
    def _namespaces():
        return [mod for name, mod in sorted(sys.modules.items())
                if mod is not None and (name == "mechpoly" or name.startswith("mechpoly."))]

    def summary(self):
        """Per function: calls, total ms and self ms; plus the counters."""
        n = len(self.span_start)
        name = np.frombuffer(self.span_name, dtype=np.int32, count=n)
        parent = np.frombuffer(self.span_parent, dtype=np.int32, count=n)
        dur = (np.frombuffer(self.span_end, count=n)
               - np.frombuffer(self.span_start, count=n)) * 1000.0
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=n)
        own = dur - child
        k = len(self.names)
        calls = np.bincount(name, minlength=k)
        total = np.bincount(name, weights=dur, minlength=k)
        self_ms = np.bincount(name, weights=own, minlength=k)
        per_fn = {self.names[i]: {"calls": int(calls[i]), "ms": float(total[i]),
                                  "self_ms": float(self_ms[i])}
                  for i in range(k)}
        return per_fn, dict(self.counters), dict(self.errors)

    def save_spans(self, path):
        """Write the recorded spans as one compressed numpy archive."""
        n = len(self.span_start)
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.span_name, dtype=np.int32, count=n),
            parent=np.frombuffer(self.span_parent, dtype=np.int32, count=n),
            item=np.frombuffer(self.span_item, dtype=np.int32, count=n),
            start=np.frombuffer(self.span_start, count=n),
            end=np.frombuffer(self.span_end, count=n))
