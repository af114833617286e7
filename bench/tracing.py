"""Timing spans around the public functions of each ``lpline`` module.

``Tracer.install`` replaces every binding of a traced function, in every
loaded ``lpline`` module (so ``lpline.numeric._as_xy`` and
``lpline.exact._as_xy`` are both wrapped), and ``Tracer.remove`` puts the
originals back.  A span records its name, start, end, parent span, the op it
belongs to and the thread it ran on.  The parent is kept per thread; calls
that ``parallel_map`` hands to its pool threads inherit the map's span, so
their spans keep their parent.  Spans stay in memory until ``write``.
"""

from __future__ import annotations

import json
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field


@dataclass
class Span:
    sid: int
    parent: int | None
    op: int | None
    name: str
    start: float
    end: float
    thread: int
    counts: dict = field(default_factory=dict)


class _ScanEvals:
    """Evaluations the scan adds to the solver's counter (its fifth argument)."""

    @staticmethod
    def before(args):
        return args[4].n

    @staticmethod
    def after(args, result, before):
        return {"evals": args[4].n - before}


def _minimize_counts(args, result, before):
    opt = result.optimal
    return {"evaluations": result.evaluations, "lines": len(opt.lines),
            "degenerate": int(bool(opt.degenerate))}


def _pairs_counts(args, result, before):
    m = len(args[0])
    return {"pairs": m * (m - 1) // 2}


def _suite_counts(args, result, before):
    return {"checks": len(result.checks), "failed": len(result.failed),
            "inconclusive": len(result.inconclusive)}


# (module, function, span name, counts): ``counts`` maps (args, result, before)
# to the span's counts; an object with ``before(args)`` and ``after(...)``
# also reads state before the call.
TARGETS = [
    ("geometry", "_as_xy", "geometry.as_xy", None),
    ("geometry", "lp_objective", "geometry.lp_objective", None),
    ("geometry", "first_order_residual", "geometry.first_order_residual", None),
    ("numeric", "golden_section", "numeric.golden_section", None),
    ("numeric", "best_offset_for_direction", "numeric.best_offset", None),
    ("numeric", "objective_gradient", "numeric.objective_gradient", None),
    ("numeric", "_scan_values", "numeric.scan", _ScanEvals),
    ("numeric", "minimize", "numeric.minimize", _minimize_counts),
    ("exact", "solve_p1", "exact.solve_p1", _pairs_counts),
    ("exact", "solve_p2", "exact.solve_p2", None),
    ("exact", "solve_pinf", "exact.solve_pinf", _pairs_counts),
    ("triangle", "stationarity_gap", "triangle.stationarity_gap", None),
    ("triangle", "triangle_optimal_set", "triangle.optimal_set", None),
    ("verification", "run_verification_suite", "verification.suite", _suite_counts),
    ("fileio", "triangle_sweep", "fileio.triangle_sweep",
     lambda a, r, b: {"rows": len(r)}),
    ("fileio", "locate_transitions", "fileio.locate_transitions", None),
    ("fileio", "write_sweep_csv", "fileio.write_sweep_csv", None),
    ("svgfig", "render_triangle_figure", "svgfig.render",
     lambda a, r, b: {"bytes": len(r.encode())}),
    ("cli", "main", "cli.main", lambda a, r, b: {"nonzero": int(r != 0)}),
]


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.op: int | None = None
        self._lock = threading.Lock()
        self._next_id = 0
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []

    # --- recording -----------------------------------------------------

    def _stack(self) -> list[tuple[int, int | None]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _new_id(self) -> int:
        with self._lock:
            self._next_id += 1
            return self._next_id

    def _wrap(self, fn, name, counts):
        tracer = self
        pre = getattr(counts, "before", None)
        post = getattr(counts, "after", counts)

        def traced(*args, **kwargs):
            stack = tracer._stack()
            parent, op = stack[-1] if stack else (None, tracer.op)
            sid = tracer._new_id()
            before = pre(args) if pre is not None else None
            stack.append((sid, op))
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
            span = Span(sid, parent, op, name, start, end, threading.get_ident())
            if post is not None:
                span.counts = post(args, result, before)
            with tracer._lock:
                tracer.spans.append(span)
            return result

        traced.__wrapped__ = fn
        return traced

    def _wrap_parallel_map(self, fn, thread_count):
        tracer = self

        def traced(work, items):
            items = list(items)
            stack = tracer._stack()
            parent, op = stack[-1] if stack else (None, tracer.op)
            sid = tracer._new_id()

            def in_pool(item):
                # pool threads start with an empty stack: hand them this span
                local = tracer._stack()
                saved = local[:]
                local[:] = [(sid, op)]
                try:
                    return work(item)
                finally:
                    local[:] = saved

            stack.append((sid, op))
            start = time.perf_counter()
            try:
                result = fn(in_pool, items)
            finally:
                end = time.perf_counter()
                stack.pop()
            workers = min(thread_count(), max(len(items), 1))
            span = Span(sid, parent, op, "parallel.map", start, end, threading.get_ident(),
                        {"items": len(items), "workers": workers})
            with tracer._lock:
                tracer.spans.append(span)
            return result

        traced.__wrapped__ = fn
        return traced

    # --- installing ----------------------------------------------------

    def install(self) -> None:
        from lpline import _parallel

        wrappers = {}
        for module_name, attr, name, counts in TARGETS:
            fn = getattr(sys.modules[f"lpline.{module_name}"], attr)
            wrappers[id(fn)] = (fn, self._wrap(fn, name, counts))
        fn = _parallel.parallel_map
        wrappers[id(fn)] = (fn, self._wrap_parallel_map(fn, _parallel.thread_count))
        modules = [m for key, m in sys.modules.items()
                   if key == "lpline" or key.startswith("lpline.")]
        for module in modules:
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patches.append((module, attr, value))
                    setattr(module, attr, hit[1])

    def remove(self) -> None:
        for module, attr, value in reversed(self._patches):
            setattr(module, attr, value)
        self._patches.clear()

    # --- results -------------------------------------------------------

    def write(self, path) -> None:
        with open(path, "w") as out:
            for s in sorted(self.spans, key=lambda s: s.start):
                out.write(json.dumps({"id": s.sid, "parent": s.parent, "op": s.op,
                                      "name": s.name, "start": s.start, "end": s.end,
                                      "thread": s.thread, **s.counts}) + "\n")

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive seconds, self seconds and summed counts.

        Self time is a span's duration minus the part of it that its child
        spans cover (children on pool threads may overlap each other).
        """
        children = defaultdict(list)
        for s in self.spans:
            if s.parent is not None:
                children[s.parent].append((s.start, s.end))
        out: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        for s in self.spans:
            entry = out[s.name]
            entry["calls"] += 1
            entry["s"] += s.end - s.start
            entry["self_s"] += (s.end - s.start) - _covered(children.get(s.sid, []), s.start, s.end)
            for key, value in s.counts.items():
                if key == "workers":
                    entry[key] = max(entry[key], value)
                else:
                    entry[key] += value
        return out


def _covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total, reach = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, reach), min(b, hi)
        if b > a:
            total += b - a
            reach = b
    return total
