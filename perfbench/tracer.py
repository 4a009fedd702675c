"""Span tracing of g2glue's public functions, installed from outside.

``install`` wraps each function named in ``TRACED`` by rebinding every
reference to it in the loaded ``g2glue.*`` module namespaces (``cli`` and
``gluing`` import names directly, so the module that defines a function is
not the only one holding it).  ``ConstForm`` methods are wrapped on the
class.  No source file of the package changes.

Each call records a span: name, start, end, parent span, op id, thread.
Parents come from thread-local stacks.  A span that opens on a thread whose
stack is empty (a ``glue-sweep`` row on the CLI's pool) takes as parent the
innermost open span of the thread that opened the op.  Spans stay in memory
until the caller writes them out.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import sys
import threading
import time
from dataclasses import asdict, dataclass


def _rows(arr, keep: int) -> int:
    """Number of rows of a batch whose trailing ``keep`` axes are one item."""
    return math.prod(arr.shape[:-keep])


# Functions traced per module, with an optional measure taken on each call:
# a callable result -> count, recorded as the span's ``n``.
TRACED = {
    "forms": {
        "metric_batch": lambda r: _rows(r, 2),
        "star3_batch": lambda r: _rows(r, 1),
        "gram_batch": lambda r: _rows(r, 2),
        "hodge_star": None,
        "gram_from_3form": None,
        "metric_from_3form": None,
        "ConstForm.pullback": None,
        "ConstForm.wedge": None,
    },
    "fields": {
        "exterior_d": None,
        "sample_physical": None,
        "spectral_from_samples": None,
        "norm_l2": None,
        "norm_sup": None,
    },
    "gluing": {
        "glue_fields": None,
        "integral_to_infinity": None,
        "torsion_residual": None,
        "torsion_reduce": lambda r: int(r[1].converged),
        "induced_4form": None,
    },
    "cohomology": {
        "synth_diagram": None,
        "diagram_from_json": None,
        "validate_diagram": None,
        "validate_C": None,
        "singular_levels": None,
        "gluing_matrix": None,
        "subspaces": None,
        "derivative_model": None,
    },
    "cli": {
        "main": None,
    },
}


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    op: int | None
    thread: int
    n: int | None = None


class Tracer:
    """Collects spans; ``op`` marks the span tree of one benchmark op."""

    def __init__(self):
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._op: int | None = None
        self._op_stack: list[int] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin_op(self, op: int) -> None:
        self._op = op
        self._op_stack = self._stack()

    def end_op(self) -> None:
        self._op = None
        self._op_stack = []

    def call(self, name: str, fn, measure, args, kwargs):
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            parent = self._op_stack[-1] if self._op_stack else None
        sid = next(self._ids)
        stack.append(sid)
        n = None
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
            if measure is not None:
                n = measure(result)
            return result
        except Exception:
            if measure is not None:
                n = 0
            raise
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append(Span(sid, name, start, end, parent, self._op,
                                   threading.get_ident(), n))

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(asdict(span), sort_keys=True) + "\n")


def _wrap(tracer: Tracer, name: str, fn, measure):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        return tracer.call(name, fn, measure, args, kwargs)
    return traced


def install(tracer: Tracer):
    """Wrap every function in TRACED; return a callable that undoes it."""
    namespaces = [mod for key, mod in sorted(sys.modules.items())
                  if mod is not None
                  and (key == "g2glue" or key.startswith("g2glue."))]
    undo = []
    for module, functions in TRACED.items():
        home = sys.modules[f"g2glue.{module}"]
        for qualname, measure in functions.items():
            name = f"{module}.{qualname}"
            if "." in qualname:
                cls_name, attr = qualname.split(".")
                cls = getattr(home, cls_name)
                original = cls.__dict__[attr]
                setattr(cls, attr, _wrap(tracer, name, original, measure))
                undo.append((cls, attr, original))
                continue
            original = getattr(home, qualname)
            wrapper = _wrap(tracer, name, original, measure)
            for ns in namespaces:
                for key, value in list(vars(ns).items()):
                    if value is original:
                        setattr(ns, key, wrapper)
                        undo.append((ns, key, original))

    def uninstall():
        for owner, key, original in reversed(undo):
            setattr(owner, key, original)
    return uninstall


# -- aggregation -----------------------------------------------------------

def covered(intervals, lo: float, hi: float) -> float:
    """Length of [lo, hi] covered by the union of the given intervals."""
    total = 0.0
    reach = lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans) -> dict[int, float]:
    """Span id -> duration minus the part of it its child spans cover.

    Children may run on other threads and overlap one another; the union
    of their intervals is subtracted once.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    return {s.id: (s.end - s.start)
            - covered(children.get(s.id, ()), s.start, s.end)
            for s in spans}


def unit(name: str) -> str:
    """Unit of a per-layer metric, from its last name component."""
    return {"s": "s", "self_s": "s", "us_per_row": "us",
            "converged_frac": "fraction"}.get(name.rsplit(".", 1)[1], "count")


def layer_metrics(spans, ops: int) -> dict[str, float]:
    """Per-layer metrics, each per op over ``ops`` traced ops.

    ``calls`` counts spans; ``s`` is busy time, summing only the outermost
    span where a function nests inside itself; ``rows`` and ``samples``
    count batch rows.  Ratios are defined in the benchmark's README.
    """
    by_id = {s.id: s for s in spans}

    def ancestors(s):
        while s.parent is not None:
            s = by_id[s.parent]
            yield s

    calls: dict[str, int] = {}
    busy: dict[str, float] = {}
    rows: dict[str, int] = {}
    for s in spans:
        calls[s.name] = calls.get(s.name, 0) + 1
        if all(a.name != s.name for a in ancestors(s)):
            busy[s.name] = busy.get(s.name, 0.0) + (s.end - s.start)
        if s.n is not None:
            rows[s.name] = rows.get(s.name, 0) + s.n

    reduce_calls = calls.get("gluing.torsion_reduce", 0)
    residuals_in_reduce = 0
    induced_in_reduce = 0
    samples = 0
    gluing_lengths = calls.get("cohomology.gluing_matrix", 0)
    for s in spans:
        names = {a.name for a in ancestors(s)}
        if "gluing.torsion_reduce" in names:
            residuals_in_reduce += s.name == "gluing.torsion_residual"
            induced_in_reduce += s.name == "gluing.induced_4form"
        if s.name == "forms.metric_batch" and "gluing.induced_4form" in names:
            samples += s.n or 0
    # Per torsion_reduce call: one residual before the loop, one per step;
    # induced_4form once before the loop, then per step.
    steps = residuals_in_reduce - reduce_calls

    def ratio(num, den):
        return num / den if den else 0.0

    out = {}
    for module, functions in TRACED.items():
        for qualname in functions:
            name = f"{module}.{qualname}"
            out[f"{name}.calls"] = ratio(calls.get(name, 0), ops)
            out[f"{name}.s"] = ratio(busy.get(name, 0.0), ops)
    for name in ("forms.metric_batch", "forms.star3_batch",
                 "forms.gram_batch"):
        out[f"{name}.rows"] = ratio(rows.get(name, 0), ops)
    for name in ("forms.metric_batch", "forms.star3_batch"):
        out[f"{name}.us_per_row"] = 1e6 * ratio(busy.get(name, 0.0),
                                                rows.get(name, 0))
    out["gluing.induced_4form.samples"] = ratio(samples, ops)
    out["gluing.torsion_reduce.steps"] = ratio(steps, reduce_calls)
    out["gluing.torsion_reduce.converged_frac"] = ratio(
        rows.get("gluing.torsion_reduce", 0), reduce_calls)
    out["gluing.induced_4form.calls_per_step"] = ratio(
        induced_in_reduce - reduce_calls, steps)
    out["cohomology.subspaces.calls_per_length"] = ratio(
        calls.get("cohomology.subspaces", 0), gluing_lengths)
    selfs = self_times(spans)
    out["cli.main.self_s"] = ratio(
        sum(selfs[s.id] for s in spans if s.name == "cli.main"), ops)
    return out
