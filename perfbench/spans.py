"""Spans around the benchmark's own calls into weakcr, kept in memory.

``Api`` exposes each weakcr module through a ``Layer``.  With tracing off a
layer hands back the module's function itself, so untraced runs pay one
attribute lookup per call.  With tracing on every call becomes a child span
of the current operation.  Calls are wrapped only where the benchmark makes
them, so work a function does inside another weakcr module is charged to the
module the benchmark called.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict

perf_counter = time.perf_counter


class Tracer:
    def __init__(self):
        self.enabled = False
        self.spans = []  # (span_id, parent_id, op_id, name, start, end)
        self.counters = defaultdict(float)
        self._parent = None
        self._op = None

    def begin_op(self, op_id, name):
        self._op = op_id
        self._parent = len(self.spans)
        self.spans.append([self._parent, None, op_id, name, perf_counter(), None])

    def end_op(self):
        self.spans[self._parent][5] = perf_counter()
        self._parent = None
        self._op = None

    def record(self, name, start, end):
        self.spans.append([len(self.spans), self._parent, self._op, name, start, end])

    def count(self, name, value=1):
        if self.enabled:
            self.counters[name] += value

    def write(self, path):
        with open(path, "w") as fh:
            for sid, parent, op, name, start, end in self.spans:
                fh.write(json.dumps({"id": sid, "parent": parent, "op": op, "name": name,
                                     "start": start, "end": end}) + "\n")


class Layer:
    """One weakcr module; attribute access yields its (possibly timed) functions."""

    def __init__(self, tracer, name, module, aliases=None):
        self._tracer = tracer
        self._name = name
        self._module = module
        self._aliases = aliases or {}

    def __getattr__(self, fname):
        fn = self._aliases.get(fname) or getattr(self._module, fname)
        tracer = self._tracer
        if not tracer.enabled:
            return fn
        span = f"{self._name}.{fname}"

        def timed(*args, **kwargs):
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.record(span, start, perf_counter())

        return timed


class Api:
    """The weakcr modules the workloads call, one ``Layer`` each."""

    MODULES = ("algebra", "expr", "fock", "ladder", "uncertainty", "weights", "cli")

    def __init__(self, tracer):
        from weakcr import algebra, cli, expr, fock, ladder, uncertainty, weights

        self.tracer = tracer
        self.algebra = Layer(tracer, "algebra", algebra)
        self.expr = Layer(tracer, "expr", expr)
        self.fock = Layer(tracer, "fock", fock)
        self.ladder = Layer(tracer, "ladder", ladder)
        self.uncertainty = Layer(tracer, "uncertainty", uncertainty)
        self.weights = Layer(tracer, "weights", weights,
                             aliases={"moment_table": weights.MomentTable.build})
        self.cli = Layer(tracer, "cli", cli)


def self_times(spans, ops=None):
    """Busy time per span name, with each op span charged only its own time.

    Wrapped calls never nest inside each other, so a child span's self time
    is its duration and an op's self time is its duration minus its children.
    ``ops`` restricts the sum to spans of those op ids.
    """
    busy = defaultdict(float)
    child = defaultdict(float)
    for sid, parent, op, name, start, end in spans:
        if ops is not None and op not in ops:
            continue
        if parent is not None:
            busy[name] += end - start
            child[parent] += end - start
    for sid, parent, op, name, start, end in spans:
        if parent is None and (ops is None or op in ops):
            busy["bench"] += (end - start) - child[sid]
    return dict(busy)


def module_totals(busy):
    """Sum ``self_times`` per module, the part of a span name before the dot."""
    out = defaultdict(float)
    for name, seconds in busy.items():
        out[name.split(".")[0]] += seconds
    return dict(out)
