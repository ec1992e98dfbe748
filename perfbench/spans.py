"""Span tracer that wraps hmfem's public functions from outside the package.

A wrapper is installed on the module attribute the *caller* looks the name
up in (``hmfem.solvers.assemble_S``, not ``hmfem.assembly.assemble_S``),
because ``from .assembly import assemble_S`` binds the name at import time
and patching the defining module would miss every call.

Spans carry a name, start, end and parent id, and stay in memory until the
repetition ends.  Work the tracer itself does inside a span (reading the
fill of an LU factorization) is recorded as a ``trace.bookkeeping`` child,
so it is excluded from its parent's self time and reported on its own.
"""

from __future__ import annotations

import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

_clock = time.perf_counter


@dataclass
class Span:
    sid: int
    name: str
    parent: int | None
    start: float
    end: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans for one traced repetition; install/uninstall around it."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _open(self, name: str) -> Span:
        parent = self._stack[-1] if self._stack else None
        span = Span(len(self.spans), name, parent, _clock())
        self.spans.append(span)
        self._stack.append(span.sid)
        return span

    def _close(self, span: Span) -> None:
        span.end = _clock()
        self._stack.pop()

    @contextmanager
    def span(self, name: str, **attrs):
        s = self._open(name)
        s.attrs.update(attrs)
        try:
            yield s
        finally:
            self._close(s)

    def _bookkeeping(self, t0: float) -> None:
        """Record tracer work done since ``t0`` as a child of the open span."""
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(len(self.spans), "trace.bookkeeping", parent, t0, _clock()))

    def wrap(self, owner, attr: str, name: str, after=None) -> None:
        """Replace ``owner.attr`` by a spanning wrapper.

        ``after(span, args, result)`` runs once the span has closed; its time
        is booked as tracer bookkeeping.
        """
        original = getattr(owner, attr)
        tracer = self

        def wrapper(*args, **kwargs):
            s = tracer._open(name)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer._close(s)
            if after is not None:
                t0 = _clock()
                after(s, args, result)
                tracer._bookkeeping(t0)
            return result

        wrapper.__wrapped__ = original
        self._patched.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def install(self) -> None:
        import hmfem.cli
        import hmfem.integrate
        import hmfem.solvers
        import hmfem.sparse

        def record_fill(span, args, _result):
            lu = args[0]._lu  # SparseLu.__init__(self, A): args[0] is self
            span.attrs["fill_nnz"] = int(lu.L.nnz + lu.U.nnz)

        def record_report(span, _args, result):
            _state, report = result
            span.attrs["iterations"] = report.iterations
            span.attrs["wall_time"] = report.wall_time

        self.wrap(hmfem.solvers, "assemble_S", "assembly.S")
        self.wrap(hmfem.solvers, "assemble_B", "assembly.B")
        self.wrap(hmfem.sparse.SparseLu, "__init__", "sparse.factor", after=record_fill)
        self.wrap(hmfem.sparse.SparseLu, "solve", "sparse.solve")
        self.wrap(hmfem.integrate, "step", "solvers.step", after=record_report)
        for mod in (hmfem.integrate, hmfem.cli):
            self.wrap(mod, "build_grid", "grid.build_grid")
        self.wrap(hmfem.integrate, "assemble_operators", "assembly.operators")
        self.wrap(hmfem.integrate, "sample_nodes", "problems.sample_nodes")
        self.wrap(hmfem.integrate, "init_w0", "integrate.init_w0")
        self.wrap(hmfem.cli, "run", "integrate.run")
        self.wrap(hmfem.cli, "emit_snapshot", "cli.emit_snapshot")
        self.wrap(hmfem.cli, "emit_convergence_log", "cli.emit_log")

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)


#: Span name -> the per-layer metric that reports its self time.  Together
#: with ``other_s`` these partition the traced run time.
SELF_TIME_METRICS = {
    "grid.build_grid": "grid.build_grid_s",
    "assembly.operators": "assembly.operators_s",
    "problems.sample_nodes": "problems.sample_nodes_s",
    "integrate.init_w0": "integrate.init_w0_s",
    "integrate.run": "integrate.loop_s",
    "solvers.step": "solvers.step_s",
    "assembly.S": "assembly.S_s",
    "assembly.B": "assembly.B_s",
    "sparse.factor": "sparse.factor_s",
    "sparse.solve": "sparse.solve_s",
    "cli.emit_snapshot": "cli.emit_snapshot_s",
    "cli.emit_log": "cli.emit_log_s",
    "trace.bookkeeping": "trace.bookkeeping_s",
}


def self_times(spans: list[Span]) -> dict[str, float]:
    """Sum of each span name's self time: duration minus its children's."""
    child_time = [0.0] * len(spans)
    for s in spans:
        if s.parent is not None:
            child_time[s.parent] += s.duration
    out: dict[str, float] = {}
    for s in spans:
        out[s.name] = out.get(s.name, 0.0) + s.duration - child_time[s.sid]
    return out


def _ratio(num: tuple[str, float], den: tuple[str, float]) -> dict:
    return {
        "value": num[1] / den[1] if den[1] else 0.0,
        "num": {num[0]: num[1]},
        "den": {den[0]: den[1]},
    }


def layer_metrics(spans: list[Span], elements: int) -> tuple[dict, dict, dict]:
    """Per-layer values of one traced repetition.

    Returns ``(values, ratios, by_method)``: metric name -> value, each ratio
    with its numerator and denominator, and the per-method iteration and
    factorization counts behind ``sparse.factor_per_iter``.  ``elements`` is
    the element count of the workload's grid, for the S throughput.
    """
    own = self_times(spans)
    values = {metric: own.get(name, 0.0) for name, metric in SELF_TIME_METRICS.items()}
    calls = Counter(s.name for s in spans)

    # Spans are appended when opened, so a parent always precedes its children.
    step_of: list[int | None] = []
    root_of: list[int] = []
    for s in spans:
        if s.parent is None:
            root_of.append(s.sid)
            step_of.append(None)
        else:
            root_of.append(root_of[s.parent])
            step_of.append(s.sid if s.name == "solvers.step" else step_of[s.parent])

    steps = [s for s in spans if s.name == "solvers.step"]
    iters = sum(s.attrs["iterations"] for s in steps)
    step_total = sum(s.duration for s in steps)
    audit = sum(s.duration - s.attrs["wall_time"] for s in steps)
    step_ms = [1e3 * s.duration for s in steps] or [0.0]
    factors = [s for s in spans if s.name == "sparse.factor"]
    step_factors = sum(1 for s in factors if step_of[s.sid] is not None)
    step_S = sum(1 for s in spans if s.name == "assembly.S" and step_of[s.sid] is not None)

    by_method: dict[str, dict] = {}
    for s in spans:
        method = spans[root_of[s.sid]].attrs.get("method")
        entry = by_method.setdefault(method, {"iters": 0, "step_factor_calls": 0})
        if s.name == "solvers.step":
            entry["iters"] += s.attrs["iterations"]
        elif s.name == "sparse.factor" and step_of[s.sid] is not None:
            entry["step_factor_calls"] += 1
    for entry in by_method.values():
        entry["factor_per_iter"] = entry["step_factor_calls"] / max(entry["iters"], 1)

    values.update(
        {
            "grid.build_grid_calls": calls["grid.build_grid"],
            "assembly.S_calls": calls["assembly.S"],
            "assembly.B_calls": calls["assembly.B"],
            "assembly.S_elems": calls["assembly.S"] * elements,
            "assembly.step_S_calls": step_S,
            "sparse.factor_calls": len(factors),
            "sparse.step_factor_calls": step_factors,
            "sparse.factor_fill_nnz": max((s.attrs["fill_nnz"] for s in factors), default=0),
            "sparse.solve_calls": calls["sparse.solve"],
            "solvers.steps": len(steps),
            "solvers.iters": iters,
            "solvers.step_total_s": step_total,
            "solvers.step_ms.p50": float(np.percentile(step_ms, 50)),
            "solvers.step_ms.p90": float(np.percentile(step_ms, 90)),
            "solvers.audit_s": audit,
            "cli.snapshot_calls": calls["cli.emit_snapshot"],
        }
    )
    ratios = {
        "assembly.S_elems_per_s": _ratio(
            ("assembly.S_elems", values["assembly.S_elems"]),
            ("assembly.S_s", values["assembly.S_s"]),
        ),
        "assembly.S_calls_per_iter": _ratio(
            ("assembly.step_S_calls", step_S), ("solvers.iters", iters)
        ),
        "sparse.factor_per_iter": _ratio(
            ("sparse.step_factor_calls", step_factors), ("solvers.iters", iters)
        ),
        "solvers.iters_per_step": _ratio(("solvers.iters", iters), ("solvers.steps", len(steps))),
        "solvers.audit_share": _ratio(
            ("solvers.audit_s", audit), ("solvers.step_total_s", step_total)
        ),
    }
    values.update({name: r["value"] for name, r in ratios.items()})
    return values, ratios, by_method
