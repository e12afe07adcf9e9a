"""Span tracing of the `sdfem` layers, recorded from outside the package.

`traced(tracer)` swaps the names that `sdfem.harness` and `sdfem.cli` call
through for wrappers that record one span per call, and puts the originals
back on exit. Span names are `<module>.<function>`; the module is the layer.
Spans stay in memory; the runner writes them out when the run ends.
"""
from __future__ import annotations

import functools
import time
from contextlib import contextmanager
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None   # index of the enclosing span
    case: int | None = None     # id of the enclosing run_single call
    attrs: dict = field(default_factory=dict)


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[int] = []
        self._cases = 0

    def wrap(self, name, fn, attrs=None, new_case=False):
        """fn, recording a span per call; attrs(result) adds span attributes."""
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = self._open[-1] if self._open else None
            if new_case:
                case = self._cases
                self._cases += 1
            else:
                case = self.spans[parent].case if parent is not None else None
            idx = len(self.spans)
            span = Span(name, clock(), parent=parent, case=case)
            self.spans.append(span)
            self._open.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = clock()
                self._open.pop()
            if attrs is not None:
                span.attrs.update(attrs(result))
            return result

        return wrapper

    def self_times(self) -> list[float]:
        """Per span: its duration minus the time its child spans cover."""
        own = [s.end - s.start for s in self.spans]
        for s in self.spans:
            if s.parent is not None:
                own[s.parent] -= s.end - s.start
        return own


def _system_attrs(system):
    return {"ndofs": system.matrix.shape[0], "nnz": system.matrix.nnz}


def _solve_attrs(result):
    stats = result[1]
    return {"iterations": int(stats.iterations), "residual": float(stats.residual),
            "converged": bool(stats.converged)}


def _grid_attrs(grid):
    return {"points": grid.abs_error.size}


@contextmanager
def traced(tracer: Tracer):
    """Route the calls of `sdfem.cli.main` through span-recording wrappers."""
    from sdfem import analysis, cli, harness

    w = tracer.wrap

    class ErrorComputation(analysis.ErrorComputation):
        __init__ = w("analysis.error_computation", analysis.ErrorComputation.__init__)
        report = w("analysis.report", analysis.ErrorComputation.report)

    class DiscreteFunction(analysis.DiscreteFunction):
        from_dof_vector = classmethod(w(
            "analysis.from_dof_vector", analysis.DiscreteFunction.from_dof_vector.__func__))

    wrapped = {
        "main": w("cli.main", cli.main),
        "build_case": w("mesh.build_case", harness.build_case),
        "assemble_system": w("discretization.assemble_system", harness.assemble_system,
                             _system_attrs),
        "solve": w("solver.solve", harness.solve, _solve_attrs),
        "DiscreteFunction": DiscreteFunction,
        "ErrorComputation": ErrorComputation,
        "pointwise_error_grid": w("analysis.pointwise_error_grid",
                                  harness.pointwise_error_grid, _grid_attrs),
        "run_single": w("harness.run_single", harness.run_single, new_case=True),
        "run_experiment": w("harness.run_experiment", harness.run_experiment),
        "emit_table": w("harness.emit_table", harness.emit_table),
        "emit_error_grid": w("harness.emit_error_grid", harness.emit_error_grid),
    }
    saved = []
    for module in (harness, cli):
        for name, fn in wrapped.items():
            if hasattr(module, name):
                saved.append((module, name, getattr(module, name)))
                setattr(module, name, fn)
    try:
        yield tracer
    finally:
        for module, name, fn in reversed(saved):
            setattr(module, name, fn)


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """The per-layer metrics of one traced pass."""
    own = tracer.self_times()
    by_name: dict[str, list[int]] = {}
    for i, s in enumerate(tracer.spans):
        by_name.setdefault(s.name, []).append(i)

    def self_s(*names):
        return sum(own[i] for n in names for i in by_name.get(n, ()))

    def calls(name):
        return len(by_name.get(name, ()))

    def attr(name, key):
        return [tracer.spans[i].attrs[key] for i in by_name.get(name, ())]

    harness_names = [n for n in by_name if n.startswith("harness.")]
    return {
        "mesh.build_s": self_s("mesh.build_case"),
        "mesh.calls": calls("mesh.build_case"),
        "discretization.assemble_s": self_s("discretization.assemble_system"),
        "discretization.calls": calls("discretization.assemble_system"),
        "discretization.ndofs": sum(attr("discretization.assemble_system", "ndofs")),
        "discretization.nnz": sum(attr("discretization.assemble_system", "nnz")),
        "solver.solve_s": self_s("solver.solve"),
        "solver.calls": calls("solver.solve"),
        "solver.iterations": sum(attr("solver.solve", "iterations")),
        "solver.unconverged": sum(not c for c in attr("solver.solve", "converged")),
        "solver.residual_max": max(attr("solver.solve", "residual"), default=0.0),
        "analysis.error_s": self_s("analysis.from_dof_vector", "analysis.error_computation"),
        "analysis.report_s": self_s("analysis.report"),
        "analysis.report_calls": calls("analysis.report"),
        "analysis.grid_s": self_s("analysis.pointwise_error_grid"),
        "analysis.grid_points": sum(attr("analysis.pointwise_error_grid", "points")),
        "harness.self_s": self_s(*harness_names),
        "harness.cases": calls("harness.run_single"),
        "cli.self_s": self_s("cli.main"),
    }

