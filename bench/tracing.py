"""Per-layer tracing from outside the program.

For the duration of one traced call, a Tracer replaces the functions one
vlcrf module calls in another (module attributes such as
``experiment.dca_solve``) with wrappers that record a span or bump a counter,
and it puts the originals back when the call returns.
A span holds its name, start, end, parent, the request (root span) it belongs
to and the solve (enclosing ``dc_solver.solve`` span) it belongs to.  Spans
stay in memory until ``write_spans`` is called at the end of the run.

Sub-layers inside dc_solver (projection, inner subproblem, one DCA step) have
no call boundary between modules; the counts dc_solver.outer_iterations,
link_budget.kernel_calls and dc_solver.slsqp_calls stand in for them.
"""

from __future__ import annotations

import json
import time
from collections import Counter
from contextlib import contextmanager

# (module, attribute, span name): one module's call into another layer
TIMED = (
    ("cli", "run_sweep", "experiment.run_sweep"),
    ("cli", "run_solve", "experiment.run_solve"),
    ("experiment", "generate_scenario", "scenario.generate"),
    ("experiment", "vlc_channel_gain", "vlc_channel.gain"),
    ("experiment", "sample_rician_gain", "rf_channel.fading"),
    ("experiment", "dl_rate_coefficients", "link_budget.coeffs"),
    ("experiment", "dl_sum_rate", "link_budget.row_metrics"),
    ("experiment", "clamped_secrecy_sum", "link_budget.row_metrics"),
    ("experiment", "secrecy_capacity_user", "link_budget.row_metrics"),
    ("experiment", "dca_solve", "dc_solver.solve"),
    ("experiment", "allocation_violation", "dc_solver.audit"),
    ("experiment", "grid_search", "reference_oracle.grid"),
    ("experiment", "compare", "reference_oracle.compare"),
    ("dc_solver", "minimize", "dc_solver.slsqp"),
    ("dc_solver", "kkt_residual", "dc_solver.kkt"),
)

# counted without spans: the solver calls these millions of times
COUNTED = (
    ("dc_solver", "perspective_value", "link_budget.kernel_calls"),
    ("dc_solver", "perspective_grads", "link_budget.kernel_calls"),
)

SOLVE_SPAN = "dc_solver.solve"
COMPARE_SPAN = "reference_oracle.compare"

# per-layer metric -> span name whose total duration (s) or call count it reports
BUSY_METRICS = {
    "dc_solver.solve_s": "dc_solver.solve",
    "dc_solver.slsqp_s": "dc_solver.slsqp",
    "dc_solver.kkt_s": "dc_solver.kkt",
    "dc_solver.audit_s": "dc_solver.audit",
    "link_budget.coeffs_s": "link_budget.coeffs",
    "link_budget.row_metrics_s": "link_budget.row_metrics",
    "scenario.generate_s": "scenario.generate",
    "vlc_channel.gain_s": "vlc_channel.gain",
    "rf_channel.fading_s": "rf_channel.fading",
    "reference_oracle.grid_s": "reference_oracle.grid",
}
CALL_METRICS = {
    "dc_solver.solves": "dc_solver.solve",
    "dc_solver.slsqp_calls": "dc_solver.slsqp",
    "scenario.calls": "scenario.generate",
    "vlc_channel.gain_calls": "vlc_channel.gain",
    "rf_channel.fading_calls": "rf_channel.fading",
    "reference_oracle.grid_calls": "reference_oracle.grid",
}
STATUSES = ("converged", "max_iterations", "infeasible")


class Tracer:
    """Spans and counts of the calls between the given vlcrf modules."""

    def __init__(self, modules: dict):
        self._modules = modules  # short name ("cli", "experiment", ...) -> module
        self._t0 = time.perf_counter()
        self._stack: list[dict] = []
        self._saved: list[tuple] = []
        self.spans: list[dict] = []
        self.counts: Counter = Counter()
        self.solve_results: list = []    # DcaResult of every traced dca_solve
        self.compare_results: list = []  # OracleComparison of every traced compare

    def _patch(self, module: str, attr: str, wrapper) -> None:
        mod = self._modules[module]
        self._saved.append((mod, attr, getattr(mod, attr)))
        setattr(mod, attr, wrapper)

    def _open(self, name: str) -> dict:
        parent = self._stack[-1] if self._stack else None
        span_id = len(self.spans)
        span = {
            "id": span_id,
            "name": name,
            "parent": parent["id"] if parent else None,
            "request": parent["request"] if parent else span_id,
            "solve": span_id if name == SOLVE_SPAN else (parent["solve"] if parent else None),
            "start": time.perf_counter() - self._t0,
            "end": None,
        }
        self.spans.append(span)
        self._stack.append(span)
        return span

    def _close(self, span: dict) -> None:
        span["end"] = time.perf_counter() - self._t0
        self._stack.pop()

    @contextmanager
    def request(self, name: str):
        """Trace one call into the program: patch the layer boundaries, open a
        root span, and restore everything when the call returns."""
        for module, attr, span_name in TIMED:
            self._patch(module, attr, self._timed(span_name, getattr(self._modules[module], attr)))
        for module, attr, count_name in COUNTED:
            self._patch(module, attr, self._counted(count_name, getattr(self._modules[module], attr)))
        span = self._open(name)
        try:
            yield span
        finally:
            self._close(span)
            while self._saved:
                mod, attr, original = self._saved.pop()
                setattr(mod, attr, original)

    def _timed(self, name: str, fn):
        def wrapper(*args, **kwargs):
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if name == SOLVE_SPAN:
                self.solve_results.append(result)
            elif name == COMPARE_SPAN:
                self.compare_results.append(result)
            return result

        return wrapper

    def _counted(self, name: str, fn):
        counts = self.counts

        def wrapper(*args):
            counts[name] += 1
            return fn(*args)

        return wrapper

    def layer_metrics(self) -> dict[str, float]:
        """Busy time, call counts and solver outcomes of the traced layers."""
        busy: Counter = Counter()
        calls: Counter = Counter()
        covered: Counter = Counter()  # span id -> time covered by its direct children
        for span in self.spans:
            duration = span["end"] - span["start"]
            busy[span["name"]] += duration
            calls[span["name"]] += 1
            if span["parent"] is not None:
                covered[span["parent"]] += duration
        metrics = {metric: busy[name] for metric, name in BUSY_METRICS.items()}
        metrics.update({metric: calls[name] for metric, name in CALL_METRICS.items()})
        metrics["experiment.sweep_self_s"] = sum(
            span["end"] - span["start"] - covered[span["id"]]
            for span in self.spans
            if span["name"] == "experiment.run_sweep"
        )
        metrics["cli.call_s"] = sum(
            span["end"] - span["start"] for span in self.spans if span["parent"] is None
        )
        statuses = Counter(result.status for result in self.solve_results)
        for status in STATUSES:
            metrics[f"dc_solver.status_{status}"] = statuses[status]
        solves = len(self.solve_results)
        metrics["dc_solver.converged_ratio"] = statuses["converged"] / solves if solves else 0.0
        metrics["dc_solver.outer_iterations"] = sum(result.iterations for result in self.solve_results)
        metrics["link_budget.kernel_calls"] = self.counts["link_budget.kernel_calls"]
        metrics["reference_oracle.compare_fail"] = sum(not c.passed for c in self.compare_results)
        return metrics

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
