"""Span tracing of qrmframes' layers, installed from outside the package.

``Tracer.install`` rebinds every traced public function with a wrapper in
each qrmframes module that holds it (so internal calls such as
``build_components -> build_number_ops`` are traced too) and counts
``StateVector`` / ``OperatorMatrix`` constructions; ``uninstall`` puts the
originals back. Spans stay in memory as
``[name, start, end, parent index, request id, child seconds]`` and are
written out once, when the run ends.

Every layer is single-threaded and has no queue, so no span waits: waiting
time is not applicable and is not reported.
"""

from __future__ import annotations

import functools
import json
import os
import time
from collections import defaultdict

MODULES = ("hilbert", "model", "analytic", "oracle", "runner", "cli")

# module -> function -> category; categories are the per-layer metric prefixes
TRACED = {
    "hilbert": {f: "hilbert" for f in (
        "basis_state", "identity", "fock_operators", "qubit_operators",
        "commutator", "evolve_with", "expectation",
    )},
    "model": {f: "model" for f in (
        "build_rabi", "build_components", "build_number_ops", "build_effective",
        "build_transition_ops", "build_parity", "frame_conjugation_check",
    )},
    "analytic": {
        "jc_branch": "analytic.eigen",
        "ajc_branch": "analytic.eigen",
        "jc_eigenstate": "analytic.eigen",
        "ajc_eigenstate": "analytic.eigen",
        "rf_branch_states": "analytic.evolve",
        "crf_branch_states": "analytic.evolve",
        "evolve_rf": "analytic.evolve",
        "evolve_crf": "analytic.evolve",
        "observables_rf": "analytic.observables",
        "observables_crf": "analytic.observables",
    },
    "oracle": {
        "propagate_series": "oracle.propagate",
        "observable_series": "oracle.observe",
        "compare_scenario": "oracle.compare",
        "standard_observables": "oracle.std_obs",
        "interior_projector": "oracle.interior",
        "interior_commutator_norm": "oracle.interior",
    },
    "runner": {f: f"runner.{f}" for f in (
        "run_experiment", "emit_csv", "emit_svg", "reproduce_figures", "verify_suite",
    )},
    "cli": {"main": "cli.main"},
}

# per-layer metric -> unit, in report order; all are means per traced request
# except cli.import_s (once per process) and the trace.* bookkeeping
LAYER_METRICS = {
    "model.calls": "count",
    "model.self_s": "s",
    "model.op_bytes": "bytes",
    "analytic.evolve_calls": "count",
    "analytic.evolve_self_s": "s",
    "analytic.eigen_self_s": "s",
    "analytic.observables_points": "count",
    "analytic.observables_self_s": "s",
    "oracle.propagate_states": "count",
    "oracle.propagate_self_s": "s",
    "oracle.observe_elems": "count",
    "oracle.observe_self_s": "s",
    "oracle.compare_self_s": "s",
    "oracle.std_obs_self_s": "s",
    "oracle.interior_self_s": "s",
    "runner.run_experiment_self_s": "s",
    "runner.emit_csv_rows": "count",
    "runner.emit_csv_bytes": "bytes",
    "runner.emit_csv_self_s": "s",
    "runner.emit_csv_ns_per_row": "ns",
    "runner.emit_svg_points": "count",
    "runner.emit_svg_bytes": "bytes",
    "runner.emit_svg_self_s": "s",
    "runner.reproduce_figures_self_s": "s",
    "runner.verify_suite_self_s": "s",
    "cli.import_s": "s",
    "cli.main_self_s": "s",
    "hilbert.self_s": "s",
    "hilbert.state_objects": "count",
    "hilbert.operator_objects": "count",
    "trace.unattributed_s": "s",
    "trace.overhead_s": "s",
}


def _operator_bytes(result) -> int:
    ops = result if isinstance(result, tuple) else (result,)
    return sum(op.entries.shape[0] ** 2 * 16 for op in ops if hasattr(op, "entries"))


def _time_points(args, kwargs) -> int:
    t = args[2] if len(args) > 2 else kwargs["t"]
    return int(getattr(t, "size", 1))


def _observe_elems(args, kwargs) -> int:
    states, ops = args[0], args[1]
    return len(states) * (states[0].space.dim if states else 0) * len(ops)


# function -> (counter name, count of one call from (args, kwargs, result))
COUNTERS = {
    **{f: [("model.op_bytes", lambda a, k, r: _operator_bytes(r))] for f in TRACED["model"]},
    "observables_rf": [("analytic.observables_points", lambda a, k, r: _time_points(a, k))],
    "observables_crf": [("analytic.observables_points", lambda a, k, r: _time_points(a, k))],
    "propagate_series": [("oracle.propagate_states", lambda a, k, r: len(r))],
    "observable_series": [("oracle.observe_elems", lambda a, k, r: _observe_elems(a, k))],
    "emit_csv": [
        ("runner.emit_csv_rows", lambda a, k, r: a[0].tau.size),
        ("runner.emit_csv_bytes", lambda a, k, r: os.path.getsize(r)),
    ],
    "emit_svg": [
        ("runner.emit_svg_points", lambda a, k, r: a[0].tau.size),
        ("runner.emit_svg_bytes", lambda a, k, r: os.path.getsize(r)),
    ],
}


class Tracer:
    """Records spans and counts while installed; one instance per run."""

    def __init__(self, program):
        self.program = program
        self.modules = [program] + [getattr(program, name) for name in MODULES]
        self.spans: list[list] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.request = -1
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, fn, name: str, category: str):
        spans, stack, counts = self.spans, self._stack, self.counts
        counters = COUNTERS.get(fn.__name__, ())

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            span = [name, time.perf_counter(), 0.0, parent, self.request, 0.0]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
                if parent >= 0:
                    spans[parent][5] += span[2] - span[1]
            counts[category] += 1
            for counter, count in counters:
                counts[counter] += count(args, kwargs, result)
            return result

        return traced

    def _count_constructions(self, cls, counter: str) -> None:
        original = cls.__post_init__
        counts = self.counts

        def counted(obj):
            counts[counter] += 1
            original(obj)

        self._saved.append((cls, "__post_init__", original))
        cls.__post_init__ = counted

    def install(self, request: int) -> None:
        self.request = request
        for module_name, functions in TRACED.items():
            home = getattr(self.program, module_name)
            for fn_name, category in functions.items():
                original = getattr(home, fn_name)
                wrapper = self._wrap(original, f"{module_name}.{fn_name}", category)
                for module in self.modules:
                    if module.__dict__.get(fn_name) is original:
                        self._saved.append((module, fn_name, original))
                        setattr(module, fn_name, wrapper)
        hilbert = self.program.hilbert
        self._count_constructions(hilbert.StateVector, "hilbert.state_objects")
        self._count_constructions(hilbert.OperatorMatrix, "hilbert.operator_objects")

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def layer_metrics(self, request_seconds: dict[int, float], import_s: float,
                      overhead_s: float) -> dict[str, float]:
        """Per-layer metrics as means per traced request.

        A span's self time is its duration minus its children's; the
        unattributed remainder is request time that no span covers.
        """
        n = max(len(request_seconds), 1)
        self_s: dict[str, float] = defaultdict(float)
        covered: dict[int, float] = defaultdict(float)
        for name, start, end, parent, request, child in self.spans:
            module, fn_name = name.split(".", 1)
            self_s[TRACED[module][fn_name]] += (end - start) - child
            if parent < 0:
                covered[request] += end - start
        metric = lambda key: self.counts[key] / n  # noqa: E731
        csv_rows = self.counts["runner.emit_csv_rows"]
        out = {
            "model.calls": metric("model"),
            "model.self_s": self_s["model"] / n,
            "model.op_bytes": metric("model.op_bytes"),
            "analytic.evolve_calls": metric("analytic.evolve"),
            "analytic.evolve_self_s": self_s["analytic.evolve"] / n,
            "analytic.eigen_self_s": self_s["analytic.eigen"] / n,
            "analytic.observables_points": metric("analytic.observables_points"),
            "analytic.observables_self_s": self_s["analytic.observables"] / n,
            "oracle.propagate_states": metric("oracle.propagate_states"),
            "oracle.propagate_self_s": self_s["oracle.propagate"] / n,
            "oracle.observe_elems": metric("oracle.observe_elems"),
            "oracle.observe_self_s": self_s["oracle.observe"] / n,
            "oracle.compare_self_s": self_s["oracle.compare"] / n,
            "oracle.std_obs_self_s": self_s["oracle.std_obs"] / n,
            "oracle.interior_self_s": self_s["oracle.interior"] / n,
            "runner.run_experiment_self_s": self_s["runner.run_experiment"] / n,
            "runner.emit_csv_rows": metric("runner.emit_csv_rows"),
            "runner.emit_csv_bytes": metric("runner.emit_csv_bytes"),
            "runner.emit_csv_self_s": self_s["runner.emit_csv"] / n,
            "runner.emit_csv_ns_per_row": 1e9 * self_s["runner.emit_csv"] / csv_rows if csv_rows else 0.0,
            "runner.emit_svg_points": metric("runner.emit_svg_points"),
            "runner.emit_svg_bytes": metric("runner.emit_svg_bytes"),
            "runner.emit_svg_self_s": self_s["runner.emit_svg"] / n,
            "runner.reproduce_figures_self_s": self_s["runner.reproduce_figures"] / n,
            "runner.verify_suite_self_s": self_s["runner.verify_suite"] / n,
            "cli.import_s": import_s,
            "cli.main_self_s": self_s["cli.main"] / n,
            "hilbert.self_s": self_s["hilbert"] / n,
            "hilbert.state_objects": metric("hilbert.state_objects"),
            "hilbert.operator_objects": metric("hilbert.operator_objects"),
            "trace.unattributed_s": sum(
                seconds - covered[request] for request, seconds in request_seconds.items()
            ) / n,
            "trace.overhead_s": overhead_s,
        }
        assert list(out) == list(LAYER_METRICS)
        return out

    def write_spans(self, path) -> None:
        """One JSON object per span: name, start, end, parent, request."""
        with open(path, "w", encoding="utf-8") as handle:
            for index, (name, start, end, parent, request, _) in enumerate(self.spans):
                handle.write(json.dumps({
                    "id": index, "name": name, "start": start, "end": end,
                    "parent": parent, "request": request,
                }) + "\n")
