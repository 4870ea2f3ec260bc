"""Spans around every public function of the boxmode layers, from outside.

``Recorder.install`` rebinds each public function of each layer module in
every boxmode module that binds it (``cli`` imports with ``from .x import
y``, so both ``boxmode.cli.evolve_free`` and ``boxmode.release.evolve_free``
are replaced), and wraps ``Eigenfunction.__call__`` and
``QuadratureSettings.nodes`` on their classes. Nothing under ``src/`` is
edited. A span is ``[name, start, end, parent index, op id, work count]``;
spans stay in memory until the pass writes them out.

``summarize`` turns one pass's spans into the per-layer metrics.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import statistics
import time

LAYERS = (
    "cli",
    "report",
    "release",
    "well",
    "quadrature",
    "momentum_continuous",
    "momentum_discrete",
    "landau",
)

# Called once per CSV cell: a span each would swamp the pass. Its time stays
# in the self time of write_csv, its only caller.
UNWRAPPED = {"report.format_value"}

# Bytes of the full-length arrays evolve_free builds per grid point: x (8),
# psi0 (16) and, when t != 0, p (8), phase (16), fft (16), product (16) and
# the inverse fft (16). Computed from array sizes, not measured.
_EVOLVE_BYTES_PER_POINT = {False: 8 + 16, True: 8 + 16 + 8 + 16 + 16 + 16 + 16}


def _work_counters(default_order: int):
    """Work counts per span name: f(bound arguments, result) -> number."""

    def order(args):
        quad = args.get("quad")
        return quad.order if quad is not None else default_order

    def csv_cells(args, result):
        return len(args["header"]) * len(args["rows"])

    def evolve_bytes(args, result):
        return result.x.size * _EVOLVE_BYTES_PER_POINT[args["t"] != 0]

    return {
        "report.write_csv": {"cells": csv_cells, "bytes": lambda a, r: r.stat().st_size},
        "release.evolve_free": {
            "grid_points": lambda a, r: r.x.size,
            "bytes_computed": evolve_bytes,
        },
        "well.eigenfunction_eval": {"samples": lambda a, r: getattr(a["x"], "size", 1)},
        "quadrature.nodes": {"order": lambda a, r: a["self"].order},
        "momentum_continuous.amplitude_transform": {
            "kernel_entries": lambda a, r: getattr(a["p"], "size", 1) * order(a),
        },
        "momentum_discrete.expand": {
            "kernel_entries": lambda a, r: (2 * a["k_max"] + 1) * order(a),
        },
        "landau.ring_count": {"states": lambda a, r: r},
        "landau.guiding_center_count": {"states": lambda a, r: r},
        "landau.apply_hamiltonian": {"grid_points": lambda a, r: a["state"].values.size},
    }


class Recorder:
    """Collects spans for one process; ``op`` is set by the caller per op."""

    def __init__(self):
        self.spans: list[list] = []
        self.op = -1
        self._stack: list[int] = []

    def wrap(self, name: str, fn, counters=None):
        signature = inspect.signature(fn)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if counters:
                bound = signature.bind(*args, **kwargs).arguments
                span[5] = {key: count(bound, result) for key, count in counters.items()}
            return result

        return traced

    def install(self):
        """Wrap every public function of every layer, in every binding."""
        import boxmode
        from boxmode.quadrature import QuadratureSettings
        from boxmode.well import Eigenfunction

        counters = _work_counters(QuadratureSettings().order)
        modules = [importlib.import_module(f"boxmode.{layer}") for layer in LAYERS]
        wrapped = {}
        for layer, module in zip(LAYERS, modules):
            for attr, obj in vars(module).items():
                name = f"{layer}.{attr}"
                if (
                    inspect.isfunction(obj)
                    and obj.__module__ == module.__name__
                    and not attr.startswith("_")
                    and name not in UNWRAPPED
                ):
                    wrapped[id(obj)] = self.wrap(name, obj, counters.get(name))
        for module in [boxmode, *modules]:
            for attr, obj in list(vars(module).items()):
                if id(obj) in wrapped:
                    setattr(module, attr, wrapped[id(obj)])
        for cls, attr, name in (
            (Eigenfunction, "__call__", "well.eigenfunction_eval"),
            (QuadratureSettings, "nodes", "quadrature.nodes"),
        ):
            setattr(cls, attr, self.wrap(name, getattr(cls, attr), counters.get(name)))


# ---------------------------------------------------------------------------
# per-layer metrics from one pass's spans

# Metric name -> the span names whose self times it sums.
SELF_TIMES = {
    "report.write_csv.self_s": ("report.write_csv",),
    "release.evolve_free.self_s": ("release.evolve_free",),
    "release.farfield_map.self_s": ("release.farfield_map",),
    "release.box_s": ("release.farfield_box", "release.suggested_box"),
    "release.grid_kinetic_energy.self_s": ("release.grid_kinetic_energy",),
    "well.eigenfunction_eval.self_s": ("well.eigenfunction_eval",),
    "quadrature.nodes.self_s": ("quadrature.nodes",),
    "momentum_continuous.amplitude_transform.self_s": ("momentum_continuous.amplitude_transform",),
    "momentum_continuous.analytic_density.self_s": ("momentum_continuous.analytic_density",),
    "momentum_discrete.expand.self_s": ("momentum_discrete.expand",),
    "momentum_discrete.convergence_report.self_s": ("momentum_discrete.convergence_report",),
    "landau.ring_count.self_s": ("landau.ring_count",),
    "landau.guiding_center_count.self_s": ("landau.guiding_center_count",),
    "landau.apply_hamiltonian.self_s": ("landau.apply_hamiltonian",),
    "landau.commutator_check.self_s": ("landau.commutator_check",),
    "landau.state_build_s": (
        "landau.landau_gauge_state",
        "landau.symmetric_gauge_state",
        "landau.gaussian_test_state",
        "landau.vortex_state",
    ),
}

# Metric name -> (span name, work counter) it sums.
COUNTS = {
    "report.write_csv.cells": ("report.write_csv", "cells"),
    "report.write_csv.bytes": ("report.write_csv", "bytes"),
    "release.evolve_free.grid_points": ("release.evolve_free", "grid_points"),
    "release.evolve_free.bytes_computed": ("release.evolve_free", "bytes_computed"),
    "well.eigenfunction_eval.samples": ("well.eigenfunction_eval", "samples"),
    "momentum_continuous.amplitude_transform.kernel_entries": (
        "momentum_continuous.amplitude_transform",
        "kernel_entries",
    ),
    "momentum_discrete.expand.kernel_entries": ("momentum_discrete.expand", "kernel_entries"),
    "landau.apply_hamiltonian.grid_points": ("landau.apply_hamiltonian", "grid_points"),
}


def self_times(spans) -> list[float]:
    """Each span's duration minus the time its child spans cover."""
    own = [end - start for _, start, end, *_ in spans]
    for _, start, end, parent, *_ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def summarize(spans, pass_wall: float) -> dict[str, float]:
    """Per-layer metrics of one traced pass."""
    own = self_times(spans)
    by_name: dict[str, float] = {}
    calls: dict[str, int] = {}
    for span, seconds in zip(spans, own):
        by_name[span[0]] = by_name.get(span[0], 0.0) + seconds
        calls[span[0]] = calls.get(span[0], 0) + 1

    def total(names):
        return sum(by_name.get(name, 0.0) for name in names)

    def count(name, field):
        return sum(s[5][field] for s in spans if s[0] == name and s[5] is not None)

    out = {f"{layer}.self_s": total(n for n in by_name if n.startswith(layer + ".")) for layer in LAYERS}
    out.update({metric: total(names) for metric, names in SELF_TIMES.items()})
    out.update({metric: count(*spec) for metric, spec in COUNTS.items()})
    out["cli.run.calls"] = calls.get("cli.run", 0)
    out["quadrature.nodes.calls"] = calls.get("quadrature.nodes", 0)
    orders = [s[5]["order"] for s in spans if s[0] == "quadrature.nodes" and s[5]]
    out["quadrature.order_max"] = max(orders, default=0)
    first = next((s for s in spans if s[0] == "quadrature.nodes"), None)
    out["quadrature.first_call_s"] = first[2] - first[1] if first else 0.0
    write_s = out["report.write_csv.self_s"]
    out["report.write_csv.cells_per_s"] = out["report.write_csv.cells"] / write_s if write_s else 0.0
    out["landau.degeneracy.states_counted"] = count("landau.ring_count", "states") + count(
        "landau.guiding_center_count", "states"
    )
    out["trace.spans"] = len(spans)
    out["trace.residual_s"] = pass_wall - sum(own)
    return out


def op_seconds(spans, op: int, name: str) -> float:
    """Seconds spent in spans called ``name`` while op ``op`` ran."""
    return sum(end - start for n, start, end, _, o, _ in spans if n == name and o == op)


def median_metrics(per_pass: list[dict[str, float]]) -> dict[str, float]:
    return {key: statistics.median(p[key] for p in per_pass) for key in per_pass[0]}
