"""In-memory span tracing around qhscatter's layer boundaries.

Spans are recorded from the benchmark's side only: each hook rebinds the
module attribute that a caller looks up at call time (for example
``qhscatter.sweeps.solve_numeric``) to a wrapper that records
(name, start, end, parent) and forwards to the original function.  Nothing
inside the package is edited.

A hook whose module is not loaded after ``import qhscatter``, or whose
attribute no longer exists, is skipped and reported as absent; the metrics
that depend only on absent hooks are left out of the traced report.
"""

from __future__ import annotations

import functools
import sys
from time import perf_counter


class Tracer:
    """Collects spans and per-name aggregates (calls, inclusive and self time)."""

    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int] | None] = []
        self.totals: dict[str, list[float]] = {}  # name -> [calls, total_s, self_s]
        self.counters: dict[str, int] = {}
        self._stack: list[list] = []  # [span id, time covered by children]

    def count(self, name: str, n: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + n

    def wrap(self, name: str, fn, on_return=None, on_error=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(self.spans)
            parent = self._stack[-1][0] if self._stack else -1
            frame = [sid, 0.0]
            self.spans.append(None)
            self._stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if on_error is not None:
                    on_error(self, exc)
                raise
            finally:
                t1 = perf_counter()
                self._stack.pop()
                dur = t1 - t0
                if self._stack:
                    self._stack[-1][1] += dur
                self.spans[sid] = (name, t0, t1, parent)
                agg = self.totals.setdefault(name, [0, 0.0, 0.0])
                agg[0] += 1
                agg[1] += dur
                agg[2] += dur - frame[1]
            if on_return is not None:
                on_return(self, result)
            return result

        return traced


def _error_counter(counter: str, type_name: str):
    """Count exceptions of the package's error class `type_name` or a subclass."""

    def on_error(tracer: Tracer, exc: Exception) -> None:
        if any(cls.__name__ == type_name for cls in type(exc).__mro__):
            tracer.count(counter)

    return on_error


def _count_unknowns(tracer: Tracer, system) -> None:
    tracer.count("scattering.unknowns", int(system.size))


def _count_fallbacks(tracer: Tracer, records) -> None:
    tracer.count("sweeps.resonance_fallback", sum(1 for r in records if r.get("resonance_flag") == 1))


# span name -> (sites it is installed at, on_return, on_error)
HOOKS = {
    "cli.main": ((("qhscatter.cli", "main"),), None, None),
    "sweeps.metric_suite": ((("qhscatter.cli", "metric_suite"),), None, None),
    "sweeps.unitarity_suite": ((("qhscatter.cli", "unitarity_suite"),), None, None),
    "sweeps.closed_vs_numeric_suite": ((("qhscatter.cli", "closed_vs_numeric_suite"),), None, None),
    "sweeps.sweep_records": ((("qhscatter.cli", "sweep_records"),), None, None),
    "sweeps.write_table": ((("qhscatter.cli", "write_table"),), None, None),
    "sweeps.render_csv": ((("qhscatter.sweeps", "render_csv"),), None, None),
    "sweeps.evaluate_point": ((("qhscatter.sweeps", "evaluate_point"),), _count_fallbacks, None),
    "scattering.closed_form": (
        (("qhscatter.sweeps", "closed_form"),),
        None,
        _error_counter("scattering.resonant_angle", "ResonantAngleError"),
    ),
    "scattering.solve_numeric": (
        (("qhscatter.sweeps", "solve_numeric"), ("qhscatter.scattering", "solve_numeric")),
        None,
        _error_counter("scattering.resonance_error", "ResonanceError"),
    ),
    "scattering.build_matching_system": (
        (("qhscatter.scattering", "build_matching_system"),),
        _count_unknowns,
        None,
    ),
    "scattering.solve_banded": ((("scipy.linalg", "solve_banded"),), None, None),
    "scattering.matching_row_residual": (
        (("qhscatter.scattering", "matching_row_residual"),),
        None,
        None,
    ),
    "scattering.continuum_probe": ((("qhscatter.scattering", "continuum_probe"),), None, None),
    "potentials.build_potential": ((("qhscatter.sweeps", "build_potential"),), None, None),
    "potentials.assemble_hamiltonian": ((("qhscatter.sweeps", "assemble_hamiltonian"),), None, None),
    "metric.quasi_hermiticity_residual": (
        (("qhscatter.sweeps", "quasi_hermiticity_residual"),),
        None,
        None,
    ),
}


def install(tracer: Tracer):
    """Rebind every hook site that exists; returns (restore list, absent sites)."""
    restore, absent = [], []
    for name, (sites, on_return, on_error) in HOOKS.items():
        for module_name, attr in sites:
            module = sys.modules.get(module_name)
            original = getattr(module, attr, None) if module is not None else None
            if not callable(original):
                absent.append(f"{module_name}.{attr}")
                continue
            setattr(module, attr, tracer.wrap(name, original, on_return, on_error))
            restore.append((module, attr, original))
    return restore, absent


def uninstall(restore) -> None:
    for module, attr, original in reversed(restore):
        setattr(module, attr, original)


def hooked_spans(absent: list[str]) -> set[str]:
    """Span names with at least one installed site."""
    return {
        name
        for name, (sites, _, _) in HOOKS.items()
        if any(f"{m}.{a}" not in absent for m, a in sites)
    }


# counter -> the span whose hook increments it
COUNTER_SPAN = {
    "scattering.unknowns": "scattering.build_matching_system",
    "scattering.resonance_error": "scattering.solve_numeric",
    "scattering.resonant_angle": "scattering.closed_form",
    "sweeps.resonance_fallback": "sweeps.evaluate_point",
}

_VERIFY_DENSE = "wall_s on verify and sweep-dense"
_VERIFY = "wall_s on verify"
_DENSE = "wall_s on sweep-dense; no change on verify"
_LONG = "wall_s on sweep-long"
_EDGE_FAIL = "failed_frac on edge"

# Per-layer metrics of the traced run, per pass of the workload:
# (name, unit, better, (source kind, key), end-to-end metric it should move).
PER_LAYER = (
    ("import.numpy_s", "s", "lower", ("import", "numpy"), "setup_s on all workloads"),
    ("import.scipy_s", "s", "lower", ("import", "scipy"), "setup_s on all workloads"),
    ("import.qhscatter_s", "s", "lower", ("import", "qhscatter"), "setup_s on all workloads"),
    ("scattering.solve_numeric.calls", "count", "lower", ("calls", "scattering.solve_numeric"), _VERIFY_DENSE),
    ("scattering.solve_numeric.per_point", "calls/point", "lower", ("per_point", "scattering.solve_numeric"), _VERIFY_DENSE),
    ("scattering.solve_numeric.self_s", "s", "lower", ("self_s", "scattering.solve_numeric"), _VERIFY_DENSE),
    ("scattering.build_matching_system.s", "s", "lower", ("s", "scattering.build_matching_system"), _LONG),
    ("scattering.solve_banded.s", "s", "lower", ("s", "scattering.solve_banded"), _LONG),
    ("scattering.matching_row_residual.s", "s", "lower", ("s", "scattering.matching_row_residual"), _LONG),
    ("scattering.unknowns", "count", "lower", ("counter", "scattering.unknowns"), _LONG),
    ("scattering.closed_form.calls", "count", "lower", ("calls", "scattering.closed_form"), _VERIFY_DENSE),
    ("scattering.closed_form.s", "s", "lower", ("s", "scattering.closed_form"), _VERIFY_DENSE),
    ("scattering.continuum_probe.s", "s", "lower", ("s", "scattering.continuum_probe"), "wall_s on edge"),
    ("scattering.resonance_error.count", "count", "lower", ("counter", "scattering.resonance_error"), _EDGE_FAIL),
    ("scattering.resonant_angle.count", "count", "lower", ("counter", "scattering.resonant_angle"), _EDGE_FAIL),
    ("sweeps.evaluate_point.self_s", "s", "lower", ("self_s", "sweeps.evaluate_point"), _DENSE),
    ("sweeps.sweep_records.self_s", "s", "lower", ("self_s", "sweeps.sweep_records"), _DENSE),
    ("sweeps.render_csv.s", "s", "lower", ("s", "sweeps.render_csv"), _DENSE),
    ("sweeps.write_table.self_s", "s", "lower", ("self_s", "sweeps.write_table"), "wall_s on sweep-dense"),
    ("sweeps.resonance_fallback.count", "count", "lower", ("counter", "sweeps.resonance_fallback"), _EDGE_FAIL),
    ("sweeps.metric_suite.s", "s", "lower", ("s", "sweeps.metric_suite"), _VERIFY),
    ("sweeps.unitarity_suite.s", "s", "lower", ("s", "sweeps.unitarity_suite"), _VERIFY),
    ("sweeps.closed_vs_numeric_suite.s", "s", "lower", ("s", "sweeps.closed_vs_numeric_suite"), _VERIFY),
    ("potentials.build_potential.s", "s", "lower", ("s", "potentials.build_potential"), _VERIFY),
    ("potentials.assemble_hamiltonian.s", "s", "lower", ("s", "potentials.assemble_hamiltonian"), _VERIFY),
    ("metric.quasi_hermiticity_residual.s", "s", "lower", ("s", "metric.quasi_hermiticity_residual"), _VERIFY),
    ("cli.main.self_s", "s", "lower", ("self_s", "cli.main"), "wall_s on verify, sweep-dense and sweep-long"),
    ("accuracy.max_defect", "1", "lower", ("accuracy", "max_defect"), "informational"),
    ("accuracy.max_discrepancy", "1", "lower", ("accuracy", "max_discrepancy"), "informational"),
    ("trace.overhead_s", "s", "lower", ("overhead", ""), "none: the cost of tracing itself"),
)
