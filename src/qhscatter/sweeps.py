"""Parameter sweeps, machine-readable tables and built-in verification suites.

Sweep output is one flat record per evaluation with a fixed column order.
Numbers are printed with 17 significant digits so a re-parsed file
reproduces the original doubles exactly; identical configurations produce
byte-identical files, also when evaluated on a thread pool.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DomainError, ResonantAngleError
from .metric import chain_metric, quasi_hermiticity_residual, two_center_metric
from .potentials import (
    ChainSpec,
    MultiCenterSpec,
    ScattererSpec,
    TwoCenterSpec,
    assemble_hamiltonian,
    build_potential,
)
from .lattice import SiteWindow
from .scattering import Amplitudes, closed_form, solve_numeric

COLUMNS = (
    "g",
    "N",
    "phi",
    "re_R",
    "im_R",
    "re_T",
    "im_T",
    "abs_R2",
    "abs_T2",
    "defect",
    "method",
    "resonance_flag",
    "discrepancy",
)

DEFAULT_G_GRID = (-0.9, -0.7, -0.5, -0.3, -0.1, 0.1, 0.3, 0.5, 0.7, 0.9)
DEFAULT_N_GRID = (-1, 0, 1, 2, 5, 10, 25, 50)
DEFAULT_PHI_COUNT = 40
DEFAULT_PHI_MIN = 0.05
DEFAULT_PHI_MAX = math.pi - 0.05

# chain layouts exercised by the built-in metric suite (up to 4 couplings)
DEFAULT_CHAIN_SPECS = (
    (0.5,),
    (0.5, 0.3),
    (0.4, -0.2, 0.6),
    (0.8, -0.5, 0.3, -0.7),
)

PHI_EDGE_MARGIN = 1e-3


def phi_grid(count: int, lo: float | None = None, hi: float | None = None) -> np.ndarray:
    """Evenly spaced angles; bounds default to a 1e-3 margin off the band edges."""
    lo = PHI_EDGE_MARGIN if lo is None else float(lo)
    hi = math.pi - PHI_EDGE_MARGIN if hi is None else float(hi)
    if count < 1:
        raise DomainError("phi grid needs at least one point")
    if not (0.0 < lo <= hi < math.pi):
        raise DomainError(f"phi bounds ({lo}, {hi}) must satisfy 0 < min <= max < pi")
    return np.linspace(lo, hi, count)


def _fmt(x) -> str:
    if x is None:
        return ""
    if isinstance(x, str):
        return x
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return format(float(x), ".17g")


def _amp_fields(amp: Amplitudes) -> dict:
    r2 = amp.R.real**2 + amp.R.imag**2
    t2 = amp.T.real**2 + amp.T.imag**2
    return {
        "re_R": amp.R.real,
        "im_R": amp.R.imag,
        "re_T": amp.T.real,
        "im_T": amp.T.imag,
        "abs_R2": r2,
        "abs_T2": t2,
        "defect": abs(r2 + t2 - 1.0),
    }


def _coupling_label(spec: ScattererSpec):
    if isinstance(spec, TwoCenterSpec):
        return spec.g
    if isinstance(spec, MultiCenterSpec):
        if len(set(spec.couplings)) == 1:
            return spec.couplings[0]
        return ":".join(_fmt(g) for g in spec.couplings)
    return ":".join(_fmt(c) for c in spec.couplings)


def evaluate_point(
    spec: ScattererSpec, phi: float, method: str, resonance_fallback: bool = True
) -> list[dict]:
    """Records for one grid point; method is 'numeric', 'closed' or 'both'.

    At resonance-guarded angles the closed path falls back to the numeric
    solver with resonance_flag=1 unless resonance_fallback is False, in
    which case ResonantAngleError propagates to the caller.
    """
    n_field = spec.N if isinstance(spec, TwoCenterSpec) else None
    base = {"g": _coupling_label(spec), "N": n_field, "phi": phi}
    records: list[dict] = []

    def record(amp: Amplitudes, used: str, flag: int, discrepancy=None) -> dict:
        row = dict(base)
        row.update(_amp_fields(amp))
        row.update(method=used, resonance_flag=flag, discrepancy=discrepancy)
        return row

    if method not in ("numeric", "closed", "both"):
        raise DomainError(f"unknown method {method!r}")
    wants_closed = method in ("closed", "both")
    if wants_closed and not isinstance(spec, TwoCenterSpec):
        raise DomainError("closed forms exist only for the two-center model")

    amp_closed = None
    resonant = False
    if wants_closed:
        try:
            amp_closed, _ = closed_form(spec, phi)
        except ResonantAngleError:
            if not resonance_fallback:
                raise
            resonant = True

    if method == "closed" and not resonant:
        records.append(record(amp_closed, "closed", 0))
        return records
    if method == "closed" and resonant:
        # sweeps force the numeric path at guarded angles
        amp, _ = solve_numeric(spec, phi)
        records.append(record(amp, "numeric", 1))
        return records

    amp_num, _ = solve_numeric(spec, phi)
    if method == "numeric":
        records.append(record(amp_num, "numeric", 0))
        return records
    if resonant:
        records.append(record(amp_num, "numeric", 1))
        return records
    gap = max(abs(amp_closed.R - amp_num.R), abs(amp_closed.T - amp_num.T))
    records.append(record(amp_closed, "closed", 0, gap))
    records.append(record(amp_num, "numeric", 0, gap))
    return records


@dataclass(frozen=True)
class SweepConfig:
    """Grid description for one sweep run."""

    model: str  # "two-center" | "chain" | "multi-center"
    couplings: tuple  # g values, chain coupling vectors, or multi-center couplings
    n_values: tuple[int, ...]  # two-center separations; ignored otherwise
    phi_count: int
    phi_min: float | None = None
    phi_max: float | None = None
    method: str = "numeric"
    fmt: str = "csv"
    centers: tuple[int, ...] = ()  # multi-center only

    def specs(self) -> list[ScattererSpec]:
        if self.model == "two-center":
            if not self.couplings or not self.n_values:
                raise DomainError("two-center sweep needs g and N grids")
            return [TwoCenterSpec(g, n) for g in self.couplings for n in self.n_values]
        if self.model == "chain":
            if not self.couplings:
                raise DomainError("chain sweep needs at least one coupling vector")
            return [ChainSpec(tuple(v)) for v in self.couplings]
        if self.model == "multi-center":
            if not self.centers or not self.couplings:
                raise DomainError("multi-center sweep needs centers and a g grid")
            return [
                MultiCenterSpec(self.centers, (g,) * len(self.centers)) for g in self.couplings
            ]
        raise DomainError(f"unknown model {self.model!r}")

    def angles(self) -> np.ndarray:
        return phi_grid(self.phi_count, self.phi_min, self.phi_max)


def sweep_records(config: SweepConfig) -> list[dict]:
    """Evaluate the full grid: couplings outer, N middle, phi inner."""
    points = [
        (spec, float(phi)) for spec in config.specs() for phi in config.angles()
    ]
    workers = _thread_count()
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            chunks = list(pool.map(lambda sp: evaluate_point(sp[0], sp[1], config.method), points))
    else:
        chunks = [evaluate_point(spec, phi, config.method) for spec, phi in points]
    return [row for chunk in chunks for row in chunk]


def _thread_count() -> int:
    """THREADS from the environment, clamped to [1, os.cpu_count()]."""
    raw = os.environ.get("THREADS", "1")
    try:
        requested = max(1, int(raw))
    except ValueError:
        return 1
    return min(requested, os.cpu_count() or 1)


def render_csv(records: list[dict]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(COLUMNS)
    for row in records:
        writer.writerow([_fmt(row[c]) for c in COLUMNS])
    return buf.getvalue()


def render_json(records: list[dict]) -> str:
    out = []
    for row in records:
        item = {}
        for c in COLUMNS:
            v = row[c]
            if isinstance(v, (np.floating,)):
                v = float(v)
            elif isinstance(v, (np.integer,)):
                v = int(v)
            item[c] = v
        out.append(item)
    return json.dumps(out, indent=1) + "\n"


def write_table(records: list[dict], fmt: str, path: str | Path) -> None:
    text = render_csv(records) if fmt == "csv" else render_json(records)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)


@dataclass(frozen=True)
class SuiteCheck:
    """One verification line: a maximum over a grid against a tolerance."""

    suite: str
    label: str
    max_value: float
    tolerance: float
    worst_point: str

    @property
    def passed(self) -> bool:
        return self.max_value <= self.tolerance


def metric_suite(
    tolerance_two_center: float = 1e-14,
    tolerance_chain: float = 1e-13,
    g_grid=DEFAULT_G_GRID,
    n_grid=DEFAULT_N_GRID,
    chain_specs=DEFAULT_CHAIN_SPECS,
) -> list[SuiteCheck]:
    """Quasi-Hermiticity residuals of the closed-form metrics."""
    checks = []
    if g_grid and n_grid:
        worst, worst_at = 0.0, ""
        for g in g_grid:
            for n in n_grid:
                spec = TwoCenterSpec(g, n)
                window = SiteWindow(n + 5)
                h = assemble_hamiltonian(build_potential(spec, window))
                res = quasi_hermiticity_residual(h, two_center_metric(spec, window))
                if res > worst:
                    worst, worst_at = res, f"g={g} N={n}"
        checks.append(SuiteCheck("metric", "two-center", worst, tolerance_two_center, worst_at))
    if chain_specs:
        worst, worst_at = 0.0, ""
        for cs in chain_specs:
            spec = ChainSpec(tuple(cs))
            window = SiteWindow(len(cs) + 3)
            h = assemble_hamiltonian(build_potential(spec, window))
            res = quasi_hermiticity_residual(h, chain_metric(spec, window))
            if res > worst:
                worst, worst_at = res, f"couplings={cs}"
        checks.append(SuiteCheck("metric", "chain", worst, tolerance_chain, worst_at))
    return checks


def _two_center_grid_points(g_grid, n_grid, phi_count):
    # strictly inside (DEFAULT_PHI_MIN, DEFAULT_PHI_MAX)
    angles = np.linspace(DEFAULT_PHI_MIN, DEFAULT_PHI_MAX, phi_count + 2)[1:-1]
    for g in g_grid:
        for n in n_grid:
            spec = TwoCenterSpec(g, n)
            for phi in angles:
                yield spec, float(phi)


def unitarity_suite(
    tolerance: float = 1e-11,
    g_grid=DEFAULT_G_GRID,
    n_grid=DEFAULT_N_GRID,
    phi_count=DEFAULT_PHI_COUNT,
) -> list[SuiteCheck]:
    """| |R|^2 + |T|^2 - 1 | over the grid, numeric and closed paths."""
    worst_n, at_n = 0.0, ""
    worst_c, at_c = 0.0, ""
    for spec, phi in _two_center_grid_points(g_grid, n_grid, phi_count):
        amp, _ = solve_numeric(spec, phi)
        if amp.unitarity_defect > worst_n:
            worst_n, at_n = amp.unitarity_defect, f"g={spec.g} N={spec.N} phi={phi:.6f}"
        try:
            amp_c, _ = closed_form(spec, phi)
        except ResonantAngleError:
            continue
        if amp_c.unitarity_defect > worst_c:
            worst_c, at_c = amp_c.unitarity_defect, f"g={spec.g} N={spec.N} phi={phi:.6f}"
    return [
        SuiteCheck("unitarity", "numeric", worst_n, tolerance, at_n),
        SuiteCheck("unitarity", "closed", worst_c, tolerance, at_c),
    ]


def closed_vs_numeric_suite(
    tolerance: float = 1e-10,
    g_grid=DEFAULT_G_GRID,
    n_grid=DEFAULT_N_GRID,
    phi_count=DEFAULT_PHI_COUNT,
) -> list[SuiteCheck]:
    """Componentwise closed-form vs matching-solver agreement, per family."""
    worst = {"N=-1": (0.0, ""), "N=0": (0.0, ""), "N>=1": (0.0, "")}
    for spec, phi in _two_center_grid_points(g_grid, n_grid, phi_count):
        try:
            amp_c, _ = closed_form(spec, phi)
        except ResonantAngleError:
            continue
        amp_n, _ = solve_numeric(spec, phi)
        gap = max(abs(amp_c.R - amp_n.R), abs(amp_c.T - amp_n.T))
        key = "N=-1" if spec.N == -1 else ("N=0" if spec.N == 0 else "N>=1")
        if gap > worst[key][0]:
            worst[key] = (gap, f"g={spec.g} N={spec.N} phi={phi:.6f}")
    return [
        SuiteCheck("closed-vs-numeric", key, val, tolerance, at)
        for key, (val, at) in worst.items()
    ]
