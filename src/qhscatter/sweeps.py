"""Parameter sweeps, machine-readable tables and built-in verification suites.

Sweep output is one flat record per evaluation with a fixed column order.
Numbers are printed with 17 significant digits so a re-parsed file
reproduces the original doubles exactly; identical configurations produce
byte-identical files.  Every numeric value comes from the one route on
the Hermitian partner: sweeps and the amplitude suites solve each
scatterer's angles in one solve_numeric_batch call, evaluate_point its one
angle with solve_numeric, with the same bits.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DomainError, ResonantAngleError
from .metric import build_metric, quasi_hermiticity_residual
from .potentials import (
    ChainSpec,
    MultiCenterSpec,
    ScattererSpec,
    TwoCenterSpec,
    assemble_hamiltonian,
    build_potential,
)
from .lattice import SiteWindow
from .scattering import Amplitudes, closed_form, solve_numeric, solve_numeric_batch

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
    return {
        "re_R": amp.R.real,
        "im_R": amp.R.imag,
        "re_T": amp.T.real,
        "im_T": amp.T.imag,
        "abs_R2": amp.R.real**2 + amp.R.imag**2,
        "abs_T2": amp.T.real**2 + amp.T.imag**2,
        "defect": amp.unitarity_defect,
    }


def _coupling_label(spec: ScattererSpec):
    if isinstance(spec, TwoCenterSpec):
        return spec.g
    if isinstance(spec, MultiCenterSpec):
        if len(set(spec.couplings)) == 1:
            return spec.couplings[0]
        return ":".join(_fmt(g) for g in spec.couplings)
    return ":".join(_fmt(c) for c in spec.couplings)


def _closed_or_none(spec: ScattererSpec, phi: float, method: str, resonance_fallback: bool = True):
    """Closed amplitudes when the method asks for them; None at a guarded angle or for 'numeric'."""
    if method == "numeric":
        return None
    try:
        return closed_form(spec, phi)[0]
    except ResonantAngleError:
        if not resonance_fallback:
            raise
        return None


def _check_method(spec: ScattererSpec, method: str) -> None:
    if method not in ("numeric", "closed", "both"):
        raise DomainError(f"unknown method {method!r}")
    if method != "numeric" and not isinstance(spec, TwoCenterSpec):
        raise DomainError("closed forms exist only for the two-center model")


def _point_records(spec: ScattererSpec, phi: float, method: str, amp_closed, amp_num) -> list[dict]:
    """The rows of one point from its closed and numeric amplitudes (either may be None).

    A numeric row without its closed partner under 'closed' or 'both' is a
    resonance fallback and carries resonance_flag=1.
    """
    base = {"g": _coupling_label(spec), "N": spec.N if isinstance(spec, TwoCenterSpec) else None, "phi": phi}
    if amp_num is None:
        rows = ((amp_closed, "closed", 0, None),)
    elif amp_closed is None:
        rows = ((amp_num, "numeric", int(method != "numeric"), None),)
    else:
        gap = max(abs(amp_closed.R - amp_num.R), abs(amp_closed.T - amp_num.T))
        rows = ((amp_closed, "closed", 0, gap), (amp_num, "numeric", 0, gap))
    return [
        {**base, **_amp_fields(amp), "method": used, "resonance_flag": flag, "discrepancy": gap}
        for amp, used, flag, gap in rows
    ]


def evaluate_point(
    spec: ScattererSpec, phi: float, method: str, resonance_fallback: bool = True
) -> list[dict]:
    """Records for one grid point; method is 'numeric', 'closed' or 'both'.

    At resonance-guarded angles the closed path falls back to the numeric
    solver with resonance_flag=1 unless resonance_fallback is False, in
    which case ResonantAngleError propagates to the caller.
    """
    _check_method(spec, method)
    amp_closed = _closed_or_none(spec, phi, method, resonance_fallback)
    amp_num = None
    if method != "closed" or amp_closed is None:
        amp_num = solve_numeric(spec, phi)
    return _point_records(spec, phi, method, amp_closed, amp_num)


def _scatterer_records(spec: ScattererSpec, phis: list[float], method: str) -> list[dict]:
    """Records of one scatterer at the angles phis, in order.

    One batched numeric solve covers every angle that needs it: all angles,
    or under 'closed' only the resonance-guarded ones.
    """
    _check_method(spec, method)
    closed = [_closed_or_none(spec, phi, method) for phi in phis]
    wanted = [i for i, amp in enumerate(closed) if method != "closed" or amp is None]
    numeric = dict(zip(wanted, solve_numeric_batch(spec, [phis[i] for i in wanted]))) if wanted else {}
    return [
        row
        for i, (phi, amp_closed) in enumerate(zip(phis, closed))
        for row in _point_records(spec, phi, method, amp_closed, numeric.get(i))
    ]


def scatterer_specs(model: str, couplings, n_values=(), centers=()) -> list[ScattererSpec]:
    """The scatterers of a grid in grid order: couplings outer, N inner.

    couplings are g values ("two-center", "multi-center") or chain coupling
    vectors ("chain"); n_values are two-center separations and centers the
    multi-center block centers, each ignored by the other models.
    """
    if model == "two-center":
        if not couplings or not n_values:
            raise DomainError("two-center model needs g and N values")
        return [TwoCenterSpec(g, n) for g in couplings for n in n_values]
    if model == "chain":
        if not couplings:
            raise DomainError("chain model needs at least one coupling vector")
        return [ChainSpec(tuple(v)) for v in couplings]
    if model == "multi-center":
        if not centers or not couplings:
            raise DomainError("multi-center model needs centers and g values")
        return [MultiCenterSpec(centers, (g,) * len(centers)) for g in couplings]
    raise DomainError(f"unknown model {model!r}")


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
    centers: tuple[int, ...] = ()  # multi-center only

    def specs(self) -> list[ScattererSpec]:
        return scatterer_specs(self.model, self.couplings, self.n_values, self.centers)

    def angles(self) -> np.ndarray:
        return phi_grid(self.phi_count, self.phi_min, self.phi_max)


def sweep_records(config: SweepConfig) -> list[dict]:
    """Evaluate the full grid: couplings outer, N middle, phi inner."""
    phis = config.angles().tolist()
    return [row for spec in config.specs() for row in _scatterer_records(spec, phis, config.method)]


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
    """Quasi-Hermiticity residuals of build_metric on each family's grid."""
    checks = []
    if g_grid and n_grid:
        scored = ((_metric_residual(TwoCenterSpec(g, n)), f"g={g} N={n}") for g in g_grid for n in n_grid)
        checks.append(_check("metric", "two-center", tolerance_two_center, scored))
    if chain_specs:
        scored = ((_metric_residual(ChainSpec(tuple(cs))), _chain_label(tuple(cs))) for cs in chain_specs)
        checks.append(_check("metric", "chain", tolerance_chain, scored))
    return checks


def _chain_label(couplings: tuple) -> str:
    """couplings=(a, b, ...) of a chain; past 8 couplings the first 4 and the length."""
    if len(couplings) <= 8:
        return f"couplings={couplings}"
    return f"couplings=({', '.join(map(repr, couplings[:4]))}, ...) length={len(couplings)}"


def _metric_residual(spec: ScattererSpec) -> float:
    """The residual of spec's metric on a window two sites past its matching radius."""
    window = SiteWindow(spec.matching_radius + 2)
    h = assemble_hamiltonian(build_potential(spec, window))
    with np.errstate(over="ignore", invalid="ignore"):
        return quasi_hermiticity_residual(h, build_metric(spec, window))


def _point_label(point) -> str:
    spec, phi = point
    return f"g={spec.g} N={spec.N} phi={phi:.6f}"


def _check(suite: str, label: str, tolerance: float, scored, point_label=str) -> SuiteCheck:
    """The largest value over (value, point) pairs against tolerance, at point_label(its point).

    A value that is not finite ends the scan and is reported with its
    point: it fails any tolerance, where a NaN would slip past a max.  With
    no value above 0 the check reads 0 at an empty point.
    """
    worst, worst_at = 0.0, None
    for value, point in scored:
        if not value <= worst:
            worst, worst_at = value, point
            if not math.isfinite(value):
                break
    return SuiteCheck(suite, label, worst, tolerance, "" if worst_at is None else point_label(worst_at))


def _two_center_groups(g_grid, n_grid, phi_count):
    # strictly inside (DEFAULT_PHI_MIN, DEFAULT_PHI_MAX)
    phis = np.linspace(DEFAULT_PHI_MIN, DEFAULT_PHI_MAX, phi_count + 2)[1:-1].tolist()
    return [(TwoCenterSpec(g, n), phis) for g in g_grid for n in n_grid]


def unitarity_suite(
    tolerance: float = 1e-11,
    g_grid=DEFAULT_G_GRID,
    n_grid=DEFAULT_N_GRID,
    phi_count=DEFAULT_PHI_COUNT,
) -> list[SuiteCheck]:
    """| |R|^2 + |T|^2 - 1 | over the grid, numeric and closed paths."""
    numeric, closed = [], []
    for spec, phis in _two_center_groups(g_grid, n_grid, phi_count):
        for phi, amp in zip(phis, solve_numeric_batch(spec, phis)):
            numeric.append((amp.unitarity_defect, (spec, phi)))
            amp_c = _closed_or_none(spec, phi, "closed")
            if amp_c is not None:
                closed.append((amp_c.unitarity_defect, (spec, phi)))
    return [
        _check("unitarity", "numeric", tolerance, numeric, _point_label),
        _check("unitarity", "closed", tolerance, closed, _point_label),
    ]


def closed_vs_numeric_suite(
    tolerance: float = 1e-10,
    g_grid=DEFAULT_G_GRID,
    n_grid=DEFAULT_N_GRID,
    phi_count=DEFAULT_PHI_COUNT,
) -> list[SuiteCheck]:
    """Componentwise closed-form vs matching-solver agreement, per family.

    Guarded angles, where the closed form refuses, are left out.
    """
    gaps = {"N=-1": [], "N=0": [], "N>=1": []}
    for spec, phis in _two_center_groups(g_grid, n_grid, phi_count):
        key = "N=-1" if spec.N == -1 else ("N=0" if spec.N == 0 else "N>=1")
        closed = [(phi, _closed_or_none(spec, phi, "closed")) for phi in phis]
        closed = [(phi, amp) for phi, amp in closed if amp is not None]
        numeric = solve_numeric_batch(spec, [phi for phi, _ in closed])
        # R and T scored apart, so that a NaN in either cannot hide behind max()
        gaps[key] += (
            (abs(d), (spec, phi))
            for (phi, amp_c), amp_n in zip(closed, numeric)
            for d in (amp_c.R - amp_n.R, amp_c.T - amp_n.T)
        )
    return [_check("closed-vs-numeric", key, tolerance, scored, _point_label) for key, scored in gaps.items()]
