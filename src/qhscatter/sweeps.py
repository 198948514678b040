"""Parameter sweeps, machine-readable tables and built-in verification suites.

A sweep's table holds one list per column, in a fixed column order, and
one row per evaluation; it is built from the amplitudes of the whole grid
and written by one row template.  Numbers are printed with 17 significant
digits so a re-parsed file reproduces the original doubles exactly;
identical configurations produce byte-identical files.  Sweeps and the
amplitude suites read the same arrays: closed_form_grid and
solve_numeric_grid give R and T of every point, answering the scatterers
of one bond layout (the two-center specs of one N, the chains of one
length) as one batch, and the squares, defects and gaps are taken from
them (_squares, _gaps) as evaluate_point takes them from closed_form and
solve_numeric at one angle, with the same bits.  resonance_flag stays in
the table as a column that reads 0.  A refusal is solve_numeric_grid's:
the first failing point in grid order raises what solve_numeric raises.

The suites keep their scores as arrays in grid order (SuiteScores), and
one rule picks each check's worst point: the first NaN or +inf, else the
first maximum above 0.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from itertools import chain, groupby, repeat
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .errors import DomainError
from .metric import build_metric, quasi_hermiticity_residual
from .potentials import (
    ChainSpec,
    MultiCenterSpec,
    ScattererSpec,
    TwoCenterSpec,
    assemble_hamiltonian,
    build_potential,
)
from .lattice import SiteWindow, as_angle
from .scattering import closed_form, closed_form_grid, solve_numeric, solve_numeric_grid

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


def _scatterer_cells(spec: ScattererSpec) -> tuple:
    """The g and N cells of spec's rows.

    g is the coupling of a two-center spec or of a multi-center spec with
    equal couplings, else the couplings joined by ':'; N is empty (None)
    but for two-center specs.
    """
    if isinstance(spec, TwoCenterSpec):
        return spec.g, spec.N
    if isinstance(spec, MultiCenterSpec) and len(set(spec.couplings)) == 1:
        return spec.couplings[0], None
    return ":".join(_fmt(g) for g in spec.couplings), None


def _check_method(spec: ScattererSpec, method: str) -> None:
    if method not in ("numeric", "closed", "both"):
        raise DomainError(f"unknown method {method!r}")
    if method != "numeric" and not isinstance(spec, TwoCenterSpec):
        raise DomainError("closed forms exist only for the two-center model")


def evaluate_point(spec: ScattererSpec, phi: float, method: str) -> list[dict]:
    """Records for one grid point; method is 'numeric', 'closed' or 'both'.

    The records are the point's rows of a sweep table, as dicts keyed by
    COLUMNS: the closed row first, then the numeric row, where present; a
    pair shares its discrepancy.
    """
    _check_method(spec, method)
    phi = as_angle(phi)
    amps = {}
    if method != "numeric":
        amps["closed"] = closed_form(spec, phi)
    if method != "closed":
        amps["numeric"] = solve_numeric(spec, phi)
    gap = None
    if len(amps) == 2:
        amp_c, amp_n = amps.values()
        gap = max(abs(amp_c.R - amp_n.R), abs(amp_c.T - amp_n.T))
    g, n = _scatterer_cells(spec)
    records = []
    for used, amp in amps.items():
        R, T = amp.R, amp.T
        abs_R2, abs_T2 = R.real**2 + R.imag**2, T.real**2 + T.imag**2
        defect = abs(abs_R2 + abs_T2 - 1.0)
        values = (g, n, phi, R.real, R.imag, T.real, T.imag, abs_R2, abs_T2, defect, used, 0, gap)
        records.append(dict(zip(COLUMNS, values)))
    return records


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


def _squares(R: np.ndarray, T: np.ndarray) -> list[list]:
    """The columns re_R through defect at each point of R and T, flattened.

    The squares and the defect are taken on Python floats, in
    evaluate_point's association, so each has its bits.
    """
    z = np.stack((R, T)).reshape(2, -1)
    (re_R, re_T), (im_R, im_T) = z.real.tolist(), z.imag.tolist()
    abs_R2 = [x**2 + y**2 for x, y in zip(re_R, im_R)]
    abs_T2 = [x**2 + y**2 for x, y in zip(re_T, im_T)]
    return [re_R, im_R, re_T, im_T, abs_R2, abs_T2, [abs(r2 + t2 - 1.0) for r2, t2 in zip(abs_R2, abs_T2)]]


def _gaps(closed: tuple, numeric: tuple) -> tuple[np.ndarray, np.ndarray]:
    """|R_c - R_n| and |T_c - T_n| at each point of the (R, T) arrays closed and numeric, flattened."""
    (R_c, T_c), (R_n, T_n) = closed, numeric
    return tuple(np.hypot(d.real, d.imag).reshape(-1) for d in (R_c - R_n, T_c - T_n))


def sweep_records(specs: list[ScattererSpec], phis: np.ndarray, method: str) -> dict[str, list]:
    """The table of the scatterers specs at the angles phis: one list per name in COLUMNS.

    Rows run in the order of specs, phi inner, and each has evaluate_point's
    values at its point, bit for bit: closed_form_grid and solve_numeric_grid
    answer every point as arrays, one batch per bond layout.  A pair shares
    one discrepancy object, max(|dR|, |dT|) as max() takes it (a NaN in dT
    alone is dropped).  A scatterer the method does not fit is refused after
    the scatterers before it are answered, as a loop over specs would.
    """
    if method not in ("numeric", "closed", "both"):
        raise DomainError(f"unknown method {method!r}")
    for i, spec in enumerate(specs):
        try:
            _check_method(spec, method)
        except DomainError:
            if i:  # only the route that could raise first; closed_form_grid refuses only bad angles
                (solve_numeric_grid if method == "both" else closed_form_grid)(specs[:i], phis)
            raise
    amps = {}  # (R, T) arrays of each method, closed first
    if method != "numeric":
        amps["closed"] = closed_form_grid(specs, phis)
    if method != "closed":
        amps["numeric"] = solve_numeric_grid(specs, phis)
    parts = _squares(*np.stack(list(amps.values()), axis=-1))  # each point's rows side by side
    discrepancy = [None] * len(parts[0])
    if len(amps) == 2:
        gap_R, gap_T = _gaps(*amps.values())
        discrepancy = [d for d in np.where(gap_T > gap_R, gap_T, gap_R).tolist() for _ in (0, 1)]
    per_spec = len(phis) * len(amps)
    cells = [_scatterer_cells(spec) for spec in specs]
    g, n = (list(chain.from_iterable(repeat(cell[j], per_spec) for cell in cells)) for j in (0, 1))
    phi = np.tile(np.repeat(phis, len(amps)), len(specs)).tolist()
    methods = list(amps) * (len(phis) * len(specs))
    return dict(zip(COLUMNS, (g, n, phi, *parts, methods, [0] * len(phi), discrepancy)))


# the row template prints these with 17 significant digits and the others with %s:
# method and resonance_flag as they are, the text columns (labels, an empty N or
# discrepancy) formatted beforehand
_FLOAT_COLUMNS = ("phi", "re_R", "im_R", "re_T", "im_T", "abs_R2", "abs_T2", "defect")
_TEXT_COLUMNS = ("g", "N", "discrepancy")
_ROW = ",".join("%.17g" if c in _FLOAT_COLUMNS else "%s" for c in COLUMNS) + "\n"


def _cells(column: list) -> list[str]:
    """The text of a label, N or discrepancy column, formatted once per run of one object.

    A scatterer repeats one g and one N over its rows, and a closed and
    numeric pair shares one discrepancy.
    """
    cells = []
    for _, run in groupby(column, key=id):
        run = list(run)
        cells += [_fmt(run[0])] * len(run)
    return cells


def render_csv(table: dict[str, list]) -> str:
    """The table as CSV: a header, then one row template applied to all rows at once."""
    cells = [_cells(table[c]) if c in _TEXT_COLUMNS else table[c] for c in COLUMNS]
    values = tuple(chain.from_iterable(zip(*cells)))
    return (",".join(COLUMNS) + "\n" + _ROW * len(table["phi"])) % values


# one row of json.dumps(rows, indent=1), each value a %s
_JSON_ROW = " {\n" + ",\n".join(f"  {json.dumps(c)}: %s" for c in COLUMNS) + "\n }"


def _json_cells(column: list) -> list[str]:
    """The JSON text of each value of a column, from one pass of the C encoder over the column.

    The encoder separates the values with ", ", which no number, null or
    sweep label contains; a column whose text splits into another count is
    encoded value by value.
    """
    cells = json.dumps(column)[1:-1].split(", ")
    return cells if len(cells) == len(column) else [json.dumps(v) for v in column]


def render_json(table: dict[str, list]) -> str:
    """The table as JSON, the bytes of json.dumps(rows, indent=1) + "\\n" for its dict rows.

    One row template is applied to all rows at once, as render_csv does.
    """
    count = len(table["phi"])
    if not count:
        return "[]\n"
    values = tuple(chain.from_iterable(zip(*(_json_cells(table[c]) for c in COLUMNS))))
    return ("[\n" + ",\n".join([_JSON_ROW] * count) + "\n]\n") % values


def write_table(table: dict[str, list], fmt: str, path: str | Path) -> None:
    text = render_csv(table) if fmt == "csv" else render_json(table)
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
        points = [(g, n) for g in g_grid for n in n_grid]
        residuals = [_metric_residual(TwoCenterSpec(g, n)) for g, n in points]
        label = lambda i: "g={} N={}".format(*points[i])  # noqa: E731
        checks.append(_check("metric", "two-center", tolerance_two_center, residuals, label))
    if chain_specs:
        chains = [tuple(cs) for cs in chain_specs]
        residuals = [_metric_residual(ChainSpec(cs)) for cs in chains]
        checks.append(_check("metric", "chain", tolerance_chain, residuals, lambda i: _chain_label(chains[i])))
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


def _check(suite: str, label: str, tolerance: float, values, point_label) -> SuiteCheck:
    """The worst of values against tolerance, at point_label(its index).

    The worst value is the first NaN or +inf, which fails any tolerance
    where a NaN would slip past a max; else the first maximum above 0.
    With no value above 0 the check reads 0 at an empty point.
    """
    values = np.asarray(values, dtype=np.float64)
    not_finite = np.isnan(values) | (values == math.inf)
    if not_finite.any():
        worst = int(not_finite.argmax())
    elif values.size and values.max() > 0.0:
        worst = int(values.argmax())
    else:
        return SuiteCheck(suite, label, 0.0, tolerance, "")
    return SuiteCheck(suite, label, float(values[worst]), tolerance, point_label(worst))


class SuiteScores(NamedTuple):
    """What the amplitude suites score: one value per point of specs x phis, in grid order (phi inner)."""

    specs: list[TwoCenterSpec]
    phis: np.ndarray
    numeric_defect: np.ndarray
    closed_defect: np.ndarray
    gap_R: np.ndarray
    gap_T: np.ndarray

    def label(self, point: int) -> str:
        spec, phi = self.specs[point // len(self.phis)], self.phis[point % len(self.phis)]
        return f"g={spec.g} N={spec.N} phi={phi:.6f}"


def suite_scores() -> SuiteScores:
    """What the amplitude suites score at each point of the default grid, each point evaluated once.

    The whole grid is one closed_form_grid and one solve_numeric_grid call,
    as a sweep of it is: the specs of one N are one bond layout and one
    batch, and a refusal is the first failing point in grid order, as
    solve_numeric_grid keeps it.  Only the defects and the gaps are kept.
    """
    # strictly inside (DEFAULT_PHI_MIN, DEFAULT_PHI_MAX)
    phis = np.linspace(DEFAULT_PHI_MIN, DEFAULT_PHI_MAX, DEFAULT_PHI_COUNT + 2)[1:-1]
    specs = [TwoCenterSpec(g, n) for g in DEFAULT_G_GRID for n in DEFAULT_N_GRID]
    closed, numeric = closed_form_grid(specs, phis), solve_numeric_grid(specs, phis)
    defects = (np.array(_squares(*amps)[-1]) for amps in (numeric, closed))
    return SuiteScores(specs, phis, *defects, *_gaps(closed, numeric))


def unitarity_suite(scores: SuiteScores, tolerance: float = 1e-11) -> list[SuiteCheck]:
    """| |R|^2 + |T|^2 - 1 | over suite_scores' scores, numeric and closed paths."""
    return [
        _check("unitarity", "numeric", tolerance, scores.numeric_defect, scores.label),
        _check("unitarity", "closed", tolerance, scores.closed_defect, scores.label),
    ]


def closed_vs_numeric_suite(scores: SuiteScores, tolerance: float = 1e-10) -> list[SuiteCheck]:
    """Componentwise closed-form vs matching-solver agreement over suite_scores' scores, per family."""
    family = np.repeat([min(spec.N, 1) for spec in scores.specs], len(scores.phis))  # -1, 0, or 1 for N >= 1
    # each point's R and T gaps in turn, scored apart so that a NaN in either cannot hide behind max()
    gaps = np.stack((scores.gap_R, scores.gap_T), axis=-1)
    checks = []
    for key, f in (("N=-1", -1), ("N=0", 0), ("N>=1", 1)):
        points = np.flatnonzero(family == f)
        checks.append(
            _check("closed-vs-numeric", key, tolerance, gaps[points].reshape(-1), lambda i: scores.label(points[i // 2]))
        )
    return checks
