"""The column tables against the dict-row renderer they replaced.

The reference below builds one dict per row and writes it with csv.writer
and a per-value formatter, as the sweep path did before its tables became
columns.  sweep_records, render_csv and render_json must give the same
bytes on two-center, chain and multi-center grids, and evaluate_point the
same rows.
"""

import csv
import io
import json
import math

import numpy as np
import pytest

import qhscatter.sweeps as sweeps
from qhscatter import Amplitudes, ChainSpec, MultiCenterSpec, TwoCenterSpec
from qhscatter.scattering import closed_form, solve_numeric, solve_numeric_grid
from qhscatter.sweeps import (
    COLUMNS,
    evaluate_point,
    phi_grid,
    render_csv,
    render_json,
    scatterer_specs,
    sweep_records,
)


def _ref_fmt(x) -> str:
    if x is None:
        return ""
    if isinstance(x, str):
        return x
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return format(float(x), ".17g")


def _ref_label(spec):
    if isinstance(spec, TwoCenterSpec):
        return spec.g
    if isinstance(spec, MultiCenterSpec) and len(set(spec.couplings)) == 1:
        return spec.couplings[0]
    return ":".join(_ref_fmt(g) for g in spec.couplings)


def _ref_point_records(spec, phi, method, amp_closed, amp_num):
    base = {"g": _ref_label(spec), "N": spec.N if isinstance(spec, TwoCenterSpec) else None, "phi": phi}
    if amp_num is None:
        rows = ((amp_closed, "closed", 0, None),)
    elif amp_closed is None:
        rows = ((amp_num, "numeric", 0, None),)
    else:
        gap = max(abs(amp_closed.R - amp_num.R), abs(amp_closed.T - amp_num.T))
        rows = ((amp_closed, "closed", 0, gap), (amp_num, "numeric", 0, gap))
    return [
        {
            **base,
            "re_R": amp.R.real,
            "im_R": amp.R.imag,
            "re_T": amp.T.real,
            "im_T": amp.T.imag,
            "abs_R2": amp.R.real**2 + amp.R.imag**2,
            "abs_T2": amp.T.real**2 + amp.T.imag**2,
            "defect": amp.unitarity_defect,
            "method": used,
            "resonance_flag": flag,
            "discrepancy": gap,
        }
        for amp, used, flag, gap in rows
    ]


def reference_records(specs, phis, method):
    records = []
    for spec in specs:
        closed = [None if method == "numeric" else closed_form(spec, phi) for phi in phis]
        numeric = [None] * len(phis)
        if method != "closed":
            R, T = solve_numeric_grid([spec], phis)
            numeric = list(map(Amplitudes, R[0].tolist(), T[0].tolist(), phis))
        for phi, amp_closed, amp_num in zip(phis, closed, numeric):
            records += _ref_point_records(spec, phi, method, amp_closed, amp_num)
    return records


def reference_csv(records) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(COLUMNS)
    for row in records:
        writer.writerow([_ref_fmt(row[c]) for c in COLUMNS])
    return buf.getvalue()


def reference_json(records) -> str:
    out = []
    for row in records:
        item = {}
        for c in COLUMNS:
            v = row[c]
            if isinstance(v, np.floating):
                v = float(v)
            elif isinstance(v, np.integer):
                v = int(v)
            item[c] = v
        out.append(item)
    return json.dumps(out, indent=1) + "\n"


def _special_row(g, n, floats, method, flag, gap):
    return dict(zip(COLUMNS, (g, n, *floats, method, flag, gap)))


SPECIAL_ROWS = [
    _special_row(0.5, -1, (1.0, math.nan, math.inf, -math.inf, -0.0, 0.0, 1e-300, 2.5e300), "closed", 0, None),
    _special_row("0.5:0.29999999999999999", None, (np.float64(0.1), -1.5, 3, -2, 0.25, 1.0, 0.0, 1e-17),
                 "numeric", 1, math.nan),
    _special_row("a, b", 2**60, (math.pi, 0.0, -0.0, 1.0, 0.0, 1.0, 0.0, 0.0), "numeric", 0, -0.0),
    _special_row(-0.0, 0, (1e-3, 0.5, -0.5, 0.5, -0.5, 0.5, 0.5, 5e-324), "both \"é\"", 0, math.inf),
]


def two_center(method, couplings=(0.4, -0.9), n_values=(-1, 0, 1, 2, 50), count=41):
    return scatterer_specs("two-center", couplings, n_values), phi_grid(count), method


# (scatterers, angles, method) of each sweep
SWEEPS = {
    "two-center-both": two_center("both"),
    "two-center-numeric": two_center("numeric"),
    "two-center-closed": two_center("closed"),
    # 0.0 and -0.0 are equal but print as 0 and -0
    "signed-zero": two_center("both", couplings=(0.0, -0.0, 0.0), n_values=(3,), count=5),
    "chain": (scatterer_specs("chain", ((0.5, 0.3), (0.4, -0.2, 0.6), (0.1,))), phi_grid(30), "numeric"),
    "multi-center-equal": (scatterer_specs("multi-center", (0.3, 0.5), centers=(-6, 0, 7)), phi_grid(30), "numeric"),
    # an explicit list of every family, with layouts the CLI grids cannot name
    "mixed": (
        [
            MultiCenterSpec((-6, 0, 7), (0.3, -0.5, 0.7)),
            TwoCenterSpec(0.4, 3),
            ChainSpec((0.5, 0.3)),
            MultiCenterSpec((-4, 4), (0.2, 0.2)),
        ],
        phi_grid(30),
        "numeric",
    ),
}


@pytest.fixture(scope="module", params=sorted(SWEEPS))
def tables(request):
    specs, phis, method = SWEEPS[request.param]
    records = reference_records(specs, phis.tolist(), method)
    return request.param, sweep_records(specs, phis, method), records


class TestColumnsMatchDictRows:
    def test_csv_bytes(self, tables):
        _, table, records = tables
        assert render_csv(table).encode() == reference_csv(records).encode()

    def test_json_bytes(self, tables):
        _, table, records = tables
        assert render_json(table).encode() == reference_json(records).encode()

    @pytest.mark.parametrize("rows", [SPECIAL_ROWS, SPECIAL_ROWS[:1], []], ids=["special", "one", "empty"])
    def test_json_bytes_of_special_cells(self, rows):
        # None, NaN, +-inf, -0.0, int N, chain labels, method strings, a numpy
        # float, and a label that the encoder's separator would split
        table = {c: [row[c] for row in rows] for c in COLUMNS}
        assert render_json(table) == json.dumps(rows, indent=1) + "\n"

    def test_grids_reach_every_kind_of_cell(self, tables):
        name, table, _ = tables
        assert set(table["resonance_flag"]) == {0}
        if name == "two-center-closed":
            # one closed row per point, with an empty discrepancy
            assert set(table["method"]) == {"closed"} and set(table["discrepancy"]) == {None}
        if name == "two-center-both":
            assert table["method"] == ["closed", "numeric"] * (len(table["phi"]) // 2)
            assert None not in table["discrepancy"]
        if name == "chain":
            assert isinstance(table["g"][0], str) and set(table["N"]) == {None}
        if name == "mixed":
            assert table["g"][0] == "0.29999999999999999:-0.5:0.69999999999999996"
            assert table["g"][30:61:30] == [0.4, "0.5:0.29999999999999999"]
            assert table["N"][::30] == [None, 3, None, None]
            assert table["g"][-1] == 0.2  # equal couplings print as one g


class TestEvaluatePointMatchesDictRows:
    @pytest.mark.parametrize(
        "spec,phi,method",
        [
            (TwoCenterSpec(0.5, 0), 1.0, "both"),
            (TwoCenterSpec(-0.9, 2), 1e-7, "both"),
            (TwoCenterSpec(0.5, 2), math.pi / 2, "both"),
            (TwoCenterSpec(0.5, 2), math.pi / 2, "closed"),
            (TwoCenterSpec(0.3, 10), 2.5, "closed"),
            (TwoCenterSpec(0.3, -1), math.pi - 1e-9, "numeric"),
            (ChainSpec((0.5, 0.3)), 1.0, "numeric"),
            (MultiCenterSpec((-6, 0, 7), (0.3, -0.5, 0.7)), 0.9, "numeric"),
        ],
    )
    def test_rows(self, spec, phi, method):
        amp_closed = None if method == "numeric" else closed_form(spec, phi)
        amp_num = None if method == "closed" else solve_numeric(spec, phi)
        expected = _ref_point_records(spec, phi, method, amp_closed, amp_num)
        got = evaluate_point(spec, phi, method)
        assert [list(row.items()) for row in got] == [list(row.items()) for row in expected]


def test_each_scatterer_is_solved_once(monkeypatch):
    calls = []
    numeric_grid = sweeps.solve_numeric_grid

    def spy(specs, phis):
        calls.extend(specs)
        return numeric_grid(specs, phis)

    monkeypatch.setattr(sweeps, "solve_numeric_grid", spy)
    specs, phis, method = SWEEPS["two-center-both"]
    sweep_records(specs, phis, method)
    assert calls == specs
