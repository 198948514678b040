"""The closed form and the sweep tables over a scatterer's whole angle array.

closed_form_grid of one spec must give closed_form's bits at every angle,
signed zeros included: its real-part arithmetic copies CPython's complex
product and quotient.  A sweep's columns come from those arrays and from
solve_numeric_grid, and every cell must equal what evaluate_point gives
the angle, the discrepancy being Python's max(abs(dR), abs(dT)) also when
dT is NaN.  A block layout's T scale is exactly 1 and is not summed.
"""

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qhscatter.scattering as scattering
import qhscatter.sweeps as sweeps
from qhscatter import ChainSpec, MultiCenterSpec, TwoCenterSpec, closed_form, solve_numeric, sweep_records
from qhscatter.metric import half_log_ratio
from qhscatter.potentials import MAX_N
from qhscatter.scattering import _quot, closed_form_grid, solve_numeric_grid
from qhscatter.sweeps import DEFAULT_G_GRID, DEFAULT_N_GRID, COLUMNS, evaluate_point, phi_grid
from test_numeric_batch import VERIFY_ANGLES, bench_worker  # noqa: F401 (a fixture)


def _parts(z) -> str:
    # repr tells -0.0 from 0.0 and shows every bit of a finite double
    return repr((z.real, z.imag))


def _assert_closed_arrays_are_closed_form(spec, phis):
    R, T = closed_form_grid([spec], phis)
    assert R.shape == T.shape == (1, len(phis))
    for phi, r, t in zip(np.asarray(phis, dtype=float).tolist(), R[0].tolist(), T[0].tolist()):
        amp = closed_form(spec, phi)
        assert (_parts(r), _parts(t)) == (_parts(amp.R), _parts(amp.T)), (spec, phi)


class TestClosedArraysBitForBit:
    @pytest.mark.parametrize("g", DEFAULT_G_GRID)
    def test_verify_grid(self, g):
        for n in DEFAULT_N_GRID:
            _assert_closed_arrays_are_closed_form(TwoCenterSpec(g, n), VERIFY_ANGLES)

    def test_sweep_dense_grid(self, bench_worker):
        gs, ns, count, _ = bench_worker.SWEEPS["sweep-dense"]
        for g in gs:
            for n in ns:
                _assert_closed_arrays_are_closed_form(TwoCenterSpec(g, n), phi_grid(count))

    @pytest.mark.parametrize("seed, count", [(1, None), (2, 1000), (3, 1000)])
    def test_edge_points(self, bench_worker, seed, count):
        # the edge workload's points (all 9,994 of seed 1), each scatterer's angles as one array
        points, _ = bench_worker.edge_inputs(seed)
        points = random.Random(seed).sample(points, count) if count else points
        by_spec = {}
        for g, n, phi in points:
            by_spec.setdefault((g, n), []).append(phi)
        for (g, n), phis in by_spec.items():
            _assert_closed_arrays_are_closed_form(TwoCenterSpec(g, n), phis)

    @settings(max_examples=200, deadline=None)
    @given(
        g=st.floats(-(1.0 - 1e-12), 1.0 - 1e-12),
        n=st.one_of(st.integers(-1, 60), st.integers(-1, MAX_N)),
        near=st.lists(st.floats(0.0, 1e-12, exclude_min=True), min_size=1, max_size=4),
        inside=st.lists(st.floats(0.0, math.pi, exclude_min=True, exclude_max=True), max_size=4),
    )
    def test_any_scatterer_and_angles_near_the_band_edges(self, g, n, near, inside):
        phis = near + [math.pi - d for d in near] + inside
        _assert_closed_arrays_are_closed_form(TwoCenterSpec(g, n), [p for p in phis if 0.0 < p < math.pi])

    def test_an_empty_array(self):
        R, T = closed_form_grid([TwoCenterSpec(0.5, 2)], [])
        assert R.shape == T.shape == (1, 0)


def _random_parts(rng, count):
    """Real and imaginary parts with signed zeros, tiny, huge and ordinary magnitudes."""
    special = [0.0, -0.0, 1.0, -1.0, 5e-324, -1e-300, 1e300, 2.0]
    return np.array([
        rng.choice(special) if rng.random() < 0.2 else rng.choice((-1, 1)) * 10 ** rng.uniform(-30, 30)
        for _ in range(count)
    ])


def test_quot_is_python_complex_division():
    rng = random.Random(7)
    ar, ai, br, bi = (_random_parts(rng, 20000) for _ in range(4))
    keep = (br != 0.0) | (bi != 0.0)
    ar, ai, br, bi = ar[keep], ai[keep], br[keep], bi[keep]
    re, im = _quot(ar, ai, br, bi)
    for z, a, b in zip(zip(re.tolist(), im.tolist()), map(complex, ar, ai), map(complex, br, bi)):
        assert repr(z) == _parts(a / b), (a, b)


class TestColumnsAreEvaluatePoint:
    @pytest.mark.parametrize("method", ["both", "closed", "numeric"])
    def test_every_cell(self, method):
        specs, phis = [TwoCenterSpec(g, n) for g in (0.3, -0.9) for n in (-1, 0, 7)], phi_grid(23, 1e-9)
        table = sweep_records(specs, phis, method)
        rows = [r for s in specs for phi in phis for r in evaluate_point(s, phi, method)]
        assert len(rows) == len(table["phi"])
        for c in COLUMNS:
            assert repr(table[c]) == repr([r[c] for r in rows]), c

    def test_discrepancy_is_pythons_max(self):
        spec, phis = TwoCenterSpec(-0.7, 10), phi_grid(200)
        columns = sweep_records([spec], phis, "both")
        gap_R, gap_T = (gap.tolist() for gap in sweeps._gaps(closed_form_grid([spec], phis), solve_numeric_grid([spec], phis)))
        for i, phi in enumerate(phis.tolist()):
            amp_c, amp_n = closed_form(spec, phi), solve_numeric(spec, phi)
            d_R, d_T = abs(amp_c.R - amp_n.R), abs(amp_c.T - amp_n.T)
            assert repr((gap_R[i], gap_T[i])) == repr((d_R, d_T))
            assert repr(columns["discrepancy"][2 * i : 2 * i + 2]) == repr([max(d_R, d_T)] * 2)
            # the pair's cell is one object, formatted once
            assert columns["discrepancy"][2 * i] is columns["discrepancy"][2 * i + 1]

    @pytest.mark.parametrize("part", ["R", "T"])
    def test_a_nan_in_one_amplitude(self, part, monkeypatch):
        # max(|dR|, nan) is |dR| and max(nan, |dT|) is nan, as evaluate_point takes them
        spec, phis = TwoCenterSpec(0.5, 2), phi_grid(9)
        closed_grid = sweeps.closed_form_grid

        def nan_at_angle_4(s, p):
            R, T = closed_grid(s, p)
            (R if part == "R" else T)[0, 4] = complex(math.nan, 0.0)
            return R, T

        monkeypatch.setattr(sweeps, "closed_form_grid", nan_at_angle_4)
        columns = sweep_records([spec], phis, "both")
        gap_R, gap_T = sweeps._gaps(nan_at_angle_4([spec], phis), solve_numeric_grid([spec], phis))
        amp_c, amp_n = closed_form(spec, phis[4]), solve_numeric(spec, phis[4])
        if part == "R":
            expected = max(abs(complex(math.nan, 0.0) - amp_n.R), abs(amp_c.T - amp_n.T))
        else:
            expected = max(abs(amp_c.R - amp_n.R), abs(complex(math.nan, 0.0) - amp_n.T))
        assert repr(columns["discrepancy"][8:10]) == repr([expected] * 2)
        assert math.isnan((gap_R if part == "R" else gap_T)[4])
        assert sweeps._cells(columns["discrepancy"])[8:10] == [sweeps._fmt(expected)] * 2


class TestNumericArrays:
    def test_components_of_solve_numeric(self):
        for spec in (TwoCenterSpec(0.9, 0), ChainSpec((0.4, -0.2, 0.6)), MultiCenterSpec((-7, 0, 5), (0.2, -0.5, 0.8))):
            R, T = solve_numeric_grid([spec], VERIFY_ANGLES)
            for phi, r, t in zip(VERIFY_ANGLES.tolist(), R[0].tolist(), T[0].tolist()):
                amp = solve_numeric(spec, phi)
                assert (_parts(r), _parts(t)) == (_parts(amp.R), _parts(amp.T))


class TestBlockScale:
    @settings(max_examples=200, deadline=None)
    @given(
        gaps=st.lists(st.integers(2, 40), min_size=0, max_size=5),
        first=st.integers(-60, 60),
        gs=st.lists(st.floats(-(1.0 - 1e-12), 1.0 - 1e-12), min_size=6, max_size=6),
    )
    def test_block_terms_cancel_exactly(self, gaps, first, gs):
        # why blocks skip the sum: the log-form terms of any block layout add to 0.0
        centers = [first]
        for gap in gaps:
            centers.append(centers[-1] + gap)
        spec = MultiCenterSpec(tuple(centers), tuple(gs[: len(centers)]))
        assert math.fsum(half_log_ratio(g) for g in spec.bond_map().values()) == 0.0

    def test_only_chains_sum_the_scale(self, monkeypatch):
        calls = []
        monkeypatch.setattr(scattering, "half_log_ratio", lambda g: calls.append(g) or half_log_ratio(g))
        for spec in (TwoCenterSpec(0.7, 3), TwoCenterSpec(-0.4, -1), MultiCenterSpec((-3, 4), (0.5, -0.2))):
            solve_numeric(spec, 1.0)
            solve_numeric_grid([spec], VERIFY_ANGLES)
        assert calls == []
        solve_numeric(ChainSpec((0.5, -0.3)), 1.0)
        assert len(calls) == 3
