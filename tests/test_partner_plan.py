"""The bond rows' plan: laid out once per bond layout, filled per angle.

scattering._plan holds what depends only on where the bonds sit: their
order, the phases the rows read and the places of the entries.  The
batched route must hand LAPACK, for every (scatterer, angle) system, the
band and right-hand side that the one-angle fill (_bond_system) builds,
byte for byte: on the verify grid, at edge points, near the band edges,
for chains and for multi-center layouts, with strong and weak bonds in
one batch.  Layouts are shared between scatterers that differ only in
their couplings, and the cache stays bounded.
"""

import math
import random

import numpy as np
import pytest

import qhscatter.scattering as scattering
from qhscatter import (
    ChainSpec,
    MultiCenterSpec,
    TwoCenterSpec,
    closed_form,
    solve_numeric,
    solve_numeric_grid,
)
from qhscatter.scattering import PLAN_CACHE, numeric_wave
from qhscatter.sweeps import DEFAULT_G_GRID, DEFAULT_N_GRID
from test_numeric_batch import VERIFY_ANGLES, bench_worker  # noqa: F401 (a fixture)
from test_scattering import CHAIN_AND_MULTI_SPECS

EDGE_ANGLES = [1e-12, 3e-9, 1e-4, math.pi - 1e-4, math.pi - 3e-9, math.pi - 1e-12]
MULTI_CENTER = [s for s in CHAIN_AND_MULTI_SPECS if isinstance(s, MultiCenterSpec)]
LONG_CHAIN = ChainSpec(tuple(np.random.default_rng(4).uniform(-0.9, 0.9, 1000)))


def _negated(spec):
    """spec with every coupling negated: the same bond positions and rows."""
    if isinstance(spec, TwoCenterSpec):
        return TwoCenterSpec(-spec.g, spec.N)
    if isinstance(spec, ChainSpec):
        return ChainSpec(tuple(-c for c in spec.couplings))
    return MultiCenterSpec(spec.centers, tuple(-g for g in spec.couplings))


def _assert_grid_fills_as_one_angle(specs, phis, monkeypatch):
    """The systems the batch hands zgbsv are the one-angle fills of its points, byte for byte.

    specs share one layout; the batch may take them in another order (runs
    of the same strong bonds), so the systems are compared as multisets.
    """
    systems, zgbsv = [], scattering.zgbsv

    def spy(kl, ku, ab, b, **kwargs):
        systems.append((ab.T.copy(), b.copy()))
        return zgbsv(kl, ku, ab, b, **kwargs)

    monkeypatch.setattr(scattering, "zgbsv", spy)
    solve_numeric_grid(specs, phis)
    monkeypatch.setattr(scattering, "zgbsv", zgbsv)
    n = scattering._plan(tuple(specs[0].bond_map())).n
    bands = np.concatenate([ab.reshape(-1, 7 * n) for ab, _ in systems])
    rhs = np.concatenate([b.reshape(-1, n) for _, b in systems])
    expected = []
    for spec in specs:
        for phi in np.asarray(phis, dtype=float).tolist():
            _, ab_one, rhs_one = scattering._bond_system(spec.bond_map(), phi)
            expected.append(ab_one.tobytes() + rhs_one.tobytes())
    assert sorted(band.tobytes() + right.tobytes() for band, right in zip(bands, rhs)) == sorted(expected)


class TestGridFillIsTheOneAngleFill:
    @pytest.mark.parametrize("n", DEFAULT_N_GRID)
    def test_verify_grid(self, n, monkeypatch):
        # weak and strong couplings of one separation share a batch
        _assert_grid_fills_as_one_angle([TwoCenterSpec(g, n) for g in DEFAULT_G_GRID], VERIFY_ANGLES, monkeypatch)

    def test_edge_points(self, bench_worker, monkeypatch):  # noqa: F811
        # sampled edge scatterers and their twins at their own angles and at the band edges
        points, _ = bench_worker.edge_inputs(1)
        for g, n, phi in random.Random(7).sample(points, 40):
            spec = TwoCenterSpec(g, n)
            _assert_grid_fills_as_one_angle([spec, _negated(spec)], [phi, *EDGE_ANGLES], monkeypatch)

    @pytest.mark.parametrize("n", [-1, 0, 1, 3, 10, 50, 200, 8000, 10**9])
    def test_edge_separations_near_the_band_edges(self, n, monkeypatch):
        specs = [TwoCenterSpec(g, n) for g in (0.999999999, -0.4, 1e-6, 0.0, -0.0)]
        _assert_grid_fills_as_one_angle(specs, EDGE_ANGLES, monkeypatch)

    @pytest.mark.parametrize(
        "spec", [ChainSpec((0.5,)), ChainSpec((0.8, -0.5, 0.3, -0.7)), LONG_CHAIN], ids=["1", "4", "1000"]
    )
    def test_chains(self, spec, monkeypatch):
        _assert_grid_fills_as_one_angle([spec, _negated(spec)], [1e-9, 0.4, 1.7, math.pi - 1e-9], monkeypatch)

    @pytest.mark.parametrize("spec", MULTI_CENTER, ids=repr)
    def test_multi_center(self, spec, monkeypatch):
        _assert_grid_fills_as_one_angle([spec, _negated(spec)], [1e-9, 0.4, 1.7, 2.9, math.pi - 1e-9], monkeypatch)


class TestOnePlanPerLayout:
    def test_same_separation_shares_the_plan(self):
        a, b = TwoCenterSpec(0.3, 5), TwoCenterSpec(-0.8, 5)
        assert scattering._plan(tuple(a.bond_map())) is scattering._plan(tuple(b.bond_map()))
        amp_a, amp_b = solve_numeric(a, 1.0), solve_numeric(b, 1.0)
        assert (amp_a.R, amp_a.T) != (amp_b.R, amp_b.T)
        for spec, amp in ((a, amp_a), (b, amp_b)):
            ref = closed_form(spec, 1.0)
            assert max(abs(ref.R - amp.R), abs(ref.T - amp.T)) <= 1e-12

    def test_layout_work_runs_once(self):
        # a layout is planned when it is first met, not per solve
        scattering._plan.cache_clear()
        specs = [TwoCenterSpec(g, 7) for g in (0.2, -0.6, 0.95)]
        for spec in specs:
            for phi in np.linspace(0.1, 3.0, 20).tolist():
                solve_numeric(spec, phi)
            solve_numeric_grid([spec], np.linspace(0.1, 3.0, 30))
            numeric_wave(spec, 0.8)
        assert scattering._plan.cache_info().misses == 1
        scattering._plan.cache_clear()

    @pytest.mark.parametrize(
        "spec, phases",
        [(TwoCenterSpec(0.4, 10), 2), (TwoCenterSpec(0.95, -1), 1), (ChainSpec((0.5, 0.3, -0.2)), 2)],
        ids=["separated", "merged", "chain"],
    )
    def test_phase_and_zgbsv_are_looked_up_per_solve(self, monkeypatch, spec, phases):
        # the phases of the flanks and of each segment longer than one site, e(-k) taken as
        # conj(e(k)) (the blocks' e(b_0 + 1) mirrors e(b_{K-1})), and one LAPACK call
        calls = []
        phase, zgbsv = scattering._phase, scattering.zgbsv

        def phase_spy(k, p):
            calls.append(("phase", k))
            return phase(k, p)

        def zgbsv_spy(*args, **kwargs):
            calls.append(("zgbsv", None))
            return zgbsv(*args, **kwargs)

        monkeypatch.setattr(scattering, "_phase", phase_spy)
        monkeypatch.setattr(scattering, "zgbsv", zgbsv_spy)
        for _ in range(2):
            calls.clear()
            solve_numeric(spec, 1.1)
            assert [kind for kind, _ in calls] == ["phase"] * phases + ["zgbsv"]

    def test_cache_is_bounded(self):
        scattering._plan.cache_clear()
        for n in range(PLAN_CACHE + 5):
            solve_numeric(TwoCenterSpec(0.5, n), 1.0)
        info = scattering._plan.cache_info()
        assert info.currsize == info.maxsize == PLAN_CACHE
        assert info.misses == PLAN_CACHE + 5
