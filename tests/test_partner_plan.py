"""The partner system's plan: laid out once per bond layout, filled per angle.

scattering._plan holds what depends only on where the bonds sit; each call
writes the couplings' hops and the angle's diagonal and phases where the
plan says.  The filled band and right-hand side must equal the per-entry
reference of partner_reference.py byte for byte, at one angle and for a
batch, so every solution keeps its bits.  Layouts are shared between
scatterers that differ only in their couplings, and the cache stays
bounded.
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
from partner_reference import reference_partner_system
from test_numeric_batch import VERIFY_ANGLES, bench_worker  # noqa: F401 (a fixture)
from test_scattering import CHAIN_AND_MULTI_SPECS

EDGE_ANGLES = [1e-12, 3e-9, 1e-4, math.pi - 1e-4, math.pi - 3e-9, math.pi - 1e-12]
MULTI_CENTER = [s for s in CHAIN_AND_MULTI_SPECS if isinstance(s, MultiCenterSpec)]
LONG_CHAIN = ChainSpec(tuple(np.random.default_rng(4).uniform(-0.9, 0.9, 1000)))


def _negated(spec):
    """spec with every coupling negated: the same bond positions, other hops."""
    if isinstance(spec, TwoCenterSpec):
        return TwoCenterSpec(-spec.g, spec.N)
    if isinstance(spec, ChainSpec):
        return ChainSpec(tuple(-c for c in spec.couplings))
    return MultiCenterSpec(spec.centers, tuple(-g for g in spec.couplings))


def _assert_fills_the_reference(spec, phis):
    """The plan's fill equals the reference at each angle of phis alone and for phis as one batch.

    The batches are the group fill of spec alone at all of phis, and of
    spec with its negated twin (one layout) at their (scatterer, angle)
    pairs in a shuffled order, each column the reference's column of its pair.
    """
    bonds, twin = spec.bond_map(), _negated(spec).bond_map()
    batch = np.asarray(phis, dtype=np.float64)
    plan = scattering._plan(tuple(bonds))
    cases = []
    for p in batch.tolist():
        one_plan, ab, rhs = scattering._partner_system(bonds, p)
        assert one_plan == plan
        cases.append((ab, rhs, reference_partner_system(bonds, p)))
    refs = [reference_partner_system(b, batch) for b in (bonds, twin)]
    alone = scattering._group_fill(plan, [bonds], batch)
    cases.append((*alone(np.zeros(len(batch), dtype=int), np.arange(len(batch))), refs[0]))
    sc, ang = np.divmod(np.random.default_rng(len(batch)).permutation(2 * len(batch)), len(batch))
    pair_ref = [np.asfortranarray(np.stack([refs[i][k][:, a] for i, a in zip(sc, ang)], axis=1)) for k in (0, 1)]
    pair = scattering._group_fill(plan, [bonds, twin], batch)
    cases.append((*pair(sc, ang), (*pair_ref, refs[0][2])))
    for ab, rhs, (ab_ref, rhs_ref, layout_ref) in cases:
        assert ab.shape == ab_ref.shape and rhs.shape == rhs_ref.shape
        assert ab.flags.f_contiguous and rhs.flags.f_contiguous
        assert ab.tobytes() == ab_ref.tobytes()
        assert rhs.tobytes() == rhs_ref.tobytes()
        assert plan.layout == tuple(layout_ref) and rhs.shape[0] == plan.n


class TestFillIsTheReference:
    @pytest.mark.parametrize("g", DEFAULT_G_GRID)
    def test_verify_grid(self, g):
        for n in DEFAULT_N_GRID:
            _assert_fills_the_reference(TwoCenterSpec(g, n), VERIFY_ANGLES)

    def test_edge_points(self, bench_worker):  # noqa: F811
        # sampled edge scatterers at their own angles and at the band edges
        points, _ = bench_worker.edge_inputs(1)
        for g, n, phi in random.Random(7).sample(points, 60):
            _assert_fills_the_reference(TwoCenterSpec(g, n), [phi, *EDGE_ANGLES])

    @pytest.mark.parametrize("n", [-1, 0, 1, 3, 10, 50, 200, 8000, 10**9])
    def test_edge_separations_near_the_band_edges(self, n):
        for g in (0.999999999, -0.4, 1e-6):
            _assert_fills_the_reference(TwoCenterSpec(g, n), EDGE_ANGLES)

    @pytest.mark.parametrize(
        "spec", [ChainSpec((0.5,)), ChainSpec((0.8, -0.5, 0.3, -0.7)), LONG_CHAIN], ids=["1", "4", "1000"]
    )
    def test_chains(self, spec):
        _assert_fills_the_reference(spec, [1e-9, 0.4, 1.7, math.pi - 1e-9])

    @pytest.mark.parametrize("spec", MULTI_CENTER, ids=repr)
    def test_multi_center(self, spec):
        _assert_fills_the_reference(spec, [1e-9, 0.4, 1.7, 2.9, math.pi - 1e-9])


class TestOnePlanPerLayout:
    def test_same_separation_shares_the_plan(self):
        a, b = TwoCenterSpec(0.3, 5), TwoCenterSpec(-0.8, 5)
        assert scattering._plan(tuple(a.bond_map())) is scattering._plan(tuple(b.bond_map()))
        amp_a, amp_b = solve_numeric(a, 1.0), solve_numeric(b, 1.0)
        assert (amp_a.R, amp_a.T) != (amp_b.R, amp_b.T)
        for spec, amp in ((a, amp_a), (b, amp_b)):
            ref = closed_form(spec, 1.0)
            assert max(abs(ref.R - amp.R), abs(ref.T - amp.T)) <= 1e-12

    def test_layout_work_runs_once(self, monkeypatch):
        # the cluster walk runs when a layout is first planned, not per solve
        walks = []
        clusters = scattering._bond_clusters

        def spy(positions):
            walks.append(tuple(positions))
            return clusters(positions)

        monkeypatch.setattr(scattering, "_bond_clusters", spy)
        scattering._plan.cache_clear()
        specs = [TwoCenterSpec(g, 7) for g in (0.2, -0.6, 0.95)]
        for spec in specs:
            for phi in np.linspace(0.1, 3.0, 20).tolist():
                solve_numeric(spec, phi)
            solve_numeric_grid([spec], np.linspace(0.1, 3.0, 30))
            numeric_wave(spec, 0.8)
        assert walks == [tuple(specs[0].bond_map())]
        scattering._plan.cache_clear()

    def test_phase_and_zgbsv_are_looked_up_per_solve(self, monkeypatch):
        # one call of the phase helper per solve, one phase per distinct k of the
        # plan, and one LAPACK call; the 8 ks of the two separated blocks less
        # k = 0, a plan constant, of which e(-k) is taken as conj(e(k)) for 2
        calls = []
        phases, zgbsv = scattering._point_phases, scattering.zgbsv

        def phases_spy(plan, p):
            w = phases(plan, p)
            calls.append(("phases", type(p), len(w)))
            return w

        def zgbsv_spy(*args, **kwargs):
            calls.append(("zgbsv", None, None))
            return zgbsv(*args, **kwargs)

        monkeypatch.setattr(scattering, "_point_phases", phases_spy)
        monkeypatch.setattr(scattering, "zgbsv", zgbsv_spy)
        spec = TwoCenterSpec(0.4, 10)
        plan = scattering._plan(tuple(spec.bond_map()))
        ks = plan.ks
        assert len(ks) == len(set(ks)) == 7 and 0 not in ks
        # ks = (s, s + 1, -1, ..., -s - 1, -s): the last two mirror the first two
        assert [k for k, *_ in plan.k_halves] == list(ks) and ks[-2:] == (-ks[1], -ks[0])
        assert [mirror for *_, mirror in plan.k_halves] == [-1] * 5 + [1, 0]
        for _ in range(2):
            calls.clear()
            solve_numeric(spec, 1.1)
            assert calls == [("phases", float, 2 * len(ks)), ("zgbsv", None, None)]

    def test_cache_is_bounded(self):
        scattering._plan.cache_clear()
        for n in range(PLAN_CACHE + 5):
            solve_numeric(TwoCenterSpec(0.5, n), 1.0)
        info = scattering._plan.cache_info()
        assert info.currsize == info.maxsize == PLAN_CACHE
        assert info.misses == PLAN_CACHE + 5
