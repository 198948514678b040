import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qhscatter import (
    ChainSpec,
    DiagonalMetric,
    MultiCenterSpec,
    SiteWindow,
    TwoCenterSpec,
    WindowError,
    asymmetry_ratio,
    assemble_hamiltonian,
    build_laplacian,
    build_metric,
    build_potential,
    positivity_check,
    quasi_hermiticity_residual,
    solve_numeric,
)
from qhscatter.sweeps import DEFAULT_CHAIN_SPECS

couplings_in_band = st.floats(min_value=-0.9, max_value=0.9)
chains = st.lists(couplings_in_band, min_size=1, max_size=4).map(lambda cs: ChainSpec(tuple(cs)))
two_centers = st.builds(TwoCenterSpec, couplings_in_band, st.integers(min_value=-1, max_value=12))
# blocks as (gap to the previous center, coupling), the first center at start + its gap
multi_centers = st.builds(
    lambda start, blocks: MultiCenterSpec(
        tuple(start + c for c in itertools.accumulate(gap for gap, _ in blocks)),
        tuple(g for _, g in blocks),
    ),
    st.integers(min_value=-14, max_value=0),
    st.lists(
        st.tuples(st.integers(min_value=2, max_value=5), couplings_in_band), min_size=1, max_size=4
    ),
)


def metric_oracle(h_dense: np.ndarray, far_left: float) -> np.ndarray:
    """Solve H[j,i] t_j = t_i H[i,j] for an unknown diagonal t by least squares.

    Normalized to the requested far-left value; independent of the closed
    product formulas it is checked against.
    """
    n = h_dense.shape[0]
    rows, rhs = [], []
    for i in range(n):
        for j in range(n):
            if i == j or (h_dense[j, i] == 0 and h_dense[i, j] == 0):
                continue
            row = np.zeros(n)
            row[j] += h_dense[j, i].real
            row[i] -= h_dense[i, j].real
            rows.append(row)
            rhs.append(0.0)
    anchor = np.zeros(n)
    anchor[0] = 1.0
    rows.append(anchor)
    rhs.append(far_left)
    sol, *_ = np.linalg.lstsq(np.asarray(rows), np.asarray(rhs), rcond=None)
    return sol


def paper_chain_metric(spec: ChainSpec, window: SiteWindow) -> np.ndarray:
    """The paper's closed chain product, (1 +- a) times (1 +- g_j)^2 or (1 - g_j^2) per coupling.

    Our site m >= 0 carries the odd label 2m+1 and site m < 0 the label
    -(2|m|-1); coupling j >= 2 enters squared once the site is past its bond.
    """
    cs = spec.couplings
    theta = np.empty(window.n_sites)
    for i, k in enumerate(window.sites):
        sign, m = (1.0, int(k)) if k >= 0 else (-1.0, int(-k - 1))
        v = 1.0 + sign * cs[0]
        for j, g in enumerate(cs[1:], start=2):
            v *= (1.0 + sign * g) ** 2 if j <= m + 1 else 1.0 - g * g
        theta[i] = v
    return theta


def paper_block_metric(spec, window: SiteWindow) -> np.ndarray:
    """The paper's block metric: 1 everywhere except (1+g)/(1-g) at each block center."""
    couplings = spec.couplings if isinstance(spec, MultiCenterSpec) else (spec.g, spec.g)
    theta = np.ones(window.n_sites)
    for c, g in zip(spec.centers, couplings):
        theta[window.index_of(c)] = (1.0 + g) / (1.0 - g)
    return theta


def unit_metric(window: SiteWindow) -> DiagonalMetric:
    return DiagonalMetric(window, np.ones(window.n_sites))


class TestChainMetric:
    def test_three_coupling_closed_form(self):
        a, b, c = 0.3, -0.2, 0.5
        m = build_metric(ChainSpec((a, b, c)), SiteWindow(6))
        assert m.theta_at(0) == pytest.approx((1 + a) * (1 - b * b) * (1 - c * c))
        assert m.theta_at(-1) == pytest.approx((1 - a) * (1 - b * b) * (1 - c * c))
        assert m.theta_at(1) == pytest.approx((1 + a) * (1 + b) ** 2 * (1 - c * c))
        assert m.theta_at(-2) == pytest.approx((1 - a) * (1 - b) ** 2 * (1 - c * c))
        assert m.theta_at(2) == pytest.approx((1 + a) * (1 + b) ** 2 * (1 + c) ** 2)
        # saturation past the last coupling
        assert m.theta_at(5) == m.theta_at(2)
        assert m.theta_at(-6) == m.theta_at(-3)

    def test_zero_couplings_identity(self):
        m = build_metric(ChainSpec((0.0, 0.0)), SiteWindow(5))
        assert np.array_equal(m.theta, np.ones(11))

    def test_single_coupling_ratios(self):
        m = build_metric(ChainSpec((0.5,)), SiteWindow(4))
        assert m.theta_at(0) / m.theta_at(-1) == pytest.approx(3.0)
        assert m.theta_at(-3) / m.theta_at(2) == pytest.approx(1.0 / 3.0)

    @settings(max_examples=100, deadline=None)
    @given(spec=chains)
    def test_equals_paper_product(self, spec):
        w = SiteWindow(spec.matching_radius + 2)
        oracle = paper_chain_metric(spec, w)
        assert np.max(np.abs(build_metric(spec, w).theta - oracle) / oracle) <= 1e-14


class TestTwoCenterMetric:
    def test_unit_outside_centers(self):
        m = build_metric(TwoCenterSpec(0.5, 3), SiteWindow(9))
        assert m.theta_at(-9) == pytest.approx(0.75**2)
        for k in m.window.sites:
            expected = 3.0 if abs(k) == 5 else 1.0
            assert m.theta_at(int(k)) / m.theta_at(-9) == pytest.approx(expected)

    @settings(max_examples=100, deadline=None)
    @given(spec=st.one_of(two_centers, multi_centers))
    def test_ratio_to_far_value_equals_paper_metric(self, spec):
        w = SiteWindow(spec.matching_radius + 2)
        theta = build_metric(spec, w).theta
        oracle = paper_block_metric(spec, w)
        assert np.max(np.abs(theta / theta[0] - oracle) / oracle) <= 1e-14
        assert theta[-1] == pytest.approx(theta[0], rel=1e-14)

    def test_zero_coupling_identity(self):
        m = build_metric(TwoCenterSpec(0.0, 1), SiteWindow(6))
        assert np.array_equal(m.theta, np.ones(13))

    def test_negative_coupling_reciprocal(self):
        m = build_metric(TwoCenterSpec(-0.5, 0), SiteWindow(5))
        assert m.theta_at(2) / m.theta_at(5) == pytest.approx(1.0 / 3.0)
        assert m.theta_at(-2) / m.theta_at(5) == pytest.approx(1.0 / 3.0)

    def test_strong_coupling_value(self):
        m = build_metric(TwoCenterSpec(0.9, 0), SiteWindow(5))
        assert m.theta_at(2) / m.theta_at(5) == pytest.approx(19.0)
        assert positivity_check(m)

    def test_window_must_hold_centers(self):
        with pytest.raises(WindowError):
            build_metric(TwoCenterSpec(0.5, 4), SiteWindow(5))

    def test_window_must_hold_every_bond(self):
        # centers +-6 carry bonds out to site 7
        with pytest.raises(WindowError):
            build_metric(TwoCenterSpec(0.5, 4), SiteWindow(6))
        assert positivity_check(build_metric(TwoCenterSpec(0.5, 4), SiteWindow(7)))


class TestQuasiHermiticity:
    @settings(max_examples=80, deadline=None)
    @given(g=couplings_in_band, n=st.integers(min_value=-1, max_value=12))
    def test_two_center_exact_compatibility(self, g, n):
        spec = TwoCenterSpec(g, n)
        w = SiteWindow(n + 5)
        h = assemble_hamiltonian(build_potential(spec, w))
        assert quasi_hermiticity_residual(h, build_metric(spec, w)) <= 1e-14

    @settings(max_examples=80, deadline=None)
    @given(cs=st.lists(couplings_in_band, min_size=1, max_size=4))
    def test_chain_compatibility(self, cs):
        spec = ChainSpec(tuple(cs))
        w = SiteWindow(len(cs) + 3)
        h = assemble_hamiltonian(build_potential(spec, w))
        assert quasi_hermiticity_residual(h, build_metric(spec, w)) <= 1e-13

    def test_multi_center_compatibility(self):
        spec = MultiCenterSpec((-5, -1, 1, 6), (0.3, 0.6, 0.6, -0.8))
        w = SiteWindow(9)
        h = assemble_hamiltonian(build_potential(spec, w))
        assert quasi_hermiticity_residual(h, build_metric(spec, w)) <= 1e-14

    @settings(max_examples=150, deadline=None)
    @given(spec=st.one_of(chains, two_centers, multi_centers))
    def test_every_family(self, spec):
        w = SiteWindow(spec.matching_radius + 2)
        h = assemble_hamiltonian(build_potential(spec, w))
        metric = build_metric(spec, w)
        tolerance = 1e-13 if isinstance(spec, ChainSpec) else 1e-14
        assert quasi_hermiticity_residual(h, metric) <= tolerance
        assert positivity_check(metric)
        theta_l, theta_r = metric.theta[0], metric.theta[-1]
        assert asymmetry_ratio(spec) == pytest.approx(theta_l / theta_r, rel=1e-14)

    def test_hermitian_with_identity_vanishes(self):
        w = SiteWindow(4)
        assert quasi_hermiticity_residual(build_laplacian(w), unit_metric(w)) == 0.0

    def test_mismatch_against_identity(self):
        # wrong metric leaves |(-1-g) - (-1+g)| = 2g at the block bonds
        w = SiteWindow(5)
        h = assemble_hamiltonian(build_potential(TwoCenterSpec(0.5, 0), w))
        assert quasi_hermiticity_residual(h, unit_metric(w)) == pytest.approx(1.0)

    def test_window_mismatch_rejected(self):
        h = build_laplacian(SiteWindow(3))
        with pytest.raises(WindowError):
            quasi_hermiticity_residual(h, unit_metric(SiteWindow(4)))


class TestBruteForceOracle:
    @pytest.mark.parametrize(
        "cs", [(0.5,), (0.5, 0.3), (0.4, -0.2, 0.6), (0.8, -0.5, 0.3, -0.7)]
    )
    def test_chain_oracle_matches_closed_form(self, cs):
        spec = ChainSpec(cs)
        w = SiteWindow(7)  # 15 sites
        h = assemble_hamiltonian(build_potential(spec, w)).to_dense()
        theta = build_metric(spec, w).theta
        oracle = metric_oracle(h, far_left=theta[0])
        assert np.allclose(oracle, theta, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("g,n", [(0.5, 0), (-0.7, 1), (0.9, 2), (0.3, -1)])
    def test_two_center_oracle_matches_closed_form(self, g, n):
        spec = TwoCenterSpec(g, n)
        w = SiteWindow(n + 5)
        h = assemble_hamiltonian(build_potential(spec, w)).to_dense()
        theta = build_metric(spec, w).theta
        oracle = metric_oracle(h, far_left=1.0)
        assert np.allclose(oracle, theta / theta[0], rtol=1e-12, atol=1e-12)


class TestAsymmetryRatio:
    def test_single_coupling(self):
        assert asymmetry_ratio(ChainSpec((0.5,))) == pytest.approx(1.0 / 3.0)

    def test_all_zero(self):
        assert asymmetry_ratio(ChainSpec((0.0, 0.0, 0.0))) == 1.0

    def test_two_couplings(self):
        a, b = 0.4, 0.2
        expected = (1 - a) * (1 - b) ** 2 / ((1 + a) * (1 + b) ** 2)
        assert asymmetry_ratio(ChainSpec((a, b))) == pytest.approx(expected)

    def test_matches_saturated_metric(self):
        spec = ChainSpec((0.3, -0.6, 0.2))
        m = build_metric(spec, SiteWindow(8))
        assert asymmetry_ratio(spec) == pytest.approx(m.theta_at(-8) / m.theta_at(7))

    def test_blocks_are_reciprocal(self):
        # each block's two bonds cancel exactly in the log-form sum
        assert asymmetry_ratio(TwoCenterSpec(0.7, -1)) == 1.0
        assert asymmetry_ratio(TwoCenterSpec(-0.999999, 10**9)) == 1.0
        spec = MultiCenterSpec((-5, -1, 1, 6), (0.3, 0.6, 0.6, -0.8))
        assert asymmetry_ratio(spec) == 1.0

    def test_ratio_whose_products_underflow(self):
        # both products underflow; the bonds leave one net (1 + 0.99)/(1 - 0.99)
        assert asymmetry_ratio(ChainSpec((0.99,) * 200 + (-0.99,) * 200)) == pytest.approx(199.0, rel=1e-13)

    def test_beyond_the_double_range(self):
        assert asymmetry_ratio(ChainSpec((-0.5,) * 1000)) == math.inf
        assert asymmetry_ratio(ChainSpec((0.5,) * 1000)) == 0.0

    @pytest.mark.parametrize("couplings", DEFAULT_CHAIN_SPECS)
    def test_chain_flux_identity(self, couplings):
        # the flux entering on the left leaves on the right: (1 - |R|^2) theta_L/theta_R = |T|^2
        spec = ChainSpec(couplings)
        for phi in (0.05, 0.9, 1.7, 3.0):
            amp = solve_numeric(spec, phi)
            assert abs((1.0 - abs(amp.R) ** 2) * asymmetry_ratio(spec) - abs(amp.T) ** 2) <= 1e-12

    @pytest.mark.parametrize("a", [0.999, 0.9999])
    def test_degenerates_at_positivity_boundary(self, a):
        assert asymmetry_ratio(ChainSpec((a,))) < 1e-3
        assert asymmetry_ratio(ChainSpec((-a,))) > 1e3


class TestPositivityCheck:
    def test_positive_metric(self):
        assert positivity_check(unit_metric(SiteWindow(3)))

    def test_zero_entry_fails(self):
        theta = np.ones(7)
        theta[3] = 0.0
        assert not positivity_check(DiagonalMetric(SiteWindow(3), theta))

    def test_negative_entry_fails(self):
        theta = np.ones(7)
        theta[0] = -2.0
        assert not positivity_check(DiagonalMetric(SiteWindow(3), theta))
