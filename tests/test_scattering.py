import cmath
import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from qhscatter import (
    Amplitudes,
    ChainSpec,
    DomainError,
    MultiCenterSpec,
    ResonantAngleError,
    TwoCenterSpec,
    closed_form,
    closed_form_N0,
    closed_form_Nminus1,
    closed_form_generalN,
    closed_form_wave,
    continuum_probe,
    interior_plane_wave_fit,
    matching_row_residual,
    solve_numeric,
    unitarity_defect,
)
from qhscatter.lattice import SiteWindow, WaveSample
from qhscatter.scattering import _wave_from_solution, build_matching_system

angles = st.floats(min_value=0.05, max_value=math.pi - 0.05)
couplings = st.floats(min_value=-0.9, max_value=0.9)


class TestNumericSolver:
    @pytest.mark.parametrize("n", [-1, 0, 1, 4, 10])
    def test_free_lattice_transparent(self, n):
        amp, _ = solve_numeric(TwoCenterSpec(0.0, n), 1.3)
        assert abs(amp.R) <= 1e-13
        assert abs(amp.T - 1.0) <= 1e-13

    def test_rows_satisfied(self):
        spec = TwoCenterSpec(0.5, 3)
        amp, wave = solve_numeric(spec, 0.9)
        assert matching_row_residual(spec, 0.9, wave) <= 1e-12

    @settings(max_examples=60, deadline=None)
    @given(g=couplings, n=st.integers(min_value=-1, max_value=15), phi=angles)
    def test_unitary_and_consistent(self, g, n, phi):
        spec = TwoCenterSpec(g, n)
        amp, wave = solve_numeric(spec, phi)
        assert amp.unitarity_defect <= 1e-11
        assert matching_row_residual(spec, phi, wave) <= 1e-12

    def test_wave_matches_asymptotics(self):
        spec = TwoCenterSpec(0.4, 1)
        amp, wave = solve_numeric(spec, 1.1)
        m = spec.matching_radius + 2
        left = cmath.exp(-1j * m * 1.1) + amp.R * cmath.exp(1j * m * 1.1)
        assert wave.value_at(-m) == pytest.approx(left, abs=1e-13)
        assert wave.value_at(m) == pytest.approx(amp.T * cmath.exp(1j * m * 1.1), abs=1e-13)

    def test_system_size_matches_two_center_layout(self):
        from qhscatter import build_matching_system

        spec = TwoCenterSpec(0.5, 4)
        system = build_matching_system(spec.bond_map(), 1.0, spec.matching_radius)
        assert system.size == 2 * 4 + 7

    def test_chain_runs_but_is_not_unitary(self):
        spec = ChainSpec((0.5,))
        amp, wave = solve_numeric(spec, 1.1)
        assert matching_row_residual(spec, 1.1, wave) <= 1e-12
        assert amp.unitarity_defect > 0.1

    def test_multi_center_matches_two_center(self):
        phi = 0.7
        amp_a, _ = solve_numeric(TwoCenterSpec(0.6, 2), phi)
        amp_b, _ = solve_numeric(MultiCenterSpec((-4, 4), (0.6, 0.6)), phi)
        assert abs(amp_a.R - amp_b.R) <= 1e-14
        assert abs(amp_a.T - amp_b.T) <= 1e-14

    def test_three_centers_solve(self):
        spec = MultiCenterSpec((-6, 0, 7), (0.3, 0.5, -0.4))
        amp, wave = solve_numeric(spec, 1.9)
        assert matching_row_residual(spec, 1.9, wave) <= 1e-12


class TestClosedFormMergedBlocks:
    def test_reference_intermediates(self):
        _, breakdown = closed_form_Nminus1(0.5, math.pi / 3)
        assert breakdown.lam == pytest.approx(math.sqrt(3) / 7, abs=1e-15)
        assert breakdown.mu == pytest.approx(3 * math.sqrt(3) / 7, abs=1e-15)

    def test_free_coupling(self):
        amp, breakdown = closed_form_Nminus1(0.0, 0.8)
        assert abs(amp.R) <= 1e-15
        assert abs(amp.T - 1.0) <= 1e-15
        assert breakdown.lam == 0.0
        assert breakdown.mu == pytest.approx(1.0 / math.tan(0.8))

    def test_agrees_with_solver(self):
        amp_c, _ = closed_form_Nminus1(0.5, math.pi / 3)
        amp_n, _ = solve_numeric(TwoCenterSpec(0.5, -1), math.pi / 3)
        assert abs(amp_c.R - amp_n.R) <= 1e-12
        assert abs(amp_c.T - amp_n.T) <= 1e-12

    def test_opaque_wall_limit(self):
        amp, _ = closed_form_Nminus1(0.5, 1e-4)
        assert abs(amp.T) < 1e-3
        assert abs(amp.R + 1.0) < 1e-3

    def test_mu_pole_handled(self):
        # real part of the sum branch vanishes where cos(2 phi) = (1-3g^2)/(1+g^2)
        g = 0.5
        phi = 0.5 * math.acos((1 - 3 * g * g) / (1 + g * g))
        amp_c, breakdown = closed_form_Nminus1(g, phi)
        amp_n, _ = solve_numeric(TwoCenterSpec(g, -1), phi)
        assert abs(amp_c.R - amp_n.R) <= 1e-12
        assert abs(amp_c.T - amp_n.T) <= 1e-12
        assert abs(breakdown.mu) > 1e10

    @settings(max_examples=80, deadline=None)
    @given(g=couplings, phi=angles)
    def test_unitary_everywhere(self, g, phi):
        amp, breakdown = closed_form_Nminus1(g, phi)
        assert amp.unitarity_defect <= 1e-12
        assert abs(abs(cmath.exp(1j * breakdown.alpha)) - 1.0) <= 1e-15


class TestClosedFormAdjacentBlocks:
    def test_free_coupling(self):
        amp, _ = closed_form_N0(0.0, 1.0)
        assert abs(amp.R) <= 1e-14
        assert abs(amp.T - 1.0) <= 1e-14

    def test_agrees_with_solver(self):
        amp_c, _ = closed_form_N0(0.5, math.pi / 4)
        amp_n, _ = solve_numeric(TwoCenterSpec(0.5, 0), math.pi / 4)
        assert abs(amp_c.R - amp_n.R) <= 1e-12
        assert abs(amp_c.T - amp_n.T) <= 1e-12

    @settings(max_examples=80, deadline=None)
    @given(g=couplings, phi=angles)
    def test_unitary_and_matches_solver(self, g, phi):
        amp_c, _ = closed_form_N0(g, phi)
        amp_n, _ = solve_numeric(TwoCenterSpec(g, 0), phi)
        assert amp_c.unitarity_defect <= 1e-12
        assert abs(amp_c.R - amp_n.R) <= 1e-11
        assert abs(amp_c.T - amp_n.T) <= 1e-11

    @settings(max_examples=60, deadline=None)
    @given(g=couplings, phi=angles)
    def test_continuation_of_separated_formulas(self, g, phi):
        # the separated-block branches evaluated at zero separation:
        # the sum branch stays finite (v = Q/cos phi), the difference branch
        # is the sin(N phi) -> 0 limit -conj(A)/A
        if abs(math.cos(phi)) < 1e-6:
            return
        g2 = g * g
        a_phi = 1 + g2 * (2 * cmath.exp(2j * phi) + cmath.exp(4j * phi))
        b_phi = cmath.exp(1j * phi) + g2 * cmath.exp(3j * phi)
        v = b_phi / math.cos(phi) - a_phi
        r_plus_t = -v.conjugate() / v
        r_minus_t = -a_phi.conjugate() / a_phi
        amp, _ = closed_form_N0(g, phi)
        assert abs((amp.R + amp.T) - r_plus_t) <= 1e-12
        assert abs((amp.R - amp.T) - r_minus_t) <= 1e-12


class TestClosedFormSeparatedBlocks:
    def test_free_coupling(self):
        amp, breakdown = closed_form_generalN(0.0, 3, 1.0)
        assert abs(amp.R) <= 1e-13
        assert abs(amp.T - 1.0) <= 1e-13
        assert breakdown.A_phi == pytest.approx(cmath.exp(3j))
        assert breakdown.B_phi == pytest.approx(cmath.exp(4j))

    def test_agrees_with_solver(self):
        amp_c, _ = closed_form_generalN(0.3, 2, 1.0)
        amp_n, _ = solve_numeric(TwoCenterSpec(0.3, 2), 1.0)
        assert abs(amp_c.R - amp_n.R) <= 1e-10
        assert abs(amp_c.T - amp_n.T) <= 1e-10

    def test_resonant_angle_guarded(self):
        with pytest.raises(ResonantAngleError):
            closed_form_generalN(0.5, 2, math.pi / 2)  # sin(N phi) = sin(pi) ~ 0

    def test_needs_separated_blocks(self):
        with pytest.raises(DomainError):
            closed_form_generalN(0.5, 0, 1.0)

    def test_back_substitution_satisfies_rows(self):
        for g, n, phi in [(0.5, 4, 1.2), (0.9, 2, 2.6), (-0.3, 1, 0.4), (0.7, 9, 0.33)]:
            spec = TwoCenterSpec(g, n)
            amp, breakdown = closed_form_generalN(g, n, phi)
            wave = closed_form_wave(spec, phi, amp, breakdown)
            assert matching_row_residual(spec, phi, wave) <= 1e-11

    @settings(max_examples=80, deadline=None)
    @given(g=couplings, n=st.integers(min_value=1, max_value=20), phi=angles)
    def test_unitary_and_matches_solver(self, g, n, phi):
        try:
            amp_c, _ = closed_form_generalN(g, n, phi)
        except ResonantAngleError:
            return
        amp_n, _ = solve_numeric(TwoCenterSpec(g, n), phi)
        assert amp_c.unitarity_defect <= 1e-11
        assert abs(amp_c.R - amp_n.R) <= 1e-10
        assert abs(amp_c.T - amp_n.T) <= 1e-10


class TestGSignSymmetry:
    @pytest.mark.parametrize("n", [-1, 0, 2, 7])
    def test_amplitudes_even_in_g(self, n):
        phi = 1.17
        for g in (0.2, 0.5, 0.85):
            plus, _ = solve_numeric(TwoCenterSpec(g, n), phi)
            minus, _ = solve_numeric(TwoCenterSpec(-g, n), phi)
            assert abs(plus.R - minus.R) <= 1e-13
            assert abs(plus.T - minus.T) <= 1e-13
            cf_plus, _ = closed_form(TwoCenterSpec(g, n), phi)
            cf_minus, _ = closed_form(TwoCenterSpec(-g, n), phi)
            assert abs(cf_plus.R - cf_minus.R) <= 1e-13
            assert abs(cf_plus.T - cf_minus.T) <= 1e-13


class TestUnitarityDefect:
    def test_perfect_transmission(self):
        assert unitarity_defect(Amplitudes(R=0.0, T=1.0, phi=1.0)) == 0.0

    def test_pythagorean_pair(self):
        assert unitarity_defect(Amplitudes(R=0.6, T=0.8j, phi=1.0)) <= 1e-16

    def test_solver_output_is_unitary(self):
        amp, _ = solve_numeric(TwoCenterSpec(0.7, 5), 2.0)
        assert amp.unitarity_defect <= 1e-12


class TestInteriorFit:
    def test_free_lattice(self):
        _, wave = solve_numeric(TwoCenterSpec(0.0, 3), 0.77)
        c, d, residual = interior_plane_wave_fit(wave, 3, 0.77)
        assert c == pytest.approx(1.0, abs=1e-12)
        assert abs(d) <= 1e-12
        assert residual <= 1e-12

    def test_interior_motion_free(self):
        spec = TwoCenterSpec(0.5, 4)
        _, wave = solve_numeric(spec, 1.2)
        _, _, residual = interior_plane_wave_fit(wave, 4, 1.2)
        assert residual <= 1e-10

    def test_fit_matches_closed_form_coefficients(self):
        g, n, phi = 0.5, 4, 1.2
        _, wave = solve_numeric(TwoCenterSpec(g, n), phi)
        c_fit, d_fit, _ = interior_plane_wave_fit(wave, n, phi)
        _, breakdown = closed_form_generalN(g, n, phi)
        assert abs(c_fit - breakdown.C) <= 1e-9
        assert abs(d_fit - breakdown.D) <= 1e-9

    def test_too_few_sites(self):
        _, wave = solve_numeric(TwoCenterSpec(0.5, 1), 1.0)
        with pytest.raises(DomainError):
            interior_plane_wave_fit(wave, 0, 1.0)


class TestContinuumProbe:
    def test_transmission_halves_with_h(self):
        hs = [0.1, 0.05, 0.025]
        result = continuum_probe(0.5, 1.0, hs)
        t = [row.abs_T for row in result.rows]
        for a, b in zip(t, t[1:]):
            assert 0.4 <= b / a <= 0.6

    def test_psi0_halves_with_h(self):
        result = continuum_probe(0.5, 1.0, [0.1, 0.05, 0.025])
        p = [row.abs_psi0 for row in result.rows]
        for a, b in zip(p, p[1:]):
            assert 0.4 <= b / a <= 0.6

    def test_free_model_stays_transparent(self):
        result = continuum_probe(0.0, 1.0, [0.2, 0.1, 0.05])
        assert all(abs(row.abs_T - 1.0) <= 1e-13 for row in result.rows)

    def test_closed_and_numeric_agree_along_the_way(self):
        result = continuum_probe(0.9, 1.0, [0.2 / 2**i for i in range(5)])
        assert result.max_closed_numeric_gap <= 1e-11

    def test_input_validation(self):
        with pytest.raises(DomainError):
            continuum_probe(0.5, -1.0, [0.2, 0.1])
        with pytest.raises(DomainError):
            continuum_probe(0.5, 1.0, [0.1, 0.2])
        with pytest.raises(DomainError):
            continuum_probe(0.5, 1.0, [0.2])
        with pytest.raises(DomainError):
            continuum_probe(0.5, 40.0, [0.2, 0.1])


def _reference_wave(radius, phi, x, h, extra=2):
    """Per-site reference for _wave_from_solution."""
    window = SiteWindow(radius + extra, h)
    vals = np.empty(window.n_sites, dtype=np.complex128)
    R, T = x[0], x[-1]
    for i, k in enumerate(window.sites):
        if abs(k) <= radius - 1:
            vals[i] = x[k + radius]
        elif k < 0:
            vals[i] = cmath.exp(1j * k * phi) + R * cmath.exp(-1j * k * phi)
        else:
            vals[i] = T * cmath.exp(1j * k * phi)
    return vals


def _reference_row_residual(spec, phi, wave):
    """Per-row bond lookup reference for matching_row_residual."""
    bonds = spec.bond_map()
    vals = wave.values
    m = wave.window.half_width
    sites = np.arange(-(m - 1), m)
    gamma_left = np.array([bonds.get(int(k) - 1, 0.0) for k in sites])
    gamma_right = np.array([bonds.get(int(k), 0.0) for k in sites])
    tl = (-1.0 + gamma_left) * vals[:-2]
    tc = 2.0 * math.cos(phi) * vals[1:-1]
    tr = (-1.0 - gamma_right) * vals[2:]
    num = np.abs(tl + tc + tr)
    den = np.abs(tl) + np.abs(tc) + np.abs(tr)
    return float(np.max(num / np.maximum(den, 1e-30)))


TWO_CENTER_SPECS = [TwoCenterSpec(g, n) for g in (0.5, -0.9) for n in (-1, 0, 1, 50, 2000)]
CHAIN_AND_MULTI_SPECS = [
    *(ChainSpec(c) for c in ((0.5,), (0.5, -0.3), (0.2, 0.7, -0.4), (-0.6, 0.1, 0.3, 0.8))),
    MultiCenterSpec((-4, 4), (0.6, 0.6)),
    MultiCenterSpec((-6, 0, 7), (0.3, 0.5, -0.4)),
    MultiCenterSpec((-9, -3, 2, 11), (0.1, -0.8, 0.45, 0.7)),
]


class TestSelfCheckBitExact:
    """The loop-free wave rebuild and row residual equal the old loops bit for bit."""

    @pytest.mark.parametrize("spec", TWO_CENTER_SPECS + CHAIN_AND_MULTI_SPECS, ids=repr)
    @pytest.mark.parametrize("phi, h", [(0.37, 1.0), (1.9, 1.0), (2.8, 0.05)])
    def test_matches_per_site_loops(self, spec, phi, h):
        system = build_matching_system(spec.bond_map(), phi, spec.matching_radius)
        x = scipy.linalg.solve_banded((1, 1), system.ab, system.rhs)
        wave = _wave_from_solution(system.radius, phi, x, h)
        assert wave.window.spacing == h
        assert wave.values.tobytes() == _reference_wave(system.radius, phi, x, h).tobytes()
        assert matching_row_residual(spec, phi, wave) == _reference_row_residual(spec, phi, wave)
        _, solved = solve_numeric(spec, phi, h=h)
        assert solved.values.tobytes() == wave.values.tobytes()

    @pytest.mark.parametrize("spec", CHAIN_AND_MULTI_SPECS, ids=repr)
    def test_bonds_on_and_beyond_the_window_edge(self, spec):
        # windows from one row up to past the scatterer, so bond sites land on
        # the first and last rows and outside the sample
        rng = np.random.default_rng(7)
        for m in range(1, spec.matching_radius + 3):
            window = SiteWindow(m)
            vals = rng.normal(size=window.n_sites) + 1j * rng.normal(size=window.n_sites)
            wave = WaveSample(window, vals)
            got = matching_row_residual(spec, 1.3, wave)
            assert got == _reference_row_residual(spec, 1.3, wave)
