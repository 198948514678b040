import cmath
import math
from fractions import Fraction

import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from closed_wave import closed_form_wave, interior_plane_wave_fit
from paper_forms import (
    ResonantAngleError,
    closed_form_generalN,
    closed_form_Nminus1,
    paper_amplitudes_mp,
    paper_closed_form,
)
from qhscatter import (
    Amplitudes,
    BandError,
    ChainSpec,
    DomainError,
    MultiCenterSpec,
    TwoCenterSpec,
    closed_form,
    continuum_probe,
    matching_row_residual,
    numeric_wave,
    solve_numeric,
)
from qhscatter.cli import main
from qhscatter.lattice import SiteWindow, WaveSample
from qhscatter.potentials import MAX_N
from qhscatter.scattering import _exact_product, build_matching_system
from qhscatter.sweeps import (
    DEFAULT_G_GRID,
    DEFAULT_N_GRID,
    DEFAULT_PHI_COUNT,
    DEFAULT_PHI_MAX,
    DEFAULT_PHI_MIN,
    evaluate_point,
)

angles = st.floats(min_value=0.05, max_value=math.pi - 0.05)
couplings = st.floats(min_value=-0.9, max_value=0.9)


class TestNumericSolver:
    @pytest.mark.parametrize("n", [-1, 0, 1, 4, 10])
    def test_free_lattice_transparent(self, n):
        amp = solve_numeric(TwoCenterSpec(0.0, n), 1.3)
        assert abs(amp.R) <= 1e-13
        assert abs(amp.T - 1.0) <= 1e-13

    def test_rows_satisfied(self):
        spec = TwoCenterSpec(0.5, 3)
        amp, wave = numeric_wave(spec, 0.9)
        assert matching_row_residual(spec, 0.9, wave) <= 1e-12

    @settings(max_examples=60, deadline=None)
    @given(g=couplings, n=st.integers(min_value=-1, max_value=15), phi=angles)
    def test_unitary_and_consistent(self, g, n, phi):
        spec = TwoCenterSpec(g, n)
        amp, wave = numeric_wave(spec, phi)
        assert amp.unitarity_defect <= 1e-11
        assert matching_row_residual(spec, phi, wave) <= 1e-12

    def test_wave_matches_asymptotics(self):
        spec = TwoCenterSpec(0.4, 1)
        amp, wave = numeric_wave(spec, 1.1)
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
        amp, wave = numeric_wave(spec, 1.1)
        assert matching_row_residual(spec, 1.1, wave) <= 1e-12
        assert amp.unitarity_defect > 0.1

    def test_multi_center_matches_two_center(self):
        phi = 0.7
        amp_a = solve_numeric(TwoCenterSpec(0.6, 2), phi)
        amp_b = solve_numeric(MultiCenterSpec((-4, 4), (0.6, 0.6)), phi)
        assert abs(amp_a.R - amp_b.R) <= 1e-14
        assert abs(amp_a.T - amp_b.T) <= 1e-14

    def test_three_centers_solve(self):
        spec = MultiCenterSpec((-6, 0, 7), (0.3, 0.5, -0.4))
        amp, wave = numeric_wave(spec, 1.9)
        assert matching_row_residual(spec, 1.9, wave) <= 1e-12


class TestClosedFormMergedBlocks:
    def test_reference_intermediates(self):
        _, breakdown = closed_form_Nminus1(0.5, math.pi / 3)
        assert breakdown.lam == pytest.approx(math.sqrt(3) / 7, abs=1e-15)
        assert breakdown.mu == pytest.approx(3 * math.sqrt(3) / 7, abs=1e-15)

    def test_free_coupling(self):
        amp = closed_form(TwoCenterSpec(0.0, -1), 0.8)
        assert abs(amp.R) <= 1e-15
        assert abs(amp.T - 1.0) <= 1e-15
        _, breakdown = closed_form_Nminus1(0.0, 0.8)
        assert breakdown.lam == 0.0
        assert breakdown.mu == pytest.approx(1.0 / math.tan(0.8))

    def test_agrees_with_solver(self):
        amp_c = closed_form(TwoCenterSpec(0.5, -1), math.pi / 3)
        amp_n = solve_numeric(TwoCenterSpec(0.5, -1), math.pi / 3)
        assert abs(amp_c.R - amp_n.R) <= 1e-12
        assert abs(amp_c.T - amp_n.T) <= 1e-12

    def test_opaque_wall_limit(self):
        amp = closed_form(TwoCenterSpec(0.5, -1), 1e-4)
        assert abs(amp.T) < 1e-3
        assert abs(amp.R + 1.0) < 1e-3

    def test_mu_pole_handled(self):
        # real part of the sum branch vanishes where cos(2 phi) = (1-3g^2)/(1+g^2)
        g = 0.5
        phi = 0.5 * math.acos((1 - 3 * g * g) / (1 + g * g))
        _, breakdown = closed_form_Nminus1(g, phi)
        amp_c = closed_form(TwoCenterSpec(g, -1), phi)
        amp_n = solve_numeric(TwoCenterSpec(g, -1), phi)
        assert abs(amp_c.R - amp_n.R) <= 1e-12
        assert abs(amp_c.T - amp_n.T) <= 1e-12
        assert abs(breakdown.mu) > 1e10

    @settings(max_examples=80, deadline=None)
    @given(g=couplings, phi=angles)
    def test_unitary_everywhere(self, g, phi):
        amp = closed_form(TwoCenterSpec(g, -1), phi)
        assert amp.unitarity_defect <= 1e-12
        _, breakdown = closed_form_Nminus1(g, phi)
        assert abs(abs(cmath.exp(1j * breakdown.alpha)) - 1.0) <= 1e-15


class TestClosedFormAdjacentBlocks:
    def test_free_coupling(self):
        amp = closed_form(TwoCenterSpec(0.0, 0), 1.0)
        assert abs(amp.R) <= 1e-14
        assert abs(amp.T - 1.0) <= 1e-14

    def test_agrees_with_solver(self):
        amp_c = closed_form(TwoCenterSpec(0.5, 0), math.pi / 4)
        amp_n = solve_numeric(TwoCenterSpec(0.5, 0), math.pi / 4)
        assert abs(amp_c.R - amp_n.R) <= 1e-12
        assert abs(amp_c.T - amp_n.T) <= 1e-12

    @settings(max_examples=80, deadline=None)
    @given(g=couplings, phi=angles)
    def test_unitary_and_matches_solver(self, g, phi):
        amp_c = closed_form(TwoCenterSpec(g, 0), phi)
        amp_n = solve_numeric(TwoCenterSpec(g, 0), phi)
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
        amp = closed_form(TwoCenterSpec(g, 0), phi)
        assert abs((amp.R + amp.T) - r_plus_t) <= 1e-12
        assert abs((amp.R - amp.T) - r_minus_t) <= 1e-12


class TestClosedFormSeparatedBlocks:
    def test_free_coupling(self):
        amp = closed_form(TwoCenterSpec(0.0, 3), 1.0)
        assert abs(amp.R) <= 1e-13
        assert abs(amp.T - 1.0) <= 1e-13
        _, breakdown = closed_form_generalN(0.0, 3, 1.0)
        assert breakdown.A_phi == pytest.approx(cmath.exp(3j))
        assert breakdown.B_phi == pytest.approx(cmath.exp(4j))

    def test_agrees_with_solver(self):
        amp_c = closed_form(TwoCenterSpec(0.3, 2), 1.0)
        amp_n = solve_numeric(TwoCenterSpec(0.3, 2), 1.0)
        assert abs(amp_c.R - amp_n.R) <= 1e-10
        assert abs(amp_c.T - amp_n.T) <= 1e-10

    def test_former_guard_angle_answered(self):
        # sin(N phi) = sin(pi) ~ 0: the paper's form refuses, the one form answers
        with pytest.raises(ResonantAngleError):
            closed_form_generalN(0.5, 2, math.pi / 2)
        amp = closed_form(TwoCenterSpec(0.5, 2), math.pi / 2)
        amp_n = solve_numeric(TwoCenterSpec(0.5, 2), math.pi / 2)
        assert abs(amp.R) <= 1e-15 and abs(amp.T - 1.0) <= 1e-15
        assert max(abs(amp.R - amp_n.R), abs(amp.T - amp_n.T)) <= 1e-13

    def test_wave_needs_separated_blocks(self):
        with pytest.raises(DomainError):
            closed_form_generalN(0.5, 0, 1.0)
        with pytest.raises(DomainError):
            closed_form_wave(TwoCenterSpec(0.5, 0), 1.0)

    @pytest.mark.parametrize(
        "g, n, phi",
        # the last two sat on the paper form's guards, where it refuses
        [(0.5, 4, 1.2), (0.9, 2, 2.6), (-0.3, 1, 0.4), (0.7, 9, 0.33), (0.5, 1, math.pi / 2), (0.5, 2, math.pi / 2)],
    )
    def test_back_substitution_satisfies_rows(self, g, n, phi):
        spec = TwoCenterSpec(g, n)
        amp, wave = closed_form_wave(spec, phi)
        assert amp == closed_form(spec, phi)
        assert matching_row_residual(spec, phi, wave) <= 1e-12

    @settings(max_examples=80, deadline=None)
    @given(g=couplings, n=st.integers(min_value=1, max_value=20), phi=angles)
    def test_unitary_and_matches_solver(self, g, n, phi):
        amp_c = closed_form(TwoCenterSpec(g, n), phi)
        amp_n = solve_numeric(TwoCenterSpec(g, n), phi)
        assert amp_c.unitarity_defect <= 1e-11
        assert abs(amp_c.R - amp_n.R) <= 1e-10
        assert abs(amp_c.T - amp_n.T) <= 1e-10


def _paper_gap(spec, phi):
    """max(|dR|, |dT|) between closed_form and the paper's form, None where the latter refuses."""
    try:
        paper, _ = paper_closed_form(spec, phi)
    except ResonantAngleError:
        return None
    amp = closed_form(spec, phi)
    return max(abs(amp.R - paper.R), abs(amp.T - paper.T))


class TestOneClosedFormAgainstThePapersForms:
    """closed_form against the paper's three forms (tests/paper_forms.py), wherever they answer."""

    def test_verify_grid(self):
        phis = np.linspace(DEFAULT_PHI_MIN, DEFAULT_PHI_MAX, DEFAULT_PHI_COUNT + 2)[1:-1].tolist()
        gaps = [_paper_gap(TwoCenterSpec(g, n), phi) for g in DEFAULT_G_GRID for n in DEFAULT_N_GRID for phi in phis]
        assert None not in gaps  # no guard of the paper's forms falls on this grid
        assert max(gaps) <= 1e-12

    # in floats the paper's forms lose up to 1.2e-10 (g = 5e-8, N = 1, phi = 1e-6)
    # and more as |g| -> 1 (ROADMAP F2), so the samples take them at 50 digits;
    # a 40,000-sample search put closed_form at most 3.9e-15 off them
    @settings(max_examples=200, deadline=None)
    @given(
        g=st.floats(min_value=-0.99, max_value=0.99),
        n=st.integers(min_value=-1, max_value=200),
        phi=st.floats(min_value=1e-6, max_value=math.pi - 1e-6),
    )
    @example(g=5.000081695366147e-08, n=1, phi=1e-6)
    def test_samples(self, g, n, phi):
        r_ref, t_ref = paper_amplitudes_mp(g, n, phi)
        amp = closed_form(TwoCenterSpec(g, n), phi)
        assert max(abs(amp.R - r_ref), abs(amp.T - t_ref)) <= 1e-14


@st.composite
def _edge_points(draw):
    """(g, N, phi): 1 - |g| down to 1e-12, phi within 1e-12 of 0, pi or j pi/(2m) for m = N, N + 1."""
    n = draw(st.integers(min_value=-1, max_value=1000))
    g = draw(st.sampled_from((-1.0, 1.0))) * (1.0 - 10.0 ** -draw(st.floats(min_value=0.0, max_value=12.0)))
    bases = [0.0, math.pi]
    if n >= 1:
        m = draw(st.sampled_from((n, n + 1)))
        bases.append(draw(st.integers(min_value=1, max_value=2 * m - 1)) * math.pi / (2 * m))
    phi = draw(st.sampled_from(bases)) + draw(st.sampled_from((-1.0, 1.0))) * 10.0 ** -draw(
        st.floats(min_value=0.0, max_value=12.0)
    )
    assume(0.0 < phi < math.pi)
    return g, n, phi


class TestOneClosedFormNeverRefuses:
    @settings(max_examples=300, deadline=None)
    @given(point=_edge_points())
    def test_finite_and_unitary_at_the_edges(self, point):
        g, n, phi = point
        amp = closed_form(TwoCenterSpec(g, n), phi)
        assert all(math.isfinite(x) for x in (amp.R.real, amp.R.imag, amp.T.real, amp.T.imag))
        assert amp.unitarity_defect <= 1e-14

    def test_cli_at_a_hundred_million_sites(self, capsys):
        code = main(["amplitudes", "--g", "0.5", "--N", "100000000", "--phi", "1.0", "--method", "both"])
        lines = capsys.readouterr().out.splitlines()
        assert code == 0
        assert float(lines[-1].split("=")[1]) <= 1e-13


class TestExactPhasesAtLargeN:
    """The phases stay exact up to MAX_N, and the constructors refuse beyond it."""

    @settings(max_examples=300, deadline=None)
    @given(k=st.integers(min_value=-(2**53), max_value=2**53), p=st.floats(min_value=1e-9, max_value=math.pi))
    def test_product_is_exact(self, k, p):
        hi, lo = _exact_product(k, p)
        assert Fraction(hi) + Fraction(lo) == k * Fraction(p)
        arr_hi, arr_lo = _exact_product(np.array([k]), p)
        assert (arr_hi[0], arr_lo[0]) == (hi, lo)

    @pytest.mark.parametrize("n", [10**9, 10**12])
    @pytest.mark.parametrize("phi", [0.3, 2.9])
    def test_within_1e_14_of_the_papers_form(self, n, phi):
        R, T = paper_amplitudes_mp(0.5, n, phi)
        spec = TwoCenterSpec(0.5, n)
        for amp in (closed_form(spec, phi), solve_numeric(spec, phi)):
            assert max(abs(amp.R - R), abs(amp.T - T)) <= 1e-14

    def test_largest_separation(self):
        spec = TwoCenterSpec(0.5, MAX_N)
        amp_c, amp_n = closed_form(spec, 0.3), solve_numeric(spec, 0.3)
        assert max(abs(amp_c.R - amp_n.R), abs(amp_c.T - amp_n.T)) <= 1e-14
        wide = MultiCenterSpec((-(MAX_N + 2), 0, MAX_N + 2), (0.5, 0.3, 0.5))
        assert solve_numeric(wide, 0.3).unitarity_defect <= 1e-14

    @pytest.mark.parametrize("n", [MAX_N - 1, MAX_N])
    @pytest.mark.parametrize("phi", [1e-7, 2.9])
    def test_separations_past_2_to_the_52(self, n, phi):
        # 2N + 5 is not a double here: the rows take exact phases only at the flanks' sites and
        # across the segment between the blocks, whose 2N + 2 <= 2^53 is
        spec = TwoCenterSpec(0.5, n)
        amp_c, amp_n = closed_form(spec, phi), solve_numeric(spec, phi)
        assert max(abs(amp_c.R - amp_n.R), abs(amp_c.T - amp_n.T)) <= 1e-14

    @pytest.mark.parametrize("g, phi", [(0.0, 1e-200), (0.5, 1e-300)])
    def test_the_smallest_angles(self, g, phi, capsys):
        # a free lattice stays transparent, and a block at phi = 1e-300 reflects all
        assert main(["amplitudes", "--g", repr(g), "--N", "3", "--phi", repr(phi), "--method", "numeric"]) == 0
        amp = solve_numeric(TwoCenterSpec(g, 3), phi)
        R, T = (0.0, 1.0) if g == 0.0 else (-1.0, 0.0)
        assert max(abs(amp.R - R), abs(amp.T - T)) <= 1e-15

    def test_beyond_the_largest_separation_rejected(self):
        with pytest.raises(ValueError, match=str(MAX_N)):
            TwoCenterSpec(0.5, MAX_N + 1)
        with pytest.raises(ValueError, match=str(MAX_N + 2)):
            MultiCenterSpec((0, MAX_N + 3), (0.5, 0.5))

    def test_cli_at_a_billion_sites(self, capsys):
        code = main(["amplitudes", "--g", "0.5", "--N", "1000000000", "--phi", "0.3", "--method", "both"])
        lines = capsys.readouterr().out.splitlines()
        assert code == 0
        assert float(lines[-1].split("=")[1]) <= 1e-13

    def test_cli_beyond_the_largest_separation(self, capsys):
        code = main(["amplitudes", "--g", "0.5", "--N", str(MAX_N + 1), "--phi", "0.3"])
        assert code == 2
        assert str(MAX_N) in capsys.readouterr().err


class TestAngleContract:
    """Any real angle that float() accepts gives the float's bits; the range check is as_angle's."""

    @pytest.mark.parametrize("phi,value", [(1, 1.0), (np.float64(1.1), 1.1), (np.array(1.1), 1.1)])
    def test_same_bits_as_the_float(self, phi, value):
        spec = TwoCenterSpec(0.5, 3)
        for route in (solve_numeric, closed_form):
            amp, ref = route(spec, phi), route(spec, value)
            assert type(amp.phi) is float
            assert (amp.R, amp.T, amp.phi) == (ref.R, ref.T, ref.phi)
        rows = evaluate_point(spec, phi, "both")
        assert rows == evaluate_point(spec, value, "both")
        assert all(type(row["phi"]) is float for row in rows)

    @pytest.mark.parametrize("phi", [0.0, math.pi, math.nan, math.inf, -math.inf])
    def test_outside_the_band_rejected(self, phi):
        spec = TwoCenterSpec(0.5, 3)
        for route in (solve_numeric, closed_form, lambda s, p: evaluate_point(s, p, "both")):
            with pytest.raises(BandError, match=r"outside the open band interval \(0, pi\)"):
                route(spec, phi)


class TestGSignSymmetry:
    @pytest.mark.parametrize("n", [-1, 0, 2, 7])
    def test_amplitudes_even_in_g(self, n):
        phi = 1.17
        for g in (0.2, 0.5, 0.85):
            plus = solve_numeric(TwoCenterSpec(g, n), phi)
            minus = solve_numeric(TwoCenterSpec(-g, n), phi)
            assert abs(plus.R - minus.R) <= 1e-13
            assert abs(plus.T - minus.T) <= 1e-13
            cf_plus = closed_form(TwoCenterSpec(g, n), phi)
            cf_minus = closed_form(TwoCenterSpec(-g, n), phi)
            assert abs(cf_plus.R - cf_minus.R) <= 1e-13
            assert abs(cf_plus.T - cf_minus.T) <= 1e-13


class TestUnitarityDefect:
    def test_perfect_transmission(self):
        assert Amplitudes(R=0.0, T=1.0, phi=1.0).unitarity_defect == 0.0

    def test_pythagorean_pair(self):
        assert Amplitudes(R=0.6, T=0.8j, phi=1.0).unitarity_defect <= 1e-16

    def test_solver_output_is_unitary(self):
        amp = solve_numeric(TwoCenterSpec(0.7, 5), 2.0)
        assert amp.unitarity_defect <= 1e-12


def lu_on_h(spec, phi):
    """H's own banded LU at one angle, the tests' reference route: (R, T, wave, row residual).

    Built only from the public build_matching_system, scipy's solve_banded
    and matching_row_residual; it refuses nothing, so the residual is
    returned for the caller to judge.  The wave spans [-(A+2), A+2].
    """
    system = build_matching_system(spec.bond_map(), phi, spec.matching_radius)
    x = scipy.linalg.solve_banded((1, 1), system.ab, system.rhs)
    wave = _lu_wave(system.radius, phi, x)
    return complex(x[0]), complex(x[-1]), wave, matching_row_residual(spec, phi, wave)


def _lu_wave(radius, phi, x, extra=2):
    """The LU wave over [-(radius+extra), radius+extra] for x = (R, interior..., T)."""
    return WaveSample(SiteWindow(radius + extra), _reference_wave(radius, phi, x, extra))


def _flanked_wave(phi, R, T, radius=1, extra=60, interior=None):
    """The LU wave for a solution x = (R, interior..., T)."""
    inner = np.zeros(2 * radius - 1) if interior is None else interior
    x = np.concatenate([[R], inner, [T]]).astype(np.complex128)
    return _lu_wave(radius, phi, x, extra=extra)


class TestAsymptoticFlanks:
    """psi_{-m} = exp(-i m phi) + R exp(i m phi) and psi_m = T exp(i m phi) outside the block."""

    def test_left_no_reflection(self):
        assert _flanked_wave(math.pi / 2, 0.0, 1.0).value_at(-1) == pytest.approx(-1j, abs=1e-15)

    def test_left_full_reflection_is_cosine(self):
        phi = 0.8371
        val = _flanked_wave(phi, 1.0, 0.0).value_at(-2)
        assert val == pytest.approx(2 * math.cos(2 * phi), abs=1e-14)

    def test_left_direct_value(self):
        val = _flanked_wave(math.pi / 3, 0.5j, 0.0).value_at(-3)
        assert val == pytest.approx(-1.0 - 0.5j, abs=1e-14)

    def test_right_zero_transmission(self):
        assert _flanked_wave(1.234, 1.0, 0.0).value_at(1) == 0.0

    def test_right_quarter_turn(self):
        assert _flanked_wave(math.pi / 4, 0.0, 1.0).value_at(2) == pytest.approx(1j, abs=1e-15)

    def test_right_direct_value(self):
        expected = 2.0 * np.exp(2j * math.pi / 3)
        assert _flanked_wave(math.pi / 6, 0.0, 2.0).value_at(4) == pytest.approx(expected, abs=1e-14)

    @pytest.mark.parametrize("radius", [1, 3])
    def test_interior_is_the_solved_block(self, radius):
        interior = np.arange(1, 2 * radius) * (1.0 + 0.5j)
        wave = _flanked_wave(0.9, 0.3, 0.7j, radius=radius, extra=2, interior=interior)
        assert wave.window.half_width == radius + 2
        got = [wave.value_at(k) for k in range(-radius + 1, radius)]
        assert got == interior.tolist()

    @settings(max_examples=100, deadline=None)
    @given(
        m=st.integers(min_value=1, max_value=60),
        phi=st.floats(min_value=0.01, max_value=math.pi - 0.01),
        t_re=st.floats(min_value=-2, max_value=2),
        t_im=st.floats(min_value=-2, max_value=2),
    )
    def test_right_modulus_preserved(self, m, phi, t_re, t_im):
        t = complex(t_re, t_im)
        val = _flanked_wave(phi, 0.0, t).value_at(m)
        assert abs(abs(val) - abs(t)) <= 1e-14 * max(1.0, abs(t))

    @settings(max_examples=100, deadline=None)
    @given(
        m=st.integers(min_value=1, max_value=60),
        phi=st.floats(min_value=0.01, max_value=math.pi - 0.01),
    )
    def test_left_unimodular_without_reflection(self, m, phi):
        assert abs(abs(_flanked_wave(phi, 0.0, 1.0).value_at(-m)) - 1.0) <= 1e-14


class TestInteriorFit:
    def test_free_lattice(self):
        _, wave = numeric_wave(TwoCenterSpec(0.0, 3), 0.77)
        c, d, residual = interior_plane_wave_fit(wave, 3, 0.77)
        assert c == pytest.approx(1.0, abs=1e-12)
        assert abs(d) <= 1e-12
        assert residual <= 1e-12

    def test_interior_motion_free(self):
        spec = TwoCenterSpec(0.5, 4)
        _, wave = numeric_wave(spec, 1.2)
        _, _, residual = interior_plane_wave_fit(wave, 4, 1.2)
        assert residual <= 1e-10

    def test_fit_matches_closed_form_coefficients(self):
        g, n, phi = 0.5, 4, 1.2
        spec = TwoCenterSpec(g, n)
        c_fit, d_fit, _ = interior_plane_wave_fit(numeric_wave(spec, phi)[1], n, phi)
        c_closed, d_closed, misfit = interior_plane_wave_fit(closed_form_wave(spec, phi)[1], n, phi)
        _, breakdown = closed_form_generalN(g, n, phi)
        assert misfit <= 1e-14
        for c, d in ((c_fit, d_fit), (c_closed, d_closed)):
            assert abs(c - breakdown.C) <= 1e-9
            assert abs(d - breakdown.D) <= 1e-9

    def test_too_few_sites(self):
        _, wave = numeric_wave(TwoCenterSpec(0.5, 1), 1.0)
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


def _reference_wave(radius, phi, x, extra=2):
    """Per-site wave of an LU solution x = (R, interior..., T): interior, then asymptotic flanks."""
    window = SiteWindow(radius + extra)
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
    """The loop-free row residual equals the per-row loop bit for bit."""

    @pytest.mark.parametrize("spec", TWO_CENTER_SPECS + CHAIN_AND_MULTI_SPECS, ids=repr)
    @pytest.mark.parametrize("phi", [0.37, 1.9, 2.8])
    def test_matches_per_site_loops(self, spec, phi):
        _, _, wave, residual = lu_on_h(spec, phi)
        assert residual == _reference_row_residual(spec, phi, wave)
        assert residual <= 1e-9

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


class TestNumericWave:
    """numeric_wave: the partner's wave, flanks and segments, mapped back to H site by site."""

    @pytest.mark.parametrize("spec", TWO_CENTER_SPECS + CHAIN_AND_MULTI_SPECS, ids=repr)
    @pytest.mark.parametrize("phi", [1e-6, 1.9, math.pi - 1e-6])
    def test_numeric_wave_is_the_lu_wave(self, spec, phi):
        amp, wave = numeric_wave(spec, phi)
        _, _, lu_wave, lu_residual = lu_on_h(spec, phi)
        lu_vals = lu_wave.values
        one = solve_numeric(spec, phi)
        assert lu_residual <= 1e-9
        assert wave.window == SiteWindow(spec.matching_radius + 2)
        assert (amp.R, amp.T) == (one.R, one.T)
        scale = max(1.0, float(np.abs(lu_vals).max()))
        assert np.abs(wave.values - lu_vals).max() <= 1e-12 * scale
