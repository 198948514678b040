"""The batched numeric route: one banded solve per batch of a scatterer's angles.

Every amplitude, wave value and self-check value of a batch must equal the
one-angle LU block bit for bit, and the per-site scalar references below
(the matching build as a row loop with cmath, and the wave and row
residual references of test_scattering) pin both to the scalar complex
arithmetic.  Failures must surface as the first failing angle in grid
order, exactly as a loop over the one-angle block would raise them.  The
one-angle route solve_numeric (the compressed system of the Hermitian
partner) agrees with the batch to rounding.
"""

import cmath
import math

import numpy as np
import pytest
import scipy.linalg

import qhscatter.scattering as scattering
import qhscatter.sweeps as sweeps
from qhscatter import (
    ChainSpec,
    MultiCenterSpec,
    ResonanceError,
    SweepConfig,
    TwoCenterSpec,
    build_matching_system,
    matching_row_residual,
    solve_numeric,
    solve_numeric_batch,
    sweep_records,
)
from qhscatter.cli import main
from qhscatter.lattice import SiteWindow, WaveSample
from qhscatter.scattering import CHUNK_UNKNOWNS, _solve_block_batch, _wave_values
from qhscatter.sweeps import DEFAULT_G_GRID, DEFAULT_N_GRID
from test_scattering import CHAIN_AND_MULTI_SPECS, _reference_row_residual, _reference_wave

VERIFY_ANGLES = np.linspace(0.05, math.pi - 0.05, 42)[1:-1]
RANDOM_ANGLES = np.random.default_rng(11).uniform(1e-3, math.pi - 1e-3, 60)
CHAINS = [ChainSpec(c) for c in ((0.5,), (0.5, -0.3), (0.2, 0.7, -0.4), (-0.6, 0.1, 0.3, 0.8))]


def _reference_matching_system(bonds, phi, radius):
    """Row-by-row reference for one angle's block: (ab, rhs) with cmath flanks."""
    a = radius
    n = 2 * a + 1
    two_cos = 2.0 * math.cos(phi)
    ab = np.zeros((3, n), dtype=np.complex128)
    rhs = np.zeros(n, dtype=np.complex128)
    ab[1, :] = two_cos
    ab[0, 1:] = -1.0
    ab[2, :-1] = -1.0
    special = {-a, -a + 1, a - 1, a}
    for b in bonds:
        special.update((b, b + 1))
    for k in sorted(special):
        r = k + a
        contrib = {}
        row_rhs = 0.0 + 0.0j
        for j, w in ((k - 1, -1.0 + bonds.get(k - 1, 0.0)), (k, two_cos), (k + 1, -1.0 - bonds.get(k, 0.0))):
            if abs(j) <= a - 1:
                contrib[j + a] = contrib.get(j + a, 0.0) + w
            elif j <= -a:
                contrib[0] = contrib.get(0, 0.0) + w * cmath.exp(-1j * j * phi)
                row_rhs -= w * cmath.exp(1j * j * phi)
            else:
                contrib[n - 1] = contrib.get(n - 1, 0.0) + w * cmath.exp(1j * j * phi)
        rhs[r] = row_rhs
        for col, v in contrib.items():
            ab[1 + r - col, col] = v
    return ab, rhs


def _batch_pieces(spec, phis):
    """(x, wave values, check values) of one block-diagonal solve, without refusing."""
    bonds, a = spec.bond_map(), spec.matching_radius
    system = build_matching_system(bonds, phis, a)
    x = scipy.linalg.solve_banded((1, 1), system.ab, system.rhs).reshape(len(phis), -1)
    vals = _wave_values(a, phis, x)
    return x, vals, matching_row_residual(bonds, phis, vals)


def _assert_batch_matches_scalar_route(spec, phis):
    phis = np.asarray(phis, dtype=float)
    a = spec.matching_radius
    n = 2 * a + 1
    system = build_matching_system(spec.bond_map(), phis, a)
    x, vals, checks = _batch_pieces(spec, phis)
    for i, phi in enumerate(phis.tolist()):
        ab_ref, rhs_ref = _reference_matching_system(spec.bond_map(), phi, a)
        block = system.ab[:, i * n : (i + 1) * n]
        # the stacked layout leaves the two coupling slots of each block at zero
        assert block[0, 0] == 0 and block[2, -1] == 0
        assert block[:, 1:-1].tobytes() == ab_ref[:, 1:-1].tobytes()
        assert block[0, -1] == ab_ref[0, -1] and block[2, 0] == ab_ref[2, 0]
        assert system.rhs[i * n : (i + 1) * n].tobytes() == rhs_ref.tobytes()
        x_ref = scipy.linalg.solve_banded((1, 1), ab_ref, rhs_ref)
        assert x[i].tobytes() == x_ref.tobytes()
        assert vals[i].tobytes() == _reference_wave(a, phi, x_ref, 1.0).tobytes()
        wave = WaveSample(SiteWindow(a + 2), _wave_values(a, np.array([phi]), x_ref[None, :])[0])
        assert checks[i] == _reference_row_residual(spec, phi, wave)
    return checks


def _one_angle_block(spec, phi):
    """(R, T, wave) of the LU block of one angle."""
    x, vals = _solve_block_batch(spec.bond_map(), spec.matching_radius, np.array([phi]))
    wave = WaveSample(SiteWindow(spec.matching_radius + 2), vals[0])
    return complex(x[0, 0]), complex(x[0, -1]), wave


def _assert_batch_matches_one_angle_blocks(spec, phis):
    amps = solve_numeric_batch(spec, phis)
    _, vals, checks = _batch_pieces(spec, np.asarray(phis, dtype=float))
    assert [a.phi for a in amps] == [float(p) for p in phis]
    for i, (phi, amp) in enumerate(zip(phis, amps)):
        R, T, wave = _one_angle_block(spec, float(phi))
        assert (amp.R, amp.T) == (R, T)
        assert np.array_equal(np.signbit([amp.R.real, amp.R.imag, amp.T.real, amp.T.imag]),
                              np.signbit([R.real, R.imag, T.real, T.imag]))
        assert vals[i].tobytes() == wave.values.tobytes()
        assert checks[i] == matching_row_residual(spec, float(phi), wave)


class TestBitForBit:
    @pytest.mark.parametrize("g", DEFAULT_G_GRID)
    def test_verify_grid(self, g):
        for n in DEFAULT_N_GRID:
            spec = TwoCenterSpec(g, n)
            _assert_batch_matches_one_angle_blocks(spec, VERIFY_ANGLES)
            _assert_batch_matches_scalar_route(spec, VERIFY_ANGLES[::7])

    @pytest.mark.parametrize("spec", CHAINS + CHAIN_AND_MULTI_SPECS, ids=repr)
    def test_chains_and_multi_center(self, spec):
        _assert_batch_matches_one_angle_blocks(spec, RANDOM_ANGLES)
        _assert_batch_matches_scalar_route(spec, RANDOM_ANGLES)

    def test_refused_angles_have_the_same_check_value(self):
        # near the band edges with |g| -> 1 the row check refuses; the batched
        # check value must still equal the one-angle value bit for bit
        spec = TwoCenterSpec(0.999999, 3)
        phis = np.array([1e-8, 0.7, math.pi - 1e-8, 0.3])
        checks = _assert_batch_matches_scalar_route(spec, phis)
        assert (checks > 1e-9).tolist() == [True, False, True, False]

    @pytest.mark.parametrize("n, count", [(500, 40), (8000, 3)])
    def test_large_n_across_batch_boundaries(self, n, count, monkeypatch):
        spec = TwoCenterSpec(-0.7, n)
        phis = np.linspace(0.2, 2.9, count)
        sizes = []
        solve = scipy.linalg.solve_banded

        def spy(l_and_u, ab, b, **kwargs):
            sizes.append(len(b))
            return solve(l_and_u, ab, b, **kwargs)

        monkeypatch.setattr(scipy.linalg, "solve_banded", spy)
        amps = solve_numeric_batch(spec, phis)
        block = 2 * spec.matching_radius + 1
        per_batch = max(1, CHUNK_UNKNOWNS // block)
        assert sizes == [block * len(phis[i : i + per_batch]) for i in range(0, count, per_batch)]
        assert len(sizes) > 1
        monkeypatch.setattr(scipy.linalg, "solve_banded", solve)
        for phi, amp in zip(phis, amps):
            assert (amp.R, amp.T) == _one_angle_block(spec, float(phi))[:2]
        _, vals, checks = _batch_pieces(spec, phis[:2])
        wave = _one_angle_block(spec, float(phis[1]))[2]
        assert vals[1].tobytes() == wave.values.tobytes()
        assert checks[1] == matching_row_residual(spec, float(phis[1]), wave)

    def test_chunk_arrays_stay_small(self):
        # CHUNK_UNKNOWNS keeps a batch's banded matrix under 1 MB
        assert 3 * 16 * CHUNK_UNKNOWNS <= 1 << 20

    def test_empty_angle_list(self):
        assert solve_numeric_batch(TwoCenterSpec(0.5, 2), []) == []


def _assert_one_angle_route_agrees(spec, phis):
    for phi, amp in zip(phis.tolist(), solve_numeric_batch(spec, phis)):
        one = solve_numeric(spec, phi)
        assert max(abs(one.R - amp.R), abs(one.T - amp.T)) <= 1e-12


class TestOneAngleRouteAgreesWithTheBatch:
    """solve_numeric solves the Hermitian partner, the batch solves H: equal to rounding."""

    @pytest.mark.parametrize("g", DEFAULT_G_GRID)
    def test_verify_grid(self, g):
        for n in DEFAULT_N_GRID:
            _assert_one_angle_route_agrees(TwoCenterSpec(g, n), VERIFY_ANGLES)

    @pytest.mark.parametrize("spec", CHAINS + CHAIN_AND_MULTI_SPECS, ids=repr)
    def test_chains_and_multi_center(self, spec):
        _assert_one_angle_route_agrees(spec, RANDOM_ANGLES)


def _first_error(fn):
    try:
        fn()
    except ResonanceError as exc:
        return str(exc)
    raise AssertionError("no ResonanceError raised")


def _per_point_loop(config):
    for spec in config.specs():
        for phi in config.angles():
            _one_angle_block(spec, float(phi))


class TestFailuresInGridOrder:
    def test_natural_refusal_in_the_middle_of_a_batch(self):
        spec = TwoCenterSpec(0.999999, 3)
        phis = [0.4, 1.3, 1e-8, 2.2, math.pi - 1e-8]
        got = _first_error(lambda: solve_numeric_batch(spec, phis))
        assert got == _first_error(lambda: [_one_angle_block(spec, p) for p in phis])
        assert got.endswith("at phi=1e-08")

    def _config(self):
        return SweepConfig(
            model="two-center", couplings=(0.3, -0.6), n_values=(0, 4), phi_count=9, method="both"
        )

    def _targets(self, config):
        # the third scatterer fails at angle 4, the fourth already at angle 2:
        # grid order reports the third
        angles = config.angles()
        return {
            tuple(sorted(TwoCenterSpec(-0.6, 0).bond_map().items())): float(angles[4]),
            tuple(sorted(TwoCenterSpec(-0.6, 4).bond_map().items())): float(angles[2]),
        }

    def _hits(self, targets, bonds, phi):
        return np.atleast_1d(phi) == targets.get(tuple(sorted(bonds.items())), -1.0)

    def _force_refusal(self, monkeypatch, targets):
        original = scattering.matching_row_residual

        def refuse_targets(bonds, phi, wave):
            out = original(bonds, phi, wave)
            hit = self._hits(targets, bonds, phi)
            return (1.0 if hit[0] else out) if isinstance(out, float) else np.where(hit, 1.0, out)

        monkeypatch.setattr(scattering, "matching_row_residual", refuse_targets)

    def _force_singular(self, monkeypatch, targets):
        original = scattering.build_matching_system

        def singular_at_targets(bonds, phi, radius):
            system = original(bonds, phi, radius)
            n = 2 * radius + 1
            for i in np.flatnonzero(self._hits(targets, bonds, system.phi)):
                system.ab[:, i * n : (i + 1) * n] = 0.0
            return system

        monkeypatch.setattr(scattering, "build_matching_system", singular_at_targets)

    @pytest.mark.parametrize("force", ["_force_refusal", "_force_singular"])
    def test_sweep_raises_what_the_per_point_loop_raises(self, monkeypatch, force):
        config = self._config()
        getattr(self, force)(monkeypatch, self._targets(config))
        expected = _first_error(lambda: _per_point_loop(config))
        assert expected.endswith(f"at phi={float(config.angles()[4])!r}" + (
            ": singular matrix" if force == "_force_singular" else ""))
        assert _first_error(lambda: sweep_records(config)) == expected

    def test_cli_exits_3_on_a_refusal(self, tmp_path, monkeypatch, capsys):
        self._force_refusal(monkeypatch, self._targets(self._config()))
        rc = main(["sweep", "--g", "0.3,-0.6", "--N", "0,4", "--phi-grid", "9",
                   "--out", str(tmp_path / "s.csv")])
        assert rc == 3
        assert "matching rows violated" in capsys.readouterr().err

    def test_cli_exits_3_on_a_natural_refusal(self, tmp_path, capsys):
        rc = main(["sweep", "--g", "0.999999", "--N", "3", "--phi-grid", "3:1e-8:2.0",
                   "--method", "numeric", "--out", str(tmp_path / "s.csv")])
        assert rc == 3
        assert "at phi=1e-08" in capsys.readouterr().err


class TestClosedMethodSolvesOnlyGuardedAngles:
    def test_only_guarded_angles_are_solved(self, monkeypatch):
        # every N >= 1 is guarded at phi = pi/2, the grid midpoint; N = 0 never
        config = SweepConfig(
            model="two-center", couplings=(0.4,), n_values=(1, 0), phi_count=5,
            phi_min=0.5, phi_max=math.pi - 0.5, method="closed",
        )
        solved = []
        batch = sweeps.solve_numeric_batch

        def spy(spec, phis):
            solved.append((spec.N, list(phis)))
            return batch(spec, phis)

        monkeypatch.setattr(sweeps, "solve_numeric_batch", spy)
        records = sweep_records(config)
        mid = float(config.angles()[2])
        assert solved == [(1, [mid])]
        assert [(r["N"], r["method"], r["resonance_flag"]) for r in records] == [
            (1, "closed", 0), (1, "closed", 0), (1, "numeric", 1), (1, "closed", 0), (1, "closed", 0),
            *[(0, "closed", 0)] * 5,
        ]
        assert records[2]["discrepancy"] is None
        assert records[2]["re_R"] == batch(TwoCenterSpec(0.4, 1), [mid])[0].R.real
