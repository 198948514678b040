"""The batched numeric route: many angles of one scatterer in one partner solve.

solve_numeric_grid of one scatterer must equal a loop of solve_numeric
(the one-angle solve of the Hermitian partner) bit for bit, across chunk
boundaries, on the verify grid, the benchmark grids and edge points, and
for chains and multi-center layouts.  Failures must surface as the first failing angle in
grid order, exactly as that loop would raise them.  H's own banded LU
(build_matching_system and matching_row_residual, public and no longer
used by the library) is the independent reference: the route agrees with
it to rounding, and its build at each angle equals a per-row reference.
"""

import cmath
import importlib
import math
import random
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

import qhscatter.scattering as scattering
import qhscatter.sweeps as sweeps
from qhscatter import (
    Amplitudes,
    BandError,
    ChainSpec,
    ResonanceError,
    TwoCenterSpec,
    build_matching_system,
    matching_row_residual,
    solve_numeric,
    solve_numeric_grid,
    sweep_records,
)
from qhscatter.cli import main
from qhscatter.scattering import CHUNK_UNKNOWNS
from qhscatter.sweeps import DEFAULT_G_GRID, DEFAULT_N_GRID, phi_grid
from test_layout_groups import _force_in_solve
from test_oracle import mp_amplitudes
from test_scattering import CHAIN_AND_MULTI_SPECS, _reference_wave, lu_on_h

VERIFY_ANGLES = np.linspace(0.05, math.pi - 0.05, 42)[1:-1]
RANDOM_ANGLES = np.random.default_rng(11).uniform(1e-3, math.pi - 1e-3, 60)
CHAINS = [ChainSpec(c) for c in ((0.5,), (0.5, -0.3), (0.2, 0.7, -0.4), (-0.6, 0.1, 0.3, 0.8))]
BENCH = Path(__file__).resolve().parent.parent / "bench"


@pytest.fixture(scope="module")
def bench_worker():
    """bench/worker.py imported from its source, with no bytecode written under bench/."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sys, "dont_write_bytecode", True)
        mp.syspath_prepend(str(BENCH))
        for name in ("worker", "calibration", "tracing"):
            mp.delitem(sys.modules, name, raising=False)
        yield importlib.import_module("worker")
        for name in ("worker", "calibration", "tracing"):
            sys.modules.pop(name, None)


def _bits(amp):
    return (amp.R.real, amp.R.imag, amp.T.real, amp.T.imag, amp.phi)


def _amplitudes(spec, phis):
    """solve_numeric_grid of spec alone at phis, as the Amplitudes solve_numeric returns at each angle."""
    R, T = solve_numeric_grid([spec], phis)
    return list(map(Amplitudes, R[0].tolist(), T[0].tolist(), np.asarray(phis, dtype=float).tolist()))


def _assert_batch_is_the_one_angle_route(spec, phis):
    amps = _amplitudes(spec, phis)
    assert len(amps) == len(phis)
    for phi, amp in zip(np.asarray(phis, dtype=float).tolist(), amps):
        one = solve_numeric(spec, phi)
        # repr tells -0.0 from 0.0 and compares every bit of a finite double
        assert repr(_bits(amp)) == repr(_bits(one))


class TestBitForBit:
    @pytest.mark.parametrize("g", DEFAULT_G_GRID)
    def test_verify_grid(self, g):
        for n in DEFAULT_N_GRID:
            _assert_batch_is_the_one_angle_route(TwoCenterSpec(g, n), VERIFY_ANGLES)

    @pytest.mark.parametrize("workload", ["sweep-dense", "sweep-long"])
    def test_benchmark_sweep_grids(self, bench_worker, workload):
        gs, ns, count, _ = bench_worker.SWEEPS[workload]
        for g in gs:
            for n in ns:
                _assert_batch_is_the_one_angle_route(TwoCenterSpec(g, n), phi_grid(count))

    def test_edge_points(self, bench_worker):
        # each sampled scatterer at the angles of all sampled points of its N:
        # phi within 1e-4 to 1e-12 of 0, pi or a guard, 1 - |g| down to 1e-9
        points, _ = bench_worker.edge_inputs(1)
        sample = random.Random(5).sample(points, 140)
        for g, n, _ in sample:
            phis = [phi for _, m, phi in sample if m == n]
            _assert_batch_is_the_one_angle_route(TwoCenterSpec(g, n), phis)

    @pytest.mark.parametrize("spec", CHAINS + CHAIN_AND_MULTI_SPECS, ids=repr)
    def test_chains_and_multi_center(self, spec):
        _assert_batch_is_the_one_angle_route(spec, RANDOM_ANGLES)

    @pytest.mark.parametrize("couplings", [(0.5,) * 1000, tuple(np.random.default_rng(2).uniform(-0.9, 0.9, 1000))])
    def test_chain_of_a_thousand_couplings(self, couplings):
        _assert_batch_is_the_one_angle_route(ChainSpec(couplings), RANDOM_ANGLES[:9])

    @pytest.mark.parametrize("spec", [TwoCenterSpec(-0.99999, 8000), TwoCenterSpec(0.999999, 3)], ids=repr)
    def test_near_the_band_edges(self, spec):
        phis = [1e-12, 1e-8, 1e-4, 0.7, math.pi / 2, math.pi - 1e-8, math.pi - 1e-12]
        _assert_batch_is_the_one_angle_route(spec, phis)

    @pytest.mark.parametrize(
        "spec, count", [(TwoCenterSpec(-0.7, 500), 700), (ChainSpec((0.3, -0.6) * 150), 40)], ids=repr
    )
    def test_across_chunk_boundaries(self, spec, count, monkeypatch):
        phis = np.linspace(0.2, 2.9, count)
        n = scattering._plan(tuple(spec.bond_map())).n
        per_call = max(1, CHUNK_UNKNOWNS // n)
        sizes = []
        zgbsv = scattering.zgbsv

        def spy(kl, ku, ab, b, **kwargs):
            sizes.append(len(b))
            assert ab.nbytes <= 1 << 20  # CHUNK_UNKNOWNS keeps a batch's band under 1 MB
            return zgbsv(kl, ku, ab, b, **kwargs)

        monkeypatch.setattr(scattering, "zgbsv", spy)
        amps = _amplitudes(spec, phis)
        assert sizes == [n * len(phis[i : i + per_call]) for i in range(0, len(phis), per_call)]
        assert len(sizes) > 1
        monkeypatch.setattr(scattering, "zgbsv", zgbsv)
        for phi, amp in zip(phis.tolist(), amps):
            assert repr(_bits(amp)) == repr(_bits(solve_numeric(spec, phi)))

    def test_chunk_band_stays_small(self):
        # 7 band rows of 16 bytes per partner unknown
        assert 7 * 16 * CHUNK_UNKNOWNS <= 1 << 20

    def test_empty_angle_list(self):
        R, T = solve_numeric_grid([TwoCenterSpec(0.5, 2)], [])
        assert R.shape == T.shape == (1, 0) and R.dtype == T.dtype == np.complex128


class TestAgreesWithTheLuOnH:
    """The route solves the Hermitian partner, the reference solves H: equal to rounding."""

    def _assert_agrees(self, spec, phis):
        for phi, amp in zip(phis.tolist(), _amplitudes(spec, phis)):
            R, T, _, _ = lu_on_h(spec, phi)
            assert max(abs(R - amp.R), abs(T - amp.T)) <= 1e-12

    @pytest.mark.parametrize("g", DEFAULT_G_GRID)
    def test_verify_grid(self, g):
        for n in DEFAULT_N_GRID:
            self._assert_agrees(TwoCenterSpec(g, n), VERIFY_ANGLES)

    @pytest.mark.parametrize("spec", CHAINS + CHAIN_AND_MULTI_SPECS, ids=repr)
    def test_chains_and_multi_center(self, spec):
        self._assert_agrees(spec, RANDOM_ANGLES)


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


class TestMatchingSystemAtEachAngle:
    """build_matching_system at each angle: the per-row reference's system, and lu_on_h's solution."""

    def _assert_angles(self, spec, phis):
        a = spec.matching_radius
        bonds = spec.bond_map()
        checks = []
        for phi in np.asarray(phis, dtype=float).tolist():
            system = build_matching_system(bonds, phi, a)
            ab_ref, rhs_ref = _reference_matching_system(bonds, phi, a)
            assert system.phi == phi and system.size == 2 * a + 1
            # the two slots outside the band stay at zero
            assert system.ab[0, 0] == 0 and system.ab[2, -1] == 0
            assert system.ab[:, 1:-1].tobytes() == ab_ref[:, 1:-1].tobytes()
            assert system.ab[0, -1] == ab_ref[0, -1] and system.ab[2, 0] == ab_ref[2, 0]
            assert system.rhs.tobytes() == rhs_ref.tobytes()
            x = scipy.linalg.solve_banded((1, 1), system.ab, system.rhs)
            R, T, wave, residual = lu_on_h(spec, phi)
            assert x.tobytes() == scipy.linalg.solve_banded((1, 1), ab_ref, rhs_ref).tobytes()
            assert (complex(x[0]), complex(x[-1])) == (R, T)
            assert _reference_wave(a, phi, x).tobytes() == wave.values.tobytes()
            assert matching_row_residual(bonds, phi, wave) == residual
            checks.append(residual)
        return np.array(checks)

    @pytest.mark.parametrize("g", DEFAULT_G_GRID)
    def test_verify_grid(self, g):
        for n in DEFAULT_N_GRID:
            self._assert_angles(TwoCenterSpec(g, n), VERIFY_ANGLES[::7])

    @pytest.mark.parametrize("spec", CHAINS + CHAIN_AND_MULTI_SPECS, ids=repr)
    def test_chains_and_multi_center(self, spec):
        self._assert_angles(spec, RANDOM_ANGLES)

    def test_row_check_of_the_lu_on_h_near_the_band_edges(self):
        # H's row check refuses these angles (a false rejection: the partner
        # route answers them)
        checks = self._assert_angles(TwoCenterSpec(0.999999, 3), [1e-8, 0.7, math.pi - 1e-8, 0.3])
        assert (checks > 1e-9).tolist() == [True, False, True, False]


def _first_error(fn):
    try:
        fn()
    except ResonanceError as exc:
        return str(exc)
    raise AssertionError("no ResonanceError raised")


SINGULAR, BROKEN = 0.0, 2.0


class TestFailuresInGridOrder:
    SPEC = TwoCenterSpec(0.7, 3)
    ANGLES = np.linspace(0.3, 2.8, 9).tolist()

    @pytest.mark.parametrize(
        "failures, first",
        [
            ({3: BROKEN, 6: SINGULAR}, 3),
            ({2: SINGULAR, 5: BROKEN}, 2),
            ({5: SINGULAR, 2: BROKEN}, 2),  # the angles before a singular block are checked too
            ({7: SINGULAR}, 7),
        ],
    )
    def test_refusal_in_the_middle_of_a_batch(self, monkeypatch, failures, first):
        _force_in_solve(monkeypatch, {(self.SPEC, self.ANGLES[i]): f for i, f in failures.items()})
        got = _first_error(lambda: solve_numeric_grid([self.SPEC], self.ANGLES))
        assert got == _first_error(lambda: solve_numeric(self.SPEC, self.ANGLES[first]))
        assert got.endswith(f"at phi={self.ANGLES[first]!r}")
        kind = "matching system singular" if failures[first] == SINGULAR else "partner unitarity violated"
        assert got.startswith(kind)

    SWEEP_SPECS = [TwoCenterSpec(0.3, n) for n in (0, 1, 4, 6)]
    SWEEP_ANGLES = phi_grid(9)

    def _targets(self, factor):
        # the third scatterer fails at angle 4, the fourth already at angle 2:
        # grid order reports the third
        angles = self.SWEEP_ANGLES.tolist()
        return {(TwoCenterSpec(0.3, 4), angles[4]): factor, (TwoCenterSpec(0.3, 6), angles[2]): factor}

    @pytest.mark.parametrize("factor", [BROKEN, SINGULAR])
    def test_sweep_raises_what_the_per_point_loop_raises(self, monkeypatch, factor):
        specs, phis = self.SWEEP_SPECS, self.SWEEP_ANGLES
        _force_in_solve(monkeypatch, self._targets(factor))
        expected = _first_error(lambda: [solve_numeric(s, p) for s in specs for p in phis])
        assert expected.endswith(f"at phi={float(phis[4])!r}")
        assert _first_error(lambda: sweep_records(specs, phis, "both")) == expected

    def test_cli_exits_3_on_a_refusal(self, tmp_path, monkeypatch, capsys):
        _force_in_solve(monkeypatch, self._targets(BROKEN))
        rc = main(["sweep", "--g", "0.3", "--N", "0,1,4,6", "--phi-grid", "9", "--out", str(tmp_path / "s.csv")])
        assert rc == 3
        assert "partner unitarity violated" in capsys.readouterr().err

    def test_cli_answers_what_the_lu_on_h_refused(self, tmp_path):
        # H's row check refused phi = 1e-8 here (exit 3); the partner answers it
        out = tmp_path / "s.csv"
        rc = main(["sweep", "--g", "0.999999", "--N", "3", "--phi-grid", "3:1e-8:2.0",
                   "--method", "numeric", "--out", str(out)])
        assert rc == 0
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        spec = TwoCenterSpec(0.999999, 3)
        for row in rows:
            amp = solve_numeric(spec, float(row[2]))
            assert [float(v) for v in row[3:7]] == [amp.R.real, amp.R.imag, amp.T.real, amp.T.imag]
            assert float(row[9]) <= 1e-11
        R_ref, T_ref = mp_amplitudes(spec.bond_map(), 1e-8)
        amp = solve_numeric(spec, 1e-8)
        assert max(abs(amp.R - R_ref), abs(amp.T - T_ref)) <= 1e-12


class TestAngleArray:
    """The batch's range check names the first angle outside (0, pi), as a loop of as_angle would."""

    @pytest.mark.parametrize(
        "phis, bad",
        [([1.0, 0.0, math.nan], 0.0), ([1.0, math.nan, 0.0], math.nan), ([math.pi, 1.0], math.pi), ([-2.0], -2.0)],
    )
    def test_first_bad_angle(self, phis, bad):
        with pytest.raises(BandError) as exc:
            solve_numeric_grid([TwoCenterSpec(0.4, 2)], phis)
        assert str(exc.value) == f"phi={bad!r} outside the open band interval (0, pi)"

    def test_good_angles_pass_through(self):
        phis = scattering._angle_array((1e-300, 1.0, math.pi - 1e-15))
        assert phis.tolist() == [1e-300, 1.0, math.pi - 1e-15]


class TestClosedMethodSolvesNothing:
    """Under 'closed' every angle has a closed row, so no numeric solve runs."""

    @pytest.fixture(autouse=True)
    def _numeric_raises(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a numeric solve ran under --method closed")

        monkeypatch.setattr(sweeps, "solve_numeric_grid", refuse)
        monkeypatch.setattr(sweeps, "solve_numeric", refuse)

    def test_sweep_records(self):
        # every N >= 1 sat on a guard of the paper's form at phi = pi/2, the grid midpoint
        specs = [TwoCenterSpec(0.4, 1), TwoCenterSpec(0.4, 0)]
        table = sweep_records(specs, phi_grid(5, 0.5, math.pi - 0.5), "closed")
        assert list(zip(table["N"], table["method"], table["resonance_flag"])) == [
            *[(1, "closed", 0)] * 5, *[(0, "closed", 0)] * 5,
        ]
        assert set(table["discrepancy"]) == {None}

    def test_cli(self, tmp_path):
        argv = ["sweep", "--g", "0.4,-0.9", "--N", "-1,0,1,2,50", "--phi-grid", "41", "--method", "closed"]
        assert main([*argv, "--out", str(tmp_path / "s.csv")]) == 0
        assert main(["amplitudes", "--g", "0.4", "--N", "2", "--phi", repr(math.pi / 2), "--method", "closed"]) == 0


class TestNoLibraryRouteSolvesH:
    """H's matching system is a test reference only: every command runs with it unavailable."""

    @pytest.fixture(autouse=True)
    def _lu_on_h_raises(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a library route used the LU on H")

        monkeypatch.setattr(scattering, "build_matching_system", refuse)
        monkeypatch.setattr(scipy.linalg, "solve_banded", refuse)

    @pytest.mark.parametrize(
        "argv",
        [
            ["sweep", "--model", "two-center", "--g", "0.3,-0.9", "--N", "-1,0,2,50", "--method", "both"],
            ["sweep", "--model", "two-center", "--g", "0.3,-0.9", "--N", "-1,0,2,50", "--method", "closed"],
            ["sweep", "--model", "two-center", "--g", "0.3,-0.9", "--N", "-1,0,2,50", "--method", "numeric"],
            ["sweep", "--model", "chain", "--couplings", "0.5,0.3;0.4,-0.2,0.6", "--method", "numeric"],
            ["sweep", "--model", "multi-center", "--centers", "-6,0,7", "--g", "0.3,0.5", "--method", "numeric"],
        ],
        ids=["two-center-both", "two-center-closed", "two-center-numeric", "chain", "multi-center"],
    )
    def test_sweep(self, tmp_path, argv):
        assert main([*argv, "--phi-grid", "40", "--out", str(tmp_path / "s.csv")]) == 0

    @pytest.mark.parametrize(
        "argv",
        [
            ["verify"],
            ["amplitudes", "--model", "two-center", "--g", "0.5", "--N", "3", "--phi", "1.0"],
            ["amplitudes", "--model", "chain", "--couplings", "0.5,0.3", "--phi", "1.0"],
            ["probe-continuum", "--g", "0.5", "--kappa", "1.0", "--h-start", "0.2", "--halvings", "6"],
        ],
        ids=["verify", "amplitudes-two-center", "amplitudes-chain", "probe-continuum"],
    )
    def test_other_commands(self, argv, capsys):
        assert main(argv) == 0
        assert "FAIL" not in capsys.readouterr().out
