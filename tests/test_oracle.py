"""The one-angle route against a 60-digit reference.

mp_amplitudes runs the row recursion of H itself at 60 digits: psi = e(j)
right of the bonds (T = 1), each row solved for its left neighbour, and the
plane-wave split left of the bonds gives 1/T and R/T.  Digits lost near the
band edges and at sharp resonances come out of the spare ones.

solve_numeric must be within max(2 x the error of H's banded LU at the same
point, 1e-12) of the reference, and within 1e-12 with no refusal at weak
and strong couplings 1e-12 to 1e-3 from a band edge.  The LU (test_scattering.lu_on_h) refuses
nothing, so points its row check would refuse still give a bound.
closed_form must be within 1e-14 of it at every two-center point, the
paper's former guard angles included.
"""

import csv
import math
import random

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qhscatter import ChainSpec, MultiCenterSpec, TwoCenterSpec, closed_form, solve_numeric
from qhscatter.cli import main
from test_scattering import lu_on_h


def mp_amplitudes(bonds: dict, phi: float, dps: int = 60) -> tuple[complex, complex]:
    """(R, T) of the bond map at the double phi, by H's row recursion at dps digits."""
    R, T, _ = _mp_solution(bonds, phi, dps)
    return complex(R), complex(T)


def mp_wave(bonds: dict, phi: float, sites, dps: int = 60) -> np.ndarray:
    """H's wave at the given sites, e(j) + R e(-j) coming in from the left, by the same recursion."""
    with mpmath.workdps(dps):
        _, T, psi = _mp_solution(bonds, phi, dps)
        return np.array([complex(psi(j) * T) for j in sites])


def _mp_solution(bonds: dict, phi: float, dps: int):
    """(R, T, psi) at dps digits: psi(j) is the wave with T = 1, T and R those of the incoming e(j)."""
    with mpmath.workdps(dps):
        p = mpmath.mpf(phi)
        two_cos = 2 * mpmath.cos(p)

        def e(j):
            return mpmath.expj(j * p)

        lo, hi = min(bonds), max(bonds) + 1
        psi = {hi + 1: e(hi + 1), hi: e(hi)}
        for k in range(hi, lo - 1, -1):
            # row k: (-1 + g_{k-1}) psi_{k-1} + 2 cos(phi) psi_k - (1 + g_k) psi_{k+1} = 0
            left = 1 - mpmath.mpf(bonds.get(k - 1, 0.0))
            right = 1 + mpmath.mpf(bonds.get(k, 0.0))
            psi[k - 1] = (two_cos * psi[k] - right * psi[k + 1]) / left
        # psi_j = A e(j) + B e(-j) at j = lo - 1, lo
        j0, j1 = lo - 1, lo
        det = e(j0) * e(-j1) - e(-j0) * e(j1)
        a = (psi[j0] * e(-j1) - e(-j0) * psi[j1]) / det
        b = (e(j0) * psi[j1] - psi[j0] * e(j1)) / det

        def wave(j):
            # the flanks are plane waves: a e(j) + b e(-j) on the left, e(j) on the right
            return psi[j] if j in psi else a * e(j) + b * e(-j) if j < lo else e(j)

        return b / a, 1 / a, wave


def _error(amps, ref):
    """max(|dR|, |dT|/max(1, |T|)): chains with negative couplings transmit |T| >> 1."""
    (r, t), (r_ref, t_ref) = amps, ref
    return max(abs(r - r_ref), abs(t - t_ref) / max(1.0, abs(t_ref)))


def _guards(n):
    return [j * math.pi / (2 * m) for m in (n, n + 1) for j in range(1, 2 * m)]


def _points():
    """About 200 fixed (spec, phi) pairs near phi = 0, pi and the guard angles.

    |g| runs log-evenly toward 1 (down to 1 - 1e-9) and toward 0 (down to
    1e-3), where R is small and the band-edge error shows most.
    """
    rng = random.Random(17)
    points = []
    for n in (-1, 0, 1, 3, 10, 50, 200):
        for region in ("zero", "pi", "guard") if n >= 1 else ("zero", "pi"):
            for i in range(9):
                u = rng.random()
                g = rng.choice((-1.0, 1.0)) * (1.0 - 10.0 ** (-9.0 * u) if i % 2 else 10.0 ** (-3.0 * u))
                d = 10.0 ** (-4.0 - 8.0 * rng.random())
                phi = {"zero": d, "pi": math.pi - d}.get(region)
                if phi is None:
                    phi = rng.choice(_guards(n)) + rng.choice((-1.0, 1.0)) * d
                points.append((TwoCenterSpec(g, n), phi))
    points += [
        (TwoCenterSpec(0.999999, 3), 1e-8),  # refused by the LU's row check
        (TwoCenterSpec(0.9999999948848728, 1), 1.5707550580992669),  # double-barrier resonance
        (TwoCenterSpec(-0.0009527508571572918, 0), 1.9113264397152915e-06),  # worst LU error, 1.9e-10
        (TwoCenterSpec(0.0015234684513869556, 10), 3.1415925705514027),  # needs the exact stretch phase
    ]
    for _ in range(12):
        centers = sorted(rng.sample(range(-40, 41, 2), rng.randint(1, 4)))
        gs = [rng.uniform(-0.99, 0.99) for _ in centers]
        points.append((MultiCenterSpec(tuple(centers), tuple(gs)), rng.uniform(1e-6, math.pi - 1e-6)))
    for _ in range(12):
        couplings = tuple(rng.uniform(-0.95, 0.95) for _ in range(rng.randint(1, 6)))
        points.append((ChainSpec(couplings), rng.uniform(1e-6, math.pi - 1e-6)))
    return points


POINTS = _points()


@pytest.mark.parametrize("spec, phi", POINTS, ids=[f"{s!r}-{p!r}" for s, p in POINTS])
def test_within_the_lu_error_of_the_reference(spec, phi):
    ref = mp_amplitudes(spec.bond_map(), phi)
    amp = solve_numeric(spec, phi)
    bound = max(2.0 * _error(lu_on_h(spec, phi)[:2], ref), 1e-12)
    assert _error((amp.R, amp.T), ref) <= bound


TWO_CENTER_POINTS = [(spec, phi) for spec, phi in POINTS if isinstance(spec, TwoCenterSpec)]


@pytest.mark.parametrize("spec, phi", TWO_CENTER_POINTS, ids=[f"{s!r}-{p!r}" for s, p in TWO_CENTER_POINTS])
def test_closed_form_within_1e_14_of_the_reference(spec, phi):
    # the worst is 8.1e-15, at the double-barrier resonance g = 1 - 5e-9, N = 1
    r_ref, t_ref = mp_amplitudes(spec.bond_map(), phi)
    amp = closed_form(spec, phi)
    assert max(abs(amp.R - r_ref), abs(amp.T - t_ref)) <= 1e-14


@pytest.mark.parametrize("n", [5, 50, 400, 1000])
def test_long_uniform_chains(n):
    # theta spans 3e-241 to 5e140 at n = 400, and T underflows to 0 at n = 1000
    spec = ChainSpec((0.5,) * n)
    r_ref, t_ref = mp_amplitudes(spec.bond_map(), 1.0)
    amp = solve_numeric(spec, 1.0)
    assert abs(amp.R - r_ref) <= 1e-12
    assert abs(amp.T - t_ref) <= 1e-12 * abs(t_ref)


def test_long_random_chain():
    rng = np.random.default_rng(3)
    spec = ChainSpec(tuple(rng.uniform(-0.9, 0.9, 60)))
    for phi in (1e-3, 0.8, 2.9):
        ref = mp_amplitudes(spec.bond_map(), phi)
        amp = solve_numeric(spec, phi)
        assert _error((amp.R, amp.T), ref) <= 1e-12


def test_cli_answers_a_chain_of_a_thousand_couplings(capsys):
    couplings = ",".join(["0.5"] * 1000)
    code = main(["amplitudes", "--model", "chain", "--couplings", couplings, "--phi", "1"])
    fields = dict(tok.split("=") for tok in capsys.readouterr().out.split())
    r_ref, _ = mp_amplitudes(ChainSpec((0.5,) * 1000).bond_map(), 1.0)
    assert code == 0
    assert abs(float(fields["abs_R2"]) - abs(r_ref) ** 2) <= 1e-12
    assert float(fields["re_T"]) == float(fields["im_T"]) == 0.0  # |T| ~ 1e-477


def test_cli_refuses_a_transmission_past_the_double_range(capsys):
    # mirrored couplings scale T_h by sqrt(3) per bond: about 1e477
    couplings = ",".join(["-0.5"] * 1000)
    code = main(["amplitudes", "--model", "chain", "--couplings", couplings, "--phi", "1"])
    assert code == 2
    assert "double range" in capsys.readouterr().err


def _sweep_row(tmp_path, couplings):
    out = tmp_path / "chain.csv"
    code = main(["sweep", "--model", "chain", "--couplings", couplings, "--phi-grid", "1:1.0:1.0",
                 "--out", str(out)])
    if code != 0:
        return code, []
    with out.open() as fh:
        return code, list(csv.DictReader(fh))


def test_sweep_answers_a_chain_of_a_thousand_couplings(tmp_path, capsys):
    # the sweep writes the same bits that amplitudes prints
    couplings = ",".join(["0.5"] * 1000)
    code, rows = _sweep_row(tmp_path, couplings)
    assert code == 0 and len(rows) == 1
    assert rows[0]["abs_R2"] == "0.013744801702382233"
    capsys.readouterr()
    main(["amplitudes", "--model", "chain", "--couplings", couplings, "--phi", "1"])
    fields = dict(tok.split("=") for tok in capsys.readouterr().out.split())
    assert fields["abs_R2"] == rows[0]["abs_R2"]


def test_sweep_refuses_a_transmission_past_the_double_range(tmp_path, capsys):
    code, _ = _sweep_row(tmp_path, ",".join(["-0.5"] * 1000))
    assert code == 2
    assert "double range" in capsys.readouterr().err


# |g| log-uniform toward 0 and toward 1, up to 1 - 1e-12, either sign
MAGNITUDES = st.one_of(
    st.floats(-12.0, 0.0).map(lambda x: 10.0**x), st.floats(-12.0, -0.5).map(lambda x: 1.0 - 10.0**x)
)
COUPLINGS = st.tuples(MAGNITUDES, st.sampled_from((-1.0, 1.0))).map(lambda m: min(m[0], 1.0 - 1e-12) * m[1])
# 1e-12 to 1e-3 from either band edge
EDGE_ANGLES = st.tuples(st.floats(-12.0, -3.0), st.booleans()).map(
    lambda d: math.pi - 10.0 ** d[0] if d[1] else 10.0 ** d[0]
)


def _assert_at_the_band_edge(spec, phi):
    amp = solve_numeric(spec, phi)  # a refusal raises
    assert _error((amp.R, amp.T), mp_amplitudes(spec.bond_map(), phi)) <= 1e-12


class TestAtTheBandEdges:
    """The route's rows keep g^2, 1 - g^2 and sin(phi) exact: no refusal and 1e-12 of mpmath at the band edges."""

    @settings(max_examples=60, deadline=None)
    @given(g=COUPLINGS, n=st.integers(-1, 200), phi=EDGE_ANGLES)
    def test_two_center(self, g, n, phi):
        _assert_at_the_band_edge(TwoCenterSpec(g, n), phi)

    @settings(max_examples=30, deadline=None)
    @given(couplings=st.lists(COUPLINGS, min_size=1, max_size=6), phi=EDGE_ANGLES)
    def test_chains(self, couplings, phi):
        # a chain's bond map runs from the middle outward, not in position order
        _assert_at_the_band_edge(ChainSpec(tuple(couplings)), phi)

    @settings(max_examples=30, deadline=None)
    @given(gaps=st.lists(st.integers(2, 12), min_size=1, max_size=4), first=st.integers(-20, 20), data=st.data())
    def test_multi_center(self, gaps, first, data):
        centers = [first]
        for gap in gaps:
            centers.append(centers[-1] + gap)
        couplings = data.draw(st.lists(COUPLINGS, min_size=len(centers), max_size=len(centers)))
        _assert_at_the_band_edge(MultiCenterSpec(tuple(centers), tuple(couplings)), data.draw(EDGE_ANGLES))


def _mixed_points():
    """40 fixed chains and multi-center layouts of strong (1 - |g| from 1e-10 to 1e-6) and moderate
    (g^2 from 5e-4 to 0.6) couplings, 1e-12 to 1e-4 from the resonances pi/4, pi/3, pi/2 and 2 pi/3."""
    rng = random.Random(11)
    points = [(ChainSpec((0.9999999915051138, -0.6782412425816032, -0.9999999981039112, 0.5065011276631112,
                          0.7211142478641435, -0.99999994158141)), 1.570796326429903)]
    while len(points) < 41:
        magnitudes = [
            1 - 10 ** rng.uniform(-10, -6) if rng.random() < 0.5 else math.sqrt(rng.uniform(5e-4, 0.6))
            for _ in range(rng.randint(2, 6))
        ]
        couplings = tuple(rng.choice((-1, 1)) * m for m in magnitudes)
        if rng.random() < 0.5:
            spec = ChainSpec(couplings)
        else:
            centers = [0]
            for _ in couplings[1:]:
                centers.append(centers[-1] + rng.randint(2, 4))
            spec = MultiCenterSpec(tuple(centers), couplings)
        angle = rng.choice([math.pi / 4, math.pi / 3, math.pi / 2, 2 * math.pi / 3])
        points.append((spec, angle + rng.choice((-1, 1)) * 10 ** rng.uniform(-12, -4)))
    return points


MIXED_POINTS = _mixed_points()


@pytest.mark.parametrize("spec, phi", MIXED_POINTS, ids=[f"{s!r}-{p!r}" for s, p in MIXED_POINTS])
def test_strong_beside_moderate_bonds_at_resonances(spec, phi):
    # the first chain's moderate bonds, written as S-matrix rows beside its strong ones,
    # broke unitarity by 2.6e-9 and were refused
    _assert_at_the_band_edge(spec, phi)


def _fields(capsys):
    return dict(tok.split("=") for tok in capsys.readouterr().out.split() if not tok.startswith("method="))


def test_cli_answers_a_weak_band_edge_point_alone_and_in_a_sweep(tmp_path, capsys):
    # the cluster route refused this point (partner defect 1.5e-9, exit 3), alone and in the grid
    assert main(["amplitudes", "--g", "1e-5", "--N", "0", "--phi", "1e-9"]) == 0
    out = tmp_path / "edge.csv"
    assert main(["sweep", "--g", "0.3,1e-5", "--N", "0,1", "--phi-grid", "3:1e-9:0.5", "--out", str(out)]) == 0
    with out.open() as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 24 and max(float(row["defect"]) for row in rows) <= 1e-11


def test_cli_agrees_with_the_closed_form_near_pi(capsys):
    # the cluster route was off by 4.4e-7 here
    assert main(["amplitudes", "--g", "4.02e-7", "--N", "1", "--phi", "3.141592653588793", "--method", "both"]) == 0
    assert float(_fields(capsys)["max_discrepancy"]) <= 1e-13
