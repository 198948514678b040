"""The one-angle route against a 60-digit reference.

mp_amplitudes runs the row recursion of H itself at 60 digits: psi = e(j)
right of the bonds (T = 1), each row solved for its left neighbour, and the
plane-wave split left of the bonds gives 1/T and R/T.  Digits lost near the
band edges and at sharp resonances come out of the spare ones.

solve_numeric must be within max(2 x the error of H's banded LU at the same
point, 1e-12) of the reference.  The LU (test_scattering.lu_on_h) refuses
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

from qhscatter import ChainSpec, MultiCenterSpec, TwoCenterSpec, closed_form, solve_numeric
from qhscatter.cli import main
from test_scattering import lu_on_h


def mp_amplitudes(bonds: dict, phi: float, dps: int = 60) -> tuple[complex, complex]:
    """(R, T) of the bond map at the double phi, by H's row recursion at dps digits."""
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
        return complex(b / a), complex(1 / a)


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
    rows = list(csv.DictReader(out.open())) if code == 0 else []
    return code, rows


def test_sweep_answers_a_chain_of_a_thousand_couplings(tmp_path, capsys):
    # the sweep writes the same bits that amplitudes prints
    couplings = ",".join(["0.5"] * 1000)
    code, rows = _sweep_row(tmp_path, couplings)
    assert code == 0 and len(rows) == 1
    assert rows[0]["abs_R2"] == "0.013744801702384717"
    capsys.readouterr()
    main(["amplitudes", "--model", "chain", "--couplings", couplings, "--phi", "1"])
    fields = dict(tok.split("=") for tok in capsys.readouterr().out.split())
    assert fields["abs_R2"] == rows[0]["abs_R2"]


def test_sweep_refuses_a_transmission_past_the_double_range(tmp_path, capsys):
    code, _ = _sweep_row(tmp_path, ",".join(["-0.5"] * 1000))
    assert code == 2
    assert "double range" in capsys.readouterr().err
