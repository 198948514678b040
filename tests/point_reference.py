"""The one-angle route as it ran before its plan held a band template and each k's halves.

solve_numeric, numeric_wave, closed_form and sweeps.evaluate_point must
give these functions' answers byte for byte, signed zeros included; the
refusals must match too.  The fill starts from zeros, scatters the plan's
constant entries, takes every phase from scattering._phase, and maps T back
through the T scale for every family.
"""

import math

import numpy as np

import qhscatter.scattering as scattering
from qhscatter.lattice import SiteWindow, WaveSample, as_angle
from qhscatter.metric import half_log_ratio
from qhscatter.scattering import Amplitudes, ResonanceError, zgbsv
from qhscatter.sweeps import COLUMNS, _check_method, _scatterer_cells


def partner_system(bonds, p):
    """(plan, ab, rhs) of the partner system of bonds at one angle p."""
    plan = scattering._plan(tuple(bonds))
    ab = np.zeros(7 * plan.n, dtype=np.complex128)
    rhs = np.zeros(plan.n, dtype=np.complex128)
    ab[plan.constants] = plan.constant_values
    c2 = 2.0 * math.cos(p)
    hops = [-math.sqrt((1.0 - g) * (1.0 + g)) for g in bonds.values()] * 2  # one per side
    w = [scattering._phase(k, p) for k in plan.ks]
    rhs[:2] = w[:2]
    w = [-v for v in w]
    w += [v.conjugate() for v in w]  # -e(k), then -conj(e(k)), for k in ks
    ab[plan.entries] = [c2] * plan.n_diagonal + hops + [w[i] for i in plan.phase_sources]
    return plan, ab, rhs


def solve_partner(bonds, p):
    """(x, layout) of the partner system at one angle p, x a list of Python complex."""
    plan, ab, rhs = partner_system(bonds, p)
    _, _, x, info = zgbsv(2, 2, ab.reshape(7, -1, order="F"), rhs, overwrite_ab=1, overwrite_b=1)
    if info != 0:
        raise ResonanceError(f"matching system singular at phi={p!r}")
    x = x.tolist()
    R, T_h = x[0], x[-1]
    defect = abs(R.real**2 + R.imag**2 + T_h.real**2 + T_h.imag**2 - 1.0)
    if not defect <= 1e-9:
        raise ResonanceError(f"partner unitarity violated (defect {defect:.2e}) at phi={p!r}")
    return x, plan.layout


def partner_amplitudes(x, spec, bonds, p):
    """R = R_h and T = T_h sqrt(theta_L/theta_R), the scale taken for every family."""
    scale = scattering._t_scale(spec, bonds, p)
    R, T_h = x[0], x[-1]
    return Amplitudes(R=R, T=complex(T_h.real * scale, T_h.imag * scale), phi=p)


def solve_numeric(spec, phi):
    p = as_angle(phi)
    bonds = spec.bond_map()
    x, _ = solve_partner(bonds, p)
    return partner_amplitudes(x, spec, bonds, p)


def numeric_wave(spec, phi):
    p = as_angle(phi)
    bonds = spec.bond_map()
    x, layout = solve_partner(bonds, p)
    window = SiteWindow(spec.matching_radius + 2)
    m, ks = window.half_width, window.sites
    phases = scattering._phase(ks, p)
    vals = np.where(ks < layout[0][0], phases + x[0] * phases.conj(), x[-1] * phases)
    for (_, g1, _), (s, _, col) in zip(layout, layout[1:]):
        w = scattering._phase(np.arange(1, s - g1), p)
        vals[g1 + m + 1 : s + m] = x[col - 2] * w + x[col - 1] * w.conj()
    for s, e, col in layout:
        vals[s + m : e + m + 1] = x[col : col + e - s + 1]
    half_log = np.zeros(window.n_sites)
    for b, g in bonds.items():
        half_log[b + m + 1] = half_log_ratio(g)
    vals *= np.exp(np.cumsum(half_log))
    return partner_amplitudes(x, spec, bonds, p), WaveSample(window, vals)


def closed_form(spec, phi):
    p = as_angle(phi)
    g = spec.g
    q = (1.0 - g) * (1.0 + g) * math.sin(p)
    k = 2.0 * g * g * math.cos(p)
    e = scattering._phase(spec.N + 2, p)
    U = -q - k * e.imag * e
    V = 1j * q - k * e.real * e
    r_minus_t = -U.conjugate() / U
    r_plus_t = -V.conjugate() / V
    return Amplitudes(R=(r_plus_t + r_minus_t) / 2.0, T=(r_plus_t - r_minus_t) / 2.0, phi=p)


def evaluate_point(spec, phi, method):
    _check_method(spec, method)
    phi = as_angle(phi)
    amps = {}
    if method != "numeric":
        amps["closed"] = closed_form(spec, phi)
    if method != "closed":
        amps["numeric"] = solve_numeric(spec, phi)
    gap = None
    if len(amps) == 2:
        amp_c, amp_n = amps.values()
        gap = max(abs(amp_c.R - amp_n.R), abs(amp_c.T - amp_n.T))
    g, n = _scatterer_cells(spec)
    records = []
    for used, amp in amps.items():
        R, T = amp.R, amp.T
        abs_R2, abs_T2 = R.real**2 + R.imag**2, T.real**2 + T.imag**2
        defect = abs(abs_R2 + abs_T2 - 1.0)
        values = (g, n, phi, R.real, R.imag, T.real, T.imag, abs_R2, abs_T2, defect, used, 0, gap)
        records.append(dict(zip(COLUMNS, values)))
    return records
