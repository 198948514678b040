"""The closed form and the point records as they stand: the references for closed_form and sweeps.evaluate_point.

closed_form and evaluate_point under each method must give these
functions' answers byte for byte, signed zeros included, and refuse where
they refuse with their errors.  The closed form is taken in Python complex
arithmetic with its phase from scattering._phase; the records are built
from it and from the library's solve_numeric, one dict per row.
"""

import math

import qhscatter.scattering as scattering
from qhscatter.lattice import as_angle
from qhscatter.scattering import Amplitudes
from qhscatter.sweeps import COLUMNS, _check_method, _scatterer_cells


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
        amps["numeric"] = scattering.solve_numeric(spec, phi)
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
