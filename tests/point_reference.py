"""The closed form and the point records as they stand: the references for closed_form and sweeps.evaluate_point.

closed_form and evaluate_point under each method must give these
functions' answers byte for byte, signed zeros included, and refuse where
they refuse with their errors.  The closed form is taken in real
arithmetic with its phase from scattering._phase: U and V part by part,
-conj(W)/W from W scaled by |Re W| + |Im W|.  The records are built from
it and from the library's solve_numeric, one dict per row, every square a
product.
"""

import math

import qhscatter.scattering as scattering
from qhscatter.lattice import as_angle
from qhscatter.scattering import Amplitudes
from qhscatter.sweeps import COLUMNS, _check_method, _scatterer_cells


def _minus_conj_ratio(re, im):
    """(Re, Im) of -conj(w)/w = -(a - i b)^2/(a^2 + b^2) for w = re + i im, a + i b = w/(|re| + |im|)."""
    n = abs(re) + abs(im)
    a, b = re / n, im / n
    d = a * a + b * b
    return (b - a) * (b + a) / d, 2.0 * a * b / d


def closed_form(spec, phi):
    p = as_angle(phi)
    g = spec.g
    q = (1.0 - g) * (1.0 + g) * math.sin(p)
    k = 2.0 * g * g * math.cos(p)
    e = scattering._phase(spec.N + 2, p)
    # U = -q - k sin(M phi) e and V = i q - k cos(M phi) e
    k_sin, k_cos = k * e.imag, k * e.real
    minus_re, minus_im = _minus_conj_ratio(-q - k_sin * e.real, -k_sin * e.imag)  # R - T
    plus_re, plus_im = _minus_conj_ratio(-k_cos * e.real, q - k_cos * e.imag)  # R + T
    R = complex((plus_re + minus_re) / 2.0, (plus_im + minus_im) / 2.0)
    T = complex((plus_re - minus_re) / 2.0, (plus_im - minus_im) / 2.0)
    return Amplitudes(R=R, T=T, phi=p)


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
        abs_R2, abs_T2 = R.real * R.real + R.imag * R.imag, T.real * T.real + T.imag * T.imag
        defect = abs(abs_R2 + abs_T2 - 1.0)
        values = (g, n, phi, R.real, R.imag, T.real, T.imag, abs_R2, abs_T2, defect, used, 0, gap)
        records.append(dict(zip(COLUMNS, values)))
    return records
