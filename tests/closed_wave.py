"""The closed form's wave of separated blocks and a plane-wave fit: the tests' reference for waves.

With q, k, e, U and V as in the closed form of scattering's module
docstring, the interior psi_k = C e(k) + D e(-k), |k| <= N + 1, of
separated blocks (N >= 1) has

    C + D = i q/V,                 C - D = -q/U.

q, U and V are recomputed here as the module docstring defines them, at
one angle; closed_form_wave's amplitudes are closed_form's.
"""

import math

import numpy as np

from qhscatter import Amplitudes, DomainError, SiteWindow, TwoCenterSpec, WaveSample, as_angle, closed_form
from qhscatter.scattering import _phase


def closed_form_wave(spec: TwoCenterSpec, phi: float) -> tuple[Amplitudes, WaveSample]:
    """closed_form plus the closed wave over [-(A+2), A+2], separated blocks only.

    Interior sites |k| <= N+1 follow C e^{i k phi} + D e^{-i k phi}; the
    block centers -(N+2) and N+2 carry their flank's plane-wave value
    divided by 1 + g; everything beyond is asymptotic.
    """
    N, g = spec.N, spec.g
    if N < 1:
        raise DomainError(f"closed-form wave needs separated blocks (N >= 1), got N={N}")
    amp = closed_form(spec, phi)
    p = amp.phi
    q = (1.0 - g) * (1.0 + g) * math.sin(p)
    k = 2.0 * g * g * math.cos(p)
    e = _phase(N + 2, p)
    U = -q - k * e.imag * e
    V = 1j * q - k * e.real * e
    c_plus_d, c_minus_d = 1j * q / V, -q / U
    C, D = (c_plus_d + c_minus_d) / 2.0, (c_plus_d - c_minus_d) / 2.0
    window = SiteWindow(spec.matching_radius + 2)
    ks = window.sites
    out = _phase(ks, p)
    back = out.conj()
    vals = np.where(ks < 0, out + amp.R * back, amp.T * out)
    inner = np.abs(ks) <= N + 1
    vals[inner] = C * out[inner] + D * back[inner]
    vals[window.index_of(-(N + 2))] /= 1.0 + g
    vals[window.index_of(N + 2)] /= 1.0 + g
    return amp, WaveSample(window, vals)


def interior_plane_wave_fit(wave: WaveSample, N: int, phi: float) -> tuple[complex, complex, float]:
    """Least-squares fit psi_k ~= C e^{i k phi} + D e^{-i k phi} over |k| <= N.

    Returns (C, D, residual) with residual the max absolute misfit.
    """
    if N < 1:
        raise DomainError(f"interior fit needs N >= 1 (at least 3 sites), got {N}")
    p = as_angle(phi)
    ks = np.arange(-N, N + 1)
    vals = wave.values[wave.window.index_of(-N) : wave.window.index_of(N) + 1]
    design = np.stack([np.exp(1j * ks * p), np.exp(-1j * ks * p)], axis=1)
    coeffs, *_ = np.linalg.lstsq(design, vals, rcond=None)
    misfit = float(np.max(np.abs(design @ coeffs - vals)))
    return complex(coeffs[0]), complex(coeffs[1]), misfit
