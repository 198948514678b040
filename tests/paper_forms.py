"""The paper's closed forms as written: the oracle for scattering.closed_form.

The three per-N formulas below are the library's closed forms before they
became one formula in the block center (see the scattering module), kept
unchanged with their guards and their intermediates (lam, mu, A, B, u, v,
C, D) so that the tests can check the paper's values and compare the one
formula with them wherever they answer:

* merged blocks (N = -1):
      T - R = conj(S_lam)/S_lam,        S_lam = 1 + g^2 exp(2 i phi)
      T + R = -exp(-2 i phi) conj(S_mu)/S_mu,
      S_mu = (1 - 3 g^2 - (1 + g^2) cos 2 phi) + i (1 - g^2) sin 2 phi

* adjacent blocks (N = 0):
      T - R = conj(Z)/Z,   Z = 1 + g^2 (2 exp(2 i phi) + exp(4 i phi))
      T + R = -conj(Q)/Q,  Q = W - cos(phi) Z,  W = exp(i phi) + g^2 exp(3 i phi)

* separated blocks (N >= 1):
      A(phi) = exp(i N phi) + g^2 (2 exp(i (N+2) phi) + exp(i (N+4) phi))
      B(phi) = exp(i (N+1) phi) + g^2 exp(i (N+3) phi)
      u = B/sin((N+1) phi) - A/sin(N phi),   R - T = -conj(u)/u
      v = B/cos((N+1) phi) - A/cos(N phi),   R + T = -conj(v)/v

The separated-block form divides by sin and cos of N phi and (N+1) phi and
refuses (ResonantAngleError) where one of them, or u or v, falls below its
guard.  In floats the forms also lose digits away from their guards (1.2e-10
at g = 5e-8, N = 1, phi = 1e-6); paper_amplitudes_mp evaluates the same
formulas at 50 digits, where they answer at every angle strictly inside the
band.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import mpmath

from qhscatter import Amplitudes, DomainError, ResonanceError, TwoCenterSpec, as_angle

# trig denominators of u, v below this are treated as resonant
RESONANCE_GUARD = 1e-10
# |u| or |v| below this makes the branch ratios meaningless
BRANCH_GUARD = 1e-13


class ResonantAngleError(ResonanceError):
    """Closed-form denominators degenerate at this angle."""


@dataclass(frozen=True)
class ClosedFormBreakdown:
    """Intermediates of a closed-form evaluation.

    lam/mu and the unimodular phases alpha = arg(T - R), beta = arg(T + R)
    are filled for the N = -1 and N = 0 forms (mu may be infinite at a
    pole); A_phi, B_phi, u_phi, v_phi and the interior coefficients C, D
    are filled for separated blocks only.
    """

    alpha: float
    beta: float
    lam: float | None = None
    mu: float | None = None
    A_phi: complex | None = None
    B_phi: complex | None = None
    u_phi: complex | None = None
    v_phi: complex | None = None
    C: complex | None = None
    D: complex | None = None



def _moebius(den: float, num: float) -> complex:
    """conj(S)/S for S = den + i num; the unimodular form of (1-i mu)/(1+i mu)."""
    s = complex(den, num)
    if s == 0:
        raise ResonantAngleError("degenerate 0/0 branch ratio")
    return s.conjugate() / s


def _ratio_or_inf(num: float, den: float) -> float:
    if den == 0.0:
        return math.copysign(math.inf, num) if num != 0.0 else math.nan
    return num / den


def closed_form_Nminus1(
    g: float, phi: float
) -> tuple[Amplitudes, ClosedFormBreakdown]:
    """Closed amplitudes for the merged-block (N = -1) scatterer."""
    TwoCenterSpec(g, -1)  # validates |g| < 1
    p = as_angle(phi)
    lam_den = 1.0 + g * g * math.cos(2 * p)
    lam_num = g * g * math.sin(2 * p)
    t_minus_r = _moebius(lam_den, lam_num)
    mu_den = 1.0 - 3.0 * g * g - math.cos(2 * p) - g * g * math.cos(2 * p)
    mu_num = (1.0 - g * g) * math.sin(2 * p)
    t_plus_r = -cmath.exp(-2j * p) * _moebius(mu_den, mu_num)
    T = (t_plus_r + t_minus_r) / 2.0
    R = (t_plus_r - t_minus_r) / 2.0
    amp = Amplitudes(R=R, T=T, phi=p)
    breakdown = ClosedFormBreakdown(
        alpha=cmath.phase(t_minus_r),
        beta=cmath.phase(t_plus_r),
        lam=_ratio_or_inf(lam_num, lam_den),
        mu=_ratio_or_inf(mu_num, mu_den),
    )
    return amp, breakdown


def closed_form_N0(g: float, phi: float) -> tuple[Amplitudes, ClosedFormBreakdown]:
    """Closed amplitudes for adjacent blocks (N = 0).

    The difference branch uses Z = 1 + g^2 (2 e^{2 i phi} + e^{4 i phi}).
    The sum branch uses Q = W - cos(phi) Z with W = e^{i phi} + g^2 e^{3 i phi},
    equivalently

        mu' = [-2 sin phi + g^2 (2 sin phi + sin 3 phi + sin 5 phi)]
              / [g^2 (2 cos phi + cos 3 phi + cos 5 phi)]

    which is infinite at g = 0 where T + R = 1 exactly.
    """
    TwoCenterSpec(g, 0)
    p = as_angle(phi)
    g2 = g * g
    lam_den = 1.0 + g2 * (2.0 * math.cos(2 * p) + math.cos(4 * p))
    lam_num = g2 * (2.0 * math.sin(2 * p) + math.sin(4 * p))
    t_minus_r = _moebius(lam_den, lam_num)
    mu_den = -g2 * (2.0 * math.cos(p) + math.cos(3 * p) + math.cos(5 * p)) / 2.0
    mu_num = math.sin(p) - g2 * (2.0 * math.sin(p) + math.sin(3 * p) + math.sin(5 * p)) / 2.0
    t_plus_r = -_moebius(mu_den, mu_num)
    T = (t_plus_r + t_minus_r) / 2.0
    R = (t_plus_r - t_minus_r) / 2.0
    amp = Amplitudes(R=R, T=T, phi=p)
    breakdown = ClosedFormBreakdown(
        alpha=cmath.phase(t_minus_r),
        beta=cmath.phase(t_plus_r),
        lam=_ratio_or_inf(lam_num, lam_den),
        mu=_ratio_or_inf(mu_num, mu_den),
    )
    return amp, breakdown


def closed_form_generalN(
    g: float, N: int, phi: float
) -> tuple[Amplitudes, ClosedFormBreakdown]:
    """Closed amplitudes for separated blocks (N >= 1), with interior C, D.

    Raises ResonantAngleError when any of sin(N phi), sin((N+1) phi),
    cos(N phi), cos((N+1) phi) falls below the guard, or when u or v
    degenerates; callers fall back to a numeric route there.
    """
    if N < 1:
        raise DomainError(f"general-N closed form needs N >= 1, got {N}")
    TwoCenterSpec(g, N)  # validates |g| < 1
    p = as_angle(phi)
    g2 = g * g
    sn, sn1 = math.sin(N * p), math.sin((N + 1) * p)
    cn, cn1 = math.cos(N * p), math.cos((N + 1) * p)
    if min(abs(sn), abs(sn1), abs(cn), abs(cn1)) <= RESONANCE_GUARD:
        raise ResonantAngleError(
            f"trigonometric denominators degenerate at phi={p!r} for N={N}"
        )
    A = cmath.exp(1j * N * p) + g2 * (2.0 * cmath.exp(1j * (N + 2) * p) + cmath.exp(1j * (N + 4) * p))
    B = cmath.exp(1j * (N + 1) * p) + g2 * cmath.exp(1j * (N + 3) * p)
    u = B / sn1 - A / sn
    v = B / cn1 - A / cn
    if abs(u) < BRANCH_GUARD or abs(v) < BRANCH_GUARD:
        raise ResonantAngleError(f"branch ratio degenerate at phi={p!r} for N={N}")
    r_minus_t = -u.conjugate() / u
    r_plus_t = -v.conjugate() / v
    R = (r_plus_t + r_minus_t) / 2.0
    T = (r_plus_t - r_minus_t) / 2.0
    scale = 2.0 * (1.0 - g2)
    c_plus_d = (A.conjugate() + A * r_plus_t) / (scale * cn)
    c_minus_d = (A.conjugate() + A * r_minus_t) / (-1j * scale * sn)
    C = (c_plus_d + c_minus_d) / 2.0
    D = (c_plus_d - c_minus_d) / 2.0
    amp = Amplitudes(R=R, T=T, phi=p)
    breakdown = ClosedFormBreakdown(
        alpha=cmath.phase(T - R),
        beta=cmath.phase(T + R),
        A_phi=A,
        B_phi=B,
        u_phi=u,
        v_phi=v,
        C=C,
        D=D,
    )
    return amp, breakdown


def paper_closed_form(spec: TwoCenterSpec, phi) -> tuple[Amplitudes, ClosedFormBreakdown]:
    """The paper's form for the block separation of spec."""
    if spec.N == -1:
        return closed_form_Nminus1(spec.g, phi)
    if spec.N == 0:
        return closed_form_N0(spec.g, phi)
    return closed_form_generalN(spec.g, spec.N, phi)


def paper_amplitudes_mp(g: float, N: int, phi: float, dps: int = 50) -> tuple[complex, complex]:
    """(R, T) of the paper's form for N, as written in the module docstring, at dps digits."""
    with mpmath.workdps(dps):
        g2 = mpmath.mpf(g) ** 2
        p = mpmath.mpf(phi)

        def e(k):
            return mpmath.expj(k * p)

        if N == -1:
            s_lam = 1 + g2 * e(2)
            s_mu = (1 - 3 * g2 - (1 + g2) * mpmath.cos(2 * p)) + 1j * (1 - g2) * mpmath.sin(2 * p)
            t_minus_r = mpmath.conj(s_lam) / s_lam
            t_plus_r = -e(-2) * mpmath.conj(s_mu) / s_mu
        elif N == 0:
            z = 1 + g2 * (2 * e(2) + e(4))
            q = e(1) + g2 * e(3) - mpmath.cos(p) * z
            t_minus_r = mpmath.conj(z) / z
            t_plus_r = -mpmath.conj(q) / q
        else:
            a = e(N) + g2 * (2 * e(N + 2) + e(N + 4))
            b = e(N + 1) + g2 * e(N + 3)
            u = b / mpmath.sin((N + 1) * p) - a / mpmath.sin(N * p)
            v = b / mpmath.cos((N + 1) * p) - a / mpmath.cos(N * p)
            t_minus_r = mpmath.conj(u) / u
            t_plus_r = -mpmath.conj(v) / v
        return complex((t_plus_r - t_minus_r) / 2), complex((t_plus_r + t_minus_r) / 2)
