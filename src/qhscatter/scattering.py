"""Reflection/transmission amplitudes: matching solver and closed forms.

The numeric path assembles the matching conditions as a banded complex
linear system and solves it by banded LU with partial pivoting.  Unknowns
are ordered [R, psi_{-(A-1)}, ..., psi_{A-1}, T] where A is the matching
radius of the scatterer (the smallest m such that psi is guaranteed to take
the free plane-wave form on |k| >= m).  One row per site k in [-A, A]: the
discrete Schroedinger equation

    (-1 + V[k,k-1]) psi_{k-1} + 2 cos(phi) psi_k + (-1 + V[k,k+1]) psi_{k+1} = 0

with psi at |j| >= A replaced by the asymptotic forms
psi_j = exp(i j phi) + R exp(-i j phi) (left) and psi_j = T exp(i j phi)
(right); the incoming unit-amplitude parts move to the right-hand side.
For the two-center model (A = N + 3) the system has size 2N + 7.

Closed forms for the two-center family:

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

The Moebius ratios conj(S)/S stay on the unit circle by construction, so
the real-denominator poles (mu and friends running to infinity) evaluate
continuously to the correct limits without special-casing.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import DomainError, ResonanceError, ResonantAngleError
from .lattice import EnergyAngle, SiteWindow, WaveSample, as_angle
from .potentials import BondMap, ScattererSpec, TwoCenterSpec

# trig denominators of u, v below this are treated as resonant
RESONANCE_GUARD = 1e-10
# |u| or |v| below this makes the branch ratios meaningless
BRANCH_GUARD = 1e-13


@dataclass(frozen=True)
class Amplitudes:
    """Reflection and transmission amplitudes at one angle."""

    R: complex
    T: complex
    phi: float

    @property
    def unitarity_defect(self) -> float:
        """| |R|^2 + |T|^2 - 1 |, computed from the stored amplitudes."""
        r2 = self.R.real**2 + self.R.imag**2
        t2 = self.T.real**2 + self.T.imag**2
        return abs(r2 + t2 - 1.0)


def unitarity_defect(amp: Amplitudes) -> float:
    return amp.unitarity_defect


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


@dataclass(frozen=True)
class MatchingSystem:
    """Banded matching conditions M x = rhs with x = [R, psi interior, T].

    ab holds the matrix in banded (1, 1) storage: ab[0, 1:] upper diagonal,
    ab[1, :] main diagonal, ab[2, :-1] lower diagonal.
    """

    radius: int
    phi: float
    ab: np.ndarray
    rhs: np.ndarray

    @property
    def size(self) -> int:
        return 2 * self.radius + 1

    @property
    def interior_sites(self) -> np.ndarray:
        return np.arange(-(self.radius - 1), self.radius)

    def to_dense(self) -> np.ndarray:
        n = self.size
        m = np.zeros((n, n), dtype=np.complex128)
        m[np.arange(n), np.arange(n)] = self.ab[1]
        m[np.arange(n - 1), np.arange(1, n)] = self.ab[0, 1:]
        m[np.arange(1, n), np.arange(n - 1)] = self.ab[2, :-1]
        return m


def build_matching_system(bonds: BondMap, phi: float | EnergyAngle, radius: int) -> MatchingSystem:
    """Assemble the matching conditions for a bond-coupling layout."""
    p = as_angle(phi).phi
    a = int(radius)
    if a < 1:
        raise DomainError("matching radius must be >= 1")
    for k in bonds:
        if k < -a or k + 1 > a:
            raise DomainError(f"bond ({k}, {k + 1}) outside matching radius {a}")
    n = 2 * a + 1
    two_cos = 2.0 * math.cos(p)
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
        contrib: dict[int, complex] = {}
        row_rhs = 0.0 + 0.0j
        weights = (
            (k - 1, -1.0 + bonds.get(k - 1, 0.0)),
            (k, two_cos),
            (k + 1, -1.0 - bonds.get(k, 0.0)),
        )
        for j, w in weights:
            if abs(j) <= a - 1:
                col = j + a
                contrib[col] = contrib.get(col, 0.0) + w
            elif j <= -a:
                contrib[0] = contrib.get(0, 0.0) + w * cmath.exp(-1j * j * p)
                row_rhs -= w * cmath.exp(1j * j * p)
            else:
                contrib[n - 1] = contrib.get(n - 1, 0.0) + w * cmath.exp(1j * j * p)
        rhs[r] = row_rhs
        for col, v in contrib.items():
            if col == r:
                ab[1, r] = v
            elif col == r + 1:
                ab[0, col] = v
            elif col == r - 1:
                ab[2, col] = v
            else:  # pragma: no cover - bandwidth-1 layout cannot reach here
                raise AssertionError("matching system lost its banded structure")
    return MatchingSystem(radius=a, phi=p, ab=ab, rhs=rhs)


def _wave_from_solution(
    radius: int, phi: float, x: np.ndarray, h: float, extra: int = 2
) -> WaveSample:
    """psi over [-(radius+extra), radius+extra]: the solved interior, asymptotic flanks."""
    window = SiteWindow(radius + extra, h)
    sites = window.sites
    vals = np.empty(window.n_sites, dtype=np.complex128)
    vals[extra + 1 : -(extra + 1)] = x[1:-1]
    R, T = x[0], x[-1]
    for i in range(extra + 1):
        k = sites[i]
        vals[i] = cmath.exp(1j * k * phi) + R * cmath.exp(-1j * k * phi)
        k = sites[-1 - i]
        vals[-1 - i] = T * cmath.exp(1j * k * phi)
    return WaveSample(window, vals)


def matching_row_residual(spec: ScattererSpec, phi: float | EnergyAngle, wave: WaveSample) -> float:
    """Max relative residual of the discrete Schroedinger rows over the sample.

    Every site with both neighbors inside the sample window contributes one
    row; each residual is normalized by the sum of its term magnitudes.
    """
    p = as_angle(phi).phi
    bonds = spec.bond_map()
    vals = wave.values
    m = wave.window.half_width
    # row r is site k = r - (m - 1); bond b is gamma_left of row b + m
    # and gamma_right of row b + m - 1
    rows = 2 * m - 1
    gamma_left = np.zeros(rows)
    gamma_right = np.zeros(rows)
    for b, gamma in bonds.items():
        if 0 <= b + m < rows:
            gamma_left[b + m] = gamma
        if 0 <= b + m - 1 < rows:
            gamma_right[b + m - 1] = gamma
    wl = -1.0 + gamma_left
    wr = -1.0 - gamma_right
    wd = 2.0 * math.cos(p)
    tl = wl * vals[:-2]
    tc = wd * vals[1:-1]
    tr = wr * vals[2:]
    num = np.abs(tl + tc + tr)
    den = np.abs(tl) + np.abs(tc) + np.abs(tr)
    return float(np.max(num / np.maximum(den, 1e-30)))


def solve_numeric(
    spec: ScattererSpec, phi: float | EnergyAngle, h: float = 1.0
) -> tuple[Amplitudes, WaveSample]:
    """Solve the matching conditions by banded LU; the brute-force route.

    Works for every scatterer family.  Raises ResonanceError when the
    factorization degenerates or the solution fails its own rows.
    """
    p = as_angle(phi).phi
    system = build_matching_system(spec.bond_map(), p, spec.matching_radius)
    try:
        x = scipy.linalg.solve_banded((1, 1), system.ab, system.rhs)
    except np.linalg.LinAlgError as exc:
        raise ResonanceError(f"matching system singular at phi={p!r}: {exc}") from exc
    if not np.all(np.isfinite(x)):
        raise ResonanceError(f"matching solve produced non-finite values at phi={p!r}")
    amp = Amplitudes(R=complex(x[0]), T=complex(x[-1]), phi=p)
    wave = _wave_from_solution(system.radius, p, x, h)
    residual = matching_row_residual(spec, p, wave)
    if residual > 1e-9:
        raise ResonanceError(f"matching rows violated (residual {residual:.2e}) at phi={p!r}")
    return amp, wave


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
    g: float, phi: float | EnergyAngle
) -> tuple[Amplitudes, ClosedFormBreakdown]:
    """Closed amplitudes for the merged-block (N = -1) scatterer."""
    TwoCenterSpec(g, -1)  # validates |g| < 1
    p = as_angle(phi).phi
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


def closed_form_N0(g: float, phi: float | EnergyAngle) -> tuple[Amplitudes, ClosedFormBreakdown]:
    """Closed amplitudes for adjacent blocks (N = 0).

    The difference branch uses Z = 1 + g^2 (2 e^{2 i phi} + e^{4 i phi}).
    The sum branch uses Q = W - cos(phi) Z with W = e^{i phi} + g^2 e^{3 i phi},
    equivalently

        mu' = [-2 sin phi + g^2 (2 sin phi + sin 3 phi + sin 5 phi)]
              / [g^2 (2 cos phi + cos 3 phi + cos 5 phi)]

    which is infinite at g = 0 where T + R = 1 exactly.
    """
    TwoCenterSpec(g, 0)
    p = as_angle(phi).phi
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
    g: float, N: int, phi: float | EnergyAngle
) -> tuple[Amplitudes, ClosedFormBreakdown]:
    """Closed amplitudes for separated blocks (N >= 1), with interior C, D.

    Raises ResonantAngleError when any of sin(N phi), sin((N+1) phi),
    cos(N phi), cos((N+1) phi) falls below the guard, or when u or v
    degenerates; callers fall back to solve_numeric there.
    """
    if N < 1:
        raise DomainError(f"general-N closed form needs N >= 1, got {N}")
    TwoCenterSpec(g, N)  # validates |g| < 1
    p = as_angle(phi).phi
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


def closed_form(
    spec: TwoCenterSpec, phi: float | EnergyAngle
) -> tuple[Amplitudes, ClosedFormBreakdown]:
    """Dispatch to the closed form matching the block separation."""
    if spec.N == -1:
        return closed_form_Nminus1(spec.g, phi)
    if spec.N == 0:
        return closed_form_N0(spec.g, phi)
    return closed_form_generalN(spec.g, spec.N, phi)


def closed_form_wave(
    spec: TwoCenterSpec,
    phi: float | EnergyAngle,
    amp: Amplitudes,
    breakdown: ClosedFormBreakdown,
    h: float = 1.0,
) -> WaveSample:
    """Reconstruct the full wavefunction from a separated-block closed form.

    Interior sites |k| <= N+1 follow C e^{i k phi} + D e^{-i k phi}; the
    block centers carry the corrected values U_{-(N+2)}/(1+g) and
    L_{N+2}/(1+g); everything beyond is asymptotic.
    """
    if breakdown.C is None or breakdown.D is None:
        raise DomainError("closed-form wave needs the interior C, D (separated blocks)")
    p = as_angle(phi).phi
    N = spec.N
    g = spec.g
    a = spec.matching_radius
    window = SiteWindow(a + 2, h)
    ks = window.sites
    out, back = np.exp(1j * ks * p), np.exp(-1j * ks * p)
    vals = np.where(ks < 0, out + amp.R * back, amp.T * out)
    inner = np.abs(ks) <= N + 1
    vals[inner] = breakdown.C * out[inner] + breakdown.D * back[inner]
    vals[window.index_of(-(N + 2))] /= 1.0 + g
    vals[window.index_of(N + 2)] /= 1.0 + g
    return WaveSample(window, vals)


def interior_plane_wave_fit(
    wave: WaveSample, N: int, phi: float | EnergyAngle
) -> tuple[complex, complex, float]:
    """Least-squares fit psi_k ~= C e^{i k phi} + D e^{-i k phi} over |k| <= N.

    Returns (C, D, residual) with residual the max absolute misfit.
    """
    if N < 1:
        raise DomainError(f"interior fit needs N >= 1 (at least 3 sites), got {N}")
    p = as_angle(phi).phi
    ks = np.arange(-N, N + 1)
    vals = wave.values[wave.window.index_of(-N) : wave.window.index_of(N) + 1]
    design = np.stack([np.exp(1j * ks * p), np.exp(-1j * ks * p)], axis=1)
    coeffs, *_ = np.linalg.lstsq(design, vals, rcond=None)
    misfit = float(np.max(np.abs(design @ coeffs - vals)))
    return complex(coeffs[0]), complex(coeffs[1]), misfit


@dataclass(frozen=True)
class ContinuumProbeRow:
    h: float
    phi: float
    abs_T: float
    abs_R: float
    abs_psi0: float


@dataclass(frozen=True)
class ContinuumProbeResult:
    """Trend table of the opaque-wall degeneration as h decreases at N = -1."""

    rows: tuple[ContinuumProbeRow, ...]
    t_exponent: float
    psi0_exponent: float
    max_closed_numeric_gap: float


def continuum_probe(g: float, kappa: float, h_list) -> ContinuumProbeResult:
    """Run the merged-block model at phi = kappa*h for each h.

    Uses both the closed form and the matching solver; the table carries the
    numeric values.  Fitted log-log slopes of |T| and |psi_0| against h
    quantify the linear-in-h decay toward the hard wall (slope 0 at g = 0
    where the lattice stays transparent).
    """
    if kappa <= 0.0:
        raise DomainError(f"kappa={kappa!r} must be positive")
    hs = [float(h) for h in h_list]
    if len(hs) < 2:
        raise DomainError("need at least two h values")
    if any(b >= a for a, b in zip(hs, hs[1:])):
        raise DomainError("h sequence must be strictly decreasing")
    if kappa * hs[0] >= math.pi:
        raise DomainError("kappa*h leaves the band; shrink h or kappa")
    spec = TwoCenterSpec(g, -1)
    rows = []
    gap = 0.0
    for h in hs:
        p = kappa * h
        amp_num, wave = solve_numeric(spec, p, h=h)
        amp_cf, _ = closed_form_Nminus1(g, p)
        gap = max(gap, abs(amp_cf.R - amp_num.R), abs(amp_cf.T - amp_num.T))
        rows.append(
            ContinuumProbeRow(
                h=h,
                phi=p,
                abs_T=abs(amp_num.T),
                abs_R=abs(amp_num.R),
                abs_psi0=abs(wave.value_at(0)),
            )
        )
    log_h = np.log(hs)
    t_slope = float(np.polyfit(log_h, np.log([r.abs_T for r in rows]), 1)[0])
    p_slope = float(np.polyfit(log_h, np.log([r.abs_psi0 for r in rows]), 1)[0])
    return ContinuumProbeResult(
        rows=tuple(rows),
        t_exponent=t_slope,
        psi0_exponent=p_slope,
        max_closed_numeric_gap=gap,
    )
