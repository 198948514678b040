"""Reflection/transmission amplitudes: the matching solver and closed forms.

One numeric route solves every scatterer (solve_numeric at one angle,
solve_numeric_grid at many scatterers and angles, numeric_wave for the
sampled wave) on the Hermitian partner h = Theta^(1/2) H Theta^(-1/2), the
real symmetric lattice whose row k reads -t_{k-1} psi_{k-1} + 2 cos(phi)
psi_k - t_k psi_{k+1} = 0, with t_b = sqrt((1 - gamma_b)(1 + gamma_b)) on a
bond b and 1 elsewhere.  Every bond is a point insertion between free
segments and gives two rows between their waves (_bond_rows): a weak bond
(gamma^2 <= STRONG) its S-matrix rows, r = gamma^2 e/D, r' = gamma^2
conj(e)/D and tau = 2i t sin(phi)/D with D = 2i sin(phi) - gamma^2 e, a
strong one the partner's own rows.  The only small quantities are
gamma^2, t^2 and sin(phi), each exact to an ulp, and 2 cos(phi) never
appears, so the rows hold at the band edges, at weak coupling and at sharp
resonances.  K bonds give 2K unknowns in a band of 2 sub- and 2
superdiagonals, solved by LU with partial pivoting: the cost grows with
the bonds, not with N.

Scatterers whose bonds sit at the same positions share a plan and form a
layout group (every two-center spec of one N, every chain of one length,
the multi-center specs of one set of centers).  solve_numeric_grid solves
each group's (scatterer, angle) systems together, stacked block-diagonally
in chunks of at most CHUNK_UNKNOWNS unknowns, one LAPACK call per chunk,
by the one-angle operations on arrays, so every system keeps the bits it
has alone.  h reflects as H does, and T = T_h sqrt(theta_L/theta_R).  The
self-check is the partner's unitarity |R|^2 + |T_h|^2 = 1 per system.  A
chunk that holds a singular or failing system raises; solve_numeric_grid
then runs solve_numeric in grid order at each point of that group and of
the groups not yet solved, so every batched route refuses the first failing
point with the one-angle message, as a per-point loop does.

H's own matching rows over its matching radius at one angle
(build_matching_system) and their residual (matching_row_residual) stay
public as an independent reference for tests and diagnostics; no library
route solves them.

The closed form of the two-center family covers every block separation
N >= -1 with one formula in the block center M = N + 2:

    q = (1 - g)(1 + g) sin(phi),   k = 2 g^2 cos(phi),   e = exp(i M phi)
    U = -q - k sin(M phi) e,       V = i q - k cos(M phi) e
    R - T = -conj(U)/U,            R + T = -conj(V)/V

For N >= 1, U = u sin(N phi) sin((N+1) phi) and V = v cos(N phi) cos((N+1) phi)
for the paper's separated-block branches u = B/sin((N+1) phi) - A/sin(N phi)
and v = B/cos((N+1) phi) - A/cos(N phi), with the denominators cleared; a real
factor leaves -conj(u)/u as it is.  At N = 0, U and V are the paper's Z and Q
up to real factors, at N = -1 its S_lam and S_mu up to a real factor and a
phase.  Im U = -k sin(M phi)^2, so U = 0 needs k sin(M phi) = 0, and then
U = -q < 0; V likewise with cos for sin.  Neither vanishes for |g| < 1 and
0 < phi < pi, so the form answers every angle of the band.

closed_form (one angle) and closed_form_grid (many two-center specs at an
angle array) run one body, _closed, on floats and on arrays: the same IEEE
operations on real and imaginary parts, so every point keeps the one-angle
bits, signed zeros included.  -conj(W)/W of W = U or V is taken as
((b - a)(b + a) + 2i a b)/(a^2 + b^2) with a + i b = W/(|Re W| + |Im W|),
which keeps every square inside the double range.  sin(phi) and cos(phi)
are taken once on the angle array and e((N + 2) phi) once per N, and the
specs of one N share each operation over their (g, phi) array.  The grid
routes return R and T as complex arrays with one row per scatterer, and
every square such as |R|^2 is the product x*x + y*y.  At one angle,
_closed_and_partner gives closed_form's and solve_numeric's amplitudes of
a two-center spec in one pass, sin(phi), cos(phi) and e(N + 2) taken once
for both, with the bits of each.
"""

from __future__ import annotations

import functools
import math
import operator
import struct
import sys
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np
from scipy.linalg.lapack import zgbsv

from .errors import DomainError, ResonanceError
from .lattice import SiteWindow, WaveSample, as_angle
from .metric import half_log_ratio
from .potentials import BondMap, MultiCenterSpec, ScattererSpec, TwoCenterSpec

# partner unknowns per chunk of a batched solve: a chunk's band (112 bytes per
# unknown) stays near 460 kB, so a batch's working memory does not grow with the grid
CHUNK_UNKNOWNS = 1 << 12
# bond layouts whose partner-system plan is kept; a plan depends on the bond
# positions only, so a sweep or the verify grid needs one per N or chain length
PLAN_CACHE = 64
# a bond with gamma^2 above this takes the partner's rows, below it its S-matrix
# rows: the partner's rows lose about eps/gamma^2 of a weak bond, and the S-matrix
# rows of a bond beside a strong one miss a sharp resonance (to 1e-9 at 1/2)
STRONG = 0.1


@dataclass(frozen=True)
class Amplitudes:
    """Reflection and transmission amplitudes at one angle."""

    R: complex
    T: complex
    phi: float

    @property
    def unitarity_defect(self) -> float:
        """| |R|^2 + |T|^2 - 1 |, computed from the stored amplitudes."""
        R, T = self.R, self.T
        r2, t2 = R.real * R.real + R.imag * R.imag, T.real * T.real + T.imag * T.imag
        return abs(r2 + t2 - 1.0)


@dataclass(frozen=True)
class MatchingSystem:
    """Banded matching conditions M x = rhs at one angle, x = [R, psi interior, T].

    ab holds the matrix in banded (1, 1) storage: ab[0, 1:] upper diagonal,
    ab[1, :] main diagonal, ab[2, :-1] lower diagonal.
    """

    radius: int
    phi: float
    ab: np.ndarray
    rhs: np.ndarray

    @property
    def size(self) -> int:
        """Number of unknowns."""
        return self.rhs.shape[0]


def _angle_array(phi) -> np.ndarray:
    """A sequence of angles as a 1-D float array, each one as_angle accepts."""
    phis = np.asarray(phi, dtype=np.float64).reshape(-1)
    outside = ~((phis >= sys.float_info.min) & (phis < math.pi))  # NaN included
    if outside.any():
        as_angle(phis[outside.argmax()])  # raises BandError for the first
    return phis


def build_matching_system(bonds: BondMap, phi: float, radius: int) -> MatchingSystem:
    """Assemble the matching conditions of a bond layout at one angle.

    Row k is the lattice equation of site k.  In rows -A, -A+1, A-1 and A
    the sites beyond the radius take their asymptotic forms, with the
    incoming wave on the right-hand side.
    """
    p = as_angle(phi)
    a = int(radius)
    if a < 1:
        raise DomainError("matching radius must be >= 1")
    for k in bonds:
        if k < -a or k + 1 > a:
            raise DomainError(f"bond ({k}, {k + 1}) outside matching radius {a}")
    n = 2 * a + 1
    # bond b sits above the diagonal in row b + a and below it in row b + a + 1
    ab = np.full((3, n), -1.0, dtype=np.complex128)
    for b, gamma in bonds.items():
        ab[0, b + a + 1], ab[2, b + a] = -1.0 - gamma, -1.0 + gamma
    ab[0, 0] = ab[2, -1] = 0.0
    # cos and exp taken on one-element arrays, as numpy rounds them there
    two_cos = 2.0 * np.cos(np.array([p]))
    ab[1] = two_cos
    rhs = np.zeros(n, dtype=np.complex128)
    # Beyond the radius psi_j = e(j) + R e(-j) for j <= -a and T e(j) for
    # j >= a, e(j) = exp(i j phi): a term w psi_j puts w e(-j) into the R
    # column and -w e(j) on the right-hand side, or w e(j) into the T column.
    w_outer_left = -1.0 + bonds.get(-a - 1, 0.0)  # site -a-1 in row -a
    w_left = -1.0 + bonds.get(-a, 0.0)  # site -a in row -a+1
    w_right = -1.0 - bonds.get(a - 1, 0.0)  # site a in row a-1
    w_outer_right = -1.0 - bonds.get(a, 0.0)  # site a+1 in row a
    e_a1, e_a, e_ma1, e_ma = np.exp(np.array([1j * (a + 1), 1j * a, -1j * (a + 1), -1j * a])[:, None] * p)
    diag = two_cos * e_a  # site -a in row -a and site a in row a
    ab[1, :1] = w_outer_left * e_a1 + diag
    rhs[:1] = -w_outer_left * e_ma1 - two_cos * e_ma
    ab[2, :1] = w_left * e_a
    rhs[1:2] = -w_left * e_ma
    ab[0, -1:] = w_right * e_a
    ab[1, -1:] = diag + w_outer_right * e_a1
    return MatchingSystem(radius=a, phi=p, ab=ab, rhs=rhs)


def matching_row_residual(spec: ScattererSpec | BondMap, phi: float, wave: WaveSample) -> float:
    """Max relative residual of the discrete Schroedinger rows over the sample at one angle.

    Every site with both neighbors inside the sample window contributes one
    row; each residual is normalized by the sum of its term magnitudes.
    spec may be its bond map.
    """
    bonds = spec if isinstance(spec, dict) else spec.bond_map()
    vals = wave.values
    m = (len(vals) - 1) // 2
    # row r is site k = r - (m - 1); bond b weighs the left neighbour of
    # row b + m and the right neighbour of row b + m - 1
    rows = 2 * m - 1
    wl, wr = np.full((2, rows), -1.0)
    for b, gamma in bonds.items():
        if 0 <= b + m < rows:
            wl[b + m] = -1.0 + gamma
        if 0 <= b + m - 1 < rows:
            wr[b + m - 1] = -1.0 - gamma
    tl = wl * vals[:-2]
    tc = 2.0 * np.cos(np.array([as_angle(phi)])) * vals[1:-1]
    tr = wr * vals[2:]
    # (tl + tc + tr) and |tl| + |tc| + |tr|, summed in place to hold fewer temporaries
    total = tl + tc
    total += tr
    num = np.abs(total)
    den = np.abs(tl)
    den += np.abs(tc)
    den += np.abs(tr)
    num /= np.maximum(den, 1e-30, out=den)
    return float(num.max())


def _exact_product(k, p):
    """(hi, lo) with hi = k*p rounded and hi + lo = k p exactly, for integers |k| <= 2^53.

    k may be an integer array or p a float array.  Splitting both factors
    in halves of at most 26 bits (Dekker's two-product) makes every partial
    product exact.
    """
    hi = k * p
    c, d = 134217729.0 * k, 134217729.0 * p  # 2^27 + 1
    k_hi, p_hi = c - (c - k), d - (d - p)
    k_lo, p_lo = k - k_hi, p - p_hi
    return hi, k_lo * p_lo - (((hi - k_hi * p_hi) - k_lo * p_hi) - k_hi * p_lo)


def _phase(k, p):
    """e(k) = exp(i k p) of the exact product k p; an array when k or p is one.

    The rounded product k*p is off by up to half an ulp of itself, which
    grows to order 1 at large k.  exp(i (hi + lo)) is taken as exp(i hi)
    exp(i lo) in real products.  For |lo| < 1e-8, cos(lo) rounds to 1 and
    sin(lo) to lo, so one number is spared those two calls.
    """
    hi, lo = _exact_product(k, p)
    if isinstance(hi, float):
        cos_hi, sin_hi = math.cos(hi), math.sin(hi)
        if -1e-8 < lo < 1e-8:
            return complex(cos_hi - sin_hi * lo, sin_hi + cos_hi * lo)
        cos_lo, sin_lo = math.cos(lo), math.sin(lo)
        return complex(cos_hi * cos_lo - sin_hi * sin_lo, sin_hi * cos_lo + cos_hi * sin_lo)
    cos_hi, sin_hi, cos_lo, sin_lo = np.cos(hi), np.sin(hi), np.cos(lo), np.sin(lo)
    return _complex(cos_hi * cos_lo - sin_hi * sin_lo, sin_hi * cos_lo + cos_hi * sin_lo)


def _complex(re: np.ndarray, im: np.ndarray) -> np.ndarray:
    """The complex array of these parts, each set on its own as complex(re, im) sets it."""
    z = re.astype(np.complex128)
    z.imag = im
    return z


def _bond_rows(strong, left_flank, right_flank, g, t, s, c, e_left, e_right):
    """The parts of one bond's 8 row entries, for floats and arrays alike; see _plan for their places.

    The bond at b has coupling g and hop t; s, c = sin(phi), cos(phi).  On
    its left lies the flank e(j) + R e(-j), e_left = e(b + 1), or a segment
    of L sites from f, X C(j - f) + Y S(j - f) with C(m) = cos(m phi),
    S(m) = sin(m phi)/s and e_left = e(L - 1); on its right the flank
    T_h e(j), e_right = e(b), or a segment from b + 1.  With u, v the left
    wave at b and b + 1 and u', v' the right one, a strong bond
    (g^2 > STRONG) takes the partner's rows v - t v' = 0 and t u - u' = 0, a
    weak one its S-matrix rows (v - t^2 e u) - t (v' - e u') = 0 and
    t (conj(e) u - v) + (t^2 v' - conj(e) u') = 0 over
    sigma = g^2 |c| + (2 - g^2) s, each side simplified by hand so that
    g^2, t^2 and s enter as factors.  The entries come as (first row,
    second row) on X, then Y, of the left side, then of the right side.
    """
    ar, ai, br, bi = e_left.real, e_left.imag, e_right.real, e_right.imag
    if strong:
        if left_flank:
            er, ei = ar * c + ai * s, ai * c - ar * s  # e(b)
            left = (ar, ai, t * er, t * ei, ar, -ai, t * er, -t * ei)
        else:
            q = ai / s  # S(L - 1)
            left = (ar * c - ai * s, 0.0, t * ar, 0.0, ar + c * q, 0.0, t * q, 0.0)
        if right_flank:
            fr, fi = br * c - bi * s, br * s + bi * c
            return left + (-t * fr, -t * fi, -br, -bi, -t * fr, t * fi, -br, bi)
        return left + (-t, 0.0, -c, 0.0, 0.0, 0.0, 1.0, 0.0)
    g2 = g * g
    di = (2.0 - g2) * s  # D = -g2 c + i di
    h = 1.0 / (g2 * abs(c) + di)
    th, gc = t * h, g2 * c
    ts = th * s
    if left_flank:
        er, ei = ar * c + ai * s, ai * c - ar * s
        left = (g2 * h * ar, g2 * h * ai, 2.0 * ts * ei, -2.0 * ts * er,
                (gc * er - di * ei) * h, -(di * er + gc * ei) * h, 0.0, 0.0)
    else:
        t2h = (1.0 - g) * (1.0 + g) * h
        left = ((gc * ar - s * ai) * h, -t2h * s * ar, ts * ai, -ts * ar,
                (ar + gc * ai / s) * h, -t2h * ai, -th * ar, -th * ai)
    if right_flank:
        fr, fi = br * c - bi * s, br * s + bi * c
        return left + (0.0, 0.0, -(gc * br + di * bi) * h, (di * br - gc * bi) * h,
                       2.0 * ts * bi, 2.0 * ts * br, -g2 * h * fr, g2 * h * fi)
    return left + (-ts * s, ts * c, (s * s - g2) * h, s * c * h, -th * c, -ts, c * h, -s * h)


class _Plan(NamedTuple):
    """Where a bond layout's row entries sit, and the phases they read; see _plan."""

    n: int
    positions: tuple[int, ...]
    ks: tuple[int, ...]
    sides: tuple[tuple[int, int, bool, bool], ...]
    places: np.ndarray
    order: Callable[[list], tuple]
    pack_into: Callable[..., None]


@functools.lru_cache(maxsize=PLAN_CACHE)
def _plan(key: tuple[int, ...]) -> _Plan:
    """The places of the row entries of bonds at the positions in key, in any order.

    positions holds the bonds b_0 < ... < b_{K-1}, and the n = 2K unknowns
    x = [R, X_1, Y_1, ..., X_{K-1}, Y_{K-1}, T_h] the waves of the segments
    between them (_bond_rows).  ks holds the k of each phase e(k) the rows
    read: b_0 + 1, then L - 1 for each segment of L sites, then b_{K-1}; as
    L - 1 <= 2N + 2 <= 2^53, each is exact.  LAPACK band storage,
    column-major, for 2 sub- and 2 superdiagonals and 2 rows of fill-in, puts
    entry (i, j) at flat index 7 j + 4 + i - j, and bond k's rows 2k and
    2k + 1 meet the columns 2k - 1 .. 2k + 2: places holds where each of its
    16 values goes in the float view of one band.  Bond 0's first four
    multiply the incoming wave's amplitude 1 and go to the right-hand side
    negated; the last bond's last four multiply the right flank's absent
    e(-j) and are dropped.  order and pack_into write one system's
    values, in the order of their places and with zero pad bytes between,
    into its band and right-hand side at once.
    """
    positions = tuple(sorted(key))
    n = 2 * len(positions)
    ks = (positions[0] + 1, *(b - a - 1 for a, b in zip(positions, positions[1:])), positions[-1])
    offsets = (-4, -3, -2, -1, 8, 9, 10, 11, 20, 21, 22, 23, 32, 33, 34, 35)
    places = 28 * np.arange(len(positions))[:, None] + offsets
    sides = tuple((b, k, i == 0, i == len(positions) - 1) for i, (b, k) in enumerate(zip(positions, ks)))
    fill_at = np.concatenate((places.ravel()[4:-4], 14 * n + np.arange(4)))
    order = np.argsort(fill_at)
    gaps = np.diff(fill_at[order], prepend=-1) - 1
    fmt = "=" + "".join(f"{gap * 8}xd" if gap else "d" for gap in gaps.tolist())  # native, as numpy reads it
    return _Plan(n, positions, ks, sides, places, operator.itemgetter(*order.tolist()), struct.Struct(fmt).pack_into)


def _bond_system(bonds: BondMap, p: float, angle: tuple | None = None) -> tuple[_Plan, np.ndarray, np.ndarray]:
    """(plan, ab, rhs) of the rows of bonds at one angle p: ab (7 n,) and rhs (n,), views of one array.

    angle is (sin(p), cos(p), e(m)) of the last bond m = plan.ks[-1], when the caller has taken them.
    """
    plan = _plan(tuple(bonds))
    m = plan.ks[-1]
    s, c, last = angle or (math.sin(p), math.cos(p), _phase(m, p))
    rows = []
    for b, k, left_flank, right_flank in plan.sides:
        g = bonds[b]
        # e(-m) is conj(e(m)) bit for bit: _phase's every operation keeps or changes sign with k
        e = last.conjugate() if k == -m else _phase(k, p) if k else 1.0
        rows += _bond_rows(g * g > STRONG, left_flank, right_flank, g, math.sqrt((1.0 - g) * (1.0 + g)), s, c, e, last)
    values = rows[4:-4] + [-rows[0], -rows[1], -rows[2], -rows[3]]
    system = bytearray(128 * plan.n)  # 8 n complex zeros
    plan.pack_into(system, 0, *plan.order(values))
    system = np.frombuffer(system, dtype=np.complex128)
    return plan, system[: 7 * plan.n], system[7 * plan.n :]


def _solve_partner(bonds: BondMap, p: float, angle: tuple | None = None) -> tuple[complex, complex, list, _Plan]:
    """(R, T_h, x, plan) of the partner's rows of bonds at one angle p; x = [R, X_1, ..., T_h] as a list.

    angle goes to _bond_system.  Raises ResonanceError when the system is
    singular or its solution breaks |R|^2 + |T_h|^2 = 1 by more than 1e-9
    (a non-finite x breaks R too).
    """
    plan, ab, rhs = _bond_system(bonds, p, angle)
    _, _, x, info = zgbsv(2, 2, ab.reshape(7, -1, order="F"), rhs, overwrite_ab=1, overwrite_b=1)
    if info != 0:
        raise ResonanceError(f"matching system singular at phi={p!r}")
    x = x.tolist()
    R, T_h = x[0] + 0j, x[-1] + 0j  # +0j: an exact zero's sign as _solve_systems gives it
    defect = abs(R.real * R.real + R.imag * R.imag + T_h.real * T_h.real + T_h.imag * T_h.imag - 1.0)
    if not defect <= 1e-9:
        raise ResonanceError(f"partner unitarity violated (defect {defect:.2e}) at phi={p!r}")
    return R, T_h, x, plan


def _t_scale(spec: ScattererSpec, bonds: BondMap, p: float) -> float:
    """sqrt(theta_L/theta_R), by which T = T_h scales; a DomainError names the angle p above the double range.

    The scale is exactly 1 for blocks: a block's bonds hold +g and -g and
    never merge with another block's, and their log-form terms cancel
    exactly.  A chain's is summed in log form; below the double range it
    is 0.
    """
    if isinstance(spec, MultiCenterSpec):
        return 1.0
    try:
        return math.exp(math.fsum(half_log_ratio(g) for g in bonds.values()))
    except OverflowError:
        raise DomainError(f"|T| exceeds the double range at phi={p!r}") from None


def _amplitudes(spec: ScattererSpec, bonds: BondMap, p: float, R: complex, T_h: complex) -> Amplitudes:
    """R = R_h and T = T_h sqrt(theta_L/theta_R); blocks keep T = T_h bit for bit."""
    if isinstance(spec, MultiCenterSpec):
        return Amplitudes(R, T_h, p)
    scale = _t_scale(spec, bonds, p)
    return Amplitudes(R=R, T=complex(T_h.real * scale, T_h.imag * scale), phi=p)


def solve_numeric(spec: ScattererSpec, phi: float) -> Amplitudes:
    """Matching-solver amplitudes at one angle, on the Hermitian partner.

    Solves the partner's two rows per bond (one banded LU with partial
    pivoting, 2 unknowns per bond whatever N) and maps T back: R = R_h,
    T = T_h sqrt(theta_L/theta_R).  Works for every scatterer family.
    Raises ResonanceError when the system is singular or the solution
    breaks the partner's unitarity.
    """
    p = as_angle(phi)
    bonds = spec.bond_map()
    R, T_h, _, _ = _solve_partner(bonds, p)
    return _amplitudes(spec, bonds, p, R, T_h)


def _layout_groups(keys) -> dict:
    """The indices of keys grouped by key, in order of first appearance."""
    groups = {}
    for i, key in enumerate(keys):
        groups.setdefault(key, []).append(i)
    return groups


def _solve_systems(ab: np.ndarray, rhs: np.ndarray, n: int, phis: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(R, T_h) of a chunk's systems of n unknowns each, at the angles phis, solved in one LAPACK call.

    ab and rhs hold the systems' bands and right-hand sides in turn, flat.
    The systems sit uncoupled on the band's diagonal, so each gets the
    solution it gets alone.  Raises ResonanceError at the angle of the
    singular system, or else of the first that breaks the partner's
    unitarity by more than 1e-9 (a non-finite x breaks R); which point
    fails first in grid order is solve_numeric_grid's to find.
    """
    _, _, x, info = zgbsv(2, 2, ab.reshape(7, -1, order="F"), rhs, overwrite_ab=1, overwrite_b=1)
    if info != 0:
        raise ResonanceError(f"matching system singular at phi={float(phis[(info - 1) // n])!r}")
    x = x.reshape(-1, n)
    # a block's zero multipliers into the next block may flip the sign of an exact zero; +0j makes it +0
    R, T_h = x[:, 0] + 0j, x[:, -1] + 0j
    defect = abs(R.real * R.real + R.imag * R.imag + T_h.real * T_h.real + T_h.imag * T_h.imag - 1.0)
    i = int(np.argmin(defect <= 1e-9))  # the first defect above 1e-9 or NaN, else 0
    if not defect[i] <= 1e-9:
        raise ResonanceError(f"partner unitarity violated (defect {defect[i]:.2e}) at phi={float(phis[i])!r}")
    return R, T_h


def _solve_group(specs: list, bond_maps: list[BondMap], phis: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """R and T, each (len(specs), len(phis)), of scatterers whose bonds share one layout.

    The rows are _bond_system's, by the same operations on arrays: sin, cos
    and the phases once on the angle array, each hop once per scatterer, and
    _bond_rows once per kind of bond (row form, left flank, right flank) over
    all (scatterer, bond) pairs of that kind, so every entry keeps its bits.
    The angles go in spans of at most 7 chunks' systems (one angle at least),
    the systems scatterer outer, angle inner, in chunks of at most
    CHUNK_UNKNOWNS unknowns (one system at least), one zgbsv call per chunk.
    Each T scale is taken once, at the first angle (an empty phis takes none).
    """
    plan = _plan(tuple(bond_maps[0]))
    n, k = plan.n, len(plan.positions)
    step = max(1, CHUNK_UNKNOWNS // n)
    span = max(1, 7 * step // len(specs))
    couplings = np.array([[bonds[b] for b in plan.positions] for bonds in bond_maps])
    hops = np.sqrt((1.0 - couplings) * (1.0 + couplings))  # as math.sqrt rounds it
    strong = (couplings * couplings > STRONG).tolist()
    pairs = _layout_groups((form, left, right) for row in strong for form, (_, _, left, right) in zip(row, plan.sides))
    kinds = []  # each kind's scatterers and bonds, and their couplings and hops as columns
    for kind, flat in pairs.items():
        sc, bond = np.divmod(flat, k)
        kinds.append((kind, sc, bond, couplings[sc, bond][:, None], hops[sc, bond][:, None]))
    R, T = np.empty((2, len(specs), len(phis)), dtype=np.complex128)
    scales = np.array([_t_scale(spec, bonds, p) for spec, bonds in zip(specs, bond_maps) for p in phis[:1].tolist()])
    for a0 in range(0, len(phis), span):
        angles = phis[a0 : a0 + span]
        s, c, e = np.sin(angles), np.cos(angles), _phase(np.array(plan.ks), angles[:, None])
        ab = np.zeros((len(specs), len(angles), 7 * n), dtype=np.complex128)
        rhs = np.zeros((len(specs), len(angles), n), dtype=np.complex128)
        # float views with the angle axis last, so a pair's values at every angle go to one place
        band, right = (z.view(np.float64).transpose(0, 2, 1) for z in (ab, rhs))
        for (form, left_flank, right_flank), sc, bond, g, t in kinds:
            rows = _bond_rows(form, left_flank, right_flank, g, t, s, c, e[:, bond].T, e[:, -1])
            values = np.empty((len(bond), 16, len(angles)))
            for j, part in enumerate(rows):
                values[:, j] = part
            # bond 0's first four go to the right-hand side, the last bond's last four are dropped (see _plan)
            first, last = 4 * left_flank, 16 - 4 * right_flank
            if left_flank:  # the flank's kinds hold bond 0 alone
                right[sc, :4] = -values[:, :4]
            band[sc[:, None], plan.places[bond, first:last]] = values[:, first:last]
        ab, rhs = ab.reshape(-1, 7 * n), rhs.reshape(-1, n)
        for start in range(0, len(ab), step):
            sc, ang = np.divmod(np.arange(start, min(start + step, len(ab))), len(angles))
            chunk = slice(start, start + step)
            R_h, T_h = _solve_systems(ab[chunk].reshape(-1), rhs[chunk].reshape(-1), n, angles[ang])
            R[sc, a0 + ang] = R_h
            T[sc, a0 + ang] = _complex(T_h.real * scales[sc], T_h.imag * scales[sc])
    return R, T


def solve_numeric_grid(specs: list, phis) -> tuple[np.ndarray, np.ndarray]:
    """solve_numeric's R and T of each scatterer at every angle of phis, each of shape (len(specs), len(phis)).

    Scatterers whose bonds sit at the same positions share a plan, and
    each such group is solved as one batch (_solve_group).  Each point
    gets solve_numeric's bits where numpy's cos and sin round as math's do
    (the tests check it).  The one refusal rule of the batched routes:
    when a group's batch fails, solve_numeric runs in grid order (specs
    outer) at each point of that group and of the groups not yet solved
    (the groups solved before answered all their points), and the first
    failing point raises its own error, or, should every one of them
    answer, the batch's error is raised.
    """
    phis = _angle_array(phis)
    bond_maps = [spec.bond_map() for spec in specs]
    R, T = np.empty((2, len(specs), len(phis)), dtype=np.complex128)
    groups = list(_layout_groups(tuple(bonds) for bonds in bond_maps).values())
    for i, rows in enumerate(groups):
        try:
            R[rows], T[rows] = _solve_group([specs[j] for j in rows], [bond_maps[j] for j in rows], phis)
        except (ResonanceError, DomainError):
            for j in sorted(j for later in groups[i:] for j in later):
                for p in phis.tolist():
                    solve_numeric(specs[j], p)
            raise
    return R, T


def numeric_wave(spec: ScattererSpec, phi: float) -> tuple[Amplitudes, WaveSample]:
    """solve_numeric plus the sampled wave over the sites [-(A+2), A+2].

    The partner's wave (_bond_rows' segments, e(j - f) = e(j) conj(e(f)))
    maps back to H site by site as psi_k = psi_h,k sqrt(theta_L/theta_k).
    """
    p = as_angle(phi)
    bonds = spec.bond_map()
    R, T_h, x, plan = _solve_partner(bonds, p)
    window = SiteWindow(spec.matching_radius + 2)
    m, ks = window.half_width, window.sites
    positions = np.array(plan.positions)
    segment = np.searchsorted(positions, ks)  # the bonds left of each site
    phases = _phase(ks, p)
    vals = np.where(segment == 0, phases + R * phases.conj(), T_h * phases)
    inner = np.flatnonzero((segment > 0) & (segment < len(positions)))
    i = segment[inner] - 1  # segment i + 1 starts at b_i + 1
    w = phases[inner] * phases[positions[i] + 1 + m].conj()
    vals[inner] = np.array(x[1::2])[i] * w.real + np.array(x[2::2])[i] * (w.imag / math.sin(p))
    # bond b lies left of the sites from b + 1 on
    half_log = np.zeros(window.n_sites)
    for b, g in bonds.items():
        half_log[b + m + 1] = half_log_ratio(g)
    vals *= np.exp(np.cumsum(half_log))
    return _amplitudes(spec, bonds, p, R, T_h), WaveSample(window, vals)


def _minus_conj_ratio(re, im):
    """The parts of -conj(W)/W of W = re + i im, floats or arrays; see the module docstring."""
    scale = abs(re) + abs(im)
    a, b = re / scale, im / scale
    norm = a * a + b * b
    return (b - a) * (b + a) / norm, 2.0 * a * b / norm


def _closed(g, s, c, er, ei):
    """(Re R, Im R, Re T, Im T) of the closed form; s, c = sin(phi), cos(phi), er + i ei = e(N + 2)."""
    q = (1.0 - g) * (1.0 + g) * s
    k = 2.0 * g * g * c
    ks, kc = k * ei, k * er
    mr, mi = _minus_conj_ratio(-q - ks * er, -ks * ei)  # R - T = -conj(U)/U
    pr, pi = _minus_conj_ratio(-kc * er, q - kc * ei)  # R + T = -conj(V)/V
    return (pr + mr) / 2.0, (pi + mi) / 2.0, (pr - mr) / 2.0, (pi - mi) / 2.0


def closed_form(spec: TwoCenterSpec, phi: float) -> Amplitudes:
    """Closed amplitudes of a two-center scatterer at any N >= -1 and any angle of the band."""
    p = as_angle(phi)
    e = _phase(spec.N + 2, p)
    r_re, r_im, t_re, t_im = _closed(spec.g, math.sin(p), math.cos(p), e.real, e.imag)
    return Amplitudes(R=complex(r_re, r_im), T=complex(t_re, t_im), phi=p)


def _closed_and_partner(spec: TwoCenterSpec, p: float) -> tuple[complex, complex, complex, complex]:
    """closed_form's R and T, then solve_numeric's, of a two-center spec at a checked angle p, in one pass.

    sin(p), cos(p) and e(N + 2) are taken once for both routes: the last
    bond of a two-center spec sits at N + 2, so its plan's ks[-1] is N + 2
    and _bond_system's last phase is the closed form's e bit for bit.  The
    blocks' T is T_h, as _amplitudes returns it.  Raises what
    _solve_partner raises.
    """
    s, c = math.sin(p), math.cos(p)
    e = _phase(spec.N + 2, p)
    r_re, r_im, t_re, t_im = _closed(spec.g, s, c, e.real, e.imag)
    R, T_h, _, _ = _solve_partner(spec.bond_map(), p, (s, c, e))
    return complex(r_re, r_im), complex(t_re, t_im), R, T_h


def closed_form_grid(specs: list, phis) -> tuple[np.ndarray, np.ndarray]:
    """closed_form's R and T of each two-center spec at every angle of phis, each of shape (len(specs), len(phis)).

    sin(phi) and cos(phi) are taken once on phis and e(N + 2) once per N;
    the specs of one N are answered together by _closed.
    """
    phis = _angle_array(phis)
    sin, cos = np.sin(phis), np.cos(phis)
    R, T = np.empty((2, len(specs), len(phis)), dtype=np.complex128)
    for n, rows in _layout_groups(spec.N for spec in specs).items():
        g = np.array([specs[i].g for i in rows])[:, None]
        e = _phase(n + 2, phis)
        R.real[rows], R.imag[rows], T.real[rows], T.imag[rows] = _closed(g, sin, cos, e.real, e.imag)
    return R, T


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

    h enters only through that angle and the table's h column.  Uses both
    the closed form and the matching solver; the table carries the numeric
    values.  Fitted log-log slopes of |T| and |psi_0| against h quantify
    the linear-in-h decay toward the hard wall (slope 0 at g = 0 where the
    lattice stays transparent).
    """
    if not kappa > 0.0:  # NaN included
        raise DomainError(f"kappa={kappa!r} must be positive")
    hs = [float(h) for h in h_list]
    if len(hs) < 2:
        raise DomainError("need at least two h values")
    if any(not b < a for a, b in zip(hs, hs[1:])):
        raise DomainError("h sequence must be strictly decreasing")
    if not hs[-1] > 0.0:
        raise DomainError(f"h={hs[-1]!r} must be positive")
    if kappa * hs[0] >= math.pi:
        raise DomainError("kappa*h leaves the band; shrink h or kappa")
    spec = TwoCenterSpec(g, -1)
    rows = []
    gap = 0.0
    for h in hs:
        p = kappa * h
        amp_num, wave = numeric_wave(spec, p)
        amp_cf = closed_form(spec, p)
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
