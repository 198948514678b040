"""Reflection/transmission amplitudes: the matching solver and closed forms.

One numeric route solves every scatterer (solve_numeric at one angle,
solve_numeric_grid at many scatterers and angles, numeric_wave for the
sampled wave).  It works on the Hermitian partner
h = Theta^(1/2) H Theta^(-1/2), the real symmetric lattice whose row k reads

    -t_{k-1} psi_{k-1} + 2 cos(phi) psi_k - t_k psi_{k+1} = 0,

t_b = sqrt((1 - gamma_b)(1 + gamma_b)) on a bond b and 1 elsewhere.  The
unknowns are psi on each bond cluster (the rows that touch a bond, one site
beyond on each side, and any free stretch of fewer than JUMP_ROWS rows),
two plane-wave coefficients per longer free stretch, R and T_h; one banded
LU with partial pivoting solves them, so the cost grows with the number of
bonds and not with N.  Where each entry sits depends on the bond positions
alone: each bond layout is planned once (its clusters, its constant entries
and the places of the hops and phases, in a bounded cache).  The plan also
keeps a band template with the constant entries written and the exact
halves of each phase's k, so each one-angle call copies the template and
fills in the couplings' hops, 2 cos(phi) and the angle's phases, splitting
phi once and taking e(-k) as conj(e(k)) where the plan holds both.

Scatterers whose bonds sit at the same positions share a plan and form a
layout group: every two-center spec of one N, every chain of one length,
the multi-center specs of one set of centers.  solve_numeric_grid solves
each group's (scatterer, angle) systems together, stacked block-diagonally
with no coupling between blocks, in chunks of at most CHUNK_UNKNOWNS
unknowns, one LAPACK call per chunk.  The transcendental values, 2 cos(phi)
and each phase e(k), are taken once on the angle array and gathered per
system, never taken on a tiled array; only the hops and a chain's T scale
vary by scatterer.  So every system keeps the bits it has alone.  h
reflects as H does, and T = T_h sqrt(theta_L/theta_R).  The self-check is
the partner's unitarity |R|^2 + |T_h|^2 = 1, per system.  A chunk that
holds a singular or failing system raises; solve_numeric_grid then runs
solve_numeric in grid order at each point of that group and of the groups
not yet solved, so every batched route refuses the first failing point
with the one-angle message, as a per-point loop does.

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

closed_form takes one angle in Python complex arithmetic; closed_form_grid
takes many two-center specs at an angle array in the same operations on
real and imaginary parts, written out as CPython performs them (a float
operand is the complex (x, 0.0), a quotient divides through by the larger
part of the divisor as _Py_c_quot does), so every point keeps the one-angle
bits, signed zeros included.  sin(phi) and cos(phi) are taken once on the
angle array and e((N + 2) phi) once per N, and the specs of one N share
each operation over their (g, phi) array.  The grid routes return R and
T as complex arrays with one row per scatterer.  Squares such as |R|^2
are taken on Python floats by the callers: numpy's a*a and glibc's
pow(a, 2), which x**2 calls, differ in the last bit for some doubles.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.linalg.lapack import zgbsv

from .errors import DomainError, ResonanceError
from .lattice import SiteWindow, WaveSample, as_angle
from .metric import half_log_ratio
from .potentials import BondMap, MultiCenterSpec, ScattererSpec, TwoCenterSpec

# partner unknowns per chunk of a batched solve: a chunk's band (112 bytes per
# unknown) stays near 460 kB, so a batch's working memory does not grow with the grid
CHUNK_UNKNOWNS = 1 << 12
# the one-angle route jumps a free stretch of at least this many rows
# between bond clusters; shorter stretches stay in the cluster as plain rows
JUMP_ROWS = 8
# bond layouts whose partner-system plan is kept; a plan depends on the bond
# positions only, so a sweep or the verify grid needs one per N or chain length
PLAN_CACHE = 64


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
    """A sequence of angles as a 1-D float array, each inside (0, pi)."""
    phis = np.asarray(phi, dtype=np.float64).reshape(-1)
    outside = ~((phis > 0.0) & (phis < math.pi))  # NaN included
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


def _bond_clusters(bonds) -> tuple[list[list[int]], int]:
    """([first, last] touched row of each bond cluster, left to right; partner unknowns).

    bonds is a bond map or its bond positions.  Row k touches bonds k - 1
    and k.  Touched rows with fewer than JUMP_ROWS free rows between them
    share a cluster.  The partner system solves R, T_h, each cluster's
    sites and (a, b) per jumped stretch.
    """
    rows = sorted({r for b in bonds for r in (b, b + 1)})
    clusters = [[rows[0], rows[0]]]
    for r in rows[1:]:
        if r - clusters[-1][1] - 1 < JUMP_ROWS:
            clusters[-1][1] = r
        else:
            clusters.append([r, r])
    return clusters, 2 + sum(r1 - r0 + 3 for r0, r1 in clusters) + 2 * (len(clusters) - 1)


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

    The rounded product k*p is off by up to half an ulp of itself.  Near
    p = 0 or pi, where e(k) and e(-k) nearly coincide, the matching rows
    amplify that by about 1/sin(p), and at large k the rounding error lo
    itself grows to order 1.  exp(i (hi + lo)) is taken as exp(i hi)
    exp(i lo) in real products; for |lo| < 1e-8, cos(lo) rounds to 1 and
    sin(lo) to lo.
    """
    hi, lo = _exact_product(k, p)
    if isinstance(hi, float):
        cos_hi, sin_hi, cos_lo, sin_lo = math.cos(hi), math.sin(hi), math.cos(lo), math.sin(lo)
        return complex(cos_hi * cos_lo - sin_hi * sin_lo, sin_hi * cos_lo + cos_hi * sin_lo)
    cos_hi, sin_hi, cos_lo, sin_lo = np.cos(hi), np.sin(hi), np.cos(lo), np.sin(lo)
    return _complex(cos_hi * cos_lo - sin_hi * sin_lo, sin_hi * cos_lo + cos_hi * sin_lo)


def _complex(re: np.ndarray, im: np.ndarray) -> np.ndarray:
    """The complex array of these parts, each set on its own as complex(re, im) sets it."""
    z = re.astype(np.complex128)
    z.imag = im
    return z


class _Plan(NamedTuple):
    """Where each entry of a bond layout's partner system sits; see _plan."""

    n: int
    layout: tuple[tuple[int, int, int], ...]
    constants: np.ndarray
    constant_values: np.ndarray
    entries: np.ndarray
    n_diagonal: int
    ks: tuple[int, ...]
    phase_sources: tuple[int, ...]
    template: np.ndarray
    fill_at: np.ndarray
    pick: operator.itemgetter
    k_halves: tuple[tuple[float, float, float, int], ...]


@functools.lru_cache(maxsize=PLAN_CACHE)
def _plan(positions: tuple[int, ...]) -> _Plan:
    """The partner system of bonds at these positions, but for the couplings and the angle.

    LAPACK band storage, column-major, for 2 sub- and 2 superdiagonals and
    2 rows of fill-in, puts entry (i, j) at flat index 7 j + 4 + i - j.
    x = [R, cluster sites..., a, b, cluster sites..., T_h], and layout holds
    the (first site, last site, column of the first site) of each cluster;
    the plane-wave coefficients (a, b) of a jumped stretch sit in the two
    columns before the cluster on its right.  constants holds the flat
    indices of the entries 1.0, of the free hops -1.0 and of the phases
    -e(0) and -conj(e(0)) of a jumped stretch's first site.  entries holds
    those of each call's values: the n_diagonal entries 2 cos(phi), the
    hop -t_b of each bond b of positions in the row of site b, then those
    in the row of site b + 1, and the phases: with w = [e(k) for k in ks],
    the phase entries take concatenate((-w, -conj(w)))[phase_sources].  The
    right-hand side is w[:2], e(s) and e(s + 1) at the first two sites.

    One angle's system is one array of 8 n, the band and then the
    right-hand side: template holds it with the constants written and
    zeros elsewhere, fill_at is entries followed by the right-hand side's
    first two places, and pick takes the value of each from
    [2 cos(phi), the hop of each bond, -w, -conj(w), w[0], w[1]].  k_halves
    holds (k, k_hi, k_lo, mirror) for each k of ks: k as a float, its
    exact halves as _exact_product splits k, and the index in ks of -k
    where -k comes first, else -1.
    """
    clusters, n = _bond_clusters(positions)
    constants = {}  # flat index: 1.0, -1.0 for a free hop, or a stretch's phase of k = 0
    diagonal, hops, phases = [], {}, []  # phases: (flat index, k, conjugated)
    layout = []
    col = 1  # column of the next unknown; a cluster's row of site k has the column of psi_k
    for r0, r1 in clusters:
        s, e = r0 - 1, r1 + 1
        if not layout:
            # rows 0, 1: psi_j = e(j) + R e(-j) at the first two sites
            for i, j in ((0, s), (1, s + 1)):
                phases.append((4 + i, j, True))
                constants[6 * (col + i) + i + 4] = 1.0
        else:
            # free rows g1..g2 jumped: psi_j = a e(j - g1) + b e(g1 - j) at sites
            # g1 - 1, g1 (the last two of the cluster before) and g2, g2 + 1
            g1, g2, a = layout[-1][1], s, col
            col += 2
            relations = ((a - 1, g1 - 1, a - 2), (a, g1, a - 1), (a + 1, g2, col), (a + 2, g2 + 1, col + 1))
            for i, j, cj in relations:  # row, site, column of the site
                constants[6 * cj + i + 4] = 1.0
                if j == g1:  # -e(0) and -conj(e(0)), with e(0) = 1 + 0j at every angle
                    constants[6 * a + i + 4], constants[6 * a + i + 10] = complex(-1.0, -0.0), complex(-1.0, 0.0)
                else:
                    phases += ((6 * a + i + 4, j - g1, False), (6 * a + i + 10, j - g1, True))
        layout.append((s, e, col))
        for i in range(col + 1, col + e - s):
            # row of site k = i - col + s: -t_{k-1} psi_{k-1} + 2 cos(phi) psi_k - t_k psi_{k+1}
            k = i - col + s
            hops[k - 1, 1] = 7 * i - 2
            hops[k, 0] = 7 * i + 10
            diagonal.append(7 * i + 4)
        col += e - s + 1
    # the last two rows: psi_j = T_h e(j) at the last two sites
    for i, j in ((col - 1, e - 1), (col, e)):
        constants[6 * (i - 1) + i + 4] = 1.0
        phases.append((6 * col + i + 4, j, False))
    bond_hops = [hops.pop((b, side)) for side in (0, 1) for b in positions]
    constants.update(dict.fromkeys(hops.values(), -1.0))  # the hops of free rows
    ks = tuple(dict.fromkeys(k for _, k, _ in phases))
    phase_sources = tuple(ks.index(k) + len(ks) * conjugated for _, k, conjugated in phases)
    entries = diagonal + bond_hops + [index for index, _, _ in phases]
    template = np.zeros(8 * n, dtype=np.complex128)
    template[list(constants)] = list(constants.values())
    nb, nk = len(positions), len(ks)
    sources = [0] * len(diagonal) + [1 + i % nb for i in range(2 * nb)] + [1 + nb + i for i in phase_sources]
    return _Plan(
        n=n,
        layout=tuple(layout),
        constants=np.array(list(constants)),
        constant_values=np.array(list(constants.values()), dtype=np.complex128),
        entries=np.array(entries),
        n_diagonal=len(diagonal),
        ks=ks,
        phase_sources=phase_sources,
        template=template,
        fill_at=np.array(entries + [7 * n, 7 * n + 1]),
        pick=operator.itemgetter(*sources, 1 + nb + 2 * nk, 2 + nb + 2 * nk),
        k_halves=tuple(_halves(k, ks[:i]) for i, k in enumerate(ks)),
    )


def _halves(k: int, before: tuple[int, ...]) -> tuple[float, float, float, int]:
    """(k, k_hi, k_lo, mirror): k as a float, its halves as _exact_product splits it, and -k's index in before, else -1."""
    c = 134217729.0 * k
    k_hi = c - (c - k)
    return float(k), k_hi, k - k_hi, before.index(-k) if -k in before else -1


def _point_phases(plan: _Plan, p: float) -> list[complex]:
    """[-e(k) for k in plan.ks] + [-conj(e(k)) for k in plan.ks] at one angle p, each e(k) with _phase's bits.

    The operations are _exact_product's and _phase's, but p is split once
    and each k's halves come from the plan.  For |lo| < 1e-8, cos(lo)
    rounds to 1 and sin(lo) to lo, so those two are not taken.  e(-k) is
    conj(e(k)) exactly: cos is even, sin odd, and the halves, the error
    term and each rounding change sign with k.
    """
    d = 134217729.0 * p
    p_hi = d - (d - p)
    p_lo = p - p_hi
    cos, sin = math.cos, math.sin
    neg, neg_conj = [], []
    for k, k_hi, k_lo, mirror in plan.k_halves:
        if mirror >= 0:
            neg.append(neg_conj[mirror])
            neg_conj.append(neg[mirror])
            continue
        hi = k * p
        lo = k_lo * p_lo - (((hi - k_hi * p_hi) - k_lo * p_hi) - k_hi * p_lo)
        cos_hi, sin_hi = cos(hi), sin(hi)
        if -1e-8 < lo < 1e-8:
            re, im = cos_hi - sin_hi * lo, sin_hi + cos_hi * lo
        else:
            cos_lo, sin_lo = cos(lo), sin(lo)
            re, im = cos_hi * cos_lo - sin_hi * sin_lo, sin_hi * cos_lo + cos_hi * sin_lo
        neg.append(complex(-re, -im))
        neg_conj.append(complex(-re, im))
    return neg + neg_conj


def _partner_system(bonds: BondMap, p: float) -> tuple[_Plan, np.ndarray, np.ndarray]:
    """(plan, ab, rhs) of the partner system of bonds at one angle p, filled by its layout's plan.

    ab has shape (7 n,) and rhs (n,), views of one copy of the plan's
    template.  The values are Python scalars, 2 cos(phi), the hops and the
    phases, until one write places them all where plan.fill_at says.
    """
    plan = _plan(tuple(bonds))
    system = plan.template.copy()
    w = _point_phases(plan, p)
    hops = [-math.sqrt((1.0 - g) * (1.0 + g)) for g in bonds.values()]
    system[plan.fill_at] = plan.pick([2.0 * math.cos(p), *hops, *w, -w[0], -w[1]])
    return plan, system[: 7 * plan.n], system[7 * plan.n :]


def _solve_partner(bonds: BondMap, p: float) -> tuple[list, tuple]:
    """Solve the compressed matching system of the Hermitian partner at one angle p.

    Returns (x, layout), x a list of Python complex; see _plan for x and
    layout.  Raises ResonanceError when the system is singular or its
    solution breaks the partner's unitarity |R|^2 + |T_h|^2 = 1 by more
    than 1e-9 (a non-finite value in x reaches R in the back substitution
    and breaks it too).
    """
    plan, ab, rhs = _partner_system(bonds, p)
    _, _, x, info = zgbsv(2, 2, ab.reshape(7, -1, order="F"), rhs, overwrite_ab=1, overwrite_b=1)
    if info != 0:
        raise ResonanceError(f"matching system singular at phi={p!r}")
    x = x.tolist()
    R, T_h = x[0], x[-1]
    defect = abs(R.real**2 + R.imag**2 + T_h.real**2 + T_h.imag**2 - 1.0)
    if not defect <= 1e-9:
        raise ResonanceError(f"partner unitarity violated (defect {defect:.2e}) at phi={p!r}")
    return x, plan.layout


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


def _partner_amplitudes(x, spec: ScattererSpec, bonds: BondMap, p: float) -> Amplitudes:
    """R = R_h and T = T_h sqrt(theta_L/theta_R) from _solve_partner's x."""
    scale = _t_scale(spec, bonds, p)
    R, T_h = x[0], x[-1]
    return Amplitudes(R=R, T=complex(T_h.real * scale, T_h.imag * scale), phi=p)


def solve_numeric(spec: ScattererSpec, phi: float) -> Amplitudes:
    """Matching-solver amplitudes at one angle, on the Hermitian partner.

    Solves the compressed matching system of the partner h (one banded LU
    with partial pivoting, O(#bonds) unknowns whatever N) and maps T back:
    R = R_h, T = T_h sqrt(theta_L/theta_R).  Works for every scatterer
    family.  Raises ResonanceError when the system is singular or the
    solution breaks the partner's unitarity.
    """
    p = as_angle(phi)
    bonds = spec.bond_map()
    x, _ = _solve_partner(bonds, p)
    if isinstance(spec, MultiCenterSpec):  # blocks: the T scale is exactly 1, and T = T_h bit for bit
        return Amplitudes(x[0], x[-1], p)
    return _partner_amplitudes(x, spec, bonds, p)


def _layout_groups(keys) -> dict:
    """The indices of keys grouped by key, in order of first appearance."""
    groups = {}
    for i, key in enumerate(keys):
        groups.setdefault(key, []).append(i)
    return groups


def _group_fill(plan: _Plan, bond_maps: list[BondMap], phis: np.ndarray):
    """fill(sc, ang): (ab, rhs) of the partner systems of scatterer sc[i] at angle phis[ang[i]].

    The scatterers' bonds sit where plan says.  ab (7 n, m) and rhs (n, m)
    hold the m systems side by side in Fortran order, each laid out as
    _partner_system lays out one angle.  2 cos(phi) and each phase e(k) are
    taken once on phis and each hop once per scatterer; fill only gathers
    them, so every entry has the bits it has alone.
    """
    hop_at = plan.n_diagonal + 2 * len(bond_maps[0])  # the phase entries follow two hops per bond
    diagonal, hop_entries, phase_entries = np.split(plan.entries, [plan.n_diagonal, hop_at])
    two_cos = 2.0 * np.cos(phis)
    w = np.array([_phase(k, phis) for k in plan.ks]).reshape(len(plan.ks), len(phis))
    phases = np.concatenate((-w, (-w).conj()))[list(plan.phase_sources)]
    hops = np.array([[-math.sqrt((1.0 - g) * (1.0 + g)) for g in bonds.values()] * 2 for bonds in bond_maps]).T

    def fill(sc: np.ndarray, ang: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        ab = np.zeros((7 * plan.n, len(sc)), dtype=np.complex128, order="F")
        rhs = np.zeros((plan.n, len(sc)), dtype=np.complex128, order="F")
        ab[plan.constants] = plan.constant_values[:, None]
        ab[diagonal] = two_cos[ang]
        ab[hop_entries] = hops[:, sc]
        ab[phase_entries] = phases[:, ang]
        rhs[:2] = w[:2, ang]
        return ab, rhs

    return fill


def _solve_systems(ab: np.ndarray, rhs: np.ndarray, n: int, phis: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(R, T_h) of a chunk's systems of n unknowns each, at the angles phis, solved in one LAPACK call.

    The systems sit uncoupled on the band's diagonal, so each gets the
    solution it gets alone.  Raises ResonanceError at the angle of the
    singular system, or else of the first that breaks the partner's
    unitarity by more than 1e-9 (a non-finite x breaks R); which point
    fails first in grid order is solve_numeric_grid's to find.
    """
    _, _, x, info = zgbsv(2, 2, ab.reshape(7, -1, order="F"), rhs.reshape(-1, order="F"), overwrite_ab=1, overwrite_b=1)
    if info != 0:
        raise ResonanceError(f"matching system singular at phi={float(phis[(info - 1) // n])!r}")
    x = x.reshape(-1, n).T
    R, T_h = x[0], x[-1]
    defect = abs(R.real**2 + R.imag**2 + T_h.real**2 + T_h.imag**2 - 1.0)
    i = int(np.argmin(defect <= 1e-9))  # the first defect above 1e-9 or NaN, else 0
    if not defect[i] <= 1e-9:
        raise ResonanceError(f"partner unitarity violated (defect {defect[i]:.2e}) at phi={float(phis[i])!r}")
    return R, T_h


def _solve_group(specs: list, bond_maps: list[BondMap], phis: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """R and T, each (len(specs), len(phis)), of scatterers whose bonds share one layout.

    The (scatterer, angle) systems go scatterer outer, angle inner, in
    chunks of at most CHUNK_UNKNOWNS unknowns (one system at least), one
    zgbsv call per chunk.  The angles go in spans of whole chunks whose
    values (2 cos(phi), the phases and the phase entries) take no more room
    than a chunk's band, so a span's fill stays as small as a chunk, and
    one scatterer's chunks start every CHUNK_UNKNOWNS // n angles, as they
    always have.  Each scatterer's T scale is taken once, before any
    chunk, at the first angle (an empty phis takes none).
    """
    plan = _plan(tuple(bond_maps[0]))
    step = max(1, CHUNK_UNKNOWNS // plan.n)
    per_angle = 1 + len(plan.ks) + len(plan.phase_sources)
    span = step * max(1, 7 * CHUNK_UNKNOWNS // (per_angle * step))
    R, T = np.empty((2, len(specs), len(phis)), dtype=np.complex128)
    scales = np.array([_t_scale(spec, bonds, p) for spec, bonds in zip(specs, bond_maps) for p in phis[:1].tolist()])
    for a0 in range(0, len(phis), span):
        angles = phis[a0 : a0 + span]
        fill = _group_fill(plan, bond_maps, angles)
        pairs = len(specs) * len(angles)
        for start in range(0, pairs, step):
            sc, ang = np.divmod(np.arange(start, min(start + step, pairs)), len(angles))
            R_h, T_h = _solve_systems(*fill(sc, ang), plan.n, angles[ang])
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

    The partner's wave comes from the solved cluster sites, the plane waves
    of the jumped stretches and the asymptotic flanks; it maps back to H
    site by site as psi_k = psi_h,k sqrt(theta_L/theta_k).
    """
    p = as_angle(phi)
    bonds = spec.bond_map()
    x, layout = _solve_partner(bonds, p)
    window = SiteWindow(spec.matching_radius + 2)
    m, ks = window.half_width, window.sites
    phases = _phase(ks, p)
    vals = np.where(ks < layout[0][0], phases + x[0] * phases.conj(), x[-1] * phases)
    for (_, g1, _), (s, _, col) in zip(layout, layout[1:]):
        w = _phase(np.arange(1, s - g1), p)  # e(k - g1) inside the stretch
        vals[g1 + m + 1 : s + m] = x[col - 2] * w + x[col - 1] * w.conj()
    for s, e, col in layout:
        vals[s + m : e + m + 1] = x[col : col + e - s + 1]
    # bond b lies left of the sites from b + 1 on
    half_log = np.zeros(window.n_sites)
    for b, g in bonds.items():
        half_log[b + m + 1] = half_log_ratio(g)
    vals *= np.exp(np.cumsum(half_log))
    return _partner_amplitudes(x, spec, bonds, p), WaveSample(window, vals)


def _quot(ar, ai, br, bi):
    """The parts of (ar + i ai)/(br + i bi) as CPython's _Py_c_quot divides, per element.

    It divides through by the larger of |br| and |bi|; b is never 0 or NaN here.
    """
    by_re = np.abs(br) >= np.abs(bi)
    with np.errstate(all="ignore"):  # the branch not taken may divide by 0 or overflow
        ratio = np.where(by_re, bi / br, br / bi)
        denom = np.where(by_re, br + bi * ratio, br * ratio + bi)
        re = np.where(by_re, ar + ai * ratio, ar * ratio + ai) / denom
        return re, np.where(by_re, ai - ar * ratio, ai * ratio - ar) / denom


def _closed(spec: TwoCenterSpec, p: float) -> tuple[complex, complex]:
    """(R, T) of the closed form at one angle p, in Python complex arithmetic; see the module docstring."""
    g = spec.g
    q = (1.0 - g) * (1.0 + g) * math.sin(p)
    k = 2.0 * g * g * math.cos(p)
    e = _phase(spec.N + 2, p)  # cos(M phi) + i sin(M phi)
    U = -q - k * e.imag * e
    V = 1j * q - k * e.real * e
    r_minus_t = -U.conjugate() / U
    r_plus_t = -V.conjugate() / V
    return (r_plus_t + r_minus_t) / 2.0, (r_plus_t - r_minus_t) / 2.0


def _closed_group(g: np.ndarray, sin: np.ndarray, cos: np.ndarray, e: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(R, T) of _closed for the couplings g (a column) of one N at angles with these sin, cos and e(N + 2).

    The operations are _closed's, taken on real parts as CPython performs
    them: a float x is the complex (x, 0.0) in a sum or product, so
    x e = (x c - 0.0 s, x s + 0.0 c), and a quotient is _quot's.  Each
    point thus gets one angle's bits, signed zeros included, and R and T
    are complex arrays of shape (len(g), len(e)).
    """
    q = (1.0 - g) * (1.0 + g) * sin
    k = 2.0 * g * g * cos
    c, s = e.real, e.imag
    ks, kc = k * s, k * c
    u = -q - (ks * c - 0.0 * s), 0.0 - (ks * s + 0.0 * c)
    v = (0.0 * q - 0.0) - (kc * c - 0.0 * s), (0.0 + q) - (kc * s + 0.0 * c)  # 1j q = (0.0 q - 0.0, 0.0 + q)
    mr, mi = _quot(-u[0], u[1], *u)  # -conj(U)/U
    pr, pi = _quot(-v[0], v[1], *v)
    sr, si, dr, di = pr + mr, pi + mi, pr - mr, pi - mi
    # z / 2.0 divides by 2.0 + 0.0j: ratio 0.0, denominator 2.0
    R = _complex((sr + si * 0.0) / 2.0, (si - sr * 0.0) / 2.0)
    T = _complex((dr + di * 0.0) / 2.0, (di - dr * 0.0) / 2.0)
    return R, T


def closed_form(spec: TwoCenterSpec, phi: float) -> Amplitudes:
    """Closed amplitudes of a two-center scatterer at any N >= -1 and any angle of the band."""
    p = as_angle(phi)
    R, T = _closed(spec, p)
    return Amplitudes(R=R, T=T, phi=p)


def closed_form_grid(specs: list, phis) -> tuple[np.ndarray, np.ndarray]:
    """closed_form's R and T of each two-center spec at every angle of phis, each of shape (len(specs), len(phis)).

    sin(phi) and cos(phi) are taken once on phis and e(N + 2) once per N;
    the specs of one N are answered together by _closed_group.
    """
    phis = _angle_array(phis)
    sin, cos = np.sin(phis), np.cos(phis)
    R, T = np.empty((2, len(specs), len(phis)), dtype=np.complex128)
    for n, rows in _layout_groups(spec.N for spec in specs).items():
        g = np.array([specs[i].g for i in rows])[:, None]
        R[rows], T[rows] = _closed_group(g, sin, cos, _phase(n + 2, phis))
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
