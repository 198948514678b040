"""Diagonal metric operators and compatibility diagnostics.

A positive diagonal Theta renders the non-Hermitian H self-adjoint in the
weighted inner product <psi|Theta|phi>, provided H^dagger Theta = Theta H.
For bandwidth-1 real H and diagonal Theta this reduces to one condition per
bond: H[k+1,k] theta_{k+1} = theta_k H[k,k+1], that is
theta_{k+1} = theta_k (1 + gamma_k)/(1 - gamma_k) on a bond of coupling
gamma_k.  build_metric solves it for every family at once as the split
product

    theta_k = prod_{b < k} (1 + gamma_b) * prod_{b >= k} (1 - gamma_b)

over the bonds b of the scatterer's bond map.  It has no division and
every factor lies in (0, 2).  The metric is defined only up to a positive
constant; this normalisation gives

* chains: the closed product pattern, with sites relabeled by odd integers
  outward from the central bond,

      theta_{+-1} = (1 +- a)(1 - b^2)(1 - c^2) ...
      theta_{+-3} = (1 +- a)(1 +- b)^2 (1 - c^2) ...
      theta_{+-5} = (1 +- a)(1 +- b)^2 (1 +- c)^2 ...

  saturating to a constant beyond the last coupling;

* scatterer blocks: prod_i (1 - g_i^2) away from the blocks and that
  constant times (1+g)/(1-g) at each block center.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import WindowError
from .lattice import SiteWindow
from .potentials import BandedOperator, ScattererSpec


@dataclass(frozen=True)
class DiagonalMetric:
    """Diagonal metric entries theta_k over a site window."""

    window: SiteWindow
    theta: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        th = np.asarray(self.theta, dtype=np.float64).copy()
        if th.shape != (self.window.n_sites,):
            raise WindowError("theta length does not match window size")
        th.setflags(write=False)
        object.__setattr__(self, "theta", th)

    def theta_at(self, k: int) -> float:
        return float(self.theta[self.window.index_of(k)])


def build_metric(spec: ScattererSpec, window: SiteWindow) -> DiagonalMetric:
    """The split product metric over the spec's bond map; the window must hold every bond."""
    bonds = spec.bond_map()
    if any(not -window.half_width <= k < window.half_width for k in bonds):
        raise WindowError(f"window of half-width {window.half_width} does not hold every bond")
    theta = np.ones(window.n_sites)
    for k, g in bonds.items():
        # bond k lies right of the sites up to k and left of the sites from k+1 on
        theta[: k + window.half_width + 1] *= 1.0 - g
        theta[k + window.half_width + 1 :] *= 1.0 + g
    return DiagonalMetric(window, theta)


def quasi_hermiticity_residual(h: BandedOperator, metric: DiagonalMetric) -> float:
    """Max entrywise violation of H^dagger Theta = Theta H, window edges excluded.

    Edge rows are structurally incomplete after truncation, so only bonds
    with both sites strictly inside the window are scanned.
    """
    if h.window != metric.window:
        raise WindowError("operator and metric windows differ")
    th = metric.theta
    # bond i couples sites s_i, s_i + 1; interior bonds keep both sites off the edge
    upper = h.upper[1:-1]
    lower = h.lower[1:-1]
    t_left = th[1:-2]
    t_right = th[2:-1]
    res_up = np.abs(np.conj(lower) * t_right - t_left * upper)
    res_lo = np.abs(np.conj(upper) * t_left - t_right * lower)
    diag = h.diag[1:-1]
    res_diag = np.abs(np.conj(diag) - diag) * th[1:-1]
    return float(max(res_up.max(initial=0.0), res_lo.max(initial=0.0), res_diag.max(initial=0.0)))


def half_log_ratio(gamma: float) -> float:
    """log sqrt((1 - gamma)/(1 + gamma)): one bond's term of log sqrt(theta_L/theta_R)."""
    return 0.5 * (math.log1p(-gamma) - math.log1p(gamma))


def asymmetry_ratio(spec: ScattererSpec) -> float:
    """Saturated left/right metric ratio theta_L/theta_R = prod over bonds of (1-gamma)/(1+gamma).

    Summed in log form, so no partial product leaves the double range: a
    block's two bonds cancel exactly, so blocks give 1.0, and a ratio beyond
    the double range reads 0.0 or inf.
    """
    half_log = math.fsum(half_log_ratio(g) for g in spec.bond_map().values())
    try:
        return math.exp(2.0 * half_log)
    except OverflowError:
        return math.inf


def positivity_check(metric: DiagonalMetric) -> bool:
    """True iff every theta_k is strictly positive."""
    return bool(np.min(metric.theta) > 0.0)
