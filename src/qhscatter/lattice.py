"""Site indexing, band energies and sampled waves on the 1D lattice.

Sites are integers k in a window [-M, M].  All matching algebra downstream
is dimensionless (diagonal entries 2*cos(phi)); a lattice spacing h enters
only through the energy conversion E = (2 - 2 cos phi)/h^2 and the
continuum probe's angle phi = kappa*h.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field

import numpy as np

from .errors import BandError, WindowError


def as_angle(phi) -> float:
    """The Bloch angle phi as a float, checked to lie in the open interval (0, pi).

    phi parametrizes the lattice band energy E = (2 - 2 cos phi)/h^2.  The
    endpoints are band edges where the plane-wave ansatz degenerates and
    are rejected, as are NaN, the infinities and the angles below the
    smallest normal double, where the solver's rows lose their precision.
    """
    p = float(phi)
    if not 0.0 < p < math.pi:
        raise BandError(f"phi={p!r} outside the open band interval (0, pi)")
    if p < sys.float_info.min:
        raise BandError(f"phi={p!r} below the smallest normal double {sys.float_info.min!r}")
    return p


def energy_from_phi(phi: float, h: float = 1.0) -> float:
    """Band energy E = (2 - 2 cos phi)/h^2.

    Evaluated as 4 sin^2(phi/2)/h^2, which is the same quantity without
    cancellation near the band bottom.
    """
    if h <= 0.0:
        raise WindowError(f"spacing h={h!r} must be positive")
    s = 2.0 * math.sin(as_angle(phi) / 2.0)
    return s * s / (h * h)


def phi_from_energy(energy: float, h: float = 1.0) -> float:
    """Inverse of energy_from_phi; requires 0 < E*h^2 < 4 (inside the band).

    Branches at mid-band so neither arcsine is evaluated near 1; the
    round-trip is then limited only by the quantization of E*h^2 itself,
    which near the band top resolves phi no finer than ~2e-16/(pi - phi).
    """
    if h <= 0.0:
        raise WindowError(f"spacing h={h!r} must be positive")
    x = float(energy) * h * h
    if not (0.0 < x < 4.0):
        raise BandError(f"E*h^2={x!r} outside the lattice band (0, 4)")
    if x <= 2.0:
        return as_angle(2.0 * math.asin(math.sqrt(x) / 2.0))
    return as_angle(math.pi - 2.0 * math.asin(math.sqrt(4.0 - x) / 2.0))


@dataclass(frozen=True)
class SiteWindow:
    """Symmetric site window k in [-half_width, half_width]."""

    half_width: int

    def __post_init__(self) -> None:
        if int(self.half_width) != self.half_width or self.half_width < 1:
            raise WindowError(f"half_width={self.half_width!r} must be an integer >= 1")
        object.__setattr__(self, "half_width", int(self.half_width))

    @property
    def n_sites(self) -> int:
        return 2 * self.half_width + 1

    @property
    def sites(self) -> np.ndarray:
        return np.arange(-self.half_width, self.half_width + 1)

    def index_of(self, k: int) -> int:
        """Array index of site k; raises WindowError if outside."""
        if abs(k) > self.half_width:
            raise WindowError(f"site {k} outside window [-{self.half_width}, {self.half_width}]")
        return k + self.half_width


@dataclass(frozen=True)
class WaveSample:
    """Discrete wavefunction psi_k over a site window (one complex value per site)."""

    window: SiteWindow
    values: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        vals = np.asarray(self.values, dtype=np.complex128)
        if vals.shape != (self.window.n_sites,):
            raise WindowError(
                f"values length {vals.shape} does not match window size {self.window.n_sites}"
            )
        vals = vals.copy()
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    def value_at(self, k: int) -> complex:
        return complex(self.values[self.window.index_of(k)])
