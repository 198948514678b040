"""Banded non-Hermitian potentials and windowed Hamiltonians.

Two interaction families live here, both real, purely off-diagonal and of
bandwidth 1:

* the coupling chain V^(a,b,c,...): every bond (k, k+1) carries an
  antisymmetric pair V[k+1,k] = +gamma, V[k,k+1] = -gamma, with gamma = a on
  the central bond (-1, 0) and b, c, ... on the bonds fanning outward on
  both sides, so V^T = -V exactly;

* three-site scatterer blocks of strength g centered at site c, with
  V[c-1,c] = -g, V[c,c-1] = +g, V[c,c+1] = +g, V[c+1,c] = -g.  The
  paper's two-center model is the two-block case, equal strengths at
  c = +-(N+2); for N = -1 the blocks share the origin.

Every spec reduces to its bond map {bond k: coupling gamma} and its
matching radius; build_potential, build_metric and the numeric solver read
nothing else.  The Hamiltonian is H = -Delta + V with the dimensionless
kinetic part diag = 2, off-diag = -1.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import PositivityError, WindowError
from .lattice import SiteWindow

# bond k means the lattice link between sites k and k+1
BondMap = dict[int, float]

# the largest two-center separation: the numeric route jumps the 2N + 1 sites
# between the blocks with the phase e(2N + 1), exact for 2N + 1 <= 2^53
MAX_N = 2**52 - 1


def _check_coupling(value: float, label: str) -> float:
    v = float(value)
    if not abs(v) < 1.0:
        raise PositivityError(f"{label}={value!r} outside the open interval (-1, 1)")
    return v


@dataclass(frozen=True)
class ChainSpec:
    """Ordered bond couplings (a, b, c, ...) of the antisymmetric chain."""

    couplings: tuple[float, ...]

    def __post_init__(self) -> None:
        cs = tuple(_check_coupling(c, "chain coupling") for c in self.couplings)
        if len(cs) < 1:
            raise PositivityError("chain needs at least one coupling")
        object.__setattr__(self, "couplings", cs)

    def bond_map(self) -> BondMap:
        """Coupling gamma on each bond; bond -1 carries a, bonds 0 and -2 carry b, ..."""
        bonds: BondMap = {}
        for j, c in enumerate(self.couplings, start=1):
            if j == 1:
                bonds[-1] = c
            else:
                bonds[j - 2] = c
                bonds[-j] = c
        return bonds

    @property
    def matching_radius(self) -> int:
        """Smallest m with psi guaranteed free-form on |k| >= m."""
        return len(self.couplings)


@dataclass(frozen=True)
class MultiCenterSpec:
    """Several three-site blocks, one per (center, coupling) pair.

    Centers must be strictly increasing with gaps >= 2: blocks are then
    pairwise disjoint, or share exactly one site as in the merged N = -1
    configuration.  No center lies farther out than the two-center
    model's at N = MAX_N.
    """

    centers: tuple[int, ...]
    couplings: tuple[float, ...]

    def __post_init__(self) -> None:
        centers = tuple(int(c) for c in self.centers)
        gs = tuple(_check_coupling(g, "g") for g in self.couplings)
        if len(centers) == 0:
            raise ValueError("at least one center required")
        if len(centers) != len(gs):
            raise ValueError("centers and couplings must have equal length")
        if max(map(abs, centers)) > MAX_N + 2:
            raise ValueError(f"centers {centers} reach beyond +-{MAX_N + 2}")
        for a, b in zip(centers, centers[1:]):
            if b - a < 2:
                raise ValueError(
                    f"centers {a} and {b} too close; blocks must be disjoint or share one site"
                )
        object.__setattr__(self, "centers", centers)
        object.__setattr__(self, "couplings", gs)

    def bond_map(self) -> BondMap:
        """The block at c puts +g on bond c - 1 and -g on bond c."""
        bonds: BondMap = {}
        for c, g in zip(self.centers, self.couplings):
            bonds[c - 1] = bonds.get(c - 1, 0.0) + g
            bonds[c] = bonds.get(c, 0.0) - g
        return bonds

    @property
    def matching_radius(self) -> int:
        return max(abs(c) for c in self.centers) + 1


@dataclass(frozen=True, init=False, eq=False)
class TwoCenterSpec(MultiCenterSpec):
    """The two-block MultiCenterSpec of the paper: strength g at sites +-(N+2), N >= -1.

    N's range already keeps the two centers apart and inside MultiCenterSpec's
    reach, so the fields are set without its general checks.  g and N are
    read-only attributes beside them, not properties: the closed form and
    the verify grid read them at every angle.  Equality holds only between
    two-center specs.
    """

    def __init__(self, g: float, N: int) -> None:
        g = _check_coupling(g, "g")
        if int(N) != N or not -1 <= N <= MAX_N:
            raise ValueError(f"N={N!r} must be an integer in [-1, {MAX_N}]")
        N = int(N)
        # one update past the frozen __setattr__, which refuses every name here
        self.__dict__.update(centers=(-N - 2, N + 2), couplings=(g, g), g=g, N=N)

    def __repr__(self) -> str:
        return f"TwoCenterSpec(g={self.g!r}, N={self.N!r})"


ScattererSpec = ChainSpec | MultiCenterSpec


@dataclass(frozen=True)
class BandedOperator:
    """Complex tridiagonal operator over a site window.

    diag[i] is the entry at site s_i = i - half_width; upper[i] couples
    (s_i, s_i + 1) and lower[i] couples (s_i + 1, s_i).
    """

    window: SiteWindow
    diag: np.ndarray = field(repr=False)
    upper: np.ndarray = field(repr=False)
    lower: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        n = self.window.n_sites
        diag = np.asarray(self.diag, dtype=np.complex128).copy()
        upper = np.asarray(self.upper, dtype=np.complex128).copy()
        lower = np.asarray(self.lower, dtype=np.complex128).copy()
        if diag.shape != (n,) or upper.shape != (n - 1,) or lower.shape != (n - 1,):
            raise WindowError("band array lengths inconsistent with window size")
        for arr in (diag, upper, lower):
            arr.setflags(write=False)
        object.__setattr__(self, "diag", diag)
        object.__setattr__(self, "upper", upper)
        object.__setattr__(self, "lower", lower)

    def to_dense(self) -> np.ndarray:
        n = self.window.n_sites
        m = np.zeros((n, n), dtype=np.complex128)
        m[np.arange(n), np.arange(n)] = self.diag
        m[np.arange(n - 1), np.arange(1, n)] = self.upper
        m[np.arange(1, n), np.arange(n - 1)] = self.lower
        return m


def build_potential(spec: ScattererSpec, window: SiteWindow) -> BandedOperator:
    """V[k,k+1] = -gamma, V[k+1,k] = +gamma on every bond k of the spec's bond map.

    Requires half_width >= matching_radius + 1, one free site beyond the
    outermost bond on each side.
    """
    if window.half_width < spec.matching_radius + 1:
        raise WindowError(
            f"half_width {window.half_width} too small for matching radius {spec.matching_radius}"
        )
    n = window.n_sites
    upper = np.zeros(n - 1, dtype=np.complex128)
    lower = np.zeros(n - 1, dtype=np.complex128)
    for k, gamma in spec.bond_map().items():
        # bond (k, k+1) sits at the band index of site k
        upper[k + window.half_width] = -gamma
        lower[k + window.half_width] = +gamma
    return BandedOperator(window, diag=np.zeros(n, dtype=np.complex128), upper=upper, lower=lower)


def assemble_hamiltonian(potential: BandedOperator) -> BandedOperator:
    """H = -Delta + V on the potential's window: -Delta adds 2 on the diagonal and -1 off it."""
    return BandedOperator(potential.window, 2.0 + potential.diag, -1.0 + potential.upper, -1.0 + potential.lower)
