"""Lattice scattering for quasi-Hermitian point interactions.

Non-Hermitian banded potentials on the 1D discrete Schroedinger lattice,
their positive diagonal metrics, and reflection/transmission amplitudes by
both direct matching solves and closed forms, with unitarity and metric
compatibility checked numerically.
"""

from .errors import (
    BandError,
    DomainError,
    PositivityError,
    QhScatterError,
    ResonanceError,
    WindowError,
)
from .lattice import (
    SiteWindow,
    WaveSample,
    as_angle,
    energy_from_phi,
    phi_from_energy,
)
from .metric import (
    DiagonalMetric,
    asymmetry_ratio,
    build_metric,
    positivity_check,
    quasi_hermiticity_residual,
)
from .potentials import (
    BandedOperator,
    ChainSpec,
    MultiCenterSpec,
    TwoCenterSpec,
    assemble_hamiltonian,
    build_potential,
)
from .scattering import (
    Amplitudes,
    ContinuumProbeResult,
    MatchingSystem,
    build_matching_system,
    closed_form,
    closed_form_grid,
    continuum_probe,
    matching_row_residual,
    numeric_wave,
    solve_numeric,
    solve_numeric_grid,
)
from .sweeps import sweep_records, write_table

__version__ = "0.1.0"

__all__ = [
    "Amplitudes",
    "BandError",
    "BandedOperator",
    "ChainSpec",
    "ContinuumProbeResult",
    "DiagonalMetric",
    "DomainError",
    "MatchingSystem",
    "MultiCenterSpec",
    "PositivityError",
    "QhScatterError",
    "ResonanceError",
    "SiteWindow",
    "TwoCenterSpec",
    "WaveSample",
    "WindowError",
    "as_angle",
    "asymmetry_ratio",
    "assemble_hamiltonian",
    "build_matching_system",
    "build_metric",
    "build_potential",
    "closed_form",
    "closed_form_grid",
    "continuum_probe",
    "energy_from_phi",
    "matching_row_residual",
    "numeric_wave",
    "phi_from_energy",
    "positivity_check",
    "quasi_hermiticity_residual",
    "solve_numeric",
    "solve_numeric_grid",
    "sweep_records",
    "write_table",
]
