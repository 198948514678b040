import qhscatter

PUBLIC = [
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
    "build_laplacian",
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


def test_every_exported_name_resolves():
    assert len(set(qhscatter.__all__)) == len(qhscatter.__all__)
    missing = [name for name in qhscatter.__all__ if not hasattr(qhscatter, name)]
    assert missing == []


def test_public_names_are_pinned_and_import():
    assert qhscatter.__all__ == PUBLIC
    namespace = {}
    exec("from qhscatter import *", namespace)
    assert namespace.keys() - {"__builtins__"} == set(PUBLIC)
