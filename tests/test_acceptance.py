"""Acceptance suite: one test per release criterion, one printed line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the pass/fail lines
and the measured maxima.
"""

import math
import time

import numpy as np

from closed_wave import interior_plane_wave_fit
from qhscatter import (
    ChainSpec,
    SiteWindow,
    TwoCenterSpec,
    assemble_hamiltonian,
    build_metric,
    build_potential,
    closed_form,
    continuum_probe,
    numeric_wave,
    quasi_hermiticity_residual,
    solve_numeric,
)
from qhscatter.cli import main
from qhscatter.sweeps import (
    DEFAULT_G_GRID,
    DEFAULT_N_GRID,
    closed_vs_numeric_suite,
    metric_suite,
    suite_scores,
    unitarity_suite,
)
from test_metric import metric_oracle

PHI_SAMPLE = np.linspace(0.3, math.pi - 0.3, 7)


def report(number: int, name: str, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"criterion {number} ({name}): {status} [{detail}]")
    assert ok, f"criterion {number} ({name}) failed: {detail}"


def test_criterion_1_unitarity():
    start = time.perf_counter()
    checks = unitarity_suite(suite_scores(), tolerance=1e-11)
    elapsed = time.perf_counter() - start
    worst = max(c.max_value for c in checks)
    ok = all(c.passed for c in checks) and elapsed < 10.0
    report(1, "unitarity", ok, f"max defect {worst:.2e} <= 1e-11, {elapsed:.2f}s < 10s")


def test_criterion_2_closed_vs_numeric():
    start = time.perf_counter()
    checks = closed_vs_numeric_suite(suite_scores(), tolerance=1e-10)
    elapsed = time.perf_counter() - start
    detail = ", ".join(f"{c.label}: {c.max_value:.2e}" for c in checks)
    ok = all(c.passed for c in checks) and elapsed < 10.0
    report(2, "closed vs numeric oracle", ok, f"{detail} <= 1e-10, {elapsed:.2f}s < 10s")


def test_criterion_3_quasi_hermiticity():
    checks = metric_suite(tolerance_two_center=1e-14, tolerance_chain=1e-13)
    oracle_gap = 0.0
    chain_grid = [
        (0.89,),
        (0.5, 0.3),
        (-0.85, 0.7),
        (0.4, -0.2, 0.6),
        (0.89, -0.89, 0.89, -0.89),
        (0.1, 0.2, 0.3, 0.4),
    ]
    for cs in chain_grid:
        spec = ChainSpec(cs)
        window = SiteWindow(7)  # 15 sites
        h = assemble_hamiltonian(build_potential(spec, window))
        closed = build_metric(spec, window)
        assert quasi_hermiticity_residual(h, closed) <= 1e-13
        oracle = metric_oracle(h.to_dense(), far_left=closed.theta[0])
        scale = np.maximum(np.abs(closed.theta), 1.0)
        oracle_gap = max(oracle_gap, float(np.max(np.abs(oracle - closed.theta) / scale)))
    ok = all(c.passed for c in checks) and oracle_gap <= 1e-12
    detail = (
        ", ".join(f"{c.label}: {c.max_value:.2e}" for c in checks)
        + f", oracle gap {oracle_gap:.2e} <= 1e-12"
    )
    report(3, "quasi-Hermitian metric", ok, detail)


def test_criterion_4_free_model_identity():
    worst = 0.0
    for n in DEFAULT_N_GRID:
        spec = TwoCenterSpec(0.0, n)
        for phi in PHI_SAMPLE:
            amp = solve_numeric(spec, float(phi))
            worst = max(worst, abs(amp.R), abs(abs(amp.T) - 1.0))
            amp_c = closed_form(spec, float(phi))
            worst = max(worst, abs(amp_c.R), abs(abs(amp_c.T) - 1.0))
        window = SiteWindow(n + 5)
        theta = build_metric(spec, window).theta
        worst = max(worst, float(np.max(np.abs(theta - 1.0))))
    free_chain = ChainSpec((0.0, 0.0))
    for phi in PHI_SAMPLE:
        amp = solve_numeric(free_chain, float(phi))
        worst = max(worst, abs(amp.R), abs(abs(amp.T) - 1.0))
    worst = max(
        worst, float(np.max(np.abs(build_metric(free_chain, SiteWindow(5)).theta - 1.0)))
    )
    report(4, "free-model identity", worst <= 1e-13, f"max deviation {worst:.2e} <= 1e-13")


def test_criterion_5_opaque_wall_limit():
    hs = [0.2 / 2**i for i in range(7)]  # six halvings from 0.2
    detail = []
    ok = True
    for g in (0.3, 0.5, 0.9):
        result = continuum_probe(g, 1.0, hs)
        ok = ok and 0.9 <= result.t_exponent <= 1.1 and 0.9 <= result.psi0_exponent <= 1.1
        detail.append(f"g={g}: |T|~h^{result.t_exponent:.3f}, |psi0|~h^{result.psi0_exponent:.3f}")
    report(5, "opaque-wall continuum limit", ok, "; ".join(detail) + " in [0.9, 1.1]")


def test_criterion_6_g_sign_symmetry():
    worst_amp = 0.0
    worst_metric = 0.0
    for g in (0.1, 0.3, 0.5, 0.7, 0.9):
        for n in DEFAULT_N_GRID:
            plus, minus = TwoCenterSpec(g, n), TwoCenterSpec(-g, n)
            for phi in PHI_SAMPLE:
                ap = solve_numeric(plus, float(phi))
                am = solve_numeric(minus, float(phi))
                worst_amp = max(worst_amp, abs(ap.R - am.R), abs(ap.T - am.T))
            window = SiteWindow(n + 5)
            # centre-to-outside ratios: build_metric fixes theta only up to a constant
            mp, mm = build_metric(plus, window), build_metric(minus, window)
            tp = mp.theta_at(n + 2) / mp.theta_at(n + 5)
            tm = mm.theta_at(n + 2) / mm.theta_at(n + 5)
            worst_metric = max(worst_metric, abs(tp * tm - 1.0))
    ok = worst_amp <= 1e-13 and worst_metric <= 1e-13
    report(
        6,
        "g-sign symmetry",
        ok,
        f"amplitude gap {worst_amp:.2e} <= 1e-13, metric reciprocity {worst_metric:.2e}",
    )


def test_criterion_7_interior_free_motion():
    worst = 0.0
    for g in DEFAULT_G_GRID:
        for n in (1, 2, 5, 10, 25, 50):
            for phi in (0.4, 1.2, 2.3):
                _, wave = numeric_wave(TwoCenterSpec(g, n), phi)
                _, _, residual = interior_plane_wave_fit(wave, n, phi)
                worst = max(worst, residual)
    report(7, "interior free motion", worst <= 1e-10, f"max fit residual {worst:.2e} <= 1e-10")


def test_criterion_8_determinism(tmp_path, capsys, monkeypatch):
    sweep_args = ["sweep", "--g", "0.3,-0.7", "--N=-1,0,2", "--phi-grid", "11",
                  "--method", "both", "--out"]
    paths = [tmp_path / f"run{i}.csv" for i in range(3)]
    assert main(sweep_args + [str(paths[0])]) == 0
    assert main(sweep_args + [str(paths[1])]) == 0
    monkeypatch.setenv("THREADS", "4")
    assert main(sweep_args + [str(paths[2])]) == 0
    sweep_ok = (
        paths[0].read_bytes() == paths[1].read_bytes() == paths[2].read_bytes()
    )

    capsys.readouterr()  # drop the sweep progress lines
    assert main(["verify", "--suite", "metric"]) == 0
    first = capsys.readouterr().out
    assert main(["verify", "--suite", "metric"]) == 0
    second = capsys.readouterr().out
    verify_ok = first == second
    report(
        8,
        "determinism",
        sweep_ok and verify_ok,
        "sweep reruns byte-identical (incl. THREADS=4), verify reruns identical",
    )
