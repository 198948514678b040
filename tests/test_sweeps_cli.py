import csv
import io
import json
import math
import platform
import resource

import pytest

from qhscatter import DomainError, TwoCenterSpec, sweeps
from qhscatter.cli import main
from qhscatter.sweeps import (
    SweepConfig,
    evaluate_point,
    phi_grid,
    render_csv,
    render_json,
    sweep_records,
)


def small_config(**overrides):
    base = dict(
        model="two-center",
        couplings=(0.3, -0.5),
        n_values=(-1, 0, 2),
        phi_count=7,
        phi_min=0.2,
        phi_max=2.9,
        method="both",
        fmt="csv",
    )
    base.update(overrides)
    return SweepConfig(**base)


class TestGrids:
    def test_default_margin(self):
        grid = phi_grid(5)
        assert grid[0] == pytest.approx(1e-3)
        assert grid[-1] == pytest.approx(math.pi - 1e-3)

    def test_empty_grid_rejected(self):
        with pytest.raises(DomainError):
            phi_grid(0)

    @pytest.mark.parametrize("lo,hi", [(0.0, 1.0), (1.0, math.pi), (-0.1, 1.0), (2.0, 1.0)])
    def test_bad_bounds_rejected(self, lo, hi):
        with pytest.raises(DomainError):
            phi_grid(5, lo, hi)


class TestEvaluatePoint:
    def test_both_produces_paired_rows(self):
        rows = evaluate_point(TwoCenterSpec(0.5, 0), 1.0, "both")
        assert [r["method"] for r in rows] == ["closed", "numeric"]
        assert rows[0]["discrepancy"] == rows[1]["discrepancy"] is not None
        assert rows[0]["discrepancy"] <= 1e-12

    def test_closed_falls_back_at_resonance(self):
        rows = evaluate_point(TwoCenterSpec(0.5, 2), math.pi / 2, "closed")
        assert len(rows) == 1
        assert rows[0]["method"] == "numeric"
        assert rows[0]["resonance_flag"] == 1

    def test_chain_has_no_closed_form(self):
        from qhscatter import ChainSpec

        with pytest.raises(DomainError):
            evaluate_point(ChainSpec((0.5,)), 1.0, "closed")


class TestTables:
    def test_row_count_and_order(self):
        records = sweep_records(small_config(method="numeric"))
        assert len(records) == 2 * 3 * 7
        # couplings outer, N middle, phi inner
        assert [r["g"] for r in records[:21]] == [0.3] * 21
        assert [r["N"] for r in records[:7]] == [-1] * 7

    def test_csv_reparse_defect_invariant(self):
        text = render_csv(sweep_records(small_config()))
        reader = csv.DictReader(io.StringIO(text))
        n_rows = 0
        for row in reader:
            recomputed = abs(
                float(row["re_R"]) ** 2
                + float(row["im_R"]) ** 2
                + float(row["re_T"]) ** 2
                + float(row["im_T"]) ** 2
                - 1.0
            )
            assert abs(recomputed - float(row["defect"])) <= 1e-15
            n_rows += 1
        assert n_rows == 2 * 2 * 3 * 7

    def test_json_round_trip(self):
        records = sweep_records(small_config(method="numeric", phi_count=3))
        parsed = json.loads(render_json(records))
        assert len(parsed) == len(records)
        assert parsed[0]["re_T"] == records[0]["re_T"]
        assert parsed[0]["N"] == -1

    def test_deterministic_rendering(self):
        config = small_config()
        assert render_csv(sweep_records(config)) == render_csv(sweep_records(config))

    def test_parallel_evaluation_identical(self, monkeypatch):
        config = small_config(phi_count=4)
        serial = render_csv(sweep_records(config))
        monkeypatch.setenv("THREADS", "3")
        assert render_csv(sweep_records(config)) == serial

    @pytest.mark.parametrize(
        ("raw", "cpus", "expected"),
        [("100000", 8, 8), ("3", 8, 3), ("0", 8, 1), ("many", 8, 1), ("4", None, 1)],
    )
    def test_thread_count_capped_at_cpu_count(self, monkeypatch, raw, cpus, expected):
        # only the count is computed: no pool is started with these values
        monkeypatch.setenv("THREADS", raw)
        monkeypatch.setattr(sweeps.os, "cpu_count", lambda: cpus)
        assert sweeps._thread_count() == expected

    def test_full_grid_defects(self):
        config = SweepConfig(
            model="two-center",
            couplings=(-0.9, -0.7, -0.5, -0.3, -0.1, 0.1, 0.3, 0.5, 0.7, 0.9),
            n_values=(-1, 0, 2),
            phi_count=40,
            method="numeric",
        )
        records = sweep_records(config)
        assert len(records) == 10 * 3 * 40
        assert max(r["defect"] for r in records) <= 1e-11

    def test_chain_records_label_couplings(self):
        config = SweepConfig(
            model="chain",
            couplings=((0.5, 0.3),),
            n_values=(),
            phi_count=2,
            phi_min=0.5,
            phi_max=1.5,
            method="numeric",
        )
        records = sweep_records(config)
        assert records[0]["g"] == "0.5:0.29999999999999999"
        assert records[0]["N"] is None


class TestCliAmplitudes:
    def test_transparent_point(self, capsys):
        code = main(["amplitudes", "--model", "two-center", "--g", "0", "--N", "3", "--phi", "1.0"])
        out = capsys.readouterr().out
        assert code == 0
        assert "re_T=1" in out
        assert "method=closed" in out and "method=numeric" in out
        assert "max_discrepancy=" in out

    def test_both_methods_agree(self, capsys):
        code = main(
            ["amplitudes", "--g", "0.5", "--N", "-1", "--phi", "1.0471975512", "--method", "both"]
        )
        out = capsys.readouterr().out
        assert code == 0
        gap = float(out.strip().splitlines()[-1].split("=")[1])
        assert gap <= 1e-10

    def test_coupling_out_of_range(self, capsys):
        code = main(["amplitudes", "--g", "1.2", "--N", "0", "--phi", "1.0"])
        assert code == 2
        assert "(-1, 1)" in capsys.readouterr().err

    def test_resonant_closed_method(self, capsys):
        code = main(
            ["amplitudes", "--g", "0.5", "--N", "2", "--phi", repr(math.pi / 2), "--method", "closed"]
        )
        assert code == 3
        assert "numeric" in capsys.readouterr().err

    def test_chain_closed_rejected(self, capsys):
        code = main(
            ["amplitudes", "--model", "chain", "--couplings", "0.5", "--phi", "1.0", "--method", "closed"]
        )
        assert code == 2

    def test_chain_numeric(self, capsys):
        code = main(["amplitudes", "--model", "chain", "--couplings", "0.5,0.3", "--phi", "1.0"])
        assert code == 0
        assert "method=numeric" in capsys.readouterr().out

    def test_multi_center(self, capsys):
        code = main(
            ["amplitudes", "--model", "multi-center", "--centers", "-4,0,5", "--g", "0.4", "--phi", "0.9"]
        )
        assert code == 0


class TestCliSweep:
    def test_writes_csv(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        code = main(
            ["sweep", "--g", "0.3,-0.5", "--N", "-1,0,2", "--phi-grid", "5:0.2:2.9",
             "--method", "numeric", "--out", str(out)]
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("g,N,phi,re_R")
        assert len(lines) == 1 + 2 * 3 * 5

    def test_byte_identical_reruns(self, tmp_path):
        args = ["sweep", "--g", "0.3", "--N", "0,1", "--phi-grid", "4", "--out"]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(args + [str(a)]) == 0
        assert main(args + [str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="tunes glibc's malloc only")
    def test_large_sweep_reuses_freed_heap(self, tmp_path):
        # a rerun at N = 8000 takes its arrays from the heap the first run freed
        # instead of faulting fresh pages in (about 2,600 faults without that)
        args = ["sweep", "--g", "0.3", "--N", "8000", "--phi-grid", "4", "--method", "numeric",
                "--out", str(tmp_path / "long.csv")]
        assert main(args) == 0
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        assert main(args) == 0
        assert resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before < 200

    def test_json_format(self, tmp_path):
        out = tmp_path / "sweep.json"
        code = main(
            ["sweep", "--g", "0.3", "--N", "0", "--phi-grid", "3", "--format", "json",
             "--method", "both", "--out", str(out)]
        )
        assert code == 0
        rows = json.loads(out.read_text())
        assert len(rows) == 6
        assert {r["method"] for r in rows} == {"closed", "numeric"}

    def test_empty_phi_grid(self, tmp_path, capsys):
        code = main(["sweep", "--g", "0.3", "--N", "0", "--phi-grid", "0",
                     "--out", str(tmp_path / "x.csv")])
        assert code == 2

    def test_unwritable_path(self, capsys):
        code = main(["sweep", "--g", "0.3", "--N", "0", "--phi-grid", "3",
                     "--out", "/nonexistent-dir/x.csv"])
        assert code == 4

    def test_missing_out(self, capsys):
        code = main(["sweep", "--g", "0.3", "--N", "0", "--phi-grid", "3"])
        assert code == 2


class TestCliVerify:
    def test_default_run_passes(self, capsys):
        code = main(["verify"])
        out = capsys.readouterr().out
        assert code == 0
        for suite in ("metric", "unitarity", "closed-vs-numeric"):
            assert f"suite={suite}" in out
        assert "FAIL" not in out

    def test_restricted_chain_metric(self, capsys):
        code = main(["verify", "--suite", "metric", "--model", "chain", "--couplings", "0.5,0.3"])
        out = capsys.readouterr().out
        assert code == 0
        assert "suite=metric" in out and "PASS" in out

    def test_impossible_tolerance_fails(self, capsys):
        code = main(["verify", "--suite", "unitarity", "--tolerance", "1e-16"])
        out = capsys.readouterr().out
        assert code == 1
        assert "FAIL" in out


class TestCliProbe:
    def test_free_model_rejected(self, capsys):
        code = main(["probe-continuum", "--g", "0"])
        assert code == 2
        assert "wall" in capsys.readouterr().err

    def test_probe_table_and_exponents(self, capsys):
        code = main(["probe-continuum", "--g", "0.5", "--kappa", "1.0",
                     "--h-start", "0.2", "--halvings", "4"])
        out = capsys.readouterr().out
        assert code == 0
        assert out.splitlines()[0] == "h,phi,abs_T,abs_R,abs_psi0"
        exps = dict(
            line[2:].split("=") for line in out.splitlines() if line.startswith("# ")
        )
        assert 0.9 <= float(exps["t_exponent"]) <= 1.1
        assert 0.9 <= float(exps["psi0_exponent"]) <= 1.1

    def test_probe_to_file(self, tmp_path):
        out = tmp_path / "probe.csv"
        code = main(["probe-continuum", "--g", "0.3", "--halvings", "3", "--out", str(out)])
        assert code == 0
        assert out.read_text().startswith("h,phi")
