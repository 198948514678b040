import csv
import io
import json
import math
from itertools import product

import numpy as np
import pytest

import qhscatter.sweeps as sweeps
from qhscatter import ChainSpec, DomainError, TwoCenterSpec
from qhscatter.cli import main
from qhscatter.sweeps import (
    COLUMNS,
    _chain_label,
    evaluate_point,
    phi_grid,
    render_csv,
    render_json,
    scatterer_specs,
    sweep_records,
)


def small_table(method="both", count=7):
    """The table of g in (0.3, -0.5) and N in (-1, 0, 2) at count angles over [0.2, 2.9]."""
    specs = [TwoCenterSpec(g, n) for g in (0.3, -0.5) for n in (-1, 0, 2)]
    return sweep_records(specs, phi_grid(count, 0.2, 2.9), method)


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

    def test_closed_answers_a_former_guard_angle(self):
        # sin(N phi) = 0 here: the paper's separated-block form would divide by it
        rows = evaluate_point(TwoCenterSpec(0.5, 2), math.pi / 2, "closed")
        assert len(rows) == 1
        assert rows[0]["method"] == "closed"
        assert rows[0]["resonance_flag"] == 0
        assert rows[0]["discrepancy"] is None

    def test_chain_has_no_closed_form(self):
        from qhscatter import ChainSpec

        with pytest.raises(DomainError):
            evaluate_point(ChainSpec((0.5,)), 1.0, "closed")


class TestTables:
    @pytest.mark.parametrize("specs", [[], [TwoCenterSpec(0.5, 0)], [ChainSpec((0.5,))]], ids=["none", "two-center", "chain"])
    def test_unknown_method_rejected_before_any_scatterer(self, specs):
        with pytest.raises(DomainError) as exc:
            sweep_records(specs, phi_grid(3), "bogus")
        assert str(exc.value) == "unknown method 'bogus'"

    def test_one_list_per_column(self):
        table = small_table()
        assert list(table) == list(COLUMNS)
        assert all(isinstance(table[c], list) and len(table[c]) == 2 * 2 * 3 * 7 for c in COLUMNS)

    def test_row_count_and_order(self):
        table = small_table("numeric")
        assert len(table["phi"]) == 2 * 3 * 7
        # couplings outer, N middle, phi inner
        assert table["g"][:21] == [0.3] * 21
        assert table["N"][:7] == [-1] * 7

    def test_csv_reparse_defect_invariant(self):
        text = render_csv(small_table())
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
        table = small_table("numeric", 3)
        parsed = json.loads(render_json(table))
        assert len(parsed) == len(table["phi"])
        assert parsed[0]["re_T"] == table["re_T"][0]
        assert parsed[0]["N"] == -1

    def test_deterministic_rendering(self):
        assert render_csv(small_table()) == render_csv(small_table())

    def test_full_grid_defects(self):
        specs = scatterer_specs("two-center", (-0.9, -0.7, -0.5, -0.3, -0.1, 0.1, 0.3, 0.5, 0.7, 0.9), (-1, 0, 2))
        table = sweep_records(specs, phi_grid(40), "numeric")
        assert len(table["phi"]) == 10 * 3 * 40
        assert max(table["defect"]) <= 1e-11

    def test_chain_records_label_couplings(self):
        table = sweep_records([ChainSpec((0.5, 0.3))], phi_grid(2, 0.5, 1.5), "numeric")
        assert table["g"][0] == "0.5:0.29999999999999999"
        assert table["N"][0] is None


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

    def test_closed_method_at_a_former_guard_angle(self, capsys):
        code = main(
            ["amplitudes", "--g", "0.5", "--N", "2", "--phi", repr(math.pi / 2), "--method", "closed"]
        )
        out = capsys.readouterr().out
        assert code == 0
        fields = dict(tok.split("=") for tok in out.split())
        assert fields["method"] == "closed"
        assert abs(complex(float(fields["re_R"]), float(fields["im_R"]))) <= 1e-15
        assert abs(complex(float(fields["re_T"]), float(fields["im_T"])) - 1.0) <= 1e-15

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


class TestCliMethodDefault:
    """Without --method a two-center scatterer gets closed and numeric rows, any other numeric rows."""

    @pytest.mark.parametrize(
        "flags, methods",
        [(["--g", "0.5", "--N", "3"], ["closed", "numeric"]), (["--model", "chain", "--couplings", "0.5,0.3"], ["numeric"])],
        ids=["two-center", "chain"],
    )
    def test_amplitudes_and_sweep(self, flags, methods, tmp_path, capsys):
        assert main(["amplitudes", *flags, "--phi", "1.0"]) == 0
        out = capsys.readouterr().out
        assert [tok.split("=")[1] for tok in out.split() if tok.startswith("method=")] == methods
        table = tmp_path / "s.csv"
        assert main(["sweep", *flags, "--phi-grid", "3", "--out", str(table)]) == 0
        assert [row["method"] for row in csv.DictReader(io.StringIO(table.read_text()))] == methods * 3


class TestCliVerify:
    def test_each_suite_prints_its_lines_of_the_full_run(self, capsys):
        assert main(["verify"]) == 0
        full = capsys.readouterr().out.splitlines(keepends=True)
        for suite in ("unitarity", "closed-vs-numeric", "metric"):
            assert main(["verify", "--suite", suite]) == 0
            own = [line for line in full if line.startswith(f"suite={suite} ")]
            assert own and capsys.readouterr().out == "".join(own), suite

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

    def test_non_finite_residual_fails_and_names_its_chain(self, capsys):
        # theta overflows on a chain of 1,000 couplings and the residual is NaN
        long_chain = ",".join(["0.5"] * 1000)
        code = main(["verify", "--suite", "metric", "--model", "chain",
                     "--couplings", f"0.5,0.3;{long_chain};0.4"])
        line = capsys.readouterr().out.strip()
        assert code == 1
        assert "max=nan" in line and line.endswith("FAIL")
        assert "worst=[couplings=(0.5, 0.5, 0.5," in line

    def test_long_chain_label_is_abbreviated(self, capsys):
        long_chain = ",".join(["0.5"] * 1000)
        code = main(["verify", "--suite", "metric", "--model", "chain", "--couplings", long_chain])
        line = capsys.readouterr().out.strip()
        assert code == 1
        assert line.endswith("worst=[couplings=(0.5, 0.5, 0.5, 0.5, ...) length=1000] FAIL")
        assert _chain_label((0.1,) * 8) == "couplings=(0.1, 0.1, 0.1, 0.1, 0.1, 0.1, 0.1, 0.1)"
        assert _chain_label((0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9)) == (
            "couplings=(0.1, 0.2, 0.3, 0.4, ...) length=9"
        )

    def test_non_finite_amplitude_fails_both_amplitude_suites(self, capsys, monkeypatch):
        # a NaN in T alone: max(|dR|, |dT|) would drop it, and so would a max taken with >
        closed_form_grid = sweeps.closed_form_grid
        spec = TwoCenterSpec(0.5, 2)
        phi = np.linspace(sweeps.DEFAULT_PHI_MIN, sweeps.DEFAULT_PHI_MAX, 42)[1:-1].tolist()[10]

        def nan_at_one_point(specs, phis):
            R, T = closed_form_grid(specs, phis)
            at = np.logical_and.outer([s == spec for s in specs], phis == phi)
            return R, np.where(at, complex(math.nan, 0.0), T)

        monkeypatch.setattr(sweeps, "closed_form_grid", nan_at_one_point)
        code = main(["verify"])
        lines = capsys.readouterr().out.splitlines()
        assert code == 1
        failed = [line for line in lines if line.endswith("FAIL")]
        at = f"worst=[g=0.5 N=2 phi={phi:.6f}]"
        assert failed == [
            f"suite=unitarity check=closed max=nan tolerance=1.0e-11 {at} FAIL",
            f"suite=closed-vs-numeric check=N>=1 max=nan tolerance=1.0e-10 {at} FAIL",
        ]
        assert len(lines) == 7

    def test_amplitude_suites_evaluate_each_point_once_per_call(self, capsys, monkeypatch):
        # closed holds each point the closed form answers, batches each scatterer solved numerically
        closed, batches = [], []
        closed_grid, numeric_grid = sweeps.closed_form_grid, sweeps.solve_numeric_grid
        monkeypatch.setattr(sweeps, "closed_form_grid", lambda s, p: closed.extend(product(s, p)) or closed_grid(s, p))
        monkeypatch.setattr(sweeps, "solve_numeric_grid", lambda s, p: batches.extend(s) or numeric_grid(s, p))
        assert main(["verify", "--suite", "all"]) == 0
        assert (len(closed), len(batches)) == (3200, 80)
        # nothing is kept from one call to the next
        assert main(["verify", "--suite", "closed-vs-numeric"]) == 0
        assert (len(closed), len(batches)) == (6400, 160)
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 7 + 3 and all(line.endswith("PASS") for line in lines)

    def test_couplings_set_the_chains_without_a_model(self, capsys):
        assert main(["verify", "--suite", "metric", "--couplings", "0.9,0.1"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert main(["verify", "--suite", "metric", "--model", "chain", "--couplings", "0.9,0.1"]) == 0
        assert lines[1:] == capsys.readouterr().out.splitlines()
        assert lines[0].startswith("suite=metric check=two-center") and len(lines) == 2
        # a chain whose residual is not finite fails, where the default chains pass
        long_chain = ",".join(["0.5"] * 1000)
        assert main(["verify", "--suite", "metric", "--couplings", long_chain]) == 1
        assert capsys.readouterr().out.splitlines()[1].endswith("length=1000] FAIL")

    def test_couplings_with_the_two_center_model_rejected(self, capsys):
        assert main(["verify", "--model", "two-center", "--couplings", "0.9"]) == 2
        assert "--couplings" in capsys.readouterr().err

    @pytest.mark.parametrize("suite", ["unitarity", "closed-vs-numeric"])
    @pytest.mark.parametrize("flags", [["--model", "chain"], ["--couplings", "0.5"]])
    def test_chain_flags_with_an_amplitude_suite_rejected(self, suite, flags, capsys):
        assert main(["verify", "--suite", suite, *flags]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith(f"error: --suite {suite} checks the two-center grid")

    @pytest.mark.parametrize("tolerance", ["nan", "-1e-12", "-inf"])
    def test_tolerance_that_is_not_a_bound_rejected(self, tolerance, capsys):
        assert main(["verify", f"--tolerance={tolerance}"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error: --tolerance")

    def test_impossible_tolerance_fails(self, capsys):
        code = main(["verify", "--suite", "unitarity", "--tolerance", "1e-16"])
        out = capsys.readouterr().out
        assert code == 1
        assert "FAIL" in out


class TestCliOneScatterer:
    @pytest.mark.parametrize(
        "argv",
        [
            ["amplitudes", "--g", "0.3,0.5", "--N", "1,7", "--phi", "1.0"],
            ["amplitudes", "--g", "0.3,0.5", "--N", "1", "--phi", "1.0"],
            ["amplitudes", "--g", "0.3", "--N", "1,7", "--phi", "1.0"],
            ["amplitudes", "--model", "chain", "--couplings", "0.5;0.9,0.1", "--phi", "1.0"],
            ["amplitudes", "--model", "multi-center", "--centers", "-4,0,5", "--g", "0.4,0.6",
             "--phi", "0.9"],
            ["probe-continuum", "--g", "0.5,0.9"],
        ],
    )
    def test_more_than_one_scatterer_rejected(self, argv, capsys):
        assert main(argv) == 2
        assert "one scatterer" in capsys.readouterr().err

    def test_missing_separation_rejected(self, capsys):
        assert main(["amplitudes", "--g", "0.3", "--phi", "1.0"]) == 2
        assert "needs g and N" in capsys.readouterr().err


# (model, its own grid flags, a flag it does not read) for every such pair
MODEL_AND_UNREAD_FLAG = [
    ("two-center", ["--g", "0.5", "--N", "1"], ["--couplings", "0.9"]),
    ("two-center", ["--g", "0.5", "--N", "1"], ["--centers", "3,9"]),
    ("chain", ["--couplings", "0.5"], ["--g", "0.9"]),
    ("chain", ["--couplings", "0.5"], ["--N", "4"]),
    ("chain", ["--couplings", "0.5"], ["--centers", "-3,3"]),
    ("multi-center", ["--centers", "-4,5", "--g", "0.4"], ["--couplings", "0.9"]),
    ("multi-center", ["--centers", "-4,5", "--g", "0.4"], ["--N", "2"]),
]


class TestCliGridFlagsTheModelDoesNotRead:
    """amplitudes and sweep refuse a grid flag of another model instead of dropping it."""

    @pytest.mark.parametrize(
        "model, own, unread", MODEL_AND_UNREAD_FLAG, ids=[m + u[0] for m, _, u in MODEL_AND_UNREAD_FLAG]
    )
    @pytest.mark.parametrize("command", ["amplitudes", "sweep"])
    def test_rejected(self, command, model, own, unread, tmp_path, capsys):
        tail = ["--phi", "1.0"] if command == "amplitudes" else ["--out", str(tmp_path / "s.csv")]
        assert main([command, "--model", model, *own, *unread, *tail]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: --model {model} does not read {unread[0]}\n"
        assert not (tmp_path / "s.csv").exists()
        # without the flag the same command answers
        assert main([command, "--model", model, *own, *tail]) == 0

    def test_every_unread_flag_is_named(self, capsys):
        argv = ["amplitudes", "--model", "chain", "--couplings", "0.5", "--g", "0.9", "--N", "4", "--phi", "1.0"]
        assert main(argv) == 2
        assert capsys.readouterr().err == "error: --model chain does not read --g, --N\n"


# an empty token in each kind of list flag
EMPTY_TOKENS = [
    ("--couplings", ["--model", "chain", "--couplings", "0.5,,0.3"]),
    ("--g", ["--g", "0.5,", "--N", "1"]),
    ("--N", ["--g", "0.5", "--N", "1,,2"]),
    ("--couplings", ["--model", "chain", "--couplings", "0.5;;0.3"]),
]


class TestCliEmptyListTokens:
    """An empty token in a comma or semicolon list is a usage error, not dropped."""

    @pytest.mark.parametrize("flag, grid", EMPTY_TOKENS, ids=[" ".join(grid[-2:]) for _, grid in EMPTY_TOKENS])
    @pytest.mark.parametrize("command", ["amplitudes", "sweep"])
    def test_rejected(self, command, flag, grid, tmp_path, capsys):
        tail = ["--phi", "1.0"] if command == "amplitudes" else ["--out", str(tmp_path / "s.csv")]
        assert main([command, *grid, *tail]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"error: argument {flag}: invalid" in captured.err
        assert not (tmp_path / "s.csv").exists()


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

    def test_default_h_list_is_h_start_halved(self, capsys):
        assert main(["probe-continuum", "--g", "0.5"]) == 0
        default = capsys.readouterr().out
        hs = ",".join(repr(0.2 / 2**i) for i in range(7))
        assert main(["probe-continuum", "--g", "0.5", "--h-list", hs]) == 0
        assert capsys.readouterr().out == default
        # ldexp gives the bits of h / 2**i wherever 2**i is a double
        for h in (0.2, 0.3, 1.0, 7.5e-300):
            assert all(math.ldexp(h, -i) == h / 2**i for i in range(1024))

    @pytest.mark.parametrize("halvings", [1100, 10**9, 0, -2000])
    def test_halvings_outside_the_double_range_rejected(self, halvings, capsys):
        assert main(["probe-continuum", "--g", "0.5", f"--halvings={halvings}"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: --halvings {halvings} must be at least 1 and keep h_start / 2**halvings a positive double\n"
        )

    @pytest.mark.parametrize("h_start", ["nan", "-0.2", "0", "inf"])
    def test_h_start_outside_the_open_range_is_named(self, h_start, capsys):
        # --halvings keeps its default and is not blamed; inf halved stays inf
        assert main(["probe-continuum", "--g", "0.5", f"--h-start={h_start}"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: --h-start {float(h_start)!r} must be positive and finite\n"

    def test_probe_to_file(self, tmp_path):
        out = tmp_path / "probe.csv"
        code = main(["probe-continuum", "--g", "0.3", "--halvings", "3", "--out", str(out)])
        assert code == 0
        assert out.read_text().startswith("h,phi")

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--kappa", "nan"], "kappa=nan must be positive"),
            (["--h-list", "0.2,nan,0.1"], "h sequence must be strictly decreasing"),
            (["--h-list", "0.2,0.1,-0.1"], "h=-0.1 must be positive"),
        ],
        ids=["kappa-nan", "h-nan", "h-negative"],
    )
    def test_bad_kappa_or_h_is_named(self, flags, message, capsys):
        # every comparison with NaN is False, so each check must fail on it rather than pass
        assert main(["probe-continuum", "--g", "0.5", *flags]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"
