import csv
import json
import math
import os
import re
import subprocess
import sys

import pytest

import nsrkit
from nsrkit import analytic_fnsr, quadrature
from nsrkit.cli import main
from nsrkit.operators import MAX_DIM


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_cold(*argv, cwd=None):
    """The CLI in a fresh interpreter, so an uncaught exception shows as rc 1
    plus a traceback on stderr."""
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(nsrkit.__file__)))
    return subprocess.run([sys.executable, "-m", "nsrkit.cli", *argv], env=env,
                          capture_output=True, text=True, cwd=cwd)


def last_json(out: str) -> dict:
    return json.loads(out.strip().splitlines()[-1])


class TestQfiCommand:
    def test_pure_coherent_number(self, capsys):
        code, out, _ = run_cli(capsys, "qfi", "--family", "pure", "--h", "number",
                               "--state", "coherent:1.0")
        assert code == 0
        report = json.loads(out)
        assert report["qfi"] == pytest.approx(4.0, rel=1e-6)
        assert report["pure_form_4var"] == pytest.approx(report["qfi"], rel=1e-9)

    def test_dephasing_beta_zero(self, capsys):
        code, out, _ = run_cli(capsys, "qfi", "--family", "dephasing", "--alpha", "1",
                               "--r", "0", "--beta", "0")
        assert code == 0
        assert json.loads(out)["qfi"] == pytest.approx(4.0, rel=1e-6)

    def test_dephasing_dominates_quadrature(self, capsys):
        code, out, _ = run_cli(capsys, "qfi", "--family", "dephasing", "--alpha", "1",
                               "--r", "0.5", "--beta", "0.3")
        assert code == 0
        report = json.loads(out)
        assert report["qfi"] >= analytic_fnsr(0.5, 1.0, 0.3) - 1e-6
        assert "sld_spectrum" in report

    def test_n_flag_sets_alpha(self, capsys):
        code, out, _ = run_cli(capsys, "qfi", "--family", "dephasing", "--N", "1",
                               "--r", "0", "--beta", "0")
        assert code == 0
        assert json.loads(out)["alpha"] == pytest.approx(1.0, rel=1e-12)

    def test_generator_from_file(self, capsys, tmp_path):
        from nsrkit import number_operator
        dim = 16
        mat = number_operator(dim).matrix
        path = tmp_path / "gen.txt"
        tokens = " ".join(f"{z.real:+.17g}{z.imag:+.17g}j" for z in mat.ravel())
        path.write_text(f"dim {dim}\n{tokens}\n")
        code, out, _ = run_cli(capsys, "qfi", "--family", "pure", "--h", str(path),
                               "--state", "coherent:1.0", "--dim", str(dim))
        assert code == 0
        assert json.loads(out)["qfi"] == pytest.approx(4.0, rel=1e-6)

    @pytest.mark.parametrize("argv", [
        ("--family", "dephasing", "--alpha", "1", "--beta", "0.3"),
        ("--family", "pure", "--state", "coherent:1.0"),
    ], ids=["dephasing", "pure"])
    def test_csv_flattens_sld_spectrum(self, capsys, argv):
        code, out, _ = run_cli(capsys, "qfi", *argv, "--format", "csv")
        assert code == 0
        header, row = csv.reader(out.splitlines())
        cells = dict(zip(header, row))
        for value in cells.values():  # a number or a plain string, no repr
            assert not any(c in value for c in "{}[]'\"")
        assert {"sld_spectrum_min", "sld_spectrum_max", "sld_spectrum_dim"} <= set(cells)
        assert "sld_spectrum" not in cells
        code, out, _ = run_cli(capsys, "qfi", *argv)
        spectrum = json.loads(out)["sld_spectrum"]
        assert float(cells["sld_spectrum_min"]) == spectrum["min"]
        assert float(cells["sld_spectrum_max"]) == spectrum["max"]
        assert int(cells["sld_spectrum_dim"]) == spectrum["dim"]

    def test_state_spec_out_of_range(self, capsys):
        code, _, err = run_cli(capsys, "qfi", "--family", "pure", "--h", "number",
                               "--state", "fock:20", "--dim", "8")
        assert code == 2
        assert err.startswith("error:")


class TestNsrCommand:
    def test_optimal_quadrature(self, capsys):
        code, out, _ = run_cli(capsys, "nsr", "--alpha", "1", "--r", "0.5",
                               "--beta", "0.3")
        assert code == 0
        report = json.loads(out)
        assert report["fisher"] == pytest.approx(2.5162191, abs=2e-4)
        assert report["fisher"] * report["nsr"] ** 2 == pytest.approx(1.0, rel=1e-9)

    def test_zero_slope_calibration(self, capsys):
        # phi_exp = phi_true sits at the extremum of the cosine mean
        code, out, _ = run_cli(capsys, "nsr", "--alpha", "1", "--r", "0", "--beta",
                               "0.3", "--phi-exp", "0.0", "--phi-true", "0.0")
        assert code == 0
        report = json.loads(out)
        assert abs(report["fisher"]) <= 1e-10

    def test_number_observable_blind(self, capsys):
        code, out, _ = run_cli(capsys, "nsr", "--alpha", "1", "--r", "0", "--beta",
                               "0.3", "--observable", "number")
        assert code == 0
        report = json.loads(out)
        assert report["fisher"] == 0.0
        assert report["nsr"] == "inf"

    def test_custom_observable_file(self, capsys, tmp_path):
        dim = 16
        m = quadrature(-math.pi / 2, dim).matrix
        path = tmp_path / "obs.txt"
        tokens = " ".join(f"{z.real:+.17g}{z.imag:+.17g}j" for z in m.ravel())
        path.write_text(f"dim {dim}\n{tokens}\n")
        code, out, _ = run_cli(capsys, "nsr", "--alpha", "1", "--r", "0", "--beta",
                               "0.3", "--dim", str(dim), "--observable", str(path))
        assert code == 0
        assert json.loads(out)["fisher"] == pytest.approx(
            analytic_fnsr(0.0, 1.0, 0.3), rel=1e-4)

    def test_bad_observable_file(self, capsys, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("dim 2\n1 2 3\n")
        code, _, err = run_cli(capsys, "nsr", "--observable", str(path))
        assert code == 2
        assert "error:" in err

    def test_non_hermitian_observable_file(self, capsys, tmp_path):
        path = tmp_path / "nonherm.txt"
        path.write_text("dim 2\n0 1 0 0\n")
        code, _, err = run_cli(capsys, "nsr", "--observable", str(path))
        assert code == 2
        assert err.startswith("error:")

    def test_csv_format(self, capsys):
        code, out, _ = run_cli(capsys, "nsr", "--alpha", "1", "--format", "csv")
        assert code == 0
        rows = list(csv.reader(out.splitlines()))
        assert len(rows) == 2
        assert "fisher" in rows[0]

    @pytest.mark.parametrize("argv", [
        ("--alpha", "40", "--dim", "20000"),
        ("--alpha", "100"),
    ], ids=["alpha-40-dim-20000", "alpha-100-default-dim"])
    def test_probe_underflow_exit_3(self, argv):
        proc = run_cold("nsr", *argv)
        assert proc.returncode == 3
        assert proc.stderr.startswith("error:")
        assert "underflows" in proc.stderr
        assert "Traceback" not in proc.stderr
        assert proc.stdout == ""


class TestFig2Command:
    def test_writes_tables_and_threshold(self, capsys, tmp_path):
        code, out, _ = run_cli(capsys, "fig2", "--out", str(tmp_path),
                               "--grid-two-beta-sq", "0.05:1.0:10",
                               "--grid-N", "0.05:10000:60")
        assert code == 0
        threshold = float(out.split("=")[-1])
        assert abs(threshold - 0.21) <= 0.01
        left = list(csv.DictReader(open(tmp_path / "fig2_left.csv")))
        right = list(csv.DictReader(open(tmp_path / "fig2_right.csv")))
        assert len(left) == 600
        assert len(right) == 10
        assert not [f for f in os.listdir(tmp_path) if f.endswith(".tmp")]
        by_tbs = {float(r["two_beta_sq"]): float(r["max_ratio"]) for r in right}
        assert by_tbs[min(by_tbs)] > 1.0
        assert by_tbs[max(by_tbs)] < 1.0

    def test_row_content_matches_library(self, capsys, tmp_path):
        from nsrkit import c_q, optimal_fnsr
        code, _, _ = run_cli(capsys, "fig2", "--out", str(tmp_path),
                             "--grid-two-beta-sq", "0.1:0.1:1", "--grid-N", "1:1:1")
        assert code == 0
        row = next(csv.DictReader(open(tmp_path / "fig2_left.csv")))
        beta = math.sqrt(0.05)
        expected = optimal_fnsr(1.0, beta) / c_q(1.0, beta)
        assert float(row["ratio"]) == pytest.approx(expected, rel=1e-12)
        assert row["enhanced"] == ("1" if expected >= 1 else "0")

    def test_single_point_log_grid_at_zero(self, capsys, tmp_path):
        # lo > 0 is needed only to space a log grid; one point at 0 is valid
        code, _, _ = run_cli(capsys, "fig2", "--out", str(tmp_path),
                             "--grid-two-beta-sq", "0:0:1", "--grid-N", "1:1:1")
        assert code == 0


class TestMcCommand:
    def test_seed_reproducibility(self, capsys):
        args = ("mc", "--nu", "5000", "--repeats", "10", "--seed", "7")
        code1, out1, _ = run_cli(capsys, *args)
        code2, out2, _ = run_cli(capsys, *args)
        assert code1 == code2 == 0
        assert out1 == out2

    def test_summary_fields(self, capsys):
        code, out, _ = run_cli(capsys, "mc", "--nu", "20000", "--repeats", "60",
                               "--seed", "7")
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 61
        summary = json.loads(lines[-1])
        assert summary["fnsr_analytic"] == pytest.approx(
            analytic_fnsr(0.0, 1.0, 0.3), rel=1e-12)
        assert 0.7 <= summary["nu_var_fnsr"] <= 1.3
        assert summary["small_dm"]["ok"] is True

    def test_adaptive_rounds(self, capsys):
        code, out, _ = run_cli(capsys, "mc", "--adaptive", "--rounds", "4",
                               "--batch", "4000", "--seed", "7")
        assert code == 0
        lines = out.strip().splitlines()
        rounds = [json.loads(l) for l in lines[:-1]]
        summary = json.loads(lines[-1])
        assert [r["round"] for r in rounds] == [0, 1, 2, 3]
        fishers = [summary["initial_fisher"]] + [r["fisher"] for r in rounds]
        f_opt = summary["optimal_fisher"]
        for a, b in zip(fishers, fishers[1:]):
            assert b >= a - 0.02 * f_opt
        assert summary["fisher_fraction"] >= 0.98
        assert [r["clamped"] for r in rounds] == [False] * 4
        assert summary["clamped_count"] == 0

    def test_adaptive_clamp_reported_in_records(self):
        # one draw per round: round 1's mean lies beyond the curve's amplitude
        proc = run_cold("mc", "--dim", "16", "--alpha", "1", "--adaptive", "--rounds", "2",
                        "--batch", "1", "--seed", "2")
        assert proc.returncode == 0
        assert proc.stderr == ""
        records = [json.loads(line) for line in proc.stdout.splitlines()]
        assert [r["clamped"] for r in records[:-1]] == [False, True]
        assert records[-1]["clamped_count"] == 1

    def test_out_file_atomic(self, capsys, tmp_path):
        target = tmp_path / "mc.jsonl"
        code, _, _ = run_cli(capsys, "mc", "--nu", "2000", "--repeats", "5",
                             "--seed", "1", "--out", str(target))
        assert code == 0
        assert target.exists()
        assert not [f for f in os.listdir(tmp_path) if f.endswith(".tmp")]

    def test_unwritable_out_path(self, capsys, tmp_path):
        target = tmp_path / "missing-dir" / "mc.jsonl"
        code, _, err = run_cli(capsys, "mc", "--nu", "2000", "--repeats", "5",
                               "--seed", "1", "--out", str(target))
        assert code == 2
        assert err.startswith("error:")
        assert not target.exists()

    def test_config_error_exit_2(self, capsys):
        code, _, err = run_cli(capsys, "mc", "--beta", "-0.5", "--nu", "100",
                               "--repeats", "3")
        assert code == 2
        assert err.startswith("error:")

    @pytest.mark.parametrize("argv", [
        ("--nu", "0", "--repeats", "5"),
        ("--adaptive", "--rounds", "0"),
    ], ids=["nu-zero", "adaptive-rounds-zero"])
    def test_zero_count_exit_2(self, argv):
        proc = run_cold("mc", *argv)
        assert proc.returncode == 2
        assert proc.stderr.startswith("error:")
        assert "Traceback" not in proc.stderr

    def test_small_dm_threshold_inf_at_optimum(self, capsys):
        code, out, _ = run_cli(capsys, "mc", "--nu", "2000", "--repeats", "3",
                               "--seed", "7")
        assert code == 0
        assert last_json(out)["small_dm"]["threshold"] == "inf"

    def test_numerical_error_exit_3(self, capsys):
        code, _, err = run_cli(capsys, "nsr", "--alpha", "2", "--r", "0.8",
                               "--dim", "8")
        assert code == 3
        assert err.startswith("error:")


class TestScanCommand:
    def test_grid_rows(self, capsys):
        code, out, _ = run_cli(capsys, "scan", "--alpha", "1", "--beta", "0.3",
                               "--grid-r", "0:0.5:3")
        assert code == 0
        rows = list(csv.DictReader(out.splitlines()))
        assert [float(r["r"]) for r in rows] == [0.0, 0.25, 0.5]
        for row in rows:
            expected = analytic_fnsr(float(row["r"]), 1.0, 0.3)
            assert float(row["fnsr"]) == pytest.approx(expected, rel=1e-12)

    def test_numeric_column(self, capsys):
        code, out, _ = run_cli(capsys, "scan", "--alpha", "1", "--beta", "0.3",
                               "--numeric")
        assert code == 0
        row = next(csv.DictReader(out.splitlines()))
        assert float(row["fisher_numeric"]) == pytest.approx(
            float(row["fnsr"]), rel=1e-4)

    def test_scan_resolves_alpha_from_n(self, capsys):
        code, out, _ = run_cli(capsys, "scan", "--N", "1", "--r", "0", "--beta", "0")
        assert code == 0
        row = next(csv.DictReader(out.splitlines()))
        assert float(row["alpha"]) == pytest.approx(1.0, rel=1e-12)
        assert float(row["fnsr"]) == pytest.approx(4.0, rel=1e-12)

    def test_locale_independent_csv(self, capsys):
        code, out, _ = run_cli(capsys, "scan", "--alpha", "1.5", "--beta", "0.25")
        assert code == 0
        assert "," in out.splitlines()[0]
        value = out.splitlines()[1].split(",")[-1]
        float(value)  # dot-decimal, parseable


class TestNonFiniteInputs:
    @pytest.mark.parametrize("argv, name", [
        (("nsr", "--alpha", "inf"), "alpha"),
        (("nsr", "--alpha", "nan"), "alpha"),
        (("nsr", "--r", "nan"), "r"),
        (("scan", "--beta", "nan"), "beta"),
        (("scan", "--alpha", "nan"), "alpha"),
        (("nsr", "--phi-exp", "nan"), "phi_exp"),
        (("nsr", "--phi-exp", "inf"), "phi_exp"),
        (("fig2", "--grid-two-beta-sq", "nan:1:3"), "grid bounds"),
        (("fig2", "--grid-N", "1:inf:3"), "grid bounds"),
        (("scan", "--grid-r", "nan:1:2"), "grid bounds"),
    ], ids=["nsr-alpha-inf", "nsr-alpha-nan", "nsr-r-nan", "scan-beta-nan", "scan-alpha-nan",
            "nsr-phi-exp-nan", "nsr-phi-exp-inf", "fig2-grid-lo-nan", "fig2-grid-hi-inf",
            "scan-grid-lo-nan"])
    def test_exit_2_naming_parameter(self, argv, name):
        proc = run_cold(*argv)
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert f"{name} must be finite" in proc.stderr
        assert proc.stdout == ""

    @pytest.mark.parametrize("argv", [
        ("nsr", "--beta", "1e200", "--dim", "16"),
        ("qfi", "--beta", "1e200", "--dim", "16"),
        ("scan", "--beta", "1e200"),
        ("nsr", "--r", "1e3", "--dim", "16"),
        ("nsr", "--alpha", "1e200", "--dim", "16"),
        ("fig2", "--grid-two-beta-sq", "1e300:1e300:1", "--grid-N", "1:1:1"),
        ("qfi", "--family", "pure", "--x", "inf"),
        ("scan", "--alpha", "1e200", "--beta", "0.3"),
        ("scan", "--alpha", "1e154", "--beta", "0.3"),
        ("fig2", "--grid-two-beta-sq", "0:1:3"),
        ("fig2", "--grid-N=-1:10:3"),
        ("fig2", "--grid-N", "1e308:1.7e308:3", "--grid-two-beta-sq", "0.1:0.2:2"),
        ("nsr", "--r", "20"),
        ("qfi", "--family", "pure", "--state", "gaussian:1:20"),
        ("qfi", "--family", "pure", "--x", "1e308", "--dim", "3"),
    ], ids=["nsr-beta-huge", "qfi-beta-huge", "scan-beta-huge", "nsr-r-huge",
            "nsr-alpha-huge", "fig2-two-beta-sq-huge", "qfi-pure-x-inf",
            "scan-alpha-huge", "scan-alpha-4sq-huge", "fig2-log-grid-lo-zero",
            "fig2-log-grid-lo-negative", "fig2-N-huge", "nsr-r-20", "qfi-pure-r-20",
            "qfi-pure-x-huge"])
    def test_out_of_range_exit_2(self, argv, tmp_path):
        proc = run_cold(*argv, cwd=tmp_path)
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith("error:")
        assert proc.stdout == ""

    @pytest.mark.parametrize("argv, dim", [
        (("nsr", "--alpha", "37.5"), 11258),
        (("mc", "--r", "3"), 4599),
        (("scan", "--numeric", "--grid-alpha", "1:20:2"), 3208),
        (("nsr", "--dim", "5000"), 5000),
        (("qfi", "--family", "pure", "--state", "fock:5000"), 10002),
    ], ids=["nsr-alpha-policy", "mc-r-policy", "scan-grid-policy", "nsr-dim-flag",
            "qfi-pure-fock-default"])
    def test_dim_above_ceiling_exit_2(self, argv, dim):
        proc = run_cold(*argv)
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert f"dim {dim} exceeds the ceiling MAX_DIM = {MAX_DIM}" in proc.stderr
        assert proc.stdout == ""

    def test_observable_file_above_ceiling_exit_2(self, tmp_path):
        path = tmp_path / "big.txt"
        path.write_text(f"dim {MAX_DIM + 1}\n0\n")
        proc = run_cold("nsr", "--observable", str(path))
        assert proc.returncode == 2
        assert f"dim {MAX_DIM + 1} exceeds the ceiling" in proc.stderr


class TestTruncationHint:
    def test_hint_capped_at_ceiling(self, capsys):
        # the policy dim of alpha = 30 is 7208, above the ceiling
        code, out, err = run_cli(capsys, "nsr", "--alpha", "30", "--dim", "16")
        assert code == 3
        assert err.rstrip().endswith(f"try dim >= {MAX_DIM}")
        assert out == ""

    def test_hint_leads_to_a_run(self, capsys):
        _, _, err = run_cli(capsys, "nsr", "--alpha", "30", "--dim", "16")
        hint = re.search(r"try dim >= (\d+)", err).group(1)
        code, out, _ = run_cli(capsys, "nsr", "--alpha", "30", "--dim", hint)
        assert code == 0
        assert json.loads(out)["dim"] == int(hint)

    def test_no_hint_at_ceiling(self, capsys):
        # the policy asks for 8372 levels; 2048 still lose 8.7e-4 of the norm
        code, out, err = run_cli(capsys, "nsr", "--r", "3.3", "--dim", str(MAX_DIM))
        assert code == 3
        assert f"no truncation up to MAX_DIM = {MAX_DIM} holds the probe" in err
        assert "try dim" not in err
        assert out == ""
