import ast
import csv
import importlib
import inspect
import io
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

import nsrkit
from nsrkit import (
    GaussianProbeSpec,
    analytic_fnsr,
    assess_observable,
    dephasing_family,
    gaussian_probe,
    number_operator,
    optimal_calibration,
    quadrature,
)
from nsrkit import cli, errors
from nsrkit.cli import main
from nsrkit.operators import Operator
from nsrkit.scalar import (
    DEFAULT_N_GRID,
    DEFAULT_TWO_BETA_SQ_GRID,
    MAX_DIM,
    _enhancement_ratio,
    _number_moments,
)

from conftest import dephasing_covariant_sld, fock_dephasing_spec


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


def coherent_number_four_var() -> float:
    """4 Var(n) as `qfi --family pure --state coherent:1.0` reads it: from the
    two sums of _number_moments."""
    psi = gaussian_probe(GaussianProbeSpec.with_default_dim(1.0, 0.0))
    return 4.0 * _number_moments(psi.amplitudes)[1]


def number_file(path, dim: int, scale: float = 1.0) -> str:
    """The number operator on dim levels, times scale, as a matrix FILE of
    re+imj entries, written a row at a time: at dim 2048 it holds no d x d
    array or list of d^2 strings."""
    zero = "+0+0j"
    with open(path, "w") as fh:
        fh.write(f"dim {dim}\n")
        for n in range(dim):
            row = [zero] * n + [f"{scale * n:+.17g}+0j"] + [zero] * (dim - 1 - n)
            fh.write(" ".join(row) + "\n")
    return str(path)


@pytest.fixture
def eig_calls(monkeypatch):
    """The (name, dtype) of each numpy eigh and eigvalsh call, in order."""
    calls = []
    for name in ("eigh", "eigvalsh"):
        original = getattr(np.linalg, name)

        def recorded(a, *args, _original=original, _name=name, **kwargs):
            calls.append((_name, np.asarray(a).dtype))
            return _original(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, recorded)
    return calls


class TestQfiCommand:
    def test_pure_coherent_number(self, capsys):
        code, out, _ = run_cli(capsys, "qfi", "--family", "pure", "--h", "number",
                               "--state", "coherent:1.0")
        assert code == 0
        report = json.loads(out)
        assert report["qfi"] == pytest.approx(4.0, rel=1e-6)
        assert report["pure_form_4var"] == report["qfi"]

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

    def test_generator_from_file(self, capsys, tmp_path, eig_calls):
        path = number_file(tmp_path / "gen.txt", 16)
        code, out, _ = run_cli(capsys, "qfi", "--family", "pure", "--h", path,
                               "--state", "coherent:1.0", "--dim", "16")
        assert code == 0
        report = json.loads(out)
        assert report["qfi"] == pytest.approx(4.0, rel=1e-6)
        # 4 Var(h) from one product h c: no eigensolver, and the spectrum +-sqrt(qfi)
        assert report["qfi"] == report["pure_form_4var"]
        assert report["sld_spectrum"]["max"] == math.sqrt(report["qfi"])
        assert eig_calls == []

    def test_generator_file_radius_near_overflow(self, capsys, tmp_path, eig_calls):
        # x ||n||_F overflows at x = 1e307 (||n||_F = sqrt(1240) on 16 levels), so the
        # radius is the exact largest |eigenvalue|, 15, from one eigvalsh: 1.5e308
        # is finite and the command runs; at x = 2e307, 3e308 is not
        path = number_file(tmp_path / "gen.txt", 16)
        argv = ("qfi", "--family", "pure", "--h", path, "--state", "coherent:1")
        code, out, _ = run_cli(capsys, *argv, "--x", "1e307")
        assert code == 0
        report = json.loads(out)
        assert report["qfi"] == report["pure_form_4var"] == pytest.approx(4.0, rel=1e-6)
        assert report["x"] == 1e307
        assert [name for name, _ in eig_calls] == ["eigvalsh"]
        code, out, err = run_cli(capsys, *argv, "--x", "2e307")
        assert (code, out, err) == (2, "", "error: phase x h is not finite at x=2e+307\n")

    @pytest.mark.parametrize("scale", ["1e160", "1e200"])
    def test_overflowing_generator_file_exit_2(self, tmp_path, scale):
        # |h c|^2 and <c|h c>^2 overflow to inf, and inf - inf is nan
        path = number_file(tmp_path / "big.txt", 16, float(scale))
        proc = run_cold("qfi", "--family", "pure", "--h", path, "--state", "coherent:1.0")
        assert proc.returncode == 2, proc.stdout
        assert proc.stderr.startswith("error: an input is out of range: 4 Var(h) is not finite")
        assert "Warning" not in proc.stderr
        assert proc.stdout == ""

    def test_number_generator_ignores_file_named_number(self, capsys, tmp_path, monkeypatch):
        (tmp_path / "number").write_text("dim 2\n1 0 0 -1\n")
        monkeypatch.chdir(tmp_path)
        code, out, _ = run_cli(capsys, "qfi", "--family", "pure", "--state", "coherent:1")
        assert code == 0
        report = json.loads(out)
        assert report["generator"] == "number"
        assert report["dim"] == 16

    @pytest.mark.parametrize("argv, route_qfi", [
        (("--family", "dephasing", "--alpha", "1", "--beta", "0.3"),
         lambda: dephasing_covariant_sld(fock_dephasing_spec(1.0, 0.0, 0.3))[0]),
        (("--family", "pure", "--state", "coherent:1.0"), coherent_number_four_var),
    ], ids=["dephasing", "pure"])
    def test_csv_flattens_sld_spectrum(self, capsys, argv, route_qfi):
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
        # the route cmd_qfi takes, bit for bit; TestCovariantSld and
        # TestCovariantSldPureOrbit hold it to the dense solve on each family
        assert json.loads(out)["qfi"] == route_qfi()

    @pytest.mark.parametrize("argv", [
        ("--family", "dephasing", "--alpha", "1", "--beta", "0.3"),
        ("--family", "dephasing", "--alpha", "2", "--r", "1", "--beta", "0.3",
         "--phi-true", "0.7"),
        ("--family", "dephasing", "--alpha", "0", "--beta", "0.3"),  # the vacuum: a zero SLD
        ("--family", "pure", "--state", "coherent:1", "--x", "0.7"),
        ("--family", "pure", "--state", "vacuum"),
    ], ids=["case", "large", "vacuum", "pure", "pure-vacuum"])
    def test_dephasing_route_is_real(self, capsys, monkeypatch, eig_calls, argv):
        # the dephasing family: one real eigh of rho(0) and one real eigvalsh
        # of A^T A; the pure family: the closed form 4 Var(n), no eigensolver.
        # Neither builds a family or solves for the generator's eigenbasis.
        # cli imports dephasing_family from nsrkit.dephasing where it calls it
        families = []
        for module, name in ((nsrkit.dephasing, "dephasing_family"),
                             (nsrkit.estimation, "pure_unitary_family")):
            monkeypatch.setattr(module, name, lambda *args: families.append(args))
        code, out, err = run_cli(capsys, "qfi", *argv)
        assert (code, err) == (0, "")
        assert families == []
        solves = [("eigh", np.float64), ("eigvalsh", np.float64)]
        assert eig_calls == (solves if "dephasing" in argv else [])
        spectrum = json.loads(out)["sld_spectrum"]
        assert spectrum["min"] == -spectrum["max"]
        assert '"min": -0.0' not in out

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

    @pytest.mark.parametrize("phi_true", ["1e15", "3e15"])
    def test_default_angle_exact_at_large_phi_true(self, capsys, phi_true):
        # phi_true - pi/2 rounds to the spacing of doubles there (0.125 at
        # 1e15); the optimal offset -pi/2 does not depend on phi_true
        argv = ("nsr", "--alpha", "1", "--beta", "0.3")
        near = json.loads(run_cli(capsys, *argv)[1])
        code, out, _ = run_cli(capsys, *argv, "--phi-true", phi_true)
        assert code == 0
        far = json.loads(out)
        assert far["fisher"] == pytest.approx(near["fisher"], rel=1e-12)
        assert far["phi_exp"] == optimal_calibration(float(phi_true))
        argv = ("scan", "--numeric", "--alpha", "1", "--beta", "0.3")
        near = run_cli(capsys, *argv)[1].splitlines()[1].split(",")
        far = run_cli(capsys, *argv, "--phi-true", phi_true)[1].splitlines()[1].split(",")
        assert float(far[-1]) == pytest.approx(float(near[-1]), rel=1e-12)

    @pytest.mark.parametrize("argv, dense", [
        (("nsr", "--alpha", "1", "--r", "0.5", "--beta", "0.3"), False),
        (("nsr", "--phi-exp", "0.2", "--beta", "0.3"), False),
        (("scan", "--numeric", "--grid-r", "0:1:3", "--beta", "0.3"), False),
        (("nsr", "--observable", "number", "--beta", "0.3"), False),
    ], ids=["nsr-quadrature", "nsr-phi-exp", "scan-numeric", "nsr-number"])
    def test_quadrature_builds_no_matrix(self, capsys, monkeypatch, argv, dense):
        # the quadrature's and the number operator's statistics come from the
        # probe's sums: no Operator (DensityMatrix included, adopted or not:
        # each is checked by _hold) and no family; cli imports
        # dephasing_family from nsrkit.dephasing where it calls it
        built = {"operators": 0, "families": 0}
        hold, family = Operator._hold, nsrkit.dephasing.dephasing_family

        def counted_hold(*args):  # (cls or self, m), or (m) through super()
            built["operators"] += 1
            return hold(args[-1])

        def counted_family(spec):
            built["families"] += 1
            return family(spec)

        monkeypatch.setattr(Operator, "_hold", counted_hold)
        monkeypatch.setattr(nsrkit.dephasing, "dephasing_family", counted_family)
        assert run_cli(capsys, *argv)[0] == 0
        assert (built["operators"] > 0, built["families"]) == (dense, int(dense))

    @pytest.mark.parametrize("alpha, r", [(1.0, 0.0), (1.0, 0.5), (2.0, 1.0), (1.0, 1.5)],
                             ids=["dim16", "dim45", "dim134", "dim281"])
    def test_number_matches_dense(self, capsys, alpha, r):
        # the number operator's two sums against the dense assess_observable;
        # tolerance fixed before the first run: mean and variance 1e-13
        # relative. n commutes with the phase, so both slopes are exactly 0
        code, out, err = run_cli(capsys, "nsr", "--observable", "number", "--alpha", str(alpha),
                                 "--r", str(r), "--beta", "0.3", "--phi-true", "0.7")
        assert (code, err) == (0, "")
        report = json.loads(out)
        spec = fock_dephasing_spec(alpha, r, 0.3)
        want = assess_observable(dephasing_family(spec), 0.7, number_operator(spec.dim))
        assert report["dim"] == spec.dim
        assert report["mean"] == pytest.approx(want.mean, rel=1e-13)
        assert report["variance"] == pytest.approx(want.variance, rel=1e-13)
        assert report["slope"] == want.slope == 0.0
        assert report["fisher"] == want.fisher == 0.0

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

    def test_observable_file_tokens_across_chunks(self):
        # a token cut by a chunk's end is joined to its rest, at every chunk size
        text = "dim 2\n 1+0j\t0.5-2e-3j\r\n\n0.5+2e-3j  -7 \n"
        for size in range(1, len(text) + 2):
            chunks = list(cli._token_chunks(io.StringIO(text), size))
            assert [t for chunk in chunks for t in chunk] == text.split(), size

    @pytest.mark.parametrize("text, message", [
        ("dim 2\n1 2 3\n", "expected 4 entries, found 3"),
        ("dim 2\n1 x 3\n", "expected 4 entries, found 3"),  # the count before the entry
        ("dim 2\n1 2 2 3 4\n", "expected 4 entries, found 5"),
        ("dim 2\n1 x x 3\n", "complex() arg is a malformed string"),
        ("dim\n", "expected header 'dim <n>'"),
        ("size 2\n1 0 0 1\n", "expected header 'dim <n>'"),
    ], ids=["short", "short-malformed", "long", "malformed", "no-dim", "no-header"])
    def test_observable_file_errors(self, capsys, tmp_path, text, message):
        path = tmp_path / "bad.txt"
        path.write_text(text)
        code, out, err = run_cli(capsys, "nsr", "--observable", str(path))
        assert (code, out) == (2, "")
        assert err.startswith("error:") and message in err, err

    def test_observable_file_streams(self, tmp_path):
        # the tokens pass in chunks into one n*n array, which the Operator
        # adopts: the peak is that array, a chunk's tokens and the row blocks
        # of the Hermiticity check, 1.49x the matrix at dim 512 on Python 3.11
        # (2.40x with a copy, 8x for the file's d^2 tokens); the bound leaves
        # 0.11x (0.45 MiB) for other versions' string and list sizes
        path = number_file(tmp_path / "n512.txt", 512)
        tracemalloc.start()
        try:
            op = cli.load_observable(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(op.matrix, np.diag(np.arange(512.0)))
        assert peak <= 1.6 * op.matrix.nbytes, peak / op.matrix.nbytes

    @pytest.mark.parametrize("argv", [("nsr", "--observable"), ("qfi", "--family", "pure", "--h")],
                             ids=["nsr", "qfi-pure"])
    def test_negative_dim_observable_file(self, capsys, tmp_path, argv):
        path = tmp_path / "neg.txt"
        path.write_text("dim -2\n1 2 3 4\n")
        code, out, err = run_cli(capsys, *argv, str(path))
        assert (code, out) == (2, "")
        assert err == f"error: {path}: header 'dim -2' must name a dim >= 1\n"

    def test_non_hermitian_observable_file(self, capsys, tmp_path):
        path = tmp_path / "nonherm.txt"
        path.write_text("dim 2\n0 1 0 0\n")
        code, _, err = run_cli(capsys, "nsr", "--observable", str(path))
        assert code == 2
        assert err.startswith("error:")

    @pytest.mark.parametrize("argv", [
        ("nsr", "--alpha", "1", "--beta", "0.3", "--dim", "16", "--observable"),
        ("qfi", "--family", "pure", "--state", "coherent:1", "--dim", "16", "--h"),
    ], ids=["nsr-observable", "qfi-pure-h"])
    @pytest.mark.parametrize("bad", ["nan", "inf"])
    def test_non_finite_matrix_file(self, tmp_path, argv, bad):
        # the number operator on 16 levels with a symmetric pair of bad entries
        dim = 16
        entries = [str(j) if j == k else "0" for j in range(dim) for k in range(dim)]
        entries[1] = entries[dim] = bad
        path = tmp_path / "nonfinite.txt"
        path.write_text(f"dim {dim}\n{' '.join(entries)}\n")
        proc = run_cold(*argv, str(path))
        assert proc.returncode == 2
        assert proc.stderr.startswith("error:")
        assert "non-finite" in proc.stderr
        assert "RuntimeWarning" not in proc.stderr
        assert proc.stdout == ""

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

    @pytest.mark.parametrize("argv, grid_t, grid_n", [
        ((), DEFAULT_TWO_BETA_SQ_GRID, DEFAULT_N_GRID),
        (("--grid-two-beta-sq", "1e-320:700:4", "--grid-N", "1e-300:50:5"),
         cli._parse_grid("1e-320:700:4", log=True), cli._parse_grid("1e-300:50:5", log=True)),
    ], ids=["default", "edges"])
    def test_left_table_is_csv_text(self, capsys, tmp_path, argv, grid_t, grid_n):
        # every cell the scalar route's ratio to the bit, and each row's first
        # maximum, in the bytes csv.writer gives
        code, _, _ = run_cli(capsys, "fig2", "--out", str(tmp_path), *argv)
        assert code == 0
        table = [[_enhancement_ratio(n, math.sqrt(t / 2.0)) for n in grid_n] for t in grid_t]
        rows = [(t, n, ratio, int(ratio >= 1.0))
                for t, row in zip(grid_t, table) for n, ratio in zip(grid_n, row)]
        best = [(t, row[j], grid_n[j])
                for t, row, j in zip(grid_t, table, np.argmax(table, axis=1).tolist())]
        for name, header, want in (
            ("fig2_left.csv", ["two_beta_sq", "N", "ratio", "enhanced"], rows),
            ("fig2_right.csv", ["two_beta_sq", "max_ratio", "argmax_N"], best),
        ):
            with open(tmp_path / name, newline="") as fh:
                assert fh.read() == cli._csv_text(header, want), name
        assert len(rows) == len(grid_t) * len(grid_n)

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

    @pytest.mark.parametrize("mode", [("--nu", "10000", "--repeats", "20"),
                                      ("--adaptive", "--rounds", "3", "--batch", "50")],
                             ids=["trials", "adaptive"])
    def test_phi_true_beyond_its_spacing_exit_2(self, capsys, mode):
        # doubles near 1e15 are 0.125 apart, far above 1/100 of one estimate's sd
        argv = ("mc", "--alpha", "1", "--beta", "0.3", *mode)
        code, out, err = run_cli(capsys, *argv, "--phi-true", "1e15")
        assert code == 2
        assert out == ""
        assert err.startswith("error: phi_true 1000000000000000.0 ")
        assert "spacing of doubles there, 0.125," in err
        code, out, _ = run_cli(capsys, *argv, "--phi-true", "1e6")
        assert code == 0
        assert last_json(out)["clamped_count"] == 0

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


class TestPhaseCovariance:
    """What the physics makes phase-independent is so at the command line,
    exactly, at any --phi-true the CLI accepts: 2^20 is one whose domain ends
    round outward, and doubles near 1e15 are 0.125 apart. nsr and
    scan --numeric read the probe's sums at the offset from phi_true, and
    qfi solves the SLD at the reference phase 0, so no value may move."""

    PHASES = ["0", "0.7", "-2.5", "1e6", str(2**20), "1e15"]
    PROBE = ("--alpha", "1", "--r", "0.5", "--beta", "0.3")

    def outputs(self, capsys, phi_true):
        values = {}
        code, out, err = run_cli(capsys, "nsr", *self.PROBE, "--phi-true", phi_true)
        assert (code, err) == (0, "")
        report = json.loads(out)
        values["fisher"], values["nsr"] = report["fisher"], report["nsr"]
        code, out, err = run_cli(capsys, "qfi", *self.PROBE, "--phi-true", phi_true)
        assert (code, err) == (0, "")
        report = json.loads(out)
        values["qfi"] = report["qfi"]
        values["sld_min"] = report["sld_spectrum"]["min"]
        values["sld_max"] = report["sld_spectrum"]["max"]
        code, out, err = run_cli(capsys, "scan", "--numeric", "--alpha", "1", "--beta", "0.3",
                                 "--grid-r", "0:1:3", "--phi-true", phi_true)
        assert (code, err) == (0, "")
        for row in csv.DictReader(out.splitlines()):
            values[f"fisher_numeric_r{row['r']}"] = float(row["fisher_numeric"])
        return values

    def test_outputs_agree_across_phases(self, capsys):
        reference = self.outputs(capsys, "0")
        for phi_true in self.PHASES[1:]:
            values = self.outputs(capsys, phi_true)
            assert values == reference, phi_true

    def test_pure_qfi_agrees_across_x(self, capsys):
        # the pure family is solved once for its whole orbit: --x is echoed
        reports = []
        for x in ("0", "0.7", "1e6"):
            code, out, err = run_cli(capsys, "qfi", "--family", "pure", "--state", "coherent:1",
                                     "--x", x)
            assert (code, err) == (0, "")
            report = json.loads(out)
            assert report.pop("x") == float(x)
            reports.append(report)
        assert reports[1] == reports[0]
        assert reports[2] == reports[0]

    def mc_rows(self, capsys, *argv):
        code, out, err = run_cli(capsys, "mc", *argv)
        assert (code, err) == (0, "")
        *rows, summary = (json.loads(line) for line in out.splitlines())
        return rows, summary

    def test_mc_agrees_across_phases(self, capsys):
        # mc draws from the probe at the offset from phi_true, so each estimate
        # is phi_true plus the phase-0 estimate, up to the spacing of doubles
        # near phi_true: measured at most 1 ulp(phi_true), bounded at 2 ulp
        argv = ("--nu", "10000", "--repeats", "20", "--seed", "3")
        reference, summary0 = self.mc_rows(capsys, *argv, "--phi-true", "0")
        for phi_true in ("0.7", "-2.5", "2.5", "1e6"):
            rows, summary = self.mc_rows(capsys, *argv, "--phi-true", phi_true)
            phi, ulp = float(phi_true), math.ulp(float(phi_true))
            for row, ref in zip(rows, reference, strict=True):
                assert abs((row["estimate"] - phi) - ref["estimate"]) <= 2 * ulp, phi_true
                assert row["clamped"] == ref["clamped"]
            for key in ("clamped_count", "predicted_variance", "small_dm"):
                assert summary[key] == summary0[key], (phi_true, key)

    def test_mc_adaptive_agrees_across_phases(self, capsys):
        # each round re-aims at the last estimate, which carries phi_true's
        # rounding into the next quadrature: measured at most 5 ulp(phi_true)
        # in the estimates and 7.5e-12 relative in the round Fisher values (at
        # 1e6); the bounds leave a factor 2. optimal_fisher reads no estimate.
        argv = ("--adaptive", "--rounds", "3", "--batch", "1000", "--seed", "3")
        reference, summary0 = self.mc_rows(capsys, *argv, "--phi-true", "0")
        for phi_true in ("0.7", "-2.5", "1e6"):
            rows, summary = self.mc_rows(capsys, *argv, "--phi-true", phi_true)
            phi, ulp = float(phi_true), math.ulp(float(phi_true))
            for row, ref in zip(rows, reference, strict=True):
                assert abs((row["estimate"] - phi) - ref["estimate"]) <= 10 * ulp, phi_true
                assert row["fisher"] == pytest.approx(ref["fisher"], rel=1.5e-11, abs=0.0)
                assert row["clamped"] == ref["clamped"]
            assert summary["optimal_fisher"] == summary0["optimal_fisher"]


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

    # finite bounds whose span overflows are rejected before numpy's linspace
    # sees them, which would warn (an error under this suite) and make NaN points
    @pytest.mark.parametrize("flag, grid", [
        ("--grid-alpha", "-1e308:1e308:3"),
        ("--grid-r", "-1e308:1e308:2"),
    ], ids=["alpha", "r"])
    def test_grid_span_overflow_exit_2(self, capsys, flag, grid):
        code, out, err = run_cli(capsys, "scan", f"{flag}={grid}")
        assert (code, out) == (2, "")
        assert err == f"error: grid span hi - lo overflows in '{grid}'\n"

    # the domain phi_true +- pi rounds to a bad interval at these values; the
    # message shows the interval, as the user never set a domain
    @pytest.mark.parametrize("value, message", [
        ("nan", "phi_domain (nan, nan) must be a nonempty interval"),
        ("inf", "phi_domain (inf, inf) must be a nonempty interval"),
        ("1e300", "phi_domain (1e+300, 1e+300) must be a nonempty interval"),
    ], ids=["nan", "inf", "1e300"])
    def test_phi_true_bad_domain_exit_2(self, capsys, value, message):
        code, out, err = run_cli(capsys, "nsr", "--phi-true", value)
        assert code == 2
        assert err == f"error: {message}\n"
        assert out == ""

    # phi_true +- pi rounds each end by up to its spacing of doubles: 2^20's
    # ends round outward, and at 1e16 (doubles 2 apart) the domain is
    # (1e16 - 4, 1e16 + 4); the width check allows that rounding, and mc's
    # spacing guard still rejects a phase it cannot resolve
    @pytest.mark.parametrize("value", [str(2**20), "1e16"])
    def test_phi_true_rounded_domain_accepted(self, capsys, value):
        code, out, err = run_cli(capsys, "nsr", "--phi-true", value)
        assert (code, err) == (0, "")
        assert json.loads(out)["phi_true"] == float(value)
        code, out, err = run_cli(capsys, "mc", "--phi-true", value, "--nu", "10000",
                                 "--repeats", "2")
        assert code == (2 if value == "1e16" else 0)
        assert ("spacing of doubles" in err) == (value == "1e16")

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
        ("nsr", "--alpha", "1", "--dim", "0"),
        ("qfi", "--dim", "0"),
        ("qfi", "--family", "pure", "--dim", "0"),
        ("qfi", "--family", "pure", "--state", "coherent:1", "--dim", "0"),
        ("mc", "--dim", "0"),
        ("scan", "--numeric", "--dim", "0"),
        ("fig2", "--grid-N", "1:2:1000000000000"),
        ("scan", "--grid-alpha", "0:1:1000000000000"),
        ("mc", "--repeats", "1000000000000", "--nu", "10"),
        ("mc", "--adaptive", "--rounds", "1000000000000", "--batch", "10"),
    ], ids=["nsr-beta-huge", "qfi-beta-huge", "scan-beta-huge", "nsr-r-huge",
            "nsr-alpha-huge", "fig2-two-beta-sq-huge", "qfi-pure-x-inf",
            "scan-alpha-huge", "scan-alpha-4sq-huge", "fig2-log-grid-lo-zero",
            "fig2-log-grid-lo-negative", "fig2-N-huge", "nsr-r-20", "qfi-pure-r-20",
            "qfi-pure-x-huge", "nsr-dim-0", "qfi-dim-0", "qfi-pure-dim-0",
            "qfi-pure-coherent-dim-0", "mc-dim-0", "scan-numeric-dim-0",
            "fig2-grid-count-huge", "scan-grid-count-huge", "mc-repeats-huge",
            "mc-rounds-huge"])
    def test_out_of_range_exit_2(self, argv, tmp_path):
        proc = run_cold(*argv, cwd=tmp_path)
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith("error:")
        assert proc.stdout == ""

    # dim None: the policy finds no truncation up to MAX_DIM that holds the
    # probe, and the message names no dim above it
    @pytest.mark.parametrize("argv, dim", [
        (("nsr", "--alpha", "5", "--r", "2.7"), None),
        (("mc", "--r", "3"), None),
        (("scan", "--numeric", "--grid-r", "0:3:2"), None),
        (("nsr", "--dim", "5000"), 5000),
        (("qfi", "--family", "pure", "--state", "fock:5000"), 10002),
    ], ids=["nsr-alpha-policy", "mc-r-policy", "scan-grid-policy", "nsr-dim-flag",
            "qfi-pure-fock-default"])
    def test_dim_above_ceiling_exit_2(self, argv, dim):
        proc = run_cold(*argv)
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        if dim is None:
            assert f"no truncation up to the ceiling MAX_DIM = {MAX_DIM}" in proc.stderr
            assert max(map(int, re.findall(r"\d+", proc.stderr))) == MAX_DIM
        else:
            assert f"dim {dim} exceeds the ceiling MAX_DIM = {MAX_DIM}" in proc.stderr
        assert proc.stdout == ""

    def test_observable_file_above_ceiling_exit_2(self, tmp_path):
        path = tmp_path / "big.txt"
        path.write_text(f"dim {MAX_DIM + 1}\n0\n")
        proc = run_cold("nsr", "--observable", str(path))
        assert proc.returncode == 2
        assert f"dim {MAX_DIM + 1} exceeds the ceiling" in proc.stderr


class TestErrorContract:
    def test_every_runtime_error_is_numerical(self):
        defined = [obj for obj in vars(errors).values() if isinstance(obj, type)
                   and issubclass(obj, RuntimeError) and obj.__module__ == errors.__name__]
        assert len(defined) > 1  # the base and the errors derived from it
        assert all(issubclass(cls, errors.NumericalError) for cls in defined)

    def test_cli_imports_only_the_base_errors(self):
        imported = {name for name, obj in vars(cli).items() if isinstance(obj, type)
                    and obj.__module__ == errors.__name__}
        assert imported == {"ContractViolationError", "NumericalError"}

    def test_any_numerical_error_exits_3(self, capsys, monkeypatch):
        class NewNumericalError(errors.NumericalError):
            pass

        def fail(args):
            raise NewNumericalError("no trustworthy number")

        monkeypatch.setattr(cli, "cmd_nsr", fail)
        assert run_cli(capsys, "nsr") == (3, "", "error: no trustworthy number\n")


# Top-level modules that importing nsrkit.cli and every name of nsrkit adds
# to a bare interpreter's, less the standard library's; site's own imports
# are already in the bare set. nsrkit loads its numpy modules on first use,
# so the star import loads them all.
NEW_MODULES = """
import sys
bare = set(sys.modules)
import nsrkit.cli
from nsrkit import *
added = {name.partition(".")[0] for name in set(sys.modules) - bare}
print(" ".join(sorted(added - set(sys.stdlib_module_names))))
"""


def test_numpy_is_the_only_runtime_dependency():
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(nsrkit.__file__)))
    proc = subprocess.run([sys.executable, "-c", NEW_MODULES], env=env,
                          capture_output=True, text=True, check=True)
    assert set(proc.stdout.split()) == {"nsrkit", "numpy"}


# Runs each argv of the JSON list argv[1] through main in one interpreter and
# prints [exit code, whether numpy is loaded] after each.
NUMPY_FREE_CHILD = """
import contextlib, io, json, sys
from nsrkit.cli import main
results = []
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    results.append([code, "numpy" in sys.modules, "dataclasses" in sys.modules])
print(json.dumps(results))
"""


def run_child(code: str, *args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(nsrkit.__file__)))
    return subprocess.run([sys.executable, "-c", code, *args], env=env,
                          capture_output=True, text=True)


def test_o_d_routes_import_no_numpy(tmp_path):
    # nsr (quadrature and number), scan, fig2 and qfi --family pure --h number
    # run on nsrkit.scalar, their error exits included, and load neither numpy
    # nor dataclasses (whose import pulls in inspect, ast and dis)
    runs = [
        (("fig2", "--out", str(tmp_path / "fig2")), 0),
        (("fig2", "--out", str(tmp_path / "fig2-grids"), "--grid-two-beta-sq", "0.05:1.0:10",
          "--grid-N", "0.05:10000:60"), 0),
        (("fig2", "--out", str(tmp_path / "fig2-huge"), "--grid-N", "1e308:1.7e308:3"), 2),
        (("fig2", "--out", str(tmp_path / "fig2-zero"), "--grid-two-beta-sq", "0:1:3"), 2),
        (("nsr", "--alpha", "1", "--r", "0.5", "--beta", "0.3", "--phi-true", "0.3",
          "--out", str(tmp_path / "nsr.json")), 0),
        (("nsr", "--observable", "number", "--alpha", "1", "--beta", "0.3", "--dim", "2048"), 0),
        (("nsr", "--phi-exp", "0.2", "--beta", "0.3", "--format", "csv"), 0),
        (("scan", "--alpha", "1", "--beta", "0.3", "--grid-r", "0:0.8:5"), 0),
        (("scan", "--numeric", "--grid-alpha", "0.5:2:4", "--grid-r", "0:1:6",
          "--grid-beta", "0.1:0.4:3", "--phi-true", "0.3"), 0),
        (("qfi", "--family", "pure", "--state", "coherent:1"), 0),
        (("qfi", "--family", "pure", "--h", "number", "--state", "gaussian:1:0.5",
          "--x", "0.7"), 0),
        (("qfi", "--family", "pure", "--state", "fock:3", "--format", "csv"), 0),
        (("nsr", "--alpha", "nan"), 2),
        (("nsr", "--dim", "3000"), 2),
        (("qfi", "--family", "pure", "--state", "fock:2", "--dim", "3000"), 2),
        (("scan", "--grid-r=-1e308:1e308:2"), 2),
        (("qfi", "--family", "pure", "--h", str(tmp_path / "missing")), 2),
        (("qfi", "--family", "dephasing", "--x", "1"), 2),
        (("nsr", "--N", "10000", "--r", "1.2", "--beta", "0.3"), 3),  # vacuum underflow
        (("nsr", "--alpha", "30", "--dim", "16"), 3),  # truncation
    ]
    proc = run_child(NUMPY_FREE_CHILD, json.dumps([argv for argv, _ in runs]))
    assert proc.returncode == 0, proc.stderr
    results = json.loads(proc.stdout)
    for (argv, code), (got, numpy_loaded, dataclasses_loaded) in zip(runs, results):
        assert (got, numpy_loaded, dataclasses_loaded) == (code, False, False), argv
    assert json.loads((tmp_path / "nsr.json").read_text())["command"] == "nsr"
    assert len((tmp_path / "fig2" / "fig2_left.csv").read_text().splitlines()) == 12001


@pytest.mark.parametrize("module", ["operators", "estimation", "dephasing", "montecarlo"])
def test_scalar_names_imported_only_where_used(module):
    # each name of nsrkit.scalar has one home: a numpy module imports from it
    # only the names it uses, but for the two that perfbench/traced.py wraps
    # where nsrkit.dephasing holds them
    tree = ast.parse(inspect.getsource(importlib.import_module(f"nsrkit.{module}")))
    imported = {alias.asname or alias.name for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module == "scalar"
                for alias in node.names}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    traced = {"analytic_fnsr", "enhancement_threshold"} if module == "dephasing" else set()
    assert imported and imported - used == traced


LAZY_IMPORT_CHILD = """
import json, sys
import nsrkit
report = {"after_import": "numpy" in sys.modules, "dataclasses": "dataclasses" in sys.modules}
report["dir_has_all"] = set(nsrkit.__all__) <= set(dir(nsrkit))
report["after_dir"] = "numpy" in sys.modules
psi = nsrkit.gaussian_probe(nsrkit.GaussianProbeSpec(1.0, 0.5, 45))
report["probe_dim"] = psi.dim
report["module_attribute"] = nsrkit.dephasing.quadrature is nsrkit.quadrature
names = {}
exec("from nsrkit import *", names)
report["star_has_all"] = set(nsrkit.__all__) <= set(names)
print(json.dumps(report))
"""


def test_import_nsrkit_is_lazy():
    # import nsrkit loads errors and scalar only, and no dataclasses; a
    # numpy-backed name loads its module on first access, and the star import
    # loads them all
    proc = run_child(LAZY_IMPORT_CHILD)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {
        "after_import": False, "dataclasses": False, "dir_has_all": True, "after_dir": False,
        "probe_dim": 45, "module_attribute": True, "star_has_all": True,
    }
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        nsrkit.no_such_name


@pytest.mark.parametrize("spec", [
    "0:1:1", "0.3:0.3:1", "0:1:2", "-3:-1:5", "-2.5:7.25:9", "0:0.8:17", "0.1:0.4:3",
    "0.5:2:4", "0:1:6", "-0:1:3", "-1e300:1e300:7", "1:1:5", "0:5e-324:4", "-5e-324:0:3",
])
def test_linear_grid_is_linspace_bit_for_bit(spec):
    lo, hi, count = float(spec.split(":")[0]), float(spec.split(":")[1]), int(spec.split(":")[2])
    want = np.linspace(lo, hi, count)
    assert np.array(cli._parse_grid(spec), dtype=float).tobytes() == want.tobytes()
    if spec.endswith("e-324:4") or spec.startswith("-5e-324"):
        assert (hi - lo) / (count - 1) == 0.0  # linspace's branch for a step that underflows


@pytest.mark.parametrize("spec", [
    "0.01:1.0:60", "0.05:10000:200", "0.05:1.0:10", "0.05:10000:60", "1e-320:700:4",
    "1e-300:50:5", "0.3:7:2", "2:2:5", "1e-300:1e300:101", "1e308:1.7e308:3",
    "1:1.7976931348623157e308:9", "1.5e308:1.7976931348623157e308:50",
])
def test_log_grid_is_geomspace_with_exact_ends(spec):
    # one numpy-free rule: 10 ** y at linspace's exponents, both ends pinned
    lo, hi, count = float(spec.split(":")[0]), float(spec.split(":")[1]), int(spec.split(":")[2])
    grid = cli._parse_grid(spec, log=True)
    assert len(grid) == count and (grid[0], grid[-1]) == (lo, hi)
    assert all(type(x) is float for x in grid)
    assert grid == sorted(grid)
    with np.errstate(over="ignore"):  # numpy forms its last point before pinning it
        want = np.geomspace(lo, hi, count)
    assert np.max(np.abs(np.array(grid) - want) / want) <= 1e-14


def test_log_grid_defaults_and_single_points():
    assert DEFAULT_TWO_BETA_SQ_GRID == tuple(cli._parse_grid("0.01:1:60", log=True))
    assert DEFAULT_N_GRID == tuple(cli._parse_grid("0.05:1e4:200", log=True))
    # one point is lo itself, also at 0, where no log is taken
    assert cli._parse_grid("0:0:1", log=True) == [0.0]
    assert cli._parse_grid("0.5:3:1", log=True) == [0.5]
    with pytest.raises(ValueError, match="needs lo > 0"):
        cli._parse_grid("0:1:2", log=True)


@pytest.mark.parametrize("flag, value", [
    ("--state", "coherent:1"), ("--h", "number"), ("--x", "0"),
])
def test_dephasing_qfi_rejects_pure_flags(flag, value):
    # the dephasing family takes none of the pure family's flags, even set
    # to their values under --family pure
    proc = run_cold("qfi", "--family", "dephasing", "--alpha", "1", "--beta", "0.3", flag, value)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == f"error: {flag} applies to --family pure only\n"


# Runs a command with the address space capped CAP_MB above what the
# interpreter holds once nsrkit.cli is imported, so the cap does not depend
# on how much numpy needs at import. nsrkit.cli loads no numpy: a dense
# route's baseline imports it first, as the route does, and a numpy-free
# route's baseline holds none, and the run fails if the route loads it.
CAPPED_CHILD = """
import os, resource, sys
from nsrkit.cli import main
cap_mb, baseline, argv = int(sys.argv[1]), sys.argv[2], sys.argv[3:]
if baseline == "numpy":
    import numpy
with open("/proc/self/statm") as fh:
    limit = int(fh.read().split()[0]) * os.sysconf("SC_PAGE_SIZE") + cap_mb * 2**20
hard = resource.getrlimit(resource.RLIMIT_AS)[1]
if hard != resource.RLIM_INFINITY:
    limit = min(limit, hard)
resource.setrlimit(resource.RLIMIT_AS, (limit, hard))
code = main(argv)
if baseline == "no-numpy" and "numpy" in sys.modules:
    print("numpy was imported", file=sys.stderr)
    code = 1
sys.exit(code)
"""
QFI_2048 = ("qfi", "--dim", "2048", "--alpha", "1")
PURE_QFI_1024 = ("qfi", "--family", "pure", "--state", "coherent:1", "--dim", "1024")
NUMBER_NSR_2048 = ("nsr", "--observable", "number", "--alpha", "1", "--beta", "0.3",
                   "--dim", "2048")
ADAPTIVE_MC_1699 = ("mc", "--adaptive", "--r", "2.5", "--alpha", "1", "--dim", "1699",
                    "--rounds", "3", "--batch", "50")


def run_capped(cap_mb: int, argv, baseline: str = "numpy") -> subprocess.CompletedProcess:
    """argv under a cap of cap_mb above a baseline with numpy imported, or,
    with baseline "no-numpy", above one without it."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.path.dirname(os.path.dirname(nsrkit.__file__)))
    return subprocess.run([sys.executable, "-c", CAPPED_CHILD, str(cap_mb), baseline, *argv],
                          env=env, capture_output=True, text=True)


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/statm")
def test_out_of_memory_exit_2(tmp_path):
    # qfi --dim 2048 needs about 145 MB above import at its peak, the dim-1699
    # adaptive mc about 145 MB. Most of these caps stop them in a LAPACK
    # workspace, whose MemoryError carries no text: the message then names
    # the command and its --dim. The two dense FILE routes stream the file
    # into one 64 MiB matrix at dim 2048, which the Operator adopts without a
    # copy; the pure QFI then needs about 100 MB, so a 60 MB cap stops it at
    # the stream's array; nsr's dense family needs more.
    path = number_file(tmp_path / "n2048.txt", 2048)
    nsr_file = ("nsr", "--observable", path, "--alpha", "1", "--beta", "0.3", "--dim", "2048")
    qfi_file = ("qfi", "--family", "pure", "--h", path, "--state", "coherent:1", "--dim", "2048")
    for cap_mb, argv in ((100, QFI_2048), (150, QFI_2048), (100, ADAPTIVE_MC_1699),
                         (150, nsr_file), (60, qfi_file)):
        proc = run_capped(cap_mb, argv)
        assert proc.returncode == 2, (cap_mb, argv)
        assert proc.stderr.startswith("error: out of memory")
        assert proc.stderr.removeprefix("error: out of memory:").strip(), (cap_mb, argv)
        assert "Traceback" not in proc.stderr
        assert proc.stdout == ""


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/statm")
def test_pure_qfi_of_a_dim_2048_file_runs_in_200_mb(tmp_path):
    # the Operator checks Hermiticity in row blocks, with no d x d temporary;
    # with three of them it needed more than 200 MB
    path = number_file(tmp_path / "n2048.txt", 2048)
    proc = run_capped(200, ("qfi", "--family", "pure", "--h", path, "--dim", "2048"))
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["dim"] == 2048


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/statm")
def test_qfi_at_dim_2048_runs_in_250_mb():
    # each d x d array of the dephasing solve is dropped after its last use,
    # so the eigh of rho0 is the peak: it runs from a 200 MB cap on
    proc = run_capped(250, QFI_2048)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["dim"] == 2048


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/statm")
@pytest.mark.parametrize("cap_mb, argv", [(5, PURE_QFI_1024), (50, NUMBER_NSR_2048)],
                         ids=["qfi-pure-1024", "nsr-number-2048"])
def test_no_dense_generator_runs_capped(cap_mb, argv):
    # the pure QFI 4 Var(n) from two sums runs at dim 1024 even at a 0 MB
    # cap, where one real eigh of rho0 needed about 82 MB and the dense
    # complex family 186 MB; 5 MB is below one 8 MiB float64 d x d array. The
    # number operator's two sums need a few MB at dim 2048, where its dense
    # family and m @ m needed 544 MB. Neither imports numpy
    proc = run_capped(cap_mb, argv, baseline="no-numpy")
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["dim"] == int(argv[-1])


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/statm")
def test_adaptive_mc_at_dim_1699_runs_in_200_mb():
    # X_0's real eigenbasis and the probe's Re rho(x): no dense complex family
    proc = run_capped(200, ADAPTIVE_MC_1699)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1])["command"] == "mc-adaptive"


class TestTruncationHint:
    def test_hint_capped_at_ceiling(self, capsys):
        # no dim up to MAX_DIM meets TAIL_TARGET; MAX_DIM holds it within LEAKAGE_TOL
        code, out, err = run_cli(capsys, "nsr", "--alpha", "0", "--r", "2.7", "--dim", "100")
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
        # 2048 levels still lose 8.7e-4 of the norm, so the policy is above the ceiling
        code, out, err = run_cli(capsys, "nsr", "--r", "3.3", "--dim", str(MAX_DIM))
        assert code == 3
        assert f"no truncation up to MAX_DIM = {MAX_DIM} holds the probe" in err
        assert "try dim" not in err
        assert out == ""
