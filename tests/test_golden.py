"""Golden-output corpus: each command's stdout, stderr, exit code and files,
run in process through cli.main and compared with tests/golden/corpus.json.

Outputs of the numpy-free routes are compared byte for byte; an output larger
than INLINE_LIMIT is held as its SHA-256. Outputs whose numbers come from
LAPACK or BLAS (eigh, eigvalsh, matrix products) may differ in their last bits
between numpy builds, so each such command lists its floating-point fields
with a tolerance (relative, absolute) fixed before the corpus was generated;
every other number, every key and all the text around the numbers compare
exactly. After a change that moves an output on purpose, regenerate the
corpus with

    PYTHONPATH=src python tests/golden/regenerate.py

and report each moved field with its largest change.
"""

import contextlib
import hashlib
import io
import json
import math
import os
import re
from pathlib import Path

import pytest

from nsrkit.cli import main

CORPUS = Path(__file__).resolve().parent / "golden" / "corpus.json"
INLINE_LIMIT = 8192
MATRIX_FILE = "x0_64.txt"
# A JSON number; masked out where the text around the numbers is compared.
NUMBER = re.compile(r"-?\d+(?:\.\d+)?(?:[eE][+-]?\d+)?")

# The estimates move with X_0's eigenvalues (about 1e-15) through an arccos
# near its steepest point, and the statistics over them follow; the dephasing
# QFI sums over rho0's eigenpairs, and the SLD spectrum's ends hang on its
# near-null eigenvectors, where two correct routes differ by up to 4.1e-6.
_MC = {"estimate": (0.0, 1e-9), "empirical_variance": (1e-9, 0.0),
       "nu_var_fnsr": (1e-9, 0.0)}
_QFI = {"qfi": (1e-10, 0.0), "sld_spectrum.min": (1e-5, 0.0), "sld_spectrum.max": (1e-5, 0.0)}
_ADAPTIVE = {"estimate": (0.0, 1e-9), "final_estimate": (0.0, 1e-9), "fisher": (1e-9, 0.0),
             "final_fisher": (1e-9, 0.0), "fisher_fraction": (1e-9, 0.0)}
_DENSE_NSR = {field: (1e-10, 0.0) for field in ("mean", "variance", "slope", "nsr", "fisher")}
_FILE_QFI = {field: (1e-10, 0.0) for field in ("qfi", "pure_form_4var", "sld_spectrum.min",
                                               "sld_spectrum.max")}

# (name, argv, {field: (rel_tol, abs_tol)}); an empty dict compares bytes.
# The first six are the paper_figures workload's commands at a fixed phase.
COMMANDS = [
    ("fig2", ["fig2", "--out", "fig2"], {}),
    ("scan", ["scan", "--numeric", "--phi-true", "0.2500", "--out", "scan.csv",
              "--grid-alpha", "0.5:2:4", "--grid-r", "0:1:6", "--grid-beta", "0.1:0.4:3"], {}),
    ("qfi_large", ["qfi", "--family", "dephasing", "--alpha", "2", "--r", "1", "--beta", "0.3",
                   "--phi-true", "0.2500", "--out", "qfi_large.json"], _QFI),
    ("qfi_case", ["qfi", "--family", "dephasing", "--alpha", "1", "--beta", "0.3",
                  "--phi-true", "0.7", "--out", "qfi_case.json"], _QFI),
    ("qfi_pure", ["qfi", "--family", "pure", "--state", "coherent:1.250",
                  "--out", "qfi_pure.json"], {}),
    ("nsr", ["nsr", "--alpha", "1", "--r", "0.5", "--beta", "0.3", "--phi-true", "0.2500",
             "--out", "nsr.json"], {}),
    ("mc_case", ["mc", "--alpha", "1", "--beta", "0.3", "--phi-true", "0.7", "--nu", "100000",
                 "--repeats", "5", "--seed", "11"], _MC),
    ("mc_large", ["mc", "--alpha", "2", "--r", "1", "--beta", "0.3", "--nu", "100000",
                  "--repeats", "5", "--seed", "12"], _MC),
    ("mc_adaptive", ["mc", "--adaptive", "--rounds", "3", "--batch", "1000"], _ADAPTIVE),
    ("nsr_csv", ["nsr", "--alpha", "1", "--beta", "0.3", "--format", "csv"], {}),
    ("nsr_number", ["nsr", "--observable", "number", "--alpha", "1", "--beta", "0.3"], {}),
    ("nsr_file", ["nsr", "--observable", MATRIX_FILE, "--alpha", "1", "--beta", "0.3",
                  "--dim", "64", "--phi-true", "0.7"], _DENSE_NSR),
    ("qfi_file", ["qfi", "--family", "pure", "--h", MATRIX_FILE, "--state", "coherent:1"],
     _FILE_QFI),
    ("exit2_dim_ceiling", ["nsr", "--alpha", "1", "--r", "3", "--beta", "0.3"], {}),
    ("exit3_vacuum_underflow", ["nsr", "--N", "10000", "--r", "1.2", "--beta", "0.3"], {}),
]


def write_matrix_file(path: Path) -> None:
    """X_0 = a + a^dag on 64 levels as a matrix FILE, one row a line."""
    dim = 64
    rows = [["0"] * dim for _ in range(dim)]
    for n in range(dim - 1):
        rows[n][n + 1] = rows[n + 1][n] = repr(math.sqrt(n + 1))
    path.write_text(f"dim {dim}\n" + "".join(" ".join(row) + "\n" for row in rows))


def run(argv, workdir: Path) -> dict:
    """One command through cli.main in workdir: its exit code, stderr and
    outputs, stdout first, then each file it wrote under its relative path.
    workdir holds MATRIX_FILE and nothing else."""
    before = set(workdir.rglob("*"))
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(list(argv))
    finally:
        os.chdir(cwd)
    outputs = {"stdout": out.getvalue()}
    for path in sorted(set(workdir.rglob("*")) - before):
        if path.is_file():
            outputs[path.relative_to(workdir).as_posix()] = path.read_bytes().decode()
    return {"exit": code, "stderr": err.getvalue(), "outputs": outputs}


def stored(text: str):
    """What the corpus holds of one output: the text, or its SHA-256 when large."""
    if len(text) <= INLINE_LIMIT:
        return text
    return {"sha256": hashlib.sha256(text.encode()).hexdigest(), "chars": len(text)}


def _records(text: str):
    """A JSON document, or a list of JSON lines."""
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        return [json.loads(line) for line in text.splitlines()]


def _assert_close(got, want, tolerances, path=""):
    if isinstance(want, dict):
        assert sorted(got) == sorted(want), path
        for key in want:
            _assert_close(got[key], want[key], tolerances, f"{path}.{key}".lstrip("."))
    elif isinstance(want, list):
        assert len(got) == len(want), path
        for g, w in zip(got, want):
            _assert_close(g, w, tolerances, path)
    elif isinstance(want, float):
        rel, abs_ = tolerances.get(path, (0.0, 0.0))
        assert type(got) is float and math.isclose(got, want, rel_tol=rel, abs_tol=abs_), \
            (path, got, want)
    else:
        assert type(got) is type(want) and got == want, (path, got, want)


def assert_output_matches(got: str, want, tolerances) -> None:
    if isinstance(want, dict):
        assert stored(got) == want
    elif not tolerances or got == want:
        assert got == want
    else:
        assert NUMBER.sub("#", got) == NUMBER.sub("#", want)
        _assert_close(_records(got), _records(want), tolerances)


def test_corpus_lists_every_command():
    names = [name for name, *_ in COMMANDS]
    corpus = json.loads(CORPUS.read_text())
    assert list(corpus) == names
    assert all(corpus[name]["argv"] == argv for name, argv, _ in COMMANDS)


@pytest.mark.parametrize("name, argv, tolerances", COMMANDS, ids=[c[0] for c in COMMANDS])
def test_command_output_matches_corpus(tmp_path, name, argv, tolerances):
    want = json.loads(CORPUS.read_text())[name]
    write_matrix_file(tmp_path / MATRIX_FILE)
    got = run(argv, tmp_path)
    assert (got["exit"], got["stderr"]) == (want["exit"], want["stderr"])
    assert list(got["outputs"]) == list(want["outputs"])
    for key, text in got["outputs"].items():
        assert_output_matches(text, want["outputs"][key], tolerances)
