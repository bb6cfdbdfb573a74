#!/usr/bin/env python3
"""Mutation check of the numerics: each mutant must fail its tests.

Run from the repository root:

    python tests/mutation_check.py

Each entry of MUTANTS names a file under src/, an exact piece of its text, the
text that replaces it and the tests that must catch the change. For each
entry the script copies src/ to a temporary directory, applies the one
replacement (the old text must occur exactly once, so a refactor that moves a
formula fails the script rather than skipping the entry) and runs the tests
with `pytest -x -q` against the copy. The unmutated copy must pass every
selection first. A mutant whose tests pass has survived, and the script
exits 1. Only the standard library is used; pytest runs in a subprocess.
The name does not match test_*, so the tier-1 suite does not collect it.
"""

import os
import shutil
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# (file under src/, old text, new text, pytest selection)
MUTANTS = [
    ("nsrkit/estimation.py",
     "x *= 2.0",
     "x *= 1.0",
     ["tests/test_estimation.py"]),
    ("nsrkit/scalar.py",
     "-math.expm1(-4.0 * b2)",
     "-math.expm1(-1.1 * 4.0 * b2)",
     ["tests/test_invariants.py"]),
    ("nsrkit/dephasing.py",
     "np.exp(-(beta**2) * _delta_n",
     "np.exp(-1.01 * (beta**2) * _delta_n",
     ["tests/test_invariants.py"]),
    ("nsrkit/operators.py",
     "ph = np.exp(-1j * phi * np.arange(self.dim))",
     "ph = np.exp(1j * phi * np.arange(self.dim))",
     ["tests/test_operators.py", "tests/test_dephasing.py"]),
    ("nsrkit/montecarlo.py",
     "math.pi / 2.0 + (phi_true - phase)",
     "math.pi / 2.0 + (phase - phi_true)",
     ["tests/test_montecarlo.py"]),
    ("nsrkit/scalar.py",
     "TAIL_TARGET = 1e-12",
     "TAIL_TARGET = 1e-11",
     ["tests/test_operators.py", "tests/test_estimation.py"]),
    ("nsrkit/scalar.py",
     "if dim >= 16 and leakage <= TAIL_TARGET:",
     "if leakage <= TAIL_TARGET:",
     ["tests/test_operators.py"]),
    ("nsrkit/scalar.py",
     "if leakage > LEAKAGE_TOL:\n        raise InvalidDimensionError(",
     "if True:\n        raise InvalidDimensionError(",
     ["tests/test_operators.py"]),
    # the ends of DEFAULT_N_GRID's range, moved to its neighbouring points
    ("nsrkit/scalar.py",
     "math.log(1e4)",
     "math.log(9.4e3)",
     ["tests/test_dephasing.py"]),
    ("nsrkit/scalar.py",
     "math.log(0.05)",
     "math.log(23.0)",
     ["tests/test_dephasing.py"]),
    ("nsrkit/montecarlo.py",
     "phase - math.pi / 2.0",
     "phase + math.pi / 2.0",
     ["tests/test_montecarlo.py"]),
    ("nsrkit/montecarlo.py",
     "phases.append(estimates[k])",
     "phases.append(phases[k])",
     ["tests/test_montecarlo.py"]),
    ("nsrkit/montecarlo.py",
     "fisher_at(p - math.pi / 2.0)",
     "fisher_at(p)",
     ["tests/test_montecarlo.py"]),
    ("nsrkit/scalar.py",
     "math.exp(-4.0 * beta**2) * _complex_fsum(",
     "_complex_fsum(",
     ["tests/test_dephasing.py::TestQuadratureReports"]),
    # <a a^dag> with the top level's weight d, and with the weight n of
    # <a^dag a> in place of n + 1
    ("nsrkit/scalar.py",
     "(n + 1) * p[n] for n in range(d - 1)",
     "(n + 1) * p[n] for n in range(d)",
     ["tests/test_dephasing.py::TestQuadratureReports"]),
    ("nsrkit/scalar.py",
     "(n + 1) * p[n]",
     "n * p[n]",
     ["tests/test_dephasing.py::TestQuadratureReports"]),
    ("nsrkit/scalar.py",
     "complex(math.cos(offset), math.sin(offset))",
     "complex(math.cos(offset), -math.sin(offset))",
     ["tests/test_dephasing.py::TestQuadratureReports"]),
    # c_q's per-cell form without its scaling by top = max(N, 1), and its
    # beta-only factor 8 beta^2 halved in the table and the point functions
    ("nsrkit/scalar.py",
     "4.0 * u / (1.0 / top + eight_beta_sq * u)",
     "4.0 * u / (1.0 + eight_beta_sq * u)",
     ["tests/test_dephasing.py::TestBenchmarks", "tests/test_dephasing.py::TestEnhancementScan"]),
    ("nsrkit/scalar.py",
     "-math.expm1(-4.0 * b2), 8.0 * b2)",
     "-math.expm1(-4.0 * b2), 4.0 * b2)",
     ["tests/test_dephasing.py::TestEnhancementScan"]),
    # the table's first maximum of a row taken as its last
    ("nsrkit/scalar.py",
     "argmax.append(row.index(max(row)))",
     "argmax.append(len(row) - 1 - row[::-1].index(max(row)))",
     ["tests/test_dephasing.py::TestEnhancementScan"]),
    ("nsrkit/scalar.py",
     "and sinh_sq <= n + 1e-12 * max(1.0, n) and ratio < math.inf",
     "and ratio < math.inf",
     ["tests/test_dephasing.py::TestEnhancementScanParity"]),
    # the log grid without its pinned last point: 10 ** log10(hi) for hi
    ("nsrkit/scalar.py",
     "for y in exponents[1:-1]] + [hi]",
     "for y in exponents[1:]]",
     ["tests/test_cli.py::test_log_grid_is_geomspace_with_exact_ends"]),
    ("nsrkit/montecarlo.py",
     "SHIFT = 64 - (GUIDE_BUCKETS.bit_length() - 1)",
     "SHIFT = 65 - (GUIDE_BUCKETS.bit_length() - 1)",
     ["tests/test_montecarlo.py"]),
    ("nsrkit/montecarlo.py",
     "np.ceil(below_one * 2.0**53)",
     "np.floor(below_one * 2.0**53)",
     ["tests/test_montecarlo.py"]),
    ("nsrkit/montecarlo.py",
     "<< np.uint64(11)",
     "<< np.uint64(12)",
     ["tests/test_montecarlo.py"]),
    ("nsrkit/montecarlo.py",
     "below_one = cdf[: cdf.searchsorted(1.0)]",
     "below_one = cdf",
     ["tests/test_montecarlo.py"]),
    ("nsrkit/montecarlo.py",
     "                below += self._below(self._held[:held])\n                held = 0\n",
     "                held = 0\n",
     ["tests/test_montecarlo.py"]),
    # a step's node words, too many for the buffer, lost rather than counted
    ("nsrkit/montecarlo.py",
     "                below += self._below(node_words)\n                continue\n",
     "                continue\n",
     ["tests/test_montecarlo.py::TestGuideTableSampler"]),
    # the Hermiticity check without its last row block, where there are two or more
    ("nsrkit/operators.py",
     "for i in range(0, m.shape[0], 64):",
     "for i in range(0, max(m.shape[0] - 64, 1), 64):",
     ["tests/test_operators.py::TestTypeContracts::test_non_hermitian_entry_in_the_last_row_block"]),
    ("nsrkit/montecarlo.py",
     "(vecs.conj() * (matrix @ vecs))",
     "(vecs.conj() * (np.abs(matrix) @ vecs))",
     ["tests/test_montecarlo.py"]),
    ("nsrkit/montecarlo.py",
     "m1 = report_at(-math.pi / 2)",
     "m1 = report_at(math.pi / 2)",
     ["tests/test_montecarlo.py"]),
    ("nsrkit/montecarlo.py",
     "spacing > 0.01 * sd",
     "spacing > 100.0 * sd",
     ["tests/test_montecarlo.py"]),
    # the covariant QFI and SLD spectrum read from Re rho(x) away from the
    # orbit's reference point x = 0
    ("nsrkit/dephasing.py",
     "rho0 = _real_state(c, _kernel(c.size, beta), 0.0)",
     "rho0 = _real_state(c, _kernel(c.size, beta), 0.7)",
     ["tests/test_dephasing.py::TestCovariantSld"]),
    # Re rho(x) without its Im psi Im psi^T term, and with the phase's sign
    # flipped: the flip is equivalent on real probes, where Re rho(x) is even
    # in x, so the complex-amplitude probe of the oracle test must kill it
    ("nsrkit/dephasing.py",
     "(np.outer(psi.real, psi.real) + np.outer(psi.imag, psi.imag))",
     "np.outer(psi.real, psi.real)",
     ["tests/test_montecarlo.py::TestMeasurementModel::test_x0_real_route_matches_complex_route"]),
    ("nsrkit/dephasing.py",
     "psi = np.exp(-1j * x * np.arange(c.size)) * c",
     "psi = np.exp(1j * x * np.arange(c.size)) * c",
     ["tests/test_montecarlo.py::TestMeasurementModel::test_x0_real_route_matches_complex_route"]),
    # the estimates' spread 1 / 1.05^2 of the predicted one: a 9% move
    ("nsrkit/montecarlo.py",
     "amplitude = math.hypot(m0, m1)",
     "amplitude = 1.05 * math.hypot(m0, m1)",
     ["tests/test_montecarlo.py::test_attainability_with_stated_error_rate"]),
    # the factor 2 of A = L / i in the real route is _sld_in_eigenbasis's,
    # which _solve_sld shares: the first mutant again, for the route's tests
    ("nsrkit/estimation.py",
     "x *= 2.0",
     "x *= 1.0",
     ["tests/test_dephasing.py::TestCovariantSld"]),
    # dL/dx's source without the 1/2 of (D L + L D) / 2
    ("nsrkit/estimation.py",
     "(d_eig @ l_eig + l_eig @ d_eig) / 2.0",
     "(d_eig @ l_eig + l_eig @ d_eig)",
     ["tests/test_estimation.py::TestCalibrationCurvature"]),
    ("nsrkit/dephasing.py",
     "v.T @ (n[:, None] * v)",
     "v @ (n[:, None] * v.T)",
     ["tests/test_dephasing.py::TestCovariantSld"]),
    # the pure closed forms: 4 Var(h) without its <c|h c>^2 term, the fourth
    # central moment read as the second, and a non-finite 4 Var(h) returned
    ("nsrkit/estimation.py",
     "four_var = 4.0 * max(msq - mean * mean, 0.0)",
     "four_var = 4.0 * max(msq, 0.0)",
     ["tests/test_estimation.py::TestQfi", "tests/test_dephasing.py::TestCovariantSldPureOrbit"]),
    ("nsrkit/estimation.py",
     "h2c = h.matrix @ hc - mean * hc",
     "h2c = hc",
     ["tests/test_estimation.py::TestSampleSizeBound"]),
    ("nsrkit/estimation.py",
     "if not math.isfinite(four_var):",
     "if False:",
     ["tests/test_cli.py::TestQfiCommand::test_overflowing_generator_file_exit_2"]),
    # the number operator's <n^2> read as <n>
    ("nsrkit/scalar.py",
     "n * n * pn",
     "n * pn",
     ["tests/test_cli.py::TestNsrCommand::test_number_matches_dense"]),
    ("nsrkit/operators.py",
     "nsq = float(np.vdot(v, v).real)",
     "nsq = float(np.linalg.norm(v))",
     ["tests/test_operators.py"]),
    # the three input rules: no finite check, a negative beta or N let
    # through, and a sample count of 0 let through
    ("nsrkit/scalar.py",
     "if not math.isfinite(value):",
     "if False:",
     ["tests/test_input_rules.py"]),
    ("nsrkit/scalar.py",
     "if not 0.0 <= value < math.inf:",
     "if not -1.0 <= value < math.inf:",
     ["tests/test_input_rules.py"]),
    ("nsrkit/scalar.py",
     "if not count >= 1:",
     "if not count >= 0:",
     ["tests/test_input_rules.py"]),
    # a FILE generator's radius without its exact fallback near overflow
    ("nsrkit/cli.py",
     "if not math.isfinite(x * radius):  # only near overflow",
     "if False:  # only near overflow",
     ["tests/test_cli.py::TestQfiCommand::test_generator_file_radius_near_overflow"]),
    # a grid whose finite bounds have an overflowing span reaches linspace
    ("nsrkit/cli.py",
     "if not math.isfinite(hi - lo):",
     "if False:",
     ["tests/test_cli.py::TestNonFiniteInputs::test_grid_span_overflow_exit_2"]),
    # the linear grid's points where its step underflows to 0, all put at lo
    ("nsrkit/scalar.py",
     "return [i / div * delta + lo for i in range(div)] + [hi]",
     "return [lo] * div + [hi]",
     ["tests/test_cli.py::test_linear_grid_is_linspace_bit_for_bit"]),
    # the scalar layer's value types with fields that can be reassigned
    ("nsrkit/scalar.py",
     'raise AttributeError(f"cannot assign to field {name!r}")',
     "object.__setattr__(self, name, value)",
     ["tests/test_operators.py::TestScalarValueTypes::test_fields_are_read_only"]),
    # a DensityMatrix, adopted or built, without its unit-trace check
    ("nsrkit/operators.py",
     "if not abs(tr - 1.0) <= TRACE_TOL:",
     "if False:",
     ["tests/test_operators.py"]),
    # a StateVector compared field by field, so == on twins raises
    ("nsrkit/operators.py",
     "@dataclass(frozen=True, eq=False)\nclass StateVector:",
     "@dataclass(frozen=True)\nclass StateVector:",
     ["tests/test_operators.py::TestArrayValueTypes"]),
    ("nsrkit/montecarlo.py",
     "    xs.setflags(write=False)\n    means.setflags(write=False)\n",
     "",
     ["tests/test_montecarlo.py::TestBuildCurve::test_arrays_are_read_only"]),
    # a report's floats rounded to 12 digits in its CSV form
    ("nsrkit/cli.py",
     "flat[key] = value",
     "flat[key] = round(value, 12) if isinstance(value, float) else value",
     ["tests/test_golden.py"]),
]


def run_tests(src: str, selection: list[str]) -> subprocess.CompletedProcess:
    """pytest on the copy, from its temporary directory, so that no example
    database or cache a mutant leaves behind reaches the repository."""
    env = dict(os.environ, PYTHONPATH=src, PYTHONDONTWRITEBYTECODE="1")
    tests = [os.path.join(ROOT, test) for test in selection]
    return subprocess.run([sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
                           *tests], cwd=os.path.dirname(src), env=env,
                          capture_output=True, text=True)


def fresh_copy(tmp: str) -> str:
    src = os.path.join(tmp, "src")
    shutil.rmtree(src, ignore_errors=True)
    shutil.copytree(os.path.join(ROOT, "src"), src,
                    ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    return src


def mutate(src: str, rel: str, old: str, new: str) -> None:
    path = os.path.join(src, rel)
    with open(path) as fh:
        text = fh.read()
    count = text.count(old)
    if count != 1:
        raise SystemExit(f"{rel}: expected the text to mutate once, found it {count} times: {old!r}")
    with open(path, "w") as fh:
        fh.write(text.replace(old, new))


def main() -> int:
    survivors = []
    with tempfile.TemporaryDirectory() as tmp:
        src = fresh_copy(tmp)
        selections = sorted({test for *_, selection in MUTANTS for test in selection})
        proc = run_tests(src, selections)
        if proc.returncode != 0:
            print(proc.stdout[-2000:])
            print("the unmutated source fails the selected tests")
            return 1
        for rel, old, new, selection in MUTANTS:
            src = fresh_copy(tmp)
            mutate(src, rel, old, new)
            start = time.perf_counter()
            proc = run_tests(src, selection)
            if proc.returncode not in (0, 1):  # 1: tests failed; any other code is an error
                print(proc.stdout[-2000:] + proc.stderr[-2000:])
                raise SystemExit(f"pytest exited {proc.returncode} on the mutant of {rel}")
            status = "killed" if proc.returncode == 1 else "SURVIVED"
            print(f"{status:8} {time.perf_counter() - start:6.1f} s  {rel}: {old!r} -> {new!r}")
            if proc.returncode == 0:
                survivors.append(rel)
    print(f"{len(MUTANTS) - len(survivors)} of {len(MUTANTS)} mutants killed")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
