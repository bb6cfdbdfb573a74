"""Self-check of the benchmark.

Run from the repository root (a few minutes on a 2-core machine):

    python3 perfbench/check_bench.py

For each workload it makes one untraced and two traced runs of
perfbench/run.py at the fixed seed SEED, one pass each, and checks that

- every run exits 0, is correct and has no failed operation;
- every metric that BENCHMARK.json names is emitted, with its unit;
- every per-layer count is the same in both traced runs;
- trace.coverage is at least 0.9.

It exits 0 when all of these hold and 1 otherwise, naming each failure.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("mc_case", "mc_large", "paper_figures")
SEED = 7
# Per-layer metrics that are counts, or ratios of counts, and must repeat.
EXACT_UNITS = ("count", "flop")
EXACT_RATIOS = ("montecarlo.curve.window_ratio", "montecarlo.clamped_ratio")
MIN_COVERAGE = 0.9


def bench_run(workload, trace):
    """(exit code, result object or None, stderr) of one benchmark run."""
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(SEED), "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, (json.loads(lines[-1]) if lines else None), proc.stderr


def check_run(label, code, result, stderr, named):
    """Failures of one run: exit code, correctness, metric names and units."""
    if code != 0 or result is None:
        return [f"{label}: exit code {code}: {stderr.strip()[-500:]}"]
    failures = []
    if not result["correct"] or result["failed"]:
        failures.append(f"{label}: correct={result['correct']} failed={result['failed']}: "
                        f"{stderr.strip()[-500:]}")
    metrics = result["metrics"]
    for name, unit in named.items():
        if name not in metrics:
            failures.append(f"{label}: metric {name} missing")
        elif metrics[name]["unit"] != unit:
            failures.append(f"{label}: {name} has unit {metrics[name]['unit']}, not {unit}")
    return failures


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    end_to_end = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    exact = [name for name, unit in per_layer.items()
             if unit in EXACT_UNITS or name in EXACT_RATIOS]

    failures = []
    for workload in WORKLOADS:
        before = len(failures)
        failures += check_run(f"{workload} untraced", *bench_run(workload, 0),
                              end_to_end)
        traced = []
        for k in (1, 2):
            code, result, stderr = bench_run(workload, 1)
            run_failures = check_run(f"{workload} traced #{k}", code, result, stderr, per_layer)
            failures += run_failures
            if not run_failures:
                traced.append(result["metrics"])
        if len(traced) == 2:
            for name in exact:
                first, second = (t[name]["value"] for t in traced)
                if first != second:
                    failures.append(f"{workload}: {name} is {first} then {second}")
            coverage = min(t["trace.coverage"]["value"] for t in traced)
            if coverage < MIN_COVERAGE:
                failures.append(f"{workload}: trace.coverage {coverage:.3f} < {MIN_COVERAGE}")
        print(f"{workload}: {'ok' if len(failures) == before else 'FAILED'}", flush=True)
    for failure in failures:
        print(failure)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
