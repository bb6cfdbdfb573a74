#!/usr/bin/env python3
"""Benchmark of the nsrkit command line, run as real cold processes.

Run from the repository root:

    python3 perfbench/run.py --workload mc_case --seed 1 --seconds 20 --trace 0

Workloads (see perfbench/README.md for why each was chosen):
  mc_case        mc at the case-study point, dim 16: Born sampling + inversion
  mc_large       mc at the large probe, dim 116: calibration-curve tabulation
  paper_figures  fig2, a 72-cell numeric scan, three qfi and one nsr: import
                 and per-cell probe/family construction

--trace 0 repeats the workload's cold `nsrkit` processes, one after another,
until --seconds have passed, and reports the end-to-end metrics. --trace 1
alternates a cold pass with a traced pass (perfbench/traced.py, the same
invocations inside one process) for --seconds and reports the per-layer
metrics. Every pass's output is checked against values computed here, with
no nsrkit import, and every pass must reproduce the first pass byte for byte.

The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics. The line before it records the run's context. Only the
standard library is used. Files go to perfbench/.work/ and are removed.
"""

import argparse
import collections
import json
import math
import os
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
# Exactly what the `nsrkit` console script runs.
CLI = [sys.executable, "-c", "import sys; from nsrkit.cli import main; sys.exit(main())"]
CHILD_TIMEOUT_S = 150.0
SETUP_STARTS_PER_PASS = 2
# Speed probe: one sample (PROBE_ROUNDS times, build a dict from PROBE_DATA
# and sort its values) takes PROBE_REF_S of CPU time at the reference speed,
# about the fast state of a 2-vCPU Xeon host. The data is small enough to
# stay in the L1 cache after the first round, so what the child left in the
# caches counts little.
PROBE_DATA = [float(i) for i in range(300)]
PROBE_ROUNDS = 10
PROBE_REF_S = 0.33e-3
PROBE_EVERY_S = 0.025
# Every child gets one BLAS thread. On a shared 2-core host the
# OpenBLAS pool started at import is the largest source of run-to-run spread,
# and the matrices (at most 232 x 232) gain nothing from a second thread.
BLAS_THREADS = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
# Largest probe of each workload (alpha, r, beta), prepared by setup_probe.py.
LARGEST_PROBE = {
    "mc_case": (1.0, 0.0, 0.3),
    "mc_large": (2.0, 1.0, 0.3),
    "paper_figures": (2.0, 1.0, 0.3),
}
SCAN_GRID = {"--grid-alpha": "0.5:2:4", "--grid-r": "0:1:6", "--grid-beta": "0.1:0.4:3"}


# ---------------------------------------------------------------- workloads

def plan(workload, seed):
    """[(name, argv)] of the workload's CLI invocations for this seed.

    Output paths are relative: each pass runs in a directory of its own.
    """
    rng = random.Random(seed)
    if workload == "mc_case":
        return [("mc", ["mc", "--alpha", "1", "--beta", "0.3", "--phi-true", "0.7",
                        "--nu", "100000", "--repeats", "1000",
                        "--seed", str(rng.randrange(1, 2**31)), "--out", "mc.jsonl"])]
    if workload == "mc_large":
        return [("mc", ["mc", "--alpha", "2", "--r", "1", "--beta", "0.3",
                        "--nu", "100000", "--repeats", "200",
                        "--seed", str(rng.randrange(1, 2**31)), "--out", "mc.jsonl"])]
    phi = f"{rng.uniform(-1.0, 1.0):.4f}"
    a = f"{rng.uniform(0.5, 2.0):.3f}"
    scan = ["scan", "--numeric", "--phi-true", phi, "--out", "scan.csv"]
    for flag, grid in SCAN_GRID.items():
        scan += [flag, grid]
    return [
        ("fig2", ["fig2", "--out", "fig2"]),
        ("scan", scan),
        ("qfi_large", ["qfi", "--family", "dephasing", "--alpha", "2", "--r", "1",
                       "--beta", "0.3", "--phi-true", phi, "--out", "qfi_large.json"]),
        ("qfi_case", ["qfi", "--family", "dephasing", "--alpha", "1", "--beta", "0.3",
                      "--phi-true", "0.7", "--out", "qfi_case.json"]),
        ("qfi_pure", ["qfi", "--family", "pure", "--state", f"coherent:{a}",
                      "--out", "qfi_pure.json"]),
        ("nsr", ["nsr", "--alpha", "1", "--r", "0.5", "--beta", "0.3",
                 "--phi-true", phi, "--out", "nsr.json"]),
    ]


# ----------------------------------------------------------- output checks

def fnsr(r, alpha, beta):
    """Fisher value of the calibrated quadrature, written out independently."""
    num = 4.0 * alpha**2 * math.exp(-2.0 * beta**2)
    return num / (math.exp(-2.0 * r)
                  + (1.0 - math.exp(-4.0 * beta**2)) * (2.0 * alpha**2 + math.sinh(2.0 * r)))


def chi2_band(df):
    """Range of s^2/sigma^2 over df degrees of freedom outside which a correct
    estimator lands with probability below 1e-7 (Wilson-Hilferty quantiles,
    each tail 5e-8, which leaves room for the approximation's error)."""
    z = statistics.NormalDist().inv_cdf(5e-8)
    c = 2.0 / (9.0 * df)
    return tuple((1.0 - c + s * z * math.sqrt(c)) ** 3 for s in (1.0, -1.0))


def _flag(argv, name, default=None):
    return argv[argv.index(name) + 1] if name in argv else default


def _read(path):
    with open(path, newline="") as fh:
        return fh.read()


def _rel_err(value, expected):
    return abs(value - expected) / max(abs(expected), 1e-300)


def check_mc(d, argv, facts):
    lines = _read(os.path.join(d, "mc.jsonl")).splitlines()
    records = [json.loads(line) for line in lines]
    repeats, nu = int(_flag(argv, "--repeats")), int(_flag(argv, "--nu"))
    alpha, r, beta = (float(_flag(argv, f, "0")) for f in ("--alpha", "--r", "--beta"))
    summary, reps = records[-1], records[:-1]
    problems = []
    if [rec.get("repeat") for rec in reps] != list(range(repeats)):
        problems.append(f"{len(reps)} repeat lines, expected {repeats}")
        return problems
    clamped = sum(bool(rec["clamped"]) for rec in reps)
    facts["estimates"] = facts.get("estimates", 0) + repeats
    facts["clamped"] = facts.get("clamped", 0) + clamped
    if clamped or summary["clamped_count"] != 0:
        problems.append(f"clamped estimates: {clamped} lines, count {summary['clamped_count']}")
    expected = fnsr(r, alpha, beta)
    if _rel_err(summary["fnsr_analytic"], expected) > 1e-12:
        problems.append(f"fnsr_analytic {summary['fnsr_analytic']} != closed form {expected}")
    var = statistics.variance([rec["estimate"] for rec in reps])
    if _rel_err(summary["nu_var_fnsr"], nu * var * expected) > 1e-9:
        problems.append("nu_var_fnsr disagrees with the repeat lines")
    lo, hi = chi2_band(repeats - 1)
    if not lo <= summary["nu_var_fnsr"] <= hi:
        problems.append(f"nu_var_fnsr {summary['nu_var_fnsr']} outside [{lo:.4f}, {hi:.4f}]")
    return problems


def _csv_rows(path):
    return [line.split(",") for line in _read(path).splitlines()[1:]]


def check_fig2(d, argv, facts):
    problems = []
    text = _read(os.path.join(d, "fig2.stdout"))
    threshold = float(text.rsplit("=", 1)[1])
    if abs(threshold - 0.21) > 0.01:
        problems.append(f"threshold {threshold} not 0.21 +- 0.01")
    for name, rows, cols in (("fig2_left.csv", 12000, 4), ("fig2_right.csv", 60, 3)):
        data = _csv_rows(os.path.join(d, "fig2", name))
        if len(data) != rows or any(len(row) != cols for row in data):
            problems.append(f"{name}: {len(data)} rows, expected {rows}")
    return problems


def check_scan(d, argv, facts):
    problems = []
    cells = math.prod(int(grid.split(":")[2]) for grid in SCAN_GRID.values())
    rows = _csv_rows(os.path.join(d, "scan.csv"))
    if len(rows) != cells:
        problems.append(f"scan has {len(rows)} rows, expected {cells}")
    for row in rows:
        alpha, r, beta, closed, numeric = (float(v) for v in row)
        expected = fnsr(r, alpha, beta)
        if _rel_err(closed, expected) > 1e-12 or _rel_err(numeric, expected) > 1e-4:
            problems.append(f"scan cell {row[:3]}: {closed}, {numeric} vs {expected}")
    return problems


def check_qfi_dephasing(out):
    def check(d, argv, facts):
        report = json.loads(_read(os.path.join(d, out)))
        alpha, r, beta = (float(_flag(argv, f, "0")) for f in ("--alpha", "--r", "--beta"))
        expected = fnsr(r, alpha, beta)
        problems = []
        if _rel_err(report["fnsr_quadrature"], expected) > 1e-12:
            problems.append(f"fnsr_quadrature {report['fnsr_quadrature']} != {expected}")
        if not report["qfi"] >= report["fnsr_quadrature"]:
            problems.append(f"qfi {report['qfi']} below the quadrature value")
        return problems
    return check


def check_qfi_pure(d, argv, facts):
    report = json.loads(_read(os.path.join(d, "qfi_pure.json")))
    a = float(_flag(argv, "--state").split(":")[1])
    if _rel_err(report["qfi"], 4.0 * a * a) > 1e-9:
        return [f"pure coherent qfi {report['qfi']} != 4a^2 = {4.0 * a * a}"]
    return []


def check_nsr(d, argv, facts):
    report = json.loads(_read(os.path.join(d, "nsr.json")))
    expected = fnsr(float(_flag(argv, "--r")), float(_flag(argv, "--alpha")),
                    float(_flag(argv, "--beta")))
    problems = []
    if _rel_err(report["fnsr_analytic_optimal"], expected) > 1e-12:
        problems.append(f"fnsr_analytic_optimal {report['fnsr_analytic_optimal']} != {expected}")
    if _rel_err(report["fisher"], expected) > 1e-4:
        problems.append(f"nsr fisher {report['fisher']} vs closed form {expected}")
    return problems


CHECKS = {
    "mc": check_mc,
    "fig2": check_fig2,
    "scan": check_scan,
    "qfi_large": check_qfi_dephasing("qfi_large.json"),
    "qfi_case": check_qfi_dephasing("qfi_case.json"),
    "qfi_pure": check_qfi_pure,
    "nsr": check_nsr,
}


def check_invocation(pass_dir, name, argv, exit_code, stderr, facts):
    """Problems of one invocation's result; an empty list means it passed."""
    if exit_code != 0:
        return [f"exit code {exit_code}"]
    if "Traceback (most recent call last)" in stderr:
        return ["traceback on stderr"]
    try:
        return CHECKS[name](pass_dir, argv, facts)
    except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
        return [f"unreadable output: {exc!r}"]


def outputs(pass_dir):
    """{relative path: bytes} of every file a pass left, stderr excluded."""
    found = {}
    for base, _, files in os.walk(pass_dir):
        for name in files:
            if not name.endswith(".stderr"):
                path = os.path.join(base, name)
                with open(path, "rb") as fh:
                    found[os.path.relpath(path, pass_dir)] = fh.read()
    return found


# ------------------------------------------------------------------ children

def child_env():
    env = dict(os.environ, PYTHONPATH=SRC, **BLAS_THREADS)
    # Children may write bytecode, as an installed package has it: the
    # untimed first start compiles src/nsrkit once for the whole run.
    for var in ("PYTHONSTARTUP", "PYTHONDONTWRITEBYTECODE"):
        env.pop(var, None)
    return env


def stolen_s(cpu):
    """Seconds the hypervisor has so far taken from the CPU (steal time in
    /proc/stat); 0.0 where the kernel does not report it."""
    try:
        with open("/proc/stat") as fh:
            for line in fh:
                if line.startswith(f"cpu{cpu} "):
                    return int(line.split()[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        pass
    return 0.0


class SpeedProbe(threading.Thread):
    """Watches how fast the CPU shared by this process and a child runs.

    On a shared host that CPU's speed changes by up to 1.7x for seconds at a
    time, and the hypervisor at times takes it away altogether (steal time).
    The probe times a fixed piece of pure-Python work in thread CPU time every
    PROBE_EVERY_S, and reads the CPU's steal time at start and stop. A
    child's wall time, less the time stolen meanwhile and scaled by
    PROBE_REF_S over the probe's mean time, is its wall time on the same CPU
    running steadily at the reference speed.
    """

    def __init__(self, cpu):
        super().__init__(daemon=True)
        self.cpu = cpu
        self.done = threading.Event()
        self.stolen = stolen_s(cpu)
        self.samples = [self.sample()]

    @staticmethod
    def sample():
        start = time.thread_time()
        for _ in range(PROBE_ROUNDS):
            table = {i: x * 1.5 for i, x in enumerate(PROBE_DATA)}
            sorted(table.values(), reverse=True)
        return time.thread_time() - start

    def run(self):
        while not self.done.wait(PROBE_EVERY_S):
            self.samples.append(self.sample())

    def stop(self):
        """(mean sample time, seconds stolen since the start)."""
        self.done.set()
        self.join()
        return statistics.fmean(self.samples), stolen_s(self.cpu) - self.stolen


Child = collections.namedtuple("Child", "start wall code rss norm probe_s stolen")


def spawn(argv, cwd, env, stdout_path, stderr_path):
    """Run one child to completion on this process's CPU. Wall time runs from
    spawn to exit on the time.perf_counter clock; norm is the wall time at
    the reference speed, from the speed probe's mean time probe_s and the
    seconds stolen meanwhile (SpeedProbe); rss is the peak resident set in
    bytes, from os.wait4.
    """
    with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
        probe = SpeedProbe(min(os.sched_getaffinity(0)))
        probe.start()
        start = time.perf_counter()
        try:
            proc = subprocess.Popen(argv, cwd=cwd, env=env, stdin=subprocess.DEVNULL,
                                    stdout=out, stderr=err)
            watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
            watchdog.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                watchdog.cancel()
        finally:
            wall = time.perf_counter() - start
            probe_s, stolen = probe.stop()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(start, wall, proc.returncode, usage.ru_maxrss * 1024,
                 max(wall - stolen, 0.0) * PROBE_REF_S / probe_s, probe_s, stolen)


class Run:
    """State of one benchmark run: passes made, operations and failures."""

    def __init__(self, workload, seed, work_dir):
        self.invocations = plan(workload, seed)
        self.work_dir = work_dir
        self.env = child_env()
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.peak_rss = 0
        self.facts = {}
        self.reference = None  # outputs of the first pass
        self.passes = 0
        self.children = []  # [label, wall, norm, probe mean, stolen] per child

    def _spawn(self, label, argv, cwd, stdout_path, stderr_path):
        child = spawn(argv, cwd, self.env, stdout_path, stderr_path)
        self.children.append([label, child.wall, child.norm, child.probe_s, child.stolen])
        return child

    def _new_pass_dir(self):
        self.passes += 1
        path = os.path.join(self.work_dir, f"pass{self.passes}")
        os.mkdir(path)
        return path

    def _finish_pass(self, pass_dir, kind, exit_codes, stderr):
        """Check a pass's outputs, count its operations and free its files."""
        facts = {}
        fails = []
        for (name, argv), code in zip(self.invocations, exit_codes):
            problems = check_invocation(pass_dir, name, argv, code, stderr(name), facts)
            fails.append(problems)
        found = outputs(pass_dir)
        if self.reference is None:
            self.reference = found
            self.facts = facts
        # Output files are named after the invocation that wrote them.
        differ = {path.split(os.sep)[0].split(".")[0]
                  for path in found.keys() | self.reference.keys()
                  if found.get(path) != self.reference.get(path)}
        for (name, _), problems in zip(self.invocations, fails):
            if name in differ and not problems:
                problems.append(f"{kind} output differs from the first pass")
        for (name, _), problems in zip(self.invocations, fails):
            self.attempted += 1
            if problems:
                self.failed += 1
                self.problems.append(f"{kind} pass {self.passes} {name}: {'; '.join(problems)}")
        shutil.rmtree(pass_dir)

    def cold_pass(self):
        """One cold process per invocation: (summed wall, summed norm)."""
        pass_dir = self._new_pass_dir()
        children = [self._spawn(name, CLI + argv, pass_dir,
                                os.path.join(pass_dir, name + ".stdout"),
                                os.path.join(pass_dir, name + ".stderr"))
                    for name, argv in self.invocations]
        self.peak_rss = max([self.peak_rss] + [c.rss for c in children])
        self._finish_pass(pass_dir, "cold", [c.code for c in children],
                          lambda name: _read(os.path.join(pass_dir, name + ".stderr")))
        return sum(c.wall for c in children), sum(c.norm for c in children)

    def traced_pass(self):
        """The invocations inside one traced process: (wall, norm, result or
        None), with wall and norm as in spawn."""
        pass_dir = self._new_pass_dir()
        plan_path = os.path.join(self.work_dir, "plan.json")
        result_path = os.path.join(self.work_dir, "traced.json")
        err_path = os.path.join(self.work_dir, "traced.stderr")
        with open(plan_path, "w") as fh:
            json.dump({"invocations": [{"name": n, "argv": a} for n, a in self.invocations]}, fh)
        out_path = os.path.join(self.work_dir, "traced.stdout")
        start, wall, code, _, norm, _, _ = self._spawn(
            "traced", [sys.executable, os.path.join(HERE, "traced.py"), plan_path, result_path],
            pass_dir, out_path, err_path)
        result = None
        if code == 0:
            with open(result_path) as fh:
                result = json.load(fh)
            os.unlink(result_path)
            ended = float(_read(out_path).split()[-1])
            result["start_exit_s"] = (result["started"] - start) + (start + wall - ended)
        codes = result["exit_codes"] if result else [code or 1] * len(self.invocations)
        stderr = _read(err_path)
        self._finish_pass(pass_dir, "traced", codes, lambda name: stderr)
        return wall, norm, result

    def setup_start(self, probe, context=False):
        argv = [sys.executable, os.path.join(HERE, "setup_probe.py"), *map(str, probe)]
        out = os.path.join(self.work_dir, "setup.stdout")
        child = self._spawn("setup", argv + (["--context"] if context else []), self.work_dir,
                            out, os.path.join(self.work_dir, "setup.stderr"))
        self.peak_rss = max(self.peak_rss, child.rss)
        if child.code != 0:
            self.problems.append(f"setup start exited with {child.code}: "
                                 + _read(os.path.join(self.work_dir, "setup.stderr"))[-500:])
            return child, None
        return child, (json.loads(_read(out)) if context else None)


# ------------------------------------------------------------------- metrics

def span_layers(spans):
    """Per span name: (calls, inclusive seconds without same-name nesting,
    self seconds), where self time excludes the span's direct children."""
    child_time = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    layers = {}
    for i, (name, start, end, parent) in enumerate(spans):
        calls, total, self_s = layers.get(name, (0, 0.0, 0.0))
        ancestor, nested = parent, False
        while ancestor >= 0 and not nested:
            nested = spans[ancestor][0] == name
            ancestor = spans[ancestor][3]
        layers[name] = (calls + 1, total + (0.0 if nested else end - start),
                        self_s + (end - start) - child_time[i])
    return layers


def traced_metrics(wall, result):
    """Per-layer metrics of one traced pass (times) and its exact counts."""
    layers = span_layers(result["spans"])
    counts = dict(result["counts"])

    def layer(name):
        return layers.get(name, (0, 0.0, 0.0))

    top = sum(end - start for _, start, end, parent in result["spans"] if parent < 0)
    times = {
        "cli.import_s": result["import_s"],
        "cli.self_s": layer("cli.main")[2],
        "operators.probe.s": layer("operators.probe")[1],
        "operators.expectation.s": layer("operators.expectation")[1],
        "dephasing.family.s": layer("dephasing.family")[1],
        "dephasing.state_at.s": layer("dephasing.state_at")[1],
        "dephasing.closed_form.s": layer("dephasing.closed_form")[1],
        "estimation.assess.s": layer("estimation.assess")[1],
        "estimation.qfi.s": layer("estimation.qfi")[1],
        "montecarlo.curve.self_s": layer("montecarlo.curve")[2],
        "montecarlo.trials.self_s": layer("montecarlo.trials")[2],
        "cli.start_exit_s": result["start_exit_s"],
        "trace.coverage": (result["import_s"] + top) / wall,
        "trace.coverage_start_exit": (result["start_exit_s"] + result["import_s"] + top) / wall,
    }
    exact = {f"{name}.calls": layer(name)[0] for name in (
        "operators.probe", "operators.expectation", "dephasing.family",
        "dephasing.state_at", "estimation.assess", "estimation.qfi", "montecarlo.curve")}
    for name in ("operators.eig.calls", "operators.eig.flops_computed",
                 "montecarlo.curve.points", "montecarlo.curve.window_points",
                 "montecarlo.draws"):
        exact[name] = counts.get(name, 0)
    return times, exact


def _ratio(num, den):
    return num / den if den else 0.0


# ---------------------------------------------------------------------- main

def context(setup_info):
    try:
        import tomllib
    except ImportError:  # Python 3.10
        deps = None
    else:
        with open(os.path.join(ROOT, "pyproject.toml"), "rb") as fh:
            deps = tomllib.load(fh)["project"]["dependencies"]
    pkg = os.path.join(SRC, "nsrkit")
    loc = 0
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            loc += _read(os.path.join(pkg, name)).count("\n")
    return {**(setup_info or {}), "nproc": os.cpu_count(),
            "blas_thread_env": BLAS_THREADS,
            "dependencies": deps, "src_loc": loc}


def measure(args, work_dir):
    # One client: this process and every child it starts, one after another,
    # share one CPU, the one the speed probe samples.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    run = Run(args.workload, args.seed, work_dir)
    probe = LARGEST_PROBE[args.workload]
    # The first start fills the page and bytecode caches, which an installed
    # package has already; it is not timed.
    _, setup_info = run.setup_start(probe, context=True)
    info = {"context": context(setup_info)}
    deadline = time.perf_counter() + args.seconds
    if args.trace == 0:
        # Set-up starts are spread between the passes, so that both metrics
        # sample the whole run.
        passes, setup = [], []
        while not passes or time.perf_counter() < deadline:
            passes.append(run.cold_pass())
            setup += [run.setup_start(probe)[0] for _ in range(SETUP_STARTS_PER_PASS)]
        metrics = {
            "wall_s": (statistics.median(norm for _, norm in passes), "s"),
            "setup_s": (statistics.median(child.norm for child in setup), "s"),
            "peak_rss_mb": (run.peak_rss / 1e6, "MB"),
            "ok_ratio": ((run.attempted - run.failed) / run.attempted, "1"),
        }
        info["samples"] = {"wall_s": [norm for _, norm in passes],
                           "setup_s": [child.norm for child in setup]}
    else:
        cold, traced, times, exact = [], [], [], None
        while not traced or time.perf_counter() < deadline:
            cold.append(run.cold_pass()[1])
            wall, norm, result = run.traced_pass()
            if result is None:
                break
            traced.append(norm)
            pass_times, pass_exact = traced_metrics(wall, result)
            times.append(pass_times)
            if exact is None:
                exact = pass_exact
            elif pass_exact != exact:
                run.problems.append(f"traced counts changed between passes: {pass_exact}")
        if exact is None:
            print("\n".join(run.problems), file=sys.stderr)
            return 1
        med = {name: statistics.median(t[name] for t in times) for name in times[0]}
        facts = run.facts
        metrics = {name: (value, "flop" if name.endswith(".flops_computed") else "count")
                   for name, value in exact.items() if name != "montecarlo.curve.window_points"}
        metrics.update({name: (value, "1" if name.startswith("trace.") else "s")
                        for name, value in med.items()})
        metrics.update({
            "montecarlo.curve.window_ratio": (
                _ratio(exact["montecarlo.curve.window_points"], exact["montecarlo.curve.points"]),
                "1"),
            "montecarlo.draws_per_s": (
                _ratio(exact["montecarlo.draws"], med["montecarlo.trials.self_s"]), "1/s"),
            "montecarlo.clamped_ratio": (
                _ratio(facts.get("clamped", 0), facts.get("estimates", 0)), "1"),
            "trace.overhead": (statistics.median(traced) / statistics.median(cold) - 1.0, "1"),
        })
        info["samples"] = {"cold_wall_s": cold, "traced_wall_s": traced}  # at reference speed
    info["children"] = {"fields": ["label", "wall_s", "norm_s", "probe_mean_s", "stolen_s"],
                        "rows": run.children}
    info["fail_ratio"] = run.failed / run.attempted
    info["problems"] = run.problems
    for problem in run.problems:
        print(problem, file=sys.stderr)
    print(json.dumps(info))
    print(json.dumps({
        "correct": not run.problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in sorted(metrics.items())},
    }))
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(LARGEST_PROBE))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    for needed in (os.path.join(SRC, "nsrkit", "cli.py"), os.path.join(ROOT, "pyproject.toml")):
        if not os.path.isfile(needed):
            print(f"error: {needed} not found; run from an nsrkit checkout", file=sys.stderr)
            return 2
    base = os.path.join(HERE, ".work")
    os.makedirs(base, exist_ok=True)
    work_dir = tempfile.mkdtemp(dir=base)
    try:
        return measure(args, work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            os.rmdir(base)
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main())
