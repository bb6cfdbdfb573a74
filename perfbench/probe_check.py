"""Does the speed probe depend on the child it runs beside?

Run from the repository root (about three minutes on a 2-core machine):

    python3 perfbench/probe_check.py

run.py scales each child's wall time by the mean time of a speed probe that
runs on the child's CPU while the child runs. If the child's own work slowed
the probe, a change to the program would move the probe too and cancel part
of its own effect. This script starts, ROUNDS times and pinned as run.py
pins them, a pure-Python loop (almost no data), mc_case, the loop again and
mc_large, and prints for each mc child the probe's mean beside it over the
mean beside the loop just before it. The host's speed drifts between two
children too, so the ratios scatter around 1 even for an inert child; the
standard deviation printed with them is that scatter.
"""

import os
import statistics
import sys
import tempfile

import run

ROUNDS = 8
LOOP = [sys.executable, "-c", "x = 0\nfor i in range(12_000_000): x += i"]


def main():
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    env = run.child_env()
    children = [("loop", LOOP), ("mc_case", run.CLI + run.plan("mc_case", 1)[0][1]),
                ("loop", LOOP), ("mc_large", run.CLI + run.plan("mc_large", 1)[0][1])]
    base = os.path.join(run.HERE, ".work")
    os.makedirs(base, exist_ok=True)
    probe_ms = {name: [] for name, _ in children}
    ratios = {"mc_case": [], "mc_large": []}
    with tempfile.TemporaryDirectory(dir=base) as work:
        out, err = os.path.join(work, "stdout"), os.path.join(work, "stderr")
        for _ in range(ROUNDS):
            for name, argv in children:
                child = run.spawn(argv, work, env, out, err)
                if child.code != 0:
                    print(f"{name} exited with {child.code}", file=sys.stderr)
                    return 1
                if name in ratios:
                    ratios[name].append(child.probe_s * 1e3 / probe_ms["loop"][-1])
                probe_ms[name].append(child.probe_s * 1e3)
    for name, values in probe_ms.items():
        print(f"{name:9s} probe mean {statistics.fmean(values):.4f} ms over {len(values)} runs")
    for name, values in ratios.items():
        print(f"{name:9s} / loop before it: mean {statistics.fmean(values):.3f}, "
              f"sd {statistics.stdev(values):.3f}, n {len(values)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
