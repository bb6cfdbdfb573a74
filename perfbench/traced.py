"""Traced run of one workload: every CLI invocation in this one process,
with spans recorded around the public functions of each nsrkit layer.

Usage (src/ on PYTHONPATH, the pass directory as working directory):

    python3 perfbench/traced.py PLAN_JSON RESULT_JSON

PLAN_JSON holds {"invocations": [{"name": ..., "argv": [...]}, ...]}. Each
invocation runs through nsrkit.cli.main; its standard output is written to
<name>.stdout in the working directory, as the cold run's output is, so the
two can be compared byte for byte.

The program is not edited. After import, module attributes are replaced by
wrappers, in every nsrkit module that holds them, and each dephasing family
gets a wrapped state_at through dataclasses.replace. Spans (name, start, end,
parent index) and counts stay in memory and are written to RESULT_JSON at the
end. The last line on stdout is the clock reading just before exit, so that
the parent can time interpreter start-up and shutdown from outside.
"""

import time

STARTED = time.perf_counter()  # the parent's clock too (CLOCK_MONOTONIC)

import contextlib  # noqa: E402
import dataclasses  # noqa: E402
import functools  # noqa: E402
import inspect  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1]
        self.counts = {}
        self._stack = []

    def add(self, name, n):
        self.counts[name] = self.counts.get(name, 0) + n

    def wrap(self, name, fn, after=None):
        """fn with a span around each call; after(bound_args, result) may
        record counts taken from the call."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        signature = inspect.signature(fn) if after else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                span[2] = clock()
            if after:
                after(signature.bind(*args, **kwargs).arguments, result)
            return result

        return wrapper


def _replace_everywhere(modules, original, replacement):
    for mod in modules:
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, replacement)


def install(tracer):
    """Wrap the layers' public functions; returns the traced cli.main."""
    import numpy
    import nsrkit
    from nsrkit import cli, dephasing, estimation, montecarlo, operators

    modules = [nsrkit, operators, estimation, dephasing, montecarlo, cli]

    def wrap_all(name, fn, after=None):
        _replace_everywhere(modules, fn, tracer.wrap(name, fn, after))

    wrap_all("operators.probe", operators.gaussian_probe)
    wrap_all("operators.expectation", operators.expectation)
    wrap_all("estimation.assess", estimation.assess_observable)
    wrap_all("estimation.qfi", estimation.qfi)
    wrap_all("estimation.qfi", estimation.sld)

    family = dephasing.dephasing_family

    def traced_family(spec):
        fam = family(spec)
        return dataclasses.replace(
            fam, state_at=tracer.wrap("dephasing.state_at", fam.state_at)
        )

    _replace_everywhere(modules, family, tracer.wrap("dephasing.family", traced_family))

    def curve_counts(args, curve):
        tracer.add("montecarlo.curve.points", int(curve.xs.size))
        tracer.add("montecarlo.curve.window_points", int(curve.window[1] - curve.window[0]))

    def trial_counts(args, reports):
        tracer.add("montecarlo.draws", int(args["nu"]) * int(args["repeats"]))

    wrap_all("montecarlo.curve", montecarlo.build_curve, curve_counts)
    wrap_all("montecarlo.trials", montecarlo.run_trials, trial_counts)

    # The closed forms are wrapped only where the CLI calls them, so the
    # thousands of inner calls inside a scan carry no span.
    for fn in (dephasing.enhancement_scan, dephasing.enhancement_threshold,
               dephasing.analytic_fnsr):
        _replace_everywhere([cli], fn, tracer.wrap("dephasing.closed_form", fn))

    # Leading-order LAPACK counts for a Hermitian eigenproblem, times 4 for
    # complex arithmetic; computed from the matrix size, not measured.
    for attr, flops_per_n3 in (("eigvalsh", 16), ("eigh", 108)):
        original = getattr(numpy.linalg, attr)

        def counted(a, *args, _original=original, _per_n3=flops_per_n3, **kwargs):
            arr = numpy.asarray(a)
            n = arr.shape[-1]
            real = 1 if numpy.iscomplexobj(arr) else 4
            tracer.add("operators.eig.calls", 1)
            tracer.add("operators.eig.flops_computed", _per_n3 * n**3 // (3 * real))
            return _original(a, *args, **kwargs)

        setattr(numpy.linalg, attr, functools.wraps(original)(counted))

    return tracer.wrap("cli.main", cli.main)


def run_invocation(main, argv):
    """Exit code of one CLI invocation, as the console script would give it."""
    try:
        return main(argv)
    except SystemExit as exc:  # argparse errors and --version
        return exc.code if isinstance(exc.code, int) else 1
    except Exception:
        traceback.print_exc()
        return 1


def main() -> int:
    plan_path, result_path = sys.argv[1:3]
    with open(plan_path) as fh:
        plan = json.load(fh)
    t0 = time.perf_counter()
    import nsrkit  # noqa: F401
    import nsrkit.cli  # noqa: F401
    import_s = time.perf_counter() - t0

    tracer = Tracer()
    cli_main = install(tracer)
    exit_codes = []
    for inv in plan["invocations"]:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            exit_codes.append(run_invocation(cli_main, inv["argv"]))
        with open(inv["name"] + ".stdout", "w", newline="") as fh:
            fh.write(out.getvalue())
    with open(result_path, "w") as fh:
        json.dump({"started": STARTED, "import_s": import_s, "exit_codes": exit_codes,
                   "spans": tracer.spans, "counts": tracer.counts}, fh)
    print(time.perf_counter(), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
