"""Property test of the CLI exit-code contract: every argument vector exits
0 (ok), 2 (configuration) or 3 (numerical) and raises nothing; an rc-0 run
prints no NaN and nothing on stderr, and an rc-2 or rc-3 run prints one
`error:` line on stderr and nothing on stdout."""

import contextlib
import io
import os
import tempfile

import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

from nsrkit.cli import main  # noqa: E402

VALUES = ["0", "1e-300", "1e-8", "0.3", "0.7", "1", "2.5", "-0.5", "-3",
          "1e3", "1e200", "1e308", "-1e308", "nan", "inf", "-inf"]
# None leaves the truncation to the policy, which must stay under MAX_DIM.
DIMS = ["2", "3", "8", "16", None]
values = st.sampled_from(VALUES)


def flags(names):
    """Any subset of the flags, each with a value from VALUES, as --flag=value
    (so '-inf' is not read as an option)."""
    return st.lists(st.tuples(st.sampled_from(names), values), max_size=len(names),
                    unique_by=lambda fv: fv[0]).map(
        lambda pairs: [f"{name}={value}" for name, value in pairs])


FAMILY = ["--alpha", "--r", "--beta", "--N", "--phi-true"]
grids = st.tuples(values, values, st.sampled_from(["1", "2", "3"])).map(":".join)


@st.composite
def argvs(draw):
    command = draw(st.sampled_from(["qfi", "nsr", "fig2", "mc", "scan"]))
    if command == "fig2":
        argv = ["fig2"]
        for flag in ("--grid-two-beta-sq", "--grid-N"):
            argv.append(f"{flag}={draw(grids)}")
        return argv
    dim = draw(st.sampled_from(DIMS))
    argv = [command] + ([f"--dim={dim}"] if dim else [])
    if command == "qfi":
        family = draw(st.sampled_from(["pure", "dephasing"]))
        state = draw(st.sampled_from(["vacuum", "fock:1", "fock:40", "coherent:{}",
                                      "gaussian:{}:{}"])).format(draw(values), draw(values))
        argv += [f"--family={family}", f"--state={state}"] + draw(flags(["--x"] + FAMILY))
    elif command == "nsr":
        observable = draw(st.sampled_from(["quadrature", "number"]))
        argv += [f"--observable={observable}"] + draw(flags(["--phi-exp"] + FAMILY))
    elif command == "scan":
        argv += draw(flags(FAMILY))
        if draw(st.booleans()):
            argv.append("--numeric")
        if draw(st.booleans()):
            argv.append(f"--grid-r={draw(grids)}")
    else:
        argv += draw(flags(FAMILY))
        if draw(st.booleans()):
            argv += ["--adaptive", f"--rounds={draw(st.integers(-1, 3))}",
                     f"--batch={draw(st.integers(-1, 50))}"]
        else:
            argv += [f"--nu={draw(st.integers(-1, 50))}",
                     f"--repeats={draw(st.integers(-1, 3))}"]
        argv.append(f"--seed={draw(st.integers(0, 2**31))}")
    return argv


def run_in_process(argv):
    """(rc, stdout, stderr, the CSV tables written) of one in-process run."""
    out, err, tables = io.StringIO(), io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        if argv[0] == "fig2":
            argv = argv + [f"--out={tmp}"]
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                rc = main(argv)
            except SystemExit as exc:  # argparse rejects the vector
                rc = exc.code
        for name in sorted(os.listdir(tmp)):
            with open(os.path.join(tmp, name)) as fh:
                tables.write(fh.read())
    return rc, out.getvalue(), err.getvalue(), tables.getvalue()


# One vector per subcommand that exits 0, so the rc-0 check always runs.
VALID = [
    ["qfi", "--dim=16", "--family=pure", "--state=coherent:1"],
    ["qfi", "--dim=16", "--family=dephasing", "--alpha=1", "--beta=0.3"],
    ["nsr", "--dim=16", "--observable=quadrature", "--alpha=1", "--beta=0.3"],
    ["fig2", "--grid-two-beta-sq=0.1:1:3", "--grid-N=1:10:2"],
    ["mc", "--dim=16", "--alpha=1", "--nu=50", "--repeats=3", "--seed=7"],
    ["mc", "--dim=16", "--alpha=1", "--adaptive", "--rounds=2", "--batch=50", "--seed=7"],
    ["scan", "--dim=16", "--alpha=1", "--beta=0.3", "--numeric"],
]


@settings(max_examples=1000, database=None, derandomize=True, deadline=None)
@given(argvs())
def test_exit_code_contract(argv):
    rc, out, err, tables = run_in_process(argv)
    assert rc in (0, 2, 3), (argv, rc)
    if rc == 0:
        assert "nan" not in (out + tables).lower(), (argv, out + tables)
        assert err == "", (argv, err)
    else:
        assert err.startswith("error:") and err.count("\n") == 1 and err.endswith("\n"), (argv, err)
        assert out == "", (argv, out)


for _argv in VALID:
    test_exit_code_contract = example(_argv)(test_exit_code_contract)

