"""Command-line front end.

Subcommands: qfi, nsr, fig2, mc, scan. Single reports go out as JSON, grids
as CSV; all file writes go through a temp file and an atomic rename so a
failure never leaves a partial output behind.

Exit codes, by error type: 0 success, 2 bad input or out of memory, 3 NumericalError.

The module imports no numpy: nsr (quadrature and number), scan, fig2 and
qfi --family pure --h number run on the numpy-free layer (scalar), and the
branches that need a numpy module import it where they start.
"""

from __future__ import annotations

import argparse
import csv
import io
import itertools
import json
import math
import os
import sys
import tempfile
from collections.abc import Iterable, Iterator

from . import __version__
from .errors import ContractViolationError, NumericalError
from .scalar import (
    DEFAULT_N_GRID,
    DEFAULT_TWO_BETA_SQ_GRID,
    MAX_DIM,
    DiffusionParams,
    GaussianProbeSpec,
    PhaseFamilySpec,
    _finite,
    _fock,
    _geomspace,
    _linspace,
    _number_moments,
    _probe,
    _quadrature_reports,
    _ratio_table,
    _sensitivity_report,
    analytic_fnsr,
    check_dim,
    default_truncation_dim,
    enhancement_threshold,
    optimal_calibration,
)

# Largest count a command line may set: one grid's, the product of a
# command's grid counts, mc's --repeats or --rounds. Each counted point becomes
# an output row of about 100 bytes, all held until the one atomic write, so the
# rows stay near 100 MB. --nu and --batch are streamed and need no ceiling.
MAX_COUNT = 10**6


def _json_ready(obj):
    """Recursively convert to JSON-safe values; non-finite floats become strings."""
    if isinstance(obj, dict):
        return {k: _json_ready(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_ready(v) for v in obj]
    if isinstance(obj, float):  # np.float64 included
        f = float(obj)
        if math.isnan(f):
            return "nan"
        if math.isinf(f):
            return "inf" if f > 0 else "-inf"
        return f
    return obj


def _atomic_write(path: str, chunks: Iterable[str]):
    """Write the strings of chunks in turn to path through a temp file in its
    directory and an atomic rename."""
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", newline="") as fh:
            fh.writelines(chunks)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _emit(text: str, out: str | None):
    """Write text, which ends in a newline, to the file out, else to stdout."""
    if out:
        _atomic_write(out, (text,))
    else:
        sys.stdout.write(text)


def _report_text(report: dict, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(_json_ready(report), indent=2, sort_keys=True) + "\n"
    flat = {}
    for key, value in _json_ready(report).items():  # a nested record becomes key_sub columns
        if isinstance(value, dict):
            flat.update((f"{key}_{sub}", v) for sub, v in value.items())
        else:
            flat[key] = value
    keys = sorted(flat)
    return _csv_text(keys, [[flat[k] for k in keys]])


def _csv_text(header: list[str], rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def _check_count(name: str, count: int):
    if count > MAX_COUNT:
        raise ValueError(f"{name} {count} exceeds the ceiling MAX_COUNT = {MAX_COUNT}")


def _parse_grid(text: str, log: bool = False) -> list[float]:
    """lo:hi:count -> np.linspace's points (_linspace), or np.geomspace's
    with log=True (_geomspace)."""
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError(f"grid spec '{text}' must be lo:hi:count")
    lo, hi, count = float(parts[0]), float(parts[1]), int(parts[2])
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError(f"grid bounds must be finite, got '{text}'")
    if count < 1 or hi < lo:
        raise ValueError(f"bad grid spec '{text}'")
    if not math.isfinite(hi - lo):
        raise ValueError(f"grid span hi - lo overflows in '{text}'")
    _check_count(f"grid '{text}' count", count)
    if log and count > 1 and lo <= 0:
        raise ValueError(f"log-spaced grid needs lo > 0, got '{text}'")
    return (_geomspace if log else _linspace)(lo, hi, count)


def _token_chunks(fh, size: int = 1 << 16) -> Iterator[list[str]]:
    """A text file's whitespace-separated tokens, a list per chunk of about
    size characters; a token cut by a chunk's end goes to the next."""
    tail = ""
    while chunk := fh.read(size):
        tokens = (tail + chunk).split()
        tail = tokens.pop() if tokens and not chunk[-1].isspace() else ""
        yield tokens
    if tail:
        yield [tail]


def load_observable(path: str):
    """Read 'dim <n>' then n*n whitespace-separated complex entries (re+imj)
    into an Operator, streamed: each chunk's tokens go through complex() into
    one preallocated array. A wrong count is reported before a bad entry."""
    import numpy as np

    from .operators import Operator

    with open(path) as fh:
        tokens = itertools.chain.from_iterable(_token_chunks(fh))
        head = list(itertools.islice(tokens, 2))
        if len(head) < 2 or head[0] != "dim":
            raise ValueError(f"{path}: expected header 'dim <n>'")
        n = check_dim(int(head[1]))
        if n < 1:
            raise ValueError(f"{path}: header 'dim {head[1]}' must name a dim >= 1")
        flat, found, malformed = np.empty(n * n, dtype=complex), 0, None
        while batch := list(itertools.islice(tokens, 1 << 13)):
            part = batch[:max(n * n - found, 0)]
            try:
                flat[found:found + len(part)] = list(map(complex, part))
            except ValueError as exc:
                malformed = malformed or exc
            found += len(batch)
    if found != n * n:
        raise ValueError(f"{path}: expected {n * n} entries, found {found}")
    if malformed:
        raise malformed
    return Operator._adopt(flat.reshape(n, n))  # flat is fresh: no second copy


def _parse_state(text: str, dim: int | None = None) -> list[float]:
    """The amplitudes of vacuum | fock:n | coherent:a | gaussian:a:r on dim
    Fock levels; without dim, on the spec's default truncation."""
    kind, _, rest = text.partition(":")
    if kind in ("vacuum", "fock"):
        n = int(rest) if kind == "fock" else 0
        return _fock(check_dim(max(16, 2 * (n + 1)) if dim is None else dim), n)
    if kind == "coherent":
        alpha, r = float(rest), 0.0
    elif kind == "gaussian":
        a_str, _, r_str = rest.partition(":")
        alpha, r = float(a_str), float(r_str)
    else:
        raise ValueError(f"unknown state spec '{text}'")
    if dim is None:
        dim = default_truncation_dim(alpha, r)
    return _probe(GaussianProbeSpec(alpha, r, dim))


def _resolve_alpha(args) -> float:
    if args.alpha is not None:
        return args.alpha
    if getattr(args, "N", None) is not None:
        alpha_sq = args.N - math.sinh(args.r) ** 2
        if alpha_sq < 0:
            raise ValueError(f"N={args.N} leaves no excitation for alpha at r={args.r}")
        return math.sqrt(alpha_sq)
    return 1.0  # paper case-study default


def _dephasing_spec(alpha: float, r: float, beta: float, dim: int | None,
                    phi_true: float) -> PhaseFamilySpec:
    """The probe D(alpha)S(r)|0> on dim Fock levels (the policy's without
    dim), diffused by beta, over the phase period centered on phi_true."""
    probe = GaussianProbeSpec(alpha, r, default_truncation_dim(alpha, r) if dim is None else dim)
    return PhaseFamilySpec(
        probe=probe,
        diffusion=DiffusionParams(beta),
        phi_domain=(phi_true - math.pi, phi_true + math.pi),
    )


def _probe_header(spec: PhaseFamilySpec, phi_true: float) -> dict:
    return {"alpha": spec.probe.alpha, "r": spec.probe.r, "beta": spec.diffusion.beta,
            "phi_true": phi_true}


def cmd_qfi(args) -> int:
    """The QFI and SLD spectrum of either family, the same on its whole orbit,
    so --x and --phi-true are checked and echoed. A pure state's SLD is 2 drho:
    its QFI is 4 Var(h), from _number_moments or one product h c, and its
    spectrum +-sqrt(QFI). The dephasing family's come from _covariant_sld,
    and it takes none of the pure family's flags --state, --h and --x."""
    if args.family == "pure":
        state = "vacuum" if args.state is None else args.state
        generator = "number" if args.h is None else args.h
        x = 0.0 if args.x is None else args.x
        if generator == "number":
            c = _parse_state(state, args.dim)
            if len(c) < 2:
                raise ValueError(f"number operator needs dim >= 2, got {len(c)}")
            radius, four_var = len(c) - 1.0, 4.0 * _number_moments(c)[1]
        elif os.path.exists(generator):
            import numpy as np

            from .estimation import pure_unitary_qfi
            from .operators import StateVector

            op = load_observable(generator)
            c = _parse_state(state, op.dim if args.dim is None else args.dim)
            h, four_var = op.matrix, pure_unitary_qfi(op, StateVector(c))
            radius = float(np.linalg.norm(h))  # Frobenius: at least h's largest |eigenvalue|
            if not math.isfinite(x * radius):  # only near overflow: the exact one
                radius = float(np.abs(np.linalg.eigvalsh(h)).max())
        else:
            raise ValueError(f"unknown generator '{generator}' (not 'number' or a file)")
        if not math.isfinite(x * radius):
            raise ContractViolationError(f"phase x h is not finite at x={x}")
        report = {
            "command": "qfi",
            "family": "pure",
            "generator": generator,
            "state": state,
            "dim": len(c),
            "x": x,
            "pure_form_4var": four_var,
        }
        report["qfi"], hi = four_var, math.sqrt(four_var)
    else:
        for flag, value in (("--state", args.state), ("--h", args.h), ("--x", args.x)):
            if value is not None:
                raise ValueError(f"{flag} applies to --family pure only")
        from .dephasing import _covariant_sld

        spec = _dephasing_spec(_resolve_alpha(args), args.r, args.beta, args.dim, args.phi_true)
        c = spec.probe_state().amplitudes
        report = {
            "command": "qfi",
            "family": "dephasing",
            **_probe_header(spec, args.phi_true),
            "dim": spec.dim,
            "fnsr_quadrature": analytic_fnsr(spec.probe.r, spec.probe.alpha, args.beta),
        }
        report["qfi"], hi = _covariant_sld(c, spec.diffusion.beta)
    # L = iA has a +- spectrum; a zero SLD prints min 0.0, not -0.0
    report["sld_spectrum"] = {"min": 0.0 - hi, "max": hi, "dim": report["dim"]}
    _emit(_report_text(report, args.format), args.out)
    return 0


def cmd_nsr(args) -> int:
    """The report of one observable at phi_true. The quadrature's comes from
    the probe's four sums (_quadrature_reports), at the offset phi_exp -
    phi_true; by default the optimal offset -pi/2 itself, which is exact at
    any phi_true, while phi_exp reports optimal_calibration(phi_true). The
    number operator's comes from its two sums (_number_moments), with slope
    exactly 0, as n commutes with the phase. Only a matrix file takes the
    dense assess_observable."""
    phi_true = args.phi_true
    spec = _dephasing_spec(_resolve_alpha(args), args.r, args.beta, args.dim, phi_true)
    if args.observable == "quadrature":
        report_at = _quadrature_reports(spec, phi_true)
        if args.phi_exp is None:
            phi_exp, offset = optimal_calibration(phi_true), -math.pi / 2.0
        else:
            phi_exp, offset = args.phi_exp, _finite("phi_exp", args.phi_exp) - phi_true
        rep = report_at(offset)
        obs_desc = {"observable": "quadrature", "phi_exp": phi_exp}
    else:
        if args.observable == "number":
            rep = _sensitivity_report(*_number_moments(_probe(spec.probe)), 0.0)
        else:
            from .dephasing import dephasing_family
            from .estimation import assess_observable

            rep = assess_observable(dephasing_family(spec), phi_true,
                                    load_observable(args.observable))
        obs_desc = {"observable": args.observable}
    report = {
        "command": "nsr",
        **_probe_header(spec, phi_true),
        "dim": spec.dim,
        "mean": rep.mean,
        "variance": rep.variance,
        "slope": rep.slope,
        "nsr": rep.nsr,
        "fisher": rep.fisher,
        "fnsr_analytic_optimal": analytic_fnsr(spec.probe.r, spec.probe.alpha, args.beta),
        **obs_desc,
    }
    _emit(_report_text(report, args.format), args.out)
    return 0


def _left_table(two_beta_sq, n_grid, rows) -> Iterator[str]:
    """fig2_left.csv as a header, then one string per 2 beta^2 row of the
    table: a line (two_beta_sq, N, ratio, enhanced) per cell, with each grid
    value repr'd once; the bytes _csv_text gives for the same rows."""
    n_text = [repr(n) for n in n_grid]
    yield "two_beta_sq,N,ratio,enhanced\r\n"
    for t, row in zip(two_beta_sq, rows):
        t = repr(t)
        yield "".join(f"{t},{n},{ratio!r},{int(ratio >= 1.0)}\r\n"
                      for n, ratio in zip(n_text, row))


def cmd_fig2(args) -> int:
    """Fig. 2's enhancement region from its closed forms on floats
    (_ratio_table): fig2_left.csv holds every cell of the (2 beta^2, N) grid,
    fig2_right.csv each row's first maximum over N, and stdout the threshold
    2 beta^2."""
    tbs_grid = (_parse_grid(args.grid_two_beta_sq, log=True) if args.grid_two_beta_sq
                else DEFAULT_TWO_BETA_SQ_GRID)
    n_grid = _parse_grid(args.grid_N, log=True) if args.grid_N else DEFAULT_N_GRID
    _check_count("grid cells", len(tbs_grid) * len(n_grid))
    rows, argmax = _ratio_table(tbs_grid, n_grid)
    right = _csv_text(
        ["two_beta_sq", "max_ratio", "argmax_N"],
        ((t, row[j], n_grid[j]) for t, row, j in zip(tbs_grid, rows, argmax)),
    )
    out_dir = args.out or "."
    os.makedirs(out_dir, exist_ok=True)
    _atomic_write(os.path.join(out_dir, "fig2_left.csv"), _left_table(tbs_grid, n_grid, rows))
    _atomic_write(os.path.join(out_dir, "fig2_right.csv"), (right,))
    threshold = enhancement_threshold()
    sys.stdout.write(f"enhancement threshold two_beta_sq = {threshold:.4f}\n")
    return 0


def cmd_mc(args) -> int:
    from .montecarlo import adaptive_calibrate, run_trials

    phi_true = args.phi_true
    spec = _dephasing_spec(_resolve_alpha(args), args.r, args.beta, args.dim, phi_true)
    lines: list[str] = []
    if args.adaptive:
        _check_count("--rounds", args.rounds)
        estimates, clamped, fisher, optimal_fisher = adaptive_calibrate(
            spec, phi_true, batch=args.batch, rounds=args.rounds, seed=args.seed
        )
        for k, (est, flag) in enumerate(zip(estimates.tolist(), clamped.tolist())):
            lines.append(json.dumps(_json_ready(
                {"round": k, "estimate": est, "fisher": fisher[k + 1], "clamped": flag}
            ), sort_keys=True))
        summary = {
            "command": "mc-adaptive",
            **_probe_header(spec, phi_true),
            "batch": args.batch,
            "rounds": args.rounds,
            "seed": args.seed,
            "initial_fisher": fisher[0],
            "final_estimate": estimates[-1],
            "final_fisher": fisher[-1],
            "optimal_fisher": optimal_fisher,
            "fisher_fraction": fisher[-1] / optimal_fisher,
            "clamped_count": int(clamped.sum()),
        }
    else:
        _check_count("--repeats", args.repeats)
        run = run_trials(spec, phi_true, nu=args.nu, repeats=args.repeats, seed=args.seed)
        for k, (est, clamped) in enumerate(zip(run.estimates.tolist(), run.clamped.tolist())):
            lines.append(json.dumps(_json_ready({
                "repeat": k,
                "nu": args.nu,
                "estimate": est,
                "clamped": clamped,
            }), sort_keys=True))
        delta_m, threshold, ok = run.small_dm
        fnsr = analytic_fnsr(spec.probe.r, spec.probe.alpha, args.beta)
        summary = {
            "command": "mc",
            **_probe_header(spec, phi_true),
            "nu": args.nu,
            "repeats": args.repeats,
            "seed": args.seed,
            "empirical_variance": run.empirical_variance,
            "predicted_variance": run.predicted_variance,
            "fnsr_analytic": fnsr,
            "nu_var_fnsr": args.nu * run.empirical_variance * fnsr,
            "clamped_count": int(run.clamped.sum()),
            "small_dm": {"delta_m": delta_m, "threshold": threshold, "ok": ok},
        }
    text = "\n".join(lines + [json.dumps(_json_ready(summary), sort_keys=True)]) + "\n"
    _emit(text, args.out)
    return 0


def cmd_scan(args) -> int:
    alphas = _parse_grid(args.grid_alpha) if args.grid_alpha else None
    rs = _parse_grid(args.grid_r) if args.grid_r else [args.r]
    betas = _parse_grid(args.grid_beta) if args.grid_beta else [args.beta]
    if alphas is None:
        alphas = [_resolve_alpha(args)]
    _check_count("grid cells", len(alphas) * len(rs) * len(betas))
    for name, values in (("alpha", alphas), ("r", rs)):
        for value in values:
            _finite(name, value)
    header = ["alpha", "r", "beta", "fnsr"]
    if args.numeric:
        header.append("fisher_numeric")
    rows = []
    for a in alphas:
        for r in rs:
            for b in betas:
                beta = DiffusionParams(float(b)).beta
                row = [float(a), float(r), beta, analytic_fnsr(r, a, beta)]
                if args.numeric:
                    spec = _dephasing_spec(float(a), float(r), beta, args.dim, args.phi_true)
                    row.append(_quadrature_reports(spec, args.phi_true)(-math.pi / 2.0).fisher)
                rows.append(row)
    _emit(_csv_text(header, rows), args.out)
    return 0


def _add_family_args(p: argparse.ArgumentParser):
    p.add_argument("--alpha", type=float, default=None, help="probe displacement")
    p.add_argument("--r", type=float, default=0.0, help="probe squeezing")
    p.add_argument("--beta", type=float, default=0.0, help="diffusion degree")
    p.add_argument("--N", type=float, default=None,
                   help="mean excitation; sets alpha = sqrt(N - sinh^2 r) if --alpha absent")
    p.add_argument("--dim", type=int, default=None,
                   help=f"Fock truncation, at most {MAX_DIM} (default: policy)")
    p.add_argument("--phi-true", dest="phi_true", type=float, default=0.0)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nsrkit",
        description="Quantum estimation sensitivity toolkit (NSR / SLD / QFI).",
    )
    parser.add_argument("--version", action="version", version=f"nsrkit {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_qfi = sub.add_parser("qfi", help="quantum Fisher information of a family")
    p_qfi.add_argument("--family", choices=["pure", "dephasing"], default="dephasing")
    # the pure family's flags default to None, so that the dephasing family
    # can reject them; cmd_qfi reads None as number, vacuum and 0.0
    p_qfi.add_argument("--h", default=None, help="pure-family generator: 'number' or a matrix file")
    p_qfi.add_argument("--state", default=None,
                       help="pure-family state: vacuum | fock:n | coherent:a | gaussian:a:r")
    p_qfi.add_argument("--x", type=float, default=None, help="evaluation point (pure family)")
    _add_family_args(p_qfi)
    p_qfi.add_argument("--out", default=None)
    p_qfi.add_argument("--format", choices=["json", "csv"], default="json")
    p_qfi.set_defaults(func=cmd_qfi)

    p_nsr = sub.add_parser("nsr", help="noise-to-sensibility report of an observable")
    p_nsr.add_argument("--observable", default="quadrature",
                       help="quadrature | number | matrix file path")
    p_nsr.add_argument("--phi-exp", dest="phi_exp", type=float, default=None,
                       help="quadrature angle (default: optimal calibration)")
    _add_family_args(p_nsr)
    p_nsr.add_argument("--out", default=None)
    p_nsr.add_argument("--format", choices=["json", "csv"], default="json")
    p_nsr.set_defaults(func=cmd_nsr)

    p_fig2 = sub.add_parser("fig2", help="enhancement-region scan tables")
    p_fig2.add_argument("--grid-two-beta-sq", dest="grid_two_beta_sq", default=None,
                        help="lo:hi:count, log-spaced (default 0.01:1.0:60)")
    p_fig2.add_argument("--grid-N", dest="grid_N", default=None,
                        help="lo:hi:count, log-spaced (default 0.05:1e4:200)")
    p_fig2.add_argument("--out", default=None, help="output directory (default: cwd)")
    p_fig2.set_defaults(func=cmd_fig2)

    p_mc = sub.add_parser("mc", help="Monte Carlo estimation trials")
    _add_family_args(p_mc)
    p_mc.add_argument("--nu", type=int, default=100000, help="samples per repeat")
    p_mc.add_argument("--repeats", type=int, default=200)
    p_mc.add_argument("--seed", type=int, default=7)
    p_mc.add_argument("--adaptive", action="store_true", help="run the adaptive loop")
    p_mc.add_argument("--rounds", type=int, default=8)
    p_mc.add_argument("--batch", type=int, default=10000, help="samples per adaptive round")
    p_mc.add_argument("--out", default=None)
    p_mc.set_defaults(func=cmd_mc, beta=0.3)

    p_scan = sub.add_parser("scan", help="tabulate the analytic sensitivity over grids")
    _add_family_args(p_scan)
    p_scan.add_argument("--grid-alpha", dest="grid_alpha", default=None, help="lo:hi:count")
    p_scan.add_argument("--grid-r", dest="grid_r", default=None, help="lo:hi:count")
    p_scan.add_argument("--grid-beta", dest="grid_beta", default=None, help="lo:hi:count")
    p_scan.add_argument("--numeric", action="store_true",
                        help="add the numeric fisher of the calibrated quadrature")
    p_scan.add_argument("--out", default=None)
    p_scan.set_defaults(func=cmd_scan)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except NumericalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OverflowError as exc:
        print(f"error: an input is out of range: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:  # like an oversized count: too large for this machine
        # one raised for a LAPACK workspace carries no text: name the command
        dim = getattr(args, "dim", None)
        detail = str(exc) or args.command + ("" if dim is None else f" at --dim {dim}")
        print(f"error: out of memory: {detail}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
