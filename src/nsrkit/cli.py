"""Command-line front end.

Subcommands: qfi, nsr, fig2, mc, scan. Single reports go out as JSON, grids
as CSV; all file writes go through a temp file and an atomic rename so a
failure never leaves a partial output behind.

Exit codes: 0 success, 2 configuration error, 3 numerical-consistency error.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
import tempfile

import numpy as np

from . import __version__
from .dephasing import (
    DEFAULT_N_GRID,
    DEFAULT_TWO_BETA_SQ_GRID,
    DiffusionParams,
    PhaseFamilySpec,
    analytic_fnsr,
    dephasing_family,
    enhancement_scan,
    enhancement_threshold,
    optimal_calibration,
    quadrature,
)
from .errors import (
    ContractViolationError,
    DegenerateObservableError,
    DimensionMismatchError,
    EstimatorDivergenceError,
    NoInformationError,
    NonInvertibleCurveError,
    NumericalConsistencyError,
    TruncationError,
)
from .estimation import assess_observable, pure_unitary_family, pure_unitary_qfi, sld
from .montecarlo import adaptive_calibrate, run_trials
from .operators import (
    MAX_DIM,
    GaussianProbeSpec,
    Operator,
    StateVector,
    check_dim,
    default_truncation_dim,
    fock_state,
    gaussian_probe,
    number_operator,
    real_trace,
)

NUMERICAL_ERRORS = (
    TruncationError,
    NumericalConsistencyError,
    DegenerateObservableError,
    NoInformationError,
    NonInvertibleCurveError,
    EstimatorDivergenceError,
)


def _json_ready(obj):
    """Recursively convert to JSON-safe values; non-finite floats become strings."""
    if isinstance(obj, dict):
        return {k: _json_ready(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_ready(v) for v in obj]
    if isinstance(obj, (np.floating, float)):
        f = float(obj)
        if math.isnan(f):
            return "nan"
        if math.isinf(f):
            return "inf" if f > 0 else "-inf"
        return f
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, np.bool_):
        return bool(obj)
    return obj


def _atomic_write(path: str, text: str):
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", newline="") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _emit(text: str, out: str | None):
    if out:
        _atomic_write(out, text)
    else:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")


def _report_text(report: dict, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(_json_ready(report), indent=2, sort_keys=True) + "\n"
    buf = io.StringIO()
    flat = {}
    for key, value in _json_ready(report).items():  # a nested record becomes key_sub columns
        if isinstance(value, dict):
            flat.update((f"{key}_{sub}", v) for sub, v in value.items())
        else:
            flat[key] = value
    keys = sorted(flat)
    writer = csv.writer(buf)
    writer.writerow(keys)
    writer.writerow([flat[k] for k in keys])
    return buf.getvalue()


def _csv_text(header: list[str], rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(header)
    for row in rows:
        writer.writerow(row)
    return buf.getvalue()


def _parse_grid(text: str, log: bool = False) -> np.ndarray:
    """lo:hi:count -> linspace (or geomspace with log=True)."""
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError(f"grid spec '{text}' must be lo:hi:count")
    lo, hi, count = float(parts[0]), float(parts[1]), int(parts[2])
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError(f"grid bounds must be finite, got '{text}'")
    if count < 1 or hi < lo:
        raise ValueError(f"bad grid spec '{text}'")
    if log and count > 1 and lo <= 0:
        raise ValueError(f"log-spaced grid needs lo > 0, got '{text}'")
    if count == 1:
        return np.array([lo])
    return np.geomspace(lo, hi, count) if log else np.linspace(lo, hi, count)


def load_observable(path: str) -> Operator:
    """Read 'dim <n>' then n*n whitespace-separated complex entries (re+imj)."""
    with open(path) as fh:
        tokens = fh.read().split()
    if len(tokens) < 2 or tokens[0] != "dim":
        raise ValueError(f"{path}: expected header 'dim <n>'")
    n = check_dim(int(tokens[1]))
    entries = tokens[2:]
    if len(entries) != n * n:
        raise ValueError(f"{path}: expected {n * n} entries, found {len(entries)}")
    mat = np.array([complex(t) for t in entries]).reshape(n, n)
    return Operator(mat)


def _parse_state(text: str, dim: int | None = None) -> StateVector:
    """vacuum | fock:n | coherent:a | gaussian:a:r on dim Fock levels; without
    dim, on the spec's default truncation."""
    kind, _, rest = text.partition(":")
    if kind in ("vacuum", "fock"):
        n = int(rest) if kind == "fock" else 0
        return fock_state(check_dim(dim or max(16, 2 * (n + 1))), n)
    if kind == "coherent":
        alpha, r = float(rest), 0.0
    elif kind == "gaussian":
        a_str, _, r_str = rest.partition(":")
        alpha, r = float(a_str), float(r_str)
    else:
        raise ValueError(f"unknown state spec '{text}'")
    return gaussian_probe(GaussianProbeSpec(alpha, r, dim or default_truncation_dim(alpha, r)))


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
    probe = GaussianProbeSpec(alpha, r, dim or default_truncation_dim(alpha, r))
    return PhaseFamilySpec(
        probe=probe,
        diffusion=DiffusionParams(beta),
        phi_domain=(phi_true - math.pi, phi_true + math.pi),
    )


def cmd_qfi(args) -> int:
    if args.family == "pure":
        if os.path.exists(args.h):
            h = load_observable(args.h)
            if args.dim and args.dim != h.dim:
                raise DimensionMismatchError(f"generator dim {h.dim} != state dim {args.dim}")
            psi = _parse_state(args.state, h.dim)
        elif args.h == "number":
            psi = _parse_state(args.state, args.dim)
            h = number_operator(psi.dim)
        else:
            raise ValueError(f"unknown generator '{args.h}' (not 'number' or a file)")
        fam = pure_unitary_family(h, psi)
        x = args.x
        report = {
            "command": "qfi",
            "family": "pure",
            "generator": args.h,
            "state": args.state,
            "dim": psi.dim,
            "x": x,
            "pure_form_4var": pure_unitary_qfi(h, psi),
        }
    else:
        x = args.phi_true
        spec = _dephasing_spec(_resolve_alpha(args), args.r, args.beta, args.dim, x)
        fam = dephasing_family(spec)
        report = {
            "command": "qfi",
            "family": "dephasing",
            "alpha": spec.probe.alpha,
            "r": spec.probe.r,
            "beta": args.beta,
            "dim": spec.dim,
            "phi_true": x,
            "fnsr_quadrature": analytic_fnsr(spec.probe.r, spec.probe.alpha, args.beta),
        }
    if not fam.contains(x):
        raise ContractViolationError(f"x={x} outside family domain {fam.domain}")
    # One SLD gives both the QFI <L^2> (the arithmetic of qfi) and the spectrum.
    rho = fam.state_at(x)
    l_mat = sld(rho, fam.derivative_at(x)).matrix
    report["qfi"] = real_trace(rho.matrix, l_mat @ l_mat)
    evals = np.linalg.eigvalsh(l_mat)
    report["sld_spectrum"] = {
        "min": float(evals.min()),
        "max": float(evals.max()),
        "dim": int(evals.size),
    }
    _emit(_report_text(report, args.format), args.out)
    return 0


def cmd_nsr(args) -> int:
    phi_true = args.phi_true
    spec = _dephasing_spec(_resolve_alpha(args), args.r, args.beta, args.dim, phi_true)
    fam = dephasing_family(spec)
    if args.observable == "quadrature":
        phi_exp = args.phi_exp if args.phi_exp is not None else optimal_calibration(phi_true)
        m = quadrature(phi_exp, spec.dim)
        obs_desc = {"observable": "quadrature", "phi_exp": phi_exp}
    elif args.observable == "number":
        m = number_operator(spec.dim)
        obs_desc = {"observable": "number"}
    else:
        m = load_observable(args.observable)
        obs_desc = {"observable": args.observable}
    rep = assess_observable(fam, phi_true, m)
    report = {
        "command": "nsr",
        "alpha": spec.probe.alpha,
        "r": spec.probe.r,
        "beta": args.beta,
        "dim": spec.dim,
        "phi_true": phi_true,
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


def cmd_fig2(args) -> int:
    tbs_grid = (
        _parse_grid(args.grid_two_beta_sq, log=True)
        if args.grid_two_beta_sq
        else DEFAULT_TWO_BETA_SQ_GRID
    )
    n_grid = _parse_grid(args.grid_N, log=True) if args.grid_N else DEFAULT_N_GRID
    scan = enhancement_scan(tbs_grid, n_grid)
    left = _csv_text(
        ["two_beta_sq", "N", "ratio", "enhanced"],
        [(t, n, ratio, int(enh)) for t, n, ratio, enh in scan.cells],
    )
    right = _csv_text(["two_beta_sq", "max_ratio", "argmax_N"], scan.max_rows)
    out_dir = args.out or "."
    os.makedirs(out_dir, exist_ok=True)
    _atomic_write(os.path.join(out_dir, "fig2_left.csv"), left)
    _atomic_write(os.path.join(out_dir, "fig2_right.csv"), right)
    threshold = enhancement_threshold()
    sys.stdout.write(f"enhancement threshold two_beta_sq = {threshold:.4f}\n")
    return 0


def cmd_mc(args) -> int:
    phi_true = args.phi_true
    spec = _dephasing_spec(_resolve_alpha(args), args.r, args.beta, args.dim, phi_true)
    lines: list[str] = []
    if args.adaptive:
        fam = dephasing_family(spec)
        domain = spec.phi_domain
        initial_phi_exp = (domain[0] + domain[1]) / 2.0 - math.pi / 2.0
        initial_fisher = assess_observable(
            fam, phi_true, quadrature(initial_phi_exp, spec.dim)
        ).fisher
        estimates, clamped = adaptive_calibrate(
            spec, phi_true, batch=args.batch, rounds=args.rounds, seed=args.seed
        )
        fishers = []
        for k, (est, flag) in enumerate(zip(estimates.tolist(), clamped.tolist())):
            m = quadrature(est - math.pi / 2.0, spec.dim)
            fisher = assess_observable(fam, phi_true, m).fisher
            fishers.append(fisher)
            lines.append(json.dumps(_json_ready(
                {"round": k, "estimate": est, "fisher": fisher, "clamped": flag}
            ), sort_keys=True))
        m_opt = quadrature(optimal_calibration(phi_true), spec.dim)
        optimal_fisher = assess_observable(fam, phi_true, m_opt).fisher
        summary = {
            "command": "mc-adaptive",
            "alpha": spec.probe.alpha,
            "r": spec.probe.r,
            "beta": args.beta,
            "phi_true": phi_true,
            "batch": args.batch,
            "rounds": args.rounds,
            "seed": args.seed,
            "initial_fisher": initial_fisher,
            "final_estimate": estimates[-1],
            "final_fisher": fishers[-1],
            "optimal_fisher": optimal_fisher,
            "fisher_fraction": fishers[-1] / optimal_fisher,
            "clamped_count": int(clamped.sum()),
        }
    else:
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
            "alpha": spec.probe.alpha,
            "r": spec.probe.r,
            "beta": args.beta,
            "phi_true": phi_true,
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
    rs = _parse_grid(args.grid_r) if args.grid_r else np.array([args.r])
    betas = _parse_grid(args.grid_beta) if args.grid_beta else np.array([args.beta])
    if alphas is None:
        alphas = np.array([_resolve_alpha(args)])
    for name, values in (("alpha", alphas), ("r", rs)):
        if not np.isfinite(values).all():
            raise ContractViolationError(f"{name} must be finite, got {values}")
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
                    fam = dephasing_family(spec)
                    m = quadrature(optimal_calibration(args.phi_true), spec.dim)
                    row.append(assess_observable(fam, args.phi_true, m).fisher)
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
    p_qfi.add_argument("--h", default="number", help="pure-family generator: 'number' or a matrix file")
    p_qfi.add_argument("--state", default="vacuum",
                       help="pure-family state: vacuum | fock:n | coherent:a | gaussian:a:r")
    p_qfi.add_argument("--x", type=float, default=0.0, help="evaluation point (pure family)")
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
    except NUMERICAL_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OverflowError as exc:
        print(f"error: an input is out of range: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
