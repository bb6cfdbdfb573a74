"""Monte Carlo verification of mean-inversion estimation.

Outcomes are Born-rule draws from the observable's eigenbasis; the estimator
inverts the tabulated calibration curve <M>_x at the observed sample mean.
Across repeats, nu * Var(x_hat) must approach the squared noise-to-sensibility
ratio, and an adaptive loop re-centers the quadrature angle each round.
"""

from __future__ import annotations

import logging
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .dephasing import dephasing_family, optimal_calibration, quadrature
from .errors import (
    CalibrationRangeWarning,
    ContractViolationError,
    EstimatorDivergenceError,
    NonInvertibleCurveError,
    NumericalConsistencyError,
)
from .estimation import ParamFamily, SensitivityReport, assess_observable
from .operators import IMAG_RESIDUE_TOL, expectation

log = logging.getLogger(__name__)

PROB_NEG_TOL = 1e-12
PROB_SUM_TOL = 1e-10
MIN_WINDOW_POINTS = 5
# Buckets of the sampling guide table; a power of two, so scaling is exact.
GUIDE_BUCKETS = 2**12


@dataclass(frozen=True)
class MeasurementModel:
    """Eigendecomposition of an observable, exposing Born-rule probabilities."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    @classmethod
    def from_observable(cls, m) -> "MeasurementModel":
        if not m.hermitian:
            raise ContractViolationError("measurement model needs a hermitian Operator")
        evals, vecs = np.linalg.eigh(m.matrix)
        evals.setflags(write=False)
        vecs.setflags(write=False)
        return cls(eigenvalues=evals, eigenvectors=vecs)

    def probabilities(self, rho) -> np.ndarray:
        """p_k = <e_k|rho|e_k>, clamped at -1e-12 and renormalized to 1e-10."""
        p = np.real(np.einsum("ij,jk,ki->i", self.eigenvectors.conj().T, rho.matrix,
                              self.eigenvectors))
        if p.min() < -PROB_NEG_TOL:
            raise NumericalConsistencyError(
                f"negative Born probability {p.min():.3e} beyond tolerance"
            )
        p = np.clip(p, 0.0, None)
        total = p.sum()
        if abs(total - 1.0) > PROB_SUM_TOL:
            raise NumericalConsistencyError(
                f"Born probabilities sum to {total}, not 1"
            )
        return p / total


class _GuideTable:
    """Inverse-CDF sampler of nu indices 0..len(p)-1 at a time, with a guide
    table (Chen & Asau, AIIE Trans. 6, 163 (1974)).

    The CDF is built as Generator.choice builds it and scaled by the power of
    two GUIDE_BUCKETS, which is exact, so a draw returns exactly
    cdf.searchsorted(rng.random(nu), side="right"): the indices choice(p=p)
    draws from the same stream. A uniform whose bucket holds no CDF node takes
    the bucket's first index; only the others are searched. Draws fill arrays
    the table owns, so repeated draws allocate (and page in) no new memory.
    """

    def __init__(self, p: np.ndarray, nu: int):
        cdf = p.cumsum()
        cdf /= cdf[-1]
        self._nodes = cdf * GUIDE_BUCKETS
        buckets = np.arange(GUIDE_BUCKETS)
        first = self._nodes.searchsorted(buckets, side="right")
        holds_node = self._nodes.searchsorted(buckets + 1, side="left") > first
        # -1 marks a bucket whose index depends on where in it the uniform falls
        self._guide = np.where(holds_node, -1, first)
        self._u = np.empty(nu)
        self._bucket = np.empty(nu, dtype=np.intp)
        self._idx = np.empty(nu, dtype=np.intp)

    def draw(self, rng: np.random.Generator) -> np.ndarray:
        """Indices of nu draws; the array is overwritten by the next draw."""
        u, idx = self._u, self._idx
        rng.random(out=u)
        u *= GUIDE_BUCKETS
        np.copyto(self._bucket, u, casting="unsafe")
        # Buckets are in range as u < 1; mode="raise" would copy idx first.
        np.take(self._guide, self._bucket, out=idx, mode="clip")
        search = idx < 0
        idx[search] = self._nodes.searchsorted(u[search], side="right")
        return idx


def sample_outcomes(rho, m, nu: int, seed) -> np.ndarray:
    """nu i.i.d. eigenvalue draws of m on rho; deterministic for a fixed seed.

    Draws go through a guide table and are the outcomes
    Generator.choice(eigenvalues, size=nu, p=probabilities) gives for the seed.
    """
    if nu < 1:
        raise ContractViolationError(f"sample count must be positive, got {nu}")
    model = MeasurementModel.from_observable(m)
    table = _GuideTable(model.probabilities(rho), nu)
    return model.eigenvalues[table.draw(np.random.default_rng(seed))]


@dataclass(frozen=True)
class CalibrationCurve:
    """Tabulated <m>_x with the largest monotone window around the grid middle.

    window is a half-open index range (start, stop) into xs/means on which the
    means are strictly monotone; slopes are the PCHIP node slopes there.
    """

    xs: np.ndarray
    means: np.ndarray
    window: tuple[int, int]
    slopes: np.ndarray = field(init=False, repr=False, compare=False)
    _ascending_means: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        xs = np.asarray(self.xs, dtype=float)
        means = np.asarray(self.means, dtype=float)
        if xs.ndim != 1 or xs.shape != means.shape:
            raise ContractViolationError("xs and means must be equal-length vectors")
        if not np.all(np.diff(xs) > 0):
            raise ContractViolationError("xs must be strictly increasing")
        lo, hi = self.window
        if not (0 <= lo < hi <= xs.size) or hi - lo < MIN_WINDOW_POINTS:
            raise ContractViolationError(f"window {self.window} too small")
        d = np.diff(means[lo:hi])
        if not (np.all(d > 0) or np.all(d < 0)):
            raise ContractViolationError("means are not strictly monotone on window")
        slopes = _pchip_slopes(np.diff(xs[lo:hi]), d / np.diff(xs[lo:hi]))
        for name, arr in (("xs", xs), ("means", means), ("slopes", slopes),
                          ("_ascending_means", means[lo:hi] * np.sign(d[0]))):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def window_xs(self) -> np.ndarray:
        return self.xs[self.window[0] : self.window[1]]

    @property
    def window_means(self) -> np.ndarray:
        return self.means[self.window[0] : self.window[1]]


def _pchip_slopes(h: np.ndarray, m: np.ndarray) -> np.ndarray:
    """PCHIP node slopes for spacings h and secants m, all secants of one sign.

    Interior: weighted harmonic mean of the neighbouring secants (Fritsch &
    Butland, SIAM J. Sci. Stat. Comput. 5, 300 (1984)). Ends: one-sided
    three-point estimate, zeroed if its sign differs from the end secant; the
    usual 3x-secant cap needs end secants of opposite sign, so never applies.
    """
    w1, w2 = 2 * h[1:] + h[:-1], h[1:] + 2 * h[:-1]
    d = np.empty(h.size + 1)
    d[1:-1] = 1.0 / ((w1 / m[:-1] + w2 / m[1:]) / (w1 + w2))
    h0, h1, m0, m1 = h[[0, -1]], h[[1, -2]], m[[0, -1]], m[[1, -2]]
    end = ((2 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
    d[[0, -1]] = np.where(end * m0 > 0, end, 0.0)
    return d


def _monotone_window(means: np.ndarray, mid: int) -> tuple[int, int]:
    """Largest run of strictly monotone means whose index range covers mid."""
    d = np.diff(means)
    signs = np.sign(d)
    best = (mid, mid + 1)
    start = 0
    for k in range(1, len(d) + 1):
        if k == len(d) or signs[k] != signs[start] or signs[k] == 0:
            if signs[start] != 0:
                lo, hi = start, k + 1  # run of equal nonzero sign -> points [start, k]
                if lo <= mid <= hi - 1 and hi - lo > best[1] - best[0]:
                    best = (lo, hi)
            start = k
    return best


def build_curve(fam: ParamFamily, m, grid) -> CalibrationCurve:
    """Tabulate <m>_x on the grid and locate the monotone inversion window."""
    xs = np.asarray(grid, dtype=float)
    if xs.ndim != 1 or xs.size < MIN_WINDOW_POINTS:
        raise ContractViolationError(f"grid needs at least {MIN_WINDOW_POINTS} points")
    if not (fam.contains(xs[0]) and fam.contains(xs[-1])):
        raise ContractViolationError(f"grid leaves the family domain {fam.domain}")
    means = np.array([expectation(fam.state_at(float(x)), m) for x in xs])
    lo, hi = _monotone_window(means, xs.size // 2)
    if hi - lo < MIN_WINDOW_POINTS:
        raise NonInvertibleCurveError(
            "no strictly monotone window of >= 5 points around the grid midpoint; "
            "<m>_x is not invertible there"
        )
    return CalibrationCurve(xs=xs, means=means, window=(lo, hi))


def _invert(curve: CalibrationCurve, observed_mean: float) -> tuple[float, bool]:
    xs = curve.window_xs
    ys = curve.window_means
    increasing = ys[-1] > ys[0]
    y_lo, y_hi = (ys[0], ys[-1]) if increasing else (ys[-1], ys[0])
    if math.isnan(observed_mean):
        raise ContractViolationError("observed mean is NaN")
    if observed_mean < y_lo or observed_mean > y_hi:
        return float(xs[0] if (observed_mean < y_lo) == increasing else xs[-1]), True
    i = int(np.searchsorted(curve._ascending_means,
                            observed_mean if increasing else -observed_mean))
    # Exact hits on the tabulated nodes must invert to their grid point.
    if ys[i] == observed_mean:
        return float(xs[i]), False
    # Bisect the Hermite cubic of the bracketing piece, in s = x - x0.
    (x0, x1), (y0, y1), (d0, d1) = (a[i - 1 : i + 1].tolist() for a in (xs, ys, curve.slopes))
    h, secant = x1 - x0, (y1 - y0) / (x1 - x0)
    t = (d0 + d1 - 2 * secant) / h
    c3, c2 = t / h, (secant - d0) / h - t
    lo, hi = 0.0, h
    while hi - lo > 1e-14:
        s = 0.5 * (lo + hi)
        if (((c3 * s + c2) * s + d0) * s + y0 > observed_mean) == increasing:
            hi = s
        else:
            lo = s
    return x0 + 0.5 * (lo + hi), False


def invert_mean(curve: CalibrationCurve, observed_mean: float) -> float:
    """Estimate x from an observed sample mean by inverting the monotone cubic
    (PCHIP) interpolant of the calibration window to 1e-14 in x.

    Means outside the window range clamp to the window edge (with a
    CalibrationRangeWarning) rather than failing, so variance statistics over
    many noisy repeats stay well defined.
    """
    estimate, clamped = _invert(curve, observed_mean)
    if clamped:
        warnings.warn(
            f"observed mean {observed_mean:.6g} outside the curve range; "
            f"estimate clamped to window edge {estimate:.6g}",
            CalibrationRangeWarning,
            stacklevel=2,
        )
    return estimate


@dataclass(frozen=True, eq=False)
class TrialRun:
    """What one run_trials run computed.

    estimates and clamped hold one entry per repeat (read-only);
    empirical_variance is the sample variance of the estimates;
    predicted_variance is nsr^2 / nu of the calibrated quadrature at phi_true;
    small_dm is the (delta_m, threshold, ok) of mean_inversion_condition.
    """

    estimates: np.ndarray
    clamped: np.ndarray
    empirical_variance: float
    predicted_variance: float
    small_dm: tuple[float, float, bool]


def mean_inversion_condition(report: SensitivityReport, nu: int) -> tuple[float, float, bool]:
    """Small-noise validity check of the inversion estimator.

    For the cosine quadrature mean the second derivative is -mean, so the
    condition is delta_M = sqrt(Var/nu) << 2 slope^2 / |mean|. Returns
    (delta_m, threshold, satisfied) with satisfied = delta_m <= threshold/10.
    """
    delta_m = math.sqrt(report.variance / nu)
    if abs(report.mean) <= IMAG_RESIDUE_TOL:  # a roundoff mean is an exact zero
        return delta_m, math.inf, True
    threshold = 2.0 * report.slope**2 / abs(report.mean)
    return delta_m, threshold, delta_m <= threshold / 10.0


def _curve_grid(phi_exp: float, domain: tuple[float, float], points: int) -> np.ndarray:
    lo = max(phi_exp, domain[0])
    hi = min(phi_exp + math.pi, domain[1])
    if hi <= lo:
        raise EstimatorDivergenceError(
            f"monotone window ({phi_exp:.4g}, {phi_exp + math.pi:.4g}) has no "
            f"overlap with the domain {domain}"
        )
    return np.linspace(lo, hi, points)


def run_trials(spec, phi_true: float, nu: int, repeats: int, seed: int) -> TrialRun:
    """Repeat the full protocol: draw nu outcomes at rho(phi_true), average,
    invert the calibration curve. Returns one TrialRun with every estimate
    and the spread of the estimates.

    Per-repeat RNG streams derive from (seed, repeat index), so repeats are
    order-independent and the whole run is reproducible bit for bit.
    """
    if nu < 1:
        raise ContractViolationError(f"sample count must be positive, got {nu}")
    if repeats < 2:
        raise ContractViolationError("need at least 2 repeats for a variance")
    fam = dephasing_family(spec)
    if not fam.contains(phi_true):
        raise ContractViolationError(f"phi_true {phi_true} outside {fam.domain}")
    phi_exp = optimal_calibration(phi_true)
    m = quadrature(phi_exp, fam.dim)
    report = assess_observable(fam, phi_true, m)
    delta_m, threshold, ok = mean_inversion_condition(report, nu)
    if not ok:
        log.warning(
            "small-noise condition marginal: delta_M=%.3g vs threshold %.3g",
            delta_m, threshold,
        )
    # phi_exp is wrapped into (-pi, pi]; the window starts at its 2pi image
    # whose midpoint is phi_true.
    start = phi_exp + math.tau * round((phi_true - math.pi / 2 - phi_exp) / math.tau)
    curve = build_curve(fam, m, _curve_grid(start, fam.domain, 2001))
    model = MeasurementModel.from_observable(m)
    table = _GuideTable(model.probabilities(fam.state_at(phi_true)), nu)
    outcomes = np.empty(nu)  # reused, like the table's arrays
    estimates = np.empty(repeats)
    clamped = np.empty(repeats, dtype=bool)
    for k in range(repeats):
        idx = table.draw(np.random.default_rng([seed, k]))
        np.take(model.eigenvalues, idx, out=outcomes, mode="clip")  # idx < len(p)
        estimates[k], clamped[k] = _invert(curve, float(outcomes.mean()))
    estimates.setflags(write=False)
    clamped.setflags(write=False)
    return TrialRun(
        estimates=estimates,
        clamped=clamped,
        empirical_variance=float(np.var(estimates, ddof=1)),
        predicted_variance=report.nsr**2 / nu,
        small_dm=(delta_m, threshold, ok),
    )


def adaptive_calibrate(
    spec,
    phi_true_hidden: float,
    batch: int,
    rounds: int,
    seed: int,
) -> list[float]:
    """Adaptive loop: measure a batch at the current quadrature angle, invert
    for phi_hat, re-center the angle to phi_hat - pi/2, repeat.

    Starts at the domain midpoint minus pi/2. Raises EstimatorDivergenceError
    (carrying the round index) if the inversion window leaves the domain.
    """
    if rounds < 1:
        raise ContractViolationError(f"need at least 1 round, got {rounds}")
    fam = dephasing_family(spec)
    domain = fam.domain
    if not fam.contains(phi_true_hidden):
        raise ContractViolationError(f"phi_true {phi_true_hidden} outside {domain}")
    phi_exp = (domain[0] + domain[1]) / 2.0 - math.pi / 2.0
    estimates: list[float] = []
    for k in range(rounds):
        try:
            grid = _curve_grid(phi_exp, domain, 1001)
            m = quadrature(phi_exp, fam.dim)
            curve = build_curve(fam, m, grid)
        except (EstimatorDivergenceError, NonInvertibleCurveError) as exc:
            raise EstimatorDivergenceError(
                f"calibration window unusable at round {k}: {exc}", round_index=k
            ) from exc
        outcomes = sample_outcomes(fam.state_at(phi_true_hidden), m, batch, [seed, k])
        est = invert_mean(curve, float(outcomes.mean()))  # warns when clamped
        if not fam.contains(est):
            raise EstimatorDivergenceError(
                f"estimate {est:.4g} left the domain {domain} at round {k}",
                round_index=k,
            )
        estimates.append(est)
        phi_exp = est - math.pi / 2.0
    return estimates
