"""Monte Carlo verification of mean-inversion estimation.

Outcomes are Born-rule draws from the observable's eigenbasis; the estimator
inverts the calibration curve <M>_x at the observed sample mean. That mean
needs only how often each eigenvalue came up, so the one sampler, a guide
table, counts the draws CHUNK uniforms at a time and never holds them: memory
does not grow with the sample count. On a phase family a quadrature's mean is
an exact cosine in x, so two exact means fix the curve and the inversion is an
arccos. An estimate outside the curve's window is clamped to it and flagged;
the flags are data, returned with the estimates. Across repeats,
nu * Var(x_hat) must approach the squared noise-to-sensibility ratio, and an
adaptive loop re-centers the quadrature angle each round. Both loops draw and
invert through the same measurement step.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .dephasing import dephasing_family, optimal_calibration, quadrature
from .errors import (
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
# Buckets of the sampling guide table; a power of two, so scaling is exact.
GUIDE_BUCKETS = 2**12
# Uniforms read per step of the sampler, whatever the sample count.
CHUNK = 2**14


@dataclass(frozen=True)
class MeasurementModel:
    """Eigendecomposition of an observable, exposing Born-rule probabilities."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    @classmethod
    def from_observable(cls, m) -> "MeasurementModel":
        evals, vecs = np.linalg.eigh(m.matrix)
        evals.setflags(write=False)
        vecs.setflags(write=False)
        return cls(eigenvalues=evals, eigenvectors=vecs)

    def probabilities(self, rho) -> np.ndarray:
        """p_k = <e_k|rho|e_k>, clamped at -1e-12 and renormalized to 1e-10."""
        vecs = self.eigenvectors
        p = np.real((vecs.conj() * (rho.matrix @ vecs)).sum(axis=0))
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
    """Histogram of nu inverse-CDF draws of the indices 0..len(p)-1, with a
    guide table (Chen & Asau, AIIE Trans. 6, 163 (1974)).

    The CDF is built as Generator.choice builds it, so an index is exactly
    cdf.searchsorted(u, side="right") of a uniform u: the index choice(p=p)
    draws from the same stream. A uniform whose bucket floor(u * GUIDE_BUCKETS)
    holds no CDF node takes the bucket's first index, so only the bucket is
    counted; the others are searched. Uniforms are read CHUNK at a time into
    arrays the table owns, so memory does not grow with nu.
    """

    def __init__(self, p: np.ndarray, nu: int):
        cdf = p.cumsum()
        cdf /= cdf[-1]
        self._cdf = cdf
        self._nu = nu
        nodes = cdf * GUIDE_BUCKETS  # exact: GUIDE_BUCKETS is a power of two
        buckets = np.arange(GUIDE_BUCKETS)
        first = nodes.searchsorted(buckets, side="right")
        self._holds_node = nodes.searchsorted(buckets + 1, side="left") > first
        # buckets holding a node spill into the extra bin p.size
        self._guide = np.where(self._holds_node, p.size, first)
        n = min(nu, CHUNK)
        self._u = np.empty(n)
        self._bucket = np.empty(n, dtype=np.intp)

    def counts(self, rng: np.random.Generator) -> np.ndarray:
        """How often each index comes up in nu draws from rng, as int64."""
        d = self._cdf.size
        per_bucket = np.zeros(GUIDE_BUCKETS, dtype=np.int64)
        searched = np.zeros(d, dtype=np.int64)
        for done in range(0, self._nu, CHUNK):
            n = min(CHUNK, self._nu - done)
            u, bucket = self._u[:n], self._bucket[:n]
            rng.random(out=u)
            # floor(u * GUIDE_BUCKETS), exact since u >= 0 and the scale is 2^12
            np.multiply(u, GUIDE_BUCKETS, out=bucket, casting="unsafe")
            per_bucket += np.bincount(bucket, minlength=GUIDE_BUCKETS)
            in_node = u[self._holds_node[bucket]]
            searched += np.bincount(self._cdf.searchsorted(in_node, side="right"), minlength=d)
        guided = np.bincount(self._guide, weights=per_bucket, minlength=d + 1)[:-1]
        return searched + guided.astype(np.int64)  # weights sum exactly below 2^53


@dataclass(frozen=True)
class CalibrationCurve:
    """The exact calibration curve <m>_x = A cos(x - x0) of a quadrature m on
    a phase family, on the half period where it is monotone.

    xs = (x0, x0 + pi) are the ends of that half period and means = (A, -A)
    the means there; window = (lo, hi), inside xs, is the range of x the
    estimates are clamped to.
    """

    xs: np.ndarray
    means: np.ndarray
    window: tuple[float, float]


def build_curve(fam: ParamFamily, m, start: float) -> CalibrationCurve:
    """The cosine <m>_x, fixed by the exact means at start and start + pi/2,
    inverted on [start, start + pi] within the family domain.

    On a phase family a quadrature's mean holds only the harmonics e^{+-ix},
    so <m>_{start+t} = M0 cos t + M1 sin t. The window is also cut to the
    monotone half period that holds start + pi/2. A third mean, at the window
    middle, must match the cosine to 1e-9 relative.
    """
    m0 = expectation(fam.state_at(start), m)
    m1 = expectation(fam.state_at(start + math.pi / 2), m)
    amplitude = math.hypot(m0, m1)
    if amplitude <= IMAG_RESIDUE_TOL:
        raise NonInvertibleCurveError(f"<m>_x is flat (amplitude {amplitude:.3g}); not invertible")
    theta = math.atan2(m1, m0)
    half_periods = math.floor((math.pi / 2 - theta) / math.pi)
    x0 = start + theta + half_periods * math.pi
    if half_periods % 2:
        amplitude = -amplitude
    lo = max(start, x0, fam.domain[0])
    hi = min(start + math.pi, x0 + math.pi, fam.domain[1])
    if hi <= lo:
        raise EstimatorDivergenceError(
            f"monotone window ({start:.4g}, {start + math.pi:.4g}) has no "
            f"overlap with the domain {fam.domain}"
        )
    mid = (lo + hi) / 2
    residual = expectation(fam.state_at(mid), m) - amplitude * math.cos(mid - x0)
    if abs(residual) > 1e-9 * max(1.0, abs(amplitude)):
        raise NonInvertibleCurveError(
            f"<m>_x is off the cosine through its two means by {residual:.3g}; "
            "not a quadrature on a phase family"
        )
    return CalibrationCurve(xs=np.array([x0, x0 + math.pi]),
                            means=np.array([amplitude, -amplitude]), window=(lo, hi))


def invert_mean(curve: CalibrationCurve, observed_mean: float) -> tuple[float, bool]:
    """Estimate x from an observed sample mean: (x0 + acos(mean / A), clamped).

    A mean beyond the amplitude, or an estimate outside the window, is clamped
    to the window rather than failing, so variance statistics over many noisy
    repeats stay well defined; clamped says whether that happened.
    """
    if math.isnan(observed_mean):
        raise ContractViolationError("observed mean is NaN")
    x0, amplitude = float(curve.xs[0]), float(curve.means[0])
    x = x0 + math.acos(min(max(observed_mean / amplitude, -1.0), 1.0))
    lo, hi = curve.window
    estimate = min(max(x, lo), hi)
    return estimate, estimate != x or abs(observed_mean) > abs(amplitude)


def _measurement(fam: ParamFamily, m, start: float, rho_true, nu: int):
    """The step run_trials and adaptive_calibrate share: the calibration
    curve of m from start and the guide table of m's Born distribution at
    rho_true. Returns rng -> invert_mean of the mean of nu draws from rng."""
    curve = build_curve(fam, m, start)
    model = MeasurementModel.from_observable(m)
    table = _GuideTable(model.probabilities(rho_true), nu)

    def estimate(rng: np.random.Generator) -> tuple[float, bool]:
        return invert_mean(curve, float(table.counts(rng) @ model.eigenvalues) / nu)

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
    estimate = _measurement(fam, m, start, fam.state_at(phi_true), nu)
    estimates = np.empty(repeats)
    clamped = np.empty(repeats, dtype=bool)
    for k in range(repeats):
        estimates[k], clamped[k] = estimate(np.random.default_rng([seed, k]))
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
) -> tuple[np.ndarray, np.ndarray]:
    """Adaptive loop: measure a batch at the current quadrature angle, invert
    for phi_hat, re-center the angle to phi_hat - pi/2, repeat.

    Starts at the domain midpoint minus pi/2. Returns the read-only arrays
    (estimates, clamped), one entry per round. Raises EstimatorDivergenceError
    (carrying the round index) if the inversion window leaves the domain.
    """
    if rounds < 1:
        raise ContractViolationError(f"need at least 1 round, got {rounds}")
    if batch < 1:
        raise ContractViolationError(f"sample count must be positive, got {batch}")
    fam = dephasing_family(spec)
    domain = fam.domain
    if not fam.contains(phi_true_hidden):
        raise ContractViolationError(f"phi_true {phi_true_hidden} outside {domain}")
    rho_true = fam.state_at(phi_true_hidden)
    phi_exp = (domain[0] + domain[1]) / 2.0 - math.pi / 2.0
    estimates = np.empty(rounds)
    clamped = np.empty(rounds, dtype=bool)
    for k in range(rounds):
        try:
            estimate = _measurement(fam, quadrature(phi_exp, fam.dim), phi_exp, rho_true, batch)
        except (EstimatorDivergenceError, NonInvertibleCurveError) as exc:
            raise EstimatorDivergenceError(
                f"calibration window unusable at round {k}: {exc}", round_index=k
            ) from exc
        est, clamped[k] = estimate(np.random.default_rng([seed, k]))
        if not fam.contains(est):
            raise EstimatorDivergenceError(
                f"estimate {est:.4g} left the domain {domain} at round {k}",
                round_index=k,
            )
        estimates[k] = est
        phi_exp = est - math.pi / 2.0
    estimates.setflags(write=False)
    clamped.setflags(write=False)
    return estimates, clamped
