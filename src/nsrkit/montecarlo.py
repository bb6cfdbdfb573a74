"""Monte Carlo verification of mean-inversion estimation.

Outcomes are Born-rule draws from the observable's eigenbasis, counted by one
sampler, a guide table (_GuideTable), in memory that does not grow with the
sample count. On a phase family a quadrature's mean is an exact cosine in x,
so the estimator inverts the observed sample mean with an arccos; an estimate
outside the curve's window is clamped to it and flagged, and the flags are
data, returned with the estimates. Across repeats nu * Var(x_hat) must
approach the squared noise-to-sensibility ratio (run_trials), and an adaptive
loop re-centers on each round's estimate and scores each round's Fisher value
(adaptive_calibrate). Both draw through one measurement step per phase
(_prepare), from one probe and the one real eigenbasis of X_0 = a + a^dag per
run; each Born distribution reads Re rho straight from the probe amplitudes,
so no density matrix is built.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dephasing import _kernel, _real_state
from .errors import (
    ContractViolationError,
    EstimatorDivergenceError,
    NonInvertibleCurveError,
    NumericalConsistencyError,
)
from .operators import _ladder_entries
from .scalar import (
    IMAG_RESIDUE_TOL,
    TRACE_TOL,
    PhaseFamilySpec,
    SensitivityReport,
    _finite,
    _quadrature_reports,
    _sample_count,
)

PROB_NEG_TOL = 1e-12
# Buckets of the sampling guide table; a power of two, so scaling is exact.
GUIDE_BUCKETS = 2**12
# A 64-bit word's bucket is its top log2(GUIDE_BUCKETS) bits.
SHIFT = 64 - (GUIDE_BUCKETS.bit_length() - 1)
# Generator words read per step of the sampler, whatever the sample count;
# the sampler's node-word buffer holds CHUNK // 8 of them.
CHUNK = 2**15


@dataclass(frozen=True, eq=False)
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
        """The Born probabilities of the eigenbasis at the state rho (_born)."""
        return _born(self.eigenvectors, rho.matrix)


def _born(vecs: np.ndarray, matrix: np.ndarray) -> np.ndarray:
    """p_k = <e_k|rho|e_k> for the columns e_k of vecs and rho's matrix,
    clamped at -PROB_NEG_TOL and divided by their sum, Tr rho, which must be
    within TRACE_TOL of 1."""
    p = np.real((vecs.conj() * (matrix @ vecs)).sum(axis=0))
    if p.min() < -PROB_NEG_TOL:
        raise NumericalConsistencyError(
            f"negative Born probability {p.min():.3e} beyond tolerance"
        )
    p = np.clip(p, 0.0, None)
    total = p.sum()
    if abs(total - 1.0) > TRACE_TOL:
        raise NumericalConsistencyError(
            f"Born probabilities sum to {total}, not 1"
        )
    return p / total


class _GuideTable:
    """Histogram of nu inverse-CDF draws of the indices 0..len(p)-1, with a
    guide table (Chen & Asau, AIIE Trans. 6, 163 (1974)).

    The CDF is built as Generator.choice builds it, so an index is exactly
    cdf.searchsorted(u, side="right") of a uniform u: the index choice(p=p)
    draws from the same stream. The table reads the generator's 64-bit words
    w, not its uniforms: for PCG64, the bit generator default_rng builds,
    Generator.random returns u = (w >> 11) * 2^-53, so the bucket
    floor(u * GUIDE_BUCKETS) is w >> SHIFT, and u >= cdf_k exactly when
    w >= edge_k = ceil(cdf_k * 2^53) << 11. A word whose bucket holds no CDF
    node takes the bucket's first index, so only the bucket is counted. The
    others are copied into a buffer of CHUNK // 8 words, which is counted
    against the integer edges (an in-place sort, searchsorted and a
    difference) when the next step's node words would not fit, and once at
    the end; a step with more node words than the buffer holds is counted at
    once. Words are read CHUNK at a time, and a step's words are dropped
    before the next step's are read, so memory is O(CHUNK), whatever nu.
    """

    def __init__(self, p: np.ndarray, nu: int):
        cdf = p.cumsum()
        cdf /= cdf[-1]
        self._size = p.size
        self._nu = nu
        nodes = cdf * GUIDE_BUCKETS  # exact: GUIDE_BUCKETS is a power of two
        buckets = np.arange(GUIDE_BUCKETS)
        first = nodes.searchsorted(buckets, side="right")
        self._holds_node = nodes.searchsorted(buckets + 1, side="left") > first
        # buckets holding a node spill into the extra bin p.size
        self._guide = np.where(self._holds_node, p.size, first)
        # an edge at 2^64 (cdf_k == 1.0) is never crossed, so it is left out
        below_one = cdf[: cdf.searchsorted(1.0)]
        self._edges = np.ceil(below_one * 2.0**53).astype(np.uint64) << np.uint64(11)
        n = min(nu, CHUNK)
        self._bucket = np.empty(n, dtype=np.uint64)
        self._in_node = np.empty(n, dtype=bool)
        self._held = np.empty(max(n // 8, 1), dtype=np.uint64)

    def _below(self, held: np.ndarray) -> np.ndarray:
        """How many held words lie below each edge, then how many there are;
        sorts held in place."""
        held.sort()
        return np.append(held.searchsorted(self._edges), held.size)

    def counts(self, rng: np.random.Generator) -> np.ndarray:
        """How often each index comes up in nu draws from rng, as int64."""
        per_bucket = np.zeros(GUIDE_BUCKETS, dtype=np.int64)
        # node words below each edge, then all node words: index j is below[j] - below[j-1]
        below = np.zeros(self._edges.size + 1, dtype=np.int64)
        held = 0
        for done in range(0, self._nu, CHUNK):
            n = min(CHUNK, self._nu - done)
            words = rng.bit_generator.random_raw(n)
            bucket = np.right_shift(words, SHIFT, out=self._bucket[:n]).view(np.intp)
            per_bucket += np.bincount(bucket, minlength=GUIDE_BUCKETS)
            in_node = self._holds_node.take(bucket, out=self._in_node[:n], mode="clip")
            node_words = words[in_node]
            del words  # not held while the next step's words are read
            if node_words.size > self._held.size:
                below += self._below(node_words)
                continue
            if held + node_words.size > self._held.size:
                below += self._below(self._held[:held])
                held = 0
            self._held[held:held + node_words.size] = node_words
            held += node_words.size
        below += self._below(self._held[:held])
        guided = np.bincount(self._guide, weights=per_bucket, minlength=self._size + 1)[:-1]
        counts = guided.astype(np.int64)  # weights sum exactly below 2^53
        counts[: below.size] += below
        counts[1 : below.size] -= below[:-1]
        return counts


@dataclass(frozen=True, eq=False)
class CalibrationCurve:
    """The exact calibration curve <m>_x = A cos(x - x0) of a quadrature m on
    a phase family, on the half period where it is monotone.

    xs = (x0, x0 + pi) are the ends of that half period and means = (A, -A)
    the means there, read-only arrays; window = (lo, hi), inside xs, is the
    range of x the estimates are clamped to.
    """

    xs: np.ndarray
    means: np.ndarray
    window: tuple[float, float]


def build_curve(report_at, start: float, domain: tuple[float, float]) -> CalibrationCurve:
    """The cosine <X_start>_x, fixed by its means at start and start + pi/2,
    inverted on [start, start + pi] within domain.

    report_at(offset), the report function of _quadrature_reports, gives the
    mean of X_start at rho(start - offset) (the family is covariant) as
    2 Re(e^{i offset} <a>), so <X_start>_{start+t} = M0 cos t + M1 sin t by
    construction. The window is also cut to the monotone half period that
    holds start + pi/2."""
    m0 = report_at(0.0).mean
    m1 = report_at(-math.pi / 2).mean
    amplitude = math.hypot(m0, m1)
    if amplitude <= IMAG_RESIDUE_TOL:
        raise NonInvertibleCurveError(f"<m>_x is flat (amplitude {amplitude:.3g}); not invertible")
    theta = math.atan2(m1, m0)
    half_periods = math.floor((math.pi / 2 - theta) / math.pi)
    x0 = _finite("start", start) + theta + half_periods * math.pi
    if half_periods % 2:
        amplitude = -amplitude
    lo = max(start, x0, domain[0])
    hi = min(start + math.pi, x0 + math.pi, domain[1])
    if hi <= lo:
        raise EstimatorDivergenceError(
            f"monotone window ({start:.4g}, {start + math.pi:.4g}) has no "
            f"overlap with the domain {domain}"
        )
    xs, means = np.array([x0, x0 + math.pi]), np.array([amplitude, -amplitude])
    xs.setflags(write=False)
    means.setflags(write=False)
    return CalibrationCurve(xs=xs, means=means, window=(lo, hi))


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


def _prepare(spec, phi_true: float, nu: int):
    """(report function, optimal report at offset -pi/2, measurement) at
    phi_true, from one probe. A phi_true whose spacing of doubles exceeds
    1/100 of the sd nsr / sqrt(nu) of one estimate is rejected: rounding it
    would add more than (0.01)^2 / 12 of the variance.

    X_0 = a + a^dag is real, so its one eigendecomposition is real and reads
    Re rho(x) alone (_real_state, from the probe amplitudes); it and the
    kernel are built once, and each Born distribution is one d x d product."""
    _sample_count(nu)
    spec = PhaseFamilySpec(spec.probe_state(), spec.diffusion, spec.phi_domain)
    report_at = _quadrature_reports(spec, phi_true)
    optimal = report_at(-math.pi / 2.0)
    spacing, sd = math.ulp(phi_true), optimal.nsr / math.sqrt(nu)
    if spacing > 0.01 * sd:
        raise ContractViolationError(
            f"phi_true {phi_true!r} is resolved only to the spacing of doubles there, "
            f"{spacing:.3g}, above 1/100 of the predicted sd of one estimate, {sd:.3g}"
        )
    root = _ladder_entries(spec.dim)
    evals, vecs = np.linalg.eigh(np.diag(root, 1) + np.diag(root, -1))
    kernel = _kernel(spec.dim, spec.diffusion.beta)  # after the eigh, so not in its peak

    def measurement(phase: float):
        """The step run_trials and adaptive_calibrate share, calibrated for
        phase: with theta = phase - pi/2, the curve of X_theta from start
        theta, so its window is centered on phase, and the guide table of its
        Born distribution at rho(phi_true): X_0's at rho(pi/2 + (phi_true -
        phase)), as X_theta = D X_0 D^dag with D = e^{-i theta n}; that offset
        is exact when phase is phi_true. Returns rng -> invert_mean of the
        mean of nu draws."""
        curve = build_curve(report_at, phase - math.pi / 2.0, spec.phi_domain)
        rho = _real_state(spec.probe.amplitudes, kernel, math.pi / 2.0 + (phi_true - phase))
        table = _GuideTable(_born(vecs, rho), nu)

        def estimate(rng: np.random.Generator) -> tuple[float, bool]:
            return invert_mean(curve, float(table.counts(rng) @ evals) / nu)

        return estimate

    return report_at, optimal, measurement


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
    delta_m = math.sqrt(report.variance / _sample_count(nu))
    if abs(report.mean) <= IMAG_RESIDUE_TOL:  # a roundoff mean is an exact zero
        return delta_m, math.inf, True
    threshold = 2.0 * report.slope**2 / abs(report.mean)
    return delta_m, threshold, delta_m <= threshold / 10.0


def run_trials(spec, phi_true: float, nu: int, repeats: int, seed: int) -> TrialRun:
    """Repeat the full protocol: draw nu outcomes at rho(phi_true), average,
    invert the calibration curve. The measurement is calibrated for phi_true:
    the quadrature at phi_true - pi/2, inverted on a window centered on phi_true.
    Returns one TrialRun with every estimate and the spread of the estimates.

    Per-repeat RNG streams derive from (seed, repeat index), so repeats are
    order-independent and the whole run is reproducible bit for bit.
    """
    if repeats < 2:
        raise ContractViolationError("need at least 2 repeats for a variance")
    _, report, measurement = _prepare(spec, phi_true, nu)
    delta_m, threshold, ok = mean_inversion_condition(report, nu)
    estimate = measurement(phi_true)
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
) -> tuple[np.ndarray, np.ndarray, np.ndarray, float]:
    """Adaptive loop: measure a batch calibrated for the current phase,
    invert for phi_hat, make phi_hat the next phase, repeat.

    The first phase is the domain midpoint; each phase p is measured with the
    quadrature at p - pi/2. Returns read-only (estimates, clamped, fisher) and
    optimal_fisher: per round the estimate and clamp flag; the Fisher value
    at phi_true_hidden of each round's quadrature and of the last re-centered
    one (rounds + 1); that of the optimal quadrature, at phi_true_hidden - pi/2.
    The Fisher values come from the probe's four sums (_quadrature_reports),
    with no d x d matrix. Raises EstimatorDivergenceError (carrying the round
    index) if the inversion window leaves the domain.
    """
    if rounds < 1:
        raise ContractViolationError(f"need at least 1 round, got {rounds}")
    report_at, optimal, measurement = _prepare(spec, phi_true_hidden, batch)

    def fisher_at(angle: float) -> float:
        return report_at(angle - phi_true_hidden).fisher

    phases = [sum(spec.phi_domain) / 2.0]
    estimates = np.empty(rounds)
    clamped = np.empty(rounds, dtype=bool)
    for k in range(rounds):
        try:
            estimate = measurement(phases[k])
        except (EstimatorDivergenceError, NonInvertibleCurveError) as exc:
            raise EstimatorDivergenceError(
                f"calibration window unusable at round {k}: {exc}", round_index=k
            ) from exc
        estimates[k], clamped[k] = estimate(np.random.default_rng([seed, k]))
        phases.append(estimates[k])
    fisher = np.array([fisher_at(p - math.pi / 2.0) for p in phases])
    for arr in (estimates, clamped, fisher):
        arr.setflags(write=False)
    return estimates, clamped, fisher, optimal.fisher
