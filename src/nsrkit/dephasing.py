"""Phase-shift estimation under Gaussian phase diffusion.

The channel multiplies Fock coherences by e^{-i phi (n-m)} e^{-beta^2 (n-m)^2}
(the closed form of the zero-mean Gaussian phase average with variance
2 beta^2). Probes are real displaced-squeezed states, the measured observable
is a quadrature, and the whole sensitivity analysis has closed forms that the
numeric pipeline must reproduce.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ContractViolationError, InvalidDimensionError, NumericalConsistencyError
from .estimation import ParamFamily
from .operators import (
    DensityMatrix,
    GaussianProbeSpec,
    Operator,
    StateVector,
    fock_ladder,
    gaussian_probe,
)

TWO_PI = 2.0 * math.pi

# Default Fig.-2 style grids: log-spaced, dense near small 2 beta^2 where the
# enhancement threshold sits.
DEFAULT_TWO_BETA_SQ_GRID = np.geomspace(0.01, 1.0, 60)
DEFAULT_N_GRID = np.geomspace(0.05, 1e4, 200)


@dataclass(frozen=True)
class DiffusionParams:
    """Degree beta >= 0 of the Gaussian phase diffusion."""

    beta: float

    def __post_init__(self):
        if self.beta < 0 or not math.isfinite(self.beta):
            raise ContractViolationError(f"beta must be finite and >= 0, got {self.beta}")

    @property
    def two_beta_sq(self) -> float:
        return 2.0 * self.beta**2

    @classmethod
    def from_two_beta_sq(cls, two_beta_sq: float) -> "DiffusionParams":
        if two_beta_sq < 0:
            raise ContractViolationError("2 beta^2 must be >= 0")
        return cls(math.sqrt(two_beta_sq / 2.0))


@dataclass(frozen=True)
class PhaseFamilySpec:
    """Probe + diffusion + phase interval defining one estimation problem."""

    probe: GaussianProbeSpec | StateVector
    diffusion: DiffusionParams
    phi_domain: tuple[float, float]

    def __post_init__(self):
        lo, hi = self.phi_domain
        if not (hi > lo):
            raise ContractViolationError("phi_domain must be a nonempty interval")
        if hi - lo > TWO_PI + 1e-12:
            raise ContractViolationError("phi_domain wider than one phase period")

    @property
    def dim(self) -> int:
        return self.probe.dim

    def probe_state(self) -> StateVector:
        if isinstance(self.probe, StateVector):
            return self.probe
        return gaussian_probe(self.probe)


def _delta_n(dim: int) -> np.ndarray:
    n = np.arange(dim)
    return n[:, None] - n[None, :]


def _decay(dim: int, beta: float) -> np.ndarray:
    """The diffusion kernel e^{-beta^2 (n-m)^2} on the Fock coherences."""
    return np.exp(-(beta**2) * _delta_n(dim).astype(float) ** 2)


def dephase_channel(rho: DensityMatrix, phi: float, beta: float) -> DensityMatrix:
    """Apply the phase shift phi with Gaussian phase diffusion beta.

    Diagonal populations are untouched; the (n, m) coherence picks up
    e^{-i phi (n-m)} e^{-beta^2 (n-m)^2}: the kernel, then the phase rotation
    the dephasing family uses.
    """
    if beta < 0:
        raise ContractViolationError(f"beta must be >= 0, got {beta}")
    return DensityMatrix(rho.matrix * _decay(rho.dim, beta)).phase_shifted(phi)


def dephasing_family(spec: PhaseFamilySpec) -> ParamFamily:
    """Family phi -> dephased probe, with the exact coherence-weighted derivative.

    The dephased state at phi = 0 is validated once, here; every state_at(phi)
    is its phase-shifted copy, which has the same diagonal and spectrum.
    """
    psi = spec.probe_state()
    amp = psi.amplitudes
    dn = _delta_n(psi.dim)
    base = DensityMatrix(np.outer(amp, amp.conj()) * _decay(psi.dim, spec.diffusion.beta))

    def derivative_at(phi: float) -> Operator:
        return Operator(-1j * dn * base.phase_shifted(phi).matrix)

    return ParamFamily(
        dim=psi.dim,
        state_at=base.phase_shifted,
        derivative_at=derivative_at,
        domain=spec.phi_domain,
    )


def quadrature(phi_exp: float, dim: int) -> Operator:
    """Observable a e^{i phi_exp} + a^dag e^{-i phi_exp} (vacuum variance 1)."""
    if dim < 2:
        raise InvalidDimensionError(f"quadrature needs dim >= 2, got {dim}")
    if not math.isfinite(phi_exp):
        raise ContractViolationError(f"phi_exp must be finite, got {phi_exp}")
    a, adag = fock_ladder(dim)
    return Operator(a * np.exp(1j * phi_exp) + adag * np.exp(-1j * phi_exp))


def optimal_calibration(phi_true: float) -> float:
    """Best quadrature angle phi_true - pi/2, wrapped into (-pi, pi]."""
    x = phi_true - math.pi / 2.0
    wrapped = math.fmod(x + math.pi, TWO_PI)
    if wrapped <= 0.0:
        wrapped += TWO_PI
    return wrapped - math.pi


def analytic_fnsr(r: float, alpha: float, beta: float) -> float:
    """Fisher value of the optimally calibrated quadrature on the probe
    D(alpha)S(r)|0> after diffusion beta:

        4 alpha^2 e^{-2 beta^2}
        -----------------------------------------------
        e^{-2r} + (1 - e^{-4 beta^2})(2 alpha^2 + sinh 2r)

    Guarded against overflow for |r| beyond ~300; raises OverflowError where
    4 alpha^2 overflows, also for numpy scalars, which are taken as floats.
    """
    r, alpha, beta = float(r), float(alpha), float(beta)
    num = 4.0 * alpha**2 * math.exp(-2.0 * beta**2)
    if math.isinf(num):  # float multiplication overflows to inf without raising
        raise OverflowError(f"4 alpha^2 overflows at alpha={alpha}")
    if num == 0.0:
        return 0.0
    diffusion_noise = -math.expm1(-4.0 * beta**2)  # 1 - e^{-4 beta^2}, exact near 0
    try:
        quantum_noise = math.exp(-2.0 * r)
    except OverflowError:
        return 0.0  # r << 0: anti-squeezed measured quadrature swamps the signal
    if diffusion_noise == 0.0:
        denom = quantum_noise
    else:
        try:
            sinh2r = math.sinh(2.0 * r)
        except OverflowError:
            sinh2r = math.inf if r > 0 else -math.inf
        denom = quantum_noise + diffusion_noise * (2.0 * alpha**2 + sinh2r)
    if denom == 0.0:
        return math.inf
    if math.isinf(denom):
        return 0.0 if denom > 0 else math.inf
    if denom < 0:
        raise NumericalConsistencyError(f"negative noise denominator {denom}")
    return num / denom


def r_max(beta: float) -> float:
    """Squeezing beyond (1/4) ln coth(2 beta^2) starts hurting the sensitivity.

    coth(2 beta^2) - 1 = 2 e^{-4 beta^2} / (1 - e^{-4 beta^2}) is formed
    directly, so log1p takes it without the cancellation of coth -> 1 and
    nothing overflows; below beta = 1e-4 the leading term -ln(2 beta^2) is
    exact to roundoff and does not underflow. beta = 0 returns +inf: without
    diffusion more squeezing always helps.
    """
    if beta < 0:
        raise ContractViolationError(f"beta must be >= 0, got {beta}")
    if beta == 0.0:
        return math.inf
    if beta < 1e-4:  # ln coth x = -ln x + x^2/3 + ..., x = 2 beta^2 < 2e-8
        return -0.25 * (math.log(2.0) + 2.0 * math.log(beta))
    u = 4.0 * beta**2
    return 0.25 * math.log1p(2.0 * math.exp(-u) / -math.expm1(-u))


def r_opt(n_mean: float, beta: float) -> float:
    """Squeezing that maximizes the quadrature Fisher value at fixed mean
    excitation N = alpha^2 + sinh^2 r:

        r = (1/2) ln[2 S cosh(2 beta^2) / (1 + R)],
        S = (2N + 1) e^{2 beta^2},  R = sqrt(1 + 2 S^2 sinh(4 beta^2)).

    Raises OverflowError where S overflows. The ratio tends to 1 as beta
    grows or N -> 0, so r is taken as (1/2) log1p(x), with x rewritten in
    w = e^{-4 beta^2}, q = 1/(2N + 1), p = 2N q and s = R w q: a quotient of
    sums of positive terms, which neither cancels nor overflows.
    """
    if n_mean < 0:
        raise ContractViolationError(f"N must be >= 0, got {n_mean}")
    if beta < 0:
        raise ContractViolationError(f"beta must be >= 0, got {beta}")
    if math.isinf((2.0 * n_mean + 1.0) * math.exp(2.0 * beta**2)):  # overflows silently
        raise OverflowError(f"(2N + 1) e^{{2 beta^2}} overflows at N={n_mean}")
    w = math.exp(-4.0 * beta**2)
    q = 1.0 / (2.0 * n_mean + 1.0)
    p = 2.0 * n_mean * q
    s = math.hypot(math.sqrt(-math.expm1(-8.0 * beta**2)), w * q)  # sqrt(1 - w^2 + w^2 q^2)
    a = (1.0 + w) * (2.0 - q) - w * q * q  # >= 1
    b = q * q * (4.0 + 2.0 * w) + 4.0 * (1.0 + w) * p * (2.0 * q + p)
    x = w * p * (1.0 + w) * b / ((a + q * s) * (1.0 + w + s) * (w * q + s))
    r = 0.5 * math.log1p(x)
    if math.sinh(r) ** 2 > n_mean + 1e-12 * max(1.0, n_mean):
        raise NumericalConsistencyError(
            f"r_opt={r} puts sinh^2 r above N={n_mean}; no excitation left for alpha"
        )
    return r


def c_q(n_mean: float, beta: float) -> float:
    """Standard-limit benchmark 4N / (1 + 8 beta^2 N)."""
    if n_mean < 0:
        raise ContractViolationError(f"N must be >= 0, got {n_mean}")
    return 4.0 * n_mean / (1.0 + 8.0 * beta**2 * n_mean)


def optimal_fnsr(n_mean: float, beta: float) -> float:
    """Quadrature Fisher value at the optimum squeezing for mean excitation N."""
    r = r_opt(n_mean, beta)
    alpha_sq = max(n_mean - math.sinh(r) ** 2, 0.0)
    return analytic_fnsr(r, math.sqrt(alpha_sq), beta)


def no_squeeze_ratio_bound(n_mean: float, beta: float) -> float:
    """Lower bound (1 + 8 beta^2 N) / (e^{2 beta^2} + 4 sinh(2 beta^2) N) on the
    fraction of the standard-limit information that a coherent probe retains."""
    if n_mean < 0:
        raise ContractViolationError(f"N must be >= 0, got {n_mean}")
    tb = 2.0 * beta**2
    return (1.0 + 8.0 * beta**2 * n_mean) / (math.exp(tb) + 4.0 * math.sinh(tb) * n_mean)


@dataclass(frozen=True)
class EnhancementScan:
    """Grid scan of the squeezing enhancement over the standard benchmark.

    cells: rows (two_beta_sq, N, ratio, enhanced) spanning the full grid.
    max_rows: rows (two_beta_sq, max_ratio, argmax_N), the per-column maximum
    over N of the ratio.
    """

    cells: list[tuple[float, float, float, bool]]
    max_rows: list[tuple[float, float, float]]


def enhancement_scan(two_beta_sq_grid, n_grid) -> EnhancementScan:
    """Tabulate optimal_fnsr / c_q over (2 beta^2, N); cells are independent,
    so the table is identical regardless of evaluation order."""
    tbs_values = [float(t) for t in two_beta_sq_grid]
    n_values = [float(n) for n in n_grid]
    if any(t < 0 or not math.isfinite(t) for t in tbs_values):
        raise ContractViolationError("two_beta_sq grid must be finite and >= 0")
    if any(n <= 0 or not math.isfinite(n) for n in n_values):
        raise ContractViolationError("N grid must be finite and positive")
    cells = []
    max_rows = []
    for tbs in tbs_values:
        beta = math.sqrt(tbs / 2.0)
        best = (-math.inf, math.nan)
        for n in n_values:
            ratio = optimal_fnsr(n, beta) / c_q(n, beta)
            cells.append((tbs, n, ratio, ratio >= 1.0))
            if ratio > best[0]:
                best = (ratio, n)
        max_rows.append((tbs, best[0], best[1]))
    return EnhancementScan(cells=cells, max_rows=max_rows)


def _golden_max(fun, lo: float, hi: float) -> float:
    """Golden-section maximizer of a unimodal function on [lo, hi], to 1e-12
    relative."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = fun(c), fun(d)
    while b - a > 1e-12 * max(1.0, abs(a) + abs(b)):
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = fun(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = fun(d)
    return (a + b) / 2.0


def max_enhancement_ratio(beta: float) -> tuple[float, float]:
    """Max over N of optimal_fnsr/c_q at fixed beta, refined by golden-section
    search in log N around the best point of DEFAULT_N_GRID. Returns
    (max_ratio, argmax_N)."""

    def ratio_log(u: float) -> float:
        n = math.exp(u)
        return optimal_fnsr(n, beta) / c_q(n, beta)

    ratios = [optimal_fnsr(float(n), beta) / c_q(float(n), beta) for n in DEFAULT_N_GRID]
    k = int(np.argmax(ratios))
    lo = math.log(DEFAULT_N_GRID[max(k - 1, 0)])
    hi = math.log(DEFAULT_N_GRID[min(k + 1, DEFAULT_N_GRID.size - 1)])
    u_star = _golden_max(ratio_log, lo, hi)
    return ratio_log(u_star), math.exp(u_star)


def enhancement_threshold() -> float:
    """2 beta^2 at which the best squeezing enhancement crosses the standard
    benchmark (max ratio = 1), located by bisection on [0.01, 1] to 1e-4."""
    lo, hi = 0.01, 1.0

    def excess(tbs: float) -> float:
        beta = math.sqrt(tbs / 2.0)
        return max_enhancement_ratio(beta)[0] - 1.0

    f_lo, f_hi = excess(lo), excess(hi)
    if f_lo <= 0 or f_hi >= 0:
        raise NumericalConsistencyError(
            f"no sign change on [{lo}, {hi}]: excess {f_lo:.3e} .. {f_hi:.3e}"
        )
    while hi - lo > 1e-4:
        mid = (lo + hi) / 2.0
        if excess(mid) > 0:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2.0
