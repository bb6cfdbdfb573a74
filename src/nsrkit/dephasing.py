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
from typing import Callable

import numpy as np

from .errors import ContractViolationError, InvalidDimensionError, NumericalConsistencyError
from .estimation import ParamFamily, SensitivityReport, _sensitivity_report, _sld_in_eigenbasis
from .operators import (
    DensityMatrix,
    GaussianProbeSpec,
    Operator,
    StateVector,
    _finite,
    _finite_non_negative,
    _ladder_entries,
    fock_ladder,
    gaussian_probe,
)

# Default Fig.-2 style grids: log-spaced, dense near small 2 beta^2 where the
# enhancement threshold sits.
DEFAULT_TWO_BETA_SQ_GRID = np.geomspace(0.01, 1.0, 60)
DEFAULT_N_GRID = np.geomspace(0.05, 1e4, 200)


@dataclass(frozen=True)
class DiffusionParams:
    """Degree beta >= 0 of the Gaussian phase diffusion."""

    beta: float

    def __post_init__(self):
        _finite_non_negative("beta", self.beta)


@dataclass(frozen=True)
class PhaseFamilySpec:
    """Probe + diffusion + phase interval defining one estimation problem."""

    probe: GaussianProbeSpec | StateVector
    diffusion: DiffusionParams
    phi_domain: tuple[float, float]

    def __post_init__(self):
        lo, hi = self.phi_domain
        if not (hi > lo):
            raise ContractViolationError(f"phi_domain ({lo}, {hi}) must be a nonempty interval")
        # phi +- pi may round each end by up to its spacing of doubles
        if hi - lo > math.tau + 1e-12 + math.ulp(lo) + math.ulp(hi):
            raise ContractViolationError(f"phi_domain ({lo}, {hi}) wider than one phase period")

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


def _kernel(dim: int, beta: float) -> np.ndarray:
    """The diffusion's kernel e^{-beta^2 (n-m)^2}: real, PSD and unit-diagonal."""
    return np.exp(-(beta**2) * _delta_n(dim).astype(float) ** 2)


def _real_state(c: np.ndarray, kernel: np.ndarray, x: float) -> np.ndarray:
    """Re rho(x) of the probe amplitudes c dephased by kernel, a real d x d
    array: rho(x) = (psi psi^dag) o K with psi = e^{-ixn} c, and K is real, so

        Re rho(x) = (Re psi Re psi^T + Im psi Im psi^T) o K.

    A real basis needs no more: e^T Im(rho) e = 0 for real e, as Im(rho) is
    antisymmetric."""
    psi = np.exp(-1j * x * np.arange(c.size)) * c
    return (np.outer(psi.real, psi.real) + np.outer(psi.imag, psi.imag)) * kernel


def _dephased(state: np.ndarray, beta: float) -> DensityMatrix:
    """A state's matrix times the kernel: a state by the Schur product theorem
    (Horn & Johnson, Matrix Analysis, 7.5.3)."""
    return DensityMatrix._positive(state * _kernel(state.shape[0], beta))


def dephase_channel(rho: DensityMatrix, phi: float, beta: float) -> DensityMatrix:
    """Apply the phase shift phi with Gaussian phase diffusion beta.

    Diagonal populations are untouched; the (n, m) coherence picks up
    e^{-i phi (n-m)} e^{-beta^2 (n-m)^2}: the kernel, then the phase rotation
    the dephasing family uses. rho must be a DensityMatrix, already checked.
    """
    if not isinstance(rho, DensityMatrix):
        raise ContractViolationError(f"expected a DensityMatrix, got {type(rho).__name__}")
    return _dephased(rho.matrix, _finite_non_negative("beta", beta)).phase_shifted(phi)


def dephasing_family(spec: PhaseFamilySpec) -> ParamFamily:
    """Family phi -> dephased probe, with the exact coherence-weighted derivative.

    The dephased state at phi = 0 is built once, here, positive by construction
    (_dephased); every state_at(phi) is its phase-shifted copy, which has the
    same diagonal and spectrum.
    """
    psi = spec.probe_state()
    amp = psi.amplitudes
    dn = _delta_n(psi.dim)
    base = _dephased(np.outer(amp, amp.conj()), spec.diffusion.beta)

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
    _finite("phi_exp", phi_exp)
    a, adag = fock_ladder(dim)
    return Operator(a * np.exp(1j * phi_exp) + adag * np.exp(-1j * phi_exp))


def _quadrature_reports(spec: PhaseFamilySpec, phi: float) -> Callable[[float], SensitivityReport]:
    """offset -> the SensitivityReport of quadrature(phi + offset) at rho(phi),
    as assess_observable gives it, from four sums over the probe amplitudes c
    instead of d x d matrices:

        <a>       = e^{-beta^2} sum sqrt(n+1) c_{n+1} conj(c_n),
        <a^2>     = e^{-4 beta^2} sum sqrt((n+1)(n+2)) c_{n+2} conj(c_n),
        <a^dag a> = sum n |c_n|^2,
        <a a^dag> = sum_{n<d-1} (n+1) |c_n|^2 (a a^dag on d levels).

    At rho(phi) the phase turns <a> by e^{-i phi} and <a^2> by e^{-2i phi};
    the quadrature's angle phi + offset turns them back, so the report
    depends on the offset alone, which is exact for any phi (the family is
    covariant): with z = e^{i offset} <a>, the mean is 2 Re z, the slope
    2 Im z and <X^2> = 2 Re(e^{2i offset} <a^2>) + <a^dag a> + <a a^dag>.
    The probe is built, and phi checked against the domain, once.
    """
    lo, hi = spec.phi_domain
    if not (math.isfinite(phi) and lo <= phi <= hi):
        raise ContractViolationError(f"phi_true {phi} outside family domain {spec.phi_domain}")
    c = spec.probe_state().amplitudes
    d = c.size
    if d < 2:
        raise InvalidDimensionError(f"quadrature needs dim >= 2, got {d}")
    beta = spec.diffusion.beta
    levels = np.arange(1, d, dtype=float)  # n + 1 for n < d - 1
    root = _ladder_entries(d)
    a1 = math.exp(-(beta**2)) * complex(np.vdot(c[:-1], root * c[1:]))
    a2 = math.exp(-4.0 * beta**2) * complex(np.vdot(c[:-2], root[:-1] * root[1:] * c[2:]))
    p = (c.conj() * c).real
    sym = float(levels @ p[1:]) + float(levels @ p[:-1])  # <a^dag a> + <a a^dag>

    def report(offset: float) -> SensitivityReport:
        _finite("quadrature offset", offset)
        turn = complex(math.cos(offset), math.sin(offset))
        z = turn * a1
        mean = 2.0 * z.real
        msq = 2.0 * (turn * turn * a2).real + sym
        return _sensitivity_report(mean, max(msq - mean**2, 0.0), 2.0 * z.imag)

    return report


def _number_moments(c: np.ndarray) -> tuple[float, float]:
    """Mean and variance of the number operator n on the probe amplitudes c,
    from the sums sum n |c_n|^2 and sum n^2 |c_n|^2: O(d), no matrix. n
    commutes with the phase and the diffusion keeps the populations |c_n|^2,
    so these are its moments at every phase of the dephasing family too. The
    variance is clamped to >= 0 against roundoff, as operators.variance does."""
    p, n = (c.conj() * c).real, np.arange(c.size, dtype=float)
    mean = float(n @ p)
    return mean, max(float((n * n) @ p) - mean**2, 0.0)


def _covariant_sld(c: np.ndarray, beta: float) -> tuple[float, float]:
    """(QFI, largest SLD eigenvalue) of the dephasing family, the same at every
    phase, from one real eigh of its state at phase 0, rho0 = (c c^T) o K =
    V diag(p) V^T (_real_state), for real amplitudes c and K = _kernel(d, beta).
    With G = V^T n V, drho = -i[n, rho] is i (p_j - p_k) G_jk there, and the
    SLD is L = iA, A_jk = 2 (p_j - p_k) G_jk / (p_j + p_k) real antisymmetric,
    on the pairs _sld_in_eigenbasis keeps (Paris, Int. J. Quantum Inf. 7, 125
    (2009)). The QFI is sum_jk p_j A_jk^2; iA has a symmetric spectrum, whose
    largest eigenvalue is sqrt(lambda_max(A^T A)). Each d x d array is dropped
    after its last use, which bounds the peak memory near that of the eigh."""
    if c.imag.any():
        raise ContractViolationError("the covariant SLD route needs real probe amplitudes")
    n = np.arange(c.size, dtype=float)
    rho0 = _real_state(c, _kernel(c.size, beta), 0.0)
    scale = np.abs((n[:, None] - n) * rho0).max()  # the largest |drho_nm|
    p, v = np.linalg.eigh(rho0)
    del rho0
    g = v.T @ (n[:, None] * v)
    del v
    g *= p[:, None] - p  # drho / i in rho0's eigenbasis, so that A = L / i
    a, qfi = _sld_in_eigenbasis(p, g, scale)
    del g
    return qfi, math.sqrt(np.linalg.eigvalsh(a.T @ a)[-1])


def optimal_calibration(phi_true: float) -> float:
    """Best quadrature angle phi_true - pi/2, wrapped into (-pi, pi]."""
    x = _finite("phi_true", phi_true) - math.pi / 2.0
    wrapped = math.fmod(x + math.pi, math.tau)
    if wrapped <= 0.0:
        wrapped += math.tau
    return wrapped - math.pi


def _fnsr_form(xp, r, alpha, beta):
    """analytic_fnsr's quotient in the namespace xp (math for floats, numpy
    for arrays), exact where e^{-2r} and sinh 2r are finite: |r| below
    about 354.9."""
    num = 4.0 * alpha**2 * xp.exp(-2.0 * beta**2)
    diffusion_noise = -xp.expm1(-4.0 * beta**2)  # 1 - e^{-4 beta^2}, exact near 0
    return num / (xp.exp(-2.0 * r) + diffusion_noise * (2.0 * alpha**2 + xp.sinh(2.0 * r)))


def analytic_fnsr(r: float, alpha: float, beta: float) -> float:
    """Fisher value of the optimally calibrated quadrature on the probe
    D(alpha)S(r)|0> after diffusion beta:

        4 alpha^2 e^{-2 beta^2}
        -----------------------------------------------
        e^{-2r} + (1 - e^{-4 beta^2})(2 alpha^2 + sinh 2r)

    Guarded against overflow for |r| beyond ~354; raises OverflowError where
    4 alpha^2 overflows, also for numpy scalars, which are taken as floats.
    """
    r, alpha, beta = _finite("r", r), _finite("alpha", alpha), _finite_non_negative("beta", beta)
    if math.isinf(4.0 * alpha**2):  # float multiplication overflows to inf without raising
        raise OverflowError(f"4 alpha^2 overflows at alpha={alpha}")
    try:
        if not math.isinf(2.0 * r):  # math.exp and math.sinh take inf without raising
            return _fnsr_form(math, r, alpha, beta)
    except OverflowError:  # e^{-2r} or sinh 2r overflows: |r| beyond about 354.9
        pass
    if r < 0 or beta**2 > 0 or alpha**2 == 0.0:
        return 0.0  # the anti-squeezed quadrature, or the diffusion, swamps the signal
    # no diffusion: 4 alpha^2 e^{2r}, where e^{-2r} is subnormal; beyond
    # r = 709 the product overflows to inf for every alpha^2 > 0
    e_r = math.exp(min(r, 709.0))
    return 4.0 * alpha**2 * e_r * e_r


def r_max(beta: float) -> float:
    """Squeezing beyond (1/4) ln coth(2 beta^2) starts hurting the sensitivity.

    coth(2 beta^2) - 1 = 2 e^{-4 beta^2} / (1 - e^{-4 beta^2}) is formed
    directly, so log1p takes it without the cancellation of coth -> 1 and
    nothing overflows; below beta = 1e-4 the leading term -ln(2 beta^2) is
    exact to roundoff and does not underflow. beta = 0 returns +inf: without
    diffusion more squeezing always helps.
    """
    beta = _finite_non_negative("beta", beta)
    if beta == 0.0:
        return math.inf
    if beta < 1e-4:  # ln coth x = -ln x + x^2/3 + ..., x = 2 beta^2 < 2e-8
        return -0.25 * (math.log(2.0) + 2.0 * math.log(beta))
    u = 4.0 * beta**2
    return 0.25 * math.log1p(2.0 * math.exp(-u) / -math.expm1(-u))


def _r_opt_form(xp, n_mean, beta):
    """r_opt's closed form in the namespace xp: math for floats, numpy for
    arrays."""
    w = xp.exp(-4.0 * beta**2)
    q = 1.0 / (2.0 * n_mean + 1.0)
    p = 2.0 * n_mean * q
    s = xp.hypot(xp.sqrt(-xp.expm1(-8.0 * beta**2)), w * q)  # sqrt(1 - w^2 + w^2 q^2)
    a = (1.0 + w) * (2.0 - q) - w * q * q  # >= 1
    b = q * q * (4.0 + 2.0 * w) + 4.0 * (1.0 + w) * p * (2.0 * q + p)
    x = w * p * (1.0 + w) * b / ((a + q * s) * (1.0 + w + s) * (w * q + s))
    return 0.5 * xp.log1p(x)


def r_opt(n_mean: float, beta: float) -> float:
    """Squeezing that maximizes the quadrature Fisher value at fixed mean
    excitation N = alpha^2 + sinh^2 r:

        r = (1/2) ln[2 S cosh(2 beta^2) / (1 + R)],
        S = (2N + 1) e^{2 beta^2},  R = sqrt(1 + 2 S^2 sinh(4 beta^2)).

    Raises OverflowError where S overflows, also for numpy scalars, which are
    taken as floats. The ratio tends to 1 as beta grows or N -> 0, so r is
    taken as (1/2) log1p(x), with x rewritten in w = e^{-4 beta^2},
    q = 1/(2N + 1), p = 2N q and s = R w q: a quotient of sums of positive
    terms, which neither cancels nor overflows.
    """
    n_mean, beta = _finite_non_negative("N", n_mean), _finite_non_negative("beta", beta)
    if math.isinf((2.0 * n_mean + 1.0) * math.exp(2.0 * beta**2)):  # overflows silently
        raise OverflowError(f"(2N + 1) e^{{2 beta^2}} overflows at N={n_mean}")
    r = _r_opt_form(math, n_mean, beta)
    if math.sinh(r) ** 2 > n_mean + 1e-12 * max(1.0, n_mean):
        raise NumericalConsistencyError(
            f"r_opt={r} puts sinh^2 r above N={n_mean}; no excitation left for alpha"
        )
    return r


def _c_q_form(n_mean, beta, top):
    """4N / (1 + 8 beta^2 N) with both terms divided by top = max(N, 1), so
    that 4N cannot overflow: 4 / (1/N + 8 beta^2) for N >= 1. Arithmetic
    only, so it takes floats and arrays alike."""
    u = n_mean / top
    return 4.0 * u / (1.0 / top + 8.0 * beta**2 * u)


def c_q(n_mean: float, beta: float) -> float:
    """Standard-limit benchmark 4N / (1 + 8 beta^2 N), finite up to the
    largest N; numpy scalars are taken as floats."""
    n_mean, beta = _finite_non_negative("N", n_mean), _finite_non_negative("beta", beta)
    return _c_q_form(n_mean, beta, max(n_mean, 1.0))


def optimal_fnsr(n_mean: float, beta: float) -> float:
    """Quadrature Fisher value at the optimum squeezing for mean excitation N."""
    n_mean, beta = float(n_mean), float(beta)
    r = r_opt(n_mean, beta)
    alpha_sq = max(n_mean - math.sinh(r) ** 2, 0.0)
    return analytic_fnsr(r, math.sqrt(alpha_sq), beta)


def no_squeeze_ratio_bound(n_mean: float, beta: float) -> float:
    """Lower bound (1 + 8 beta^2 N) / (e^{2 beta^2} + 4 sinh(2 beta^2) N) on the
    fraction of the standard-limit information that a coherent probe retains.
    Both sides are divided by max(N, 1), so that neither overflows at large N;
    numpy scalars are taken as floats."""
    n_mean, beta = _finite_non_negative("N", n_mean), _finite_non_negative("beta", beta)
    tb = 2.0 * beta**2
    top = max(n_mean, 1.0)
    u = n_mean / top
    return (1.0 / top + 8.0 * beta**2 * u) / (math.exp(tb) / top + 4.0 * math.sinh(tb) * u)


def _enhancement_ratio(n_mean: float, beta: float) -> float:
    """optimal_fnsr / c_q at one point of the (beta, N) plane."""
    return optimal_fnsr(n_mean, beta) / c_q(n_mean, beta)


@dataclass(frozen=True, eq=False)  # ndarray fields have no truth value for __eq__
class EnhancementScan:
    """Grid scan of the squeezing enhancement over the standard benchmark, as
    read-only arrays.

    two_beta_sq: the grid's m values of 2 beta^2.
    n: its k values of N.
    ratio: (m, k) table of optimal_fnsr / c_q; ratio[i, j] is at
    (two_beta_sq[i], n[j]), and a cell is enhanced where ratio >= 1.
    argmax: for each 2 beta^2, the index into n of the first maximum of its
    row of ratio.
    """

    two_beta_sq: np.ndarray
    n: np.ndarray
    ratio: np.ndarray
    argmax: np.ndarray


def enhancement_scan(two_beta_sq_grid, n_grid) -> EnhancementScan:
    """Tabulate optimal_fnsr / c_q over (2 beta^2, N) in one array evaluation
    of the closed forms the scalar functions evaluate with math, one ufunc
    call per step over the whole grid. beta = sqrt(2 beta^2 / 2) per row, as
    the scalar route builds it. The values agree with the scalar route to
    roundoff: numpy's exp, expm1, log1p and sinh may differ from libm in the
    last bit.

    A cell the scalar route would reject (its ratio not finite, sinh^2 r
    above N, or (2N + 1) e^{2 beta^2} overflowing) raises what the scalar
    route raises there: the first such cell in row order is evaluated with
    Python floats, and NumericalConsistencyError is raised if that passes.
    """
    tbs = np.array(two_beta_sq_grid, dtype=float)
    n = np.array(n_grid, dtype=float)
    if tbs.ndim != 1 or tbs.size == 0 or not np.all(np.isfinite(tbs) & (tbs >= 0)):
        raise ContractViolationError("two_beta_sq grid must be nonempty, finite and >= 0")
    if n.ndim != 1 or n.size == 0 or not np.all(np.isfinite(n) & (n > 0)):
        raise ContractViolationError("N grid must be nonempty, finite and positive")
    beta = np.sqrt(tbs / 2.0)[:, None]
    with np.errstate(all="ignore"):
        r = _r_opt_form(np, n, beta)
        sinh_sq = np.sinh(r) ** 2
        alpha = np.sqrt(np.maximum(n - sinh_sq, 0.0))
        ratio = _fnsr_form(np, r, alpha, beta) / _c_q_form(n, beta, np.maximum(n, 1.0))
        bad = (
            ~np.isfinite(ratio)
            | (sinh_sq > n + 1e-12 * np.maximum(n, 1.0))
            | np.isinf((2.0 * n + 1.0) * np.exp(2.0 * beta**2))
        )
    if bad.any():
        i, j = np.argwhere(bad)[0]
        t, n_mean = float(tbs[i]), float(n[j])
        _enhancement_ratio(n_mean, math.sqrt(t / 2.0))
        raise NumericalConsistencyError(
            f"enhancement ratio at 2 beta^2={t}, N={n_mean} is {ratio[i, j]} on the grid, "
            "where the scalar closed forms accept the point"
        )
    argmax = np.argmax(ratio, axis=1)
    for arr in (tbs, n, ratio, argmax):
        arr.flags.writeable = False
    return EnhancementScan(two_beta_sq=tbs, n=n, ratio=ratio, argmax=argmax)


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
    """Max over N of optimal_fnsr/c_q at fixed beta: one golden-section
    search in log N over the whole range of DEFAULT_N_GRID, on which the ratio
    is unimodal (its slope changes sign at most once). Where it still rises
    at the range end, the search converges to that end. Returns
    (max_ratio, argmax_N)."""

    def ratio_log(u: float) -> float:
        return _enhancement_ratio(math.exp(u), beta)

    u_star = _golden_max(ratio_log, math.log(DEFAULT_N_GRID[0]), math.log(DEFAULT_N_GRID[-1]))
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
