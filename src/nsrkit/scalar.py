"""The numpy-free layer: the input rules and tolerances, the Gaussian probe's
amplitude recurrence, the O(d) sums over its amplitudes and the closed forms
of the phase-diffusion case study, all on Python floats and `math`.

Each name defined here has this module as its one home; the numpy modules
(operators, estimation, dephasing, montecarlo) import the names they use.
`nsr`, `scan`, `fig2` and `qfi --family pure --h number` run on this layer
alone, without importing numpy. Sums over amplitudes are math.fsum, so each
is exactly rounded.
"""

from __future__ import annotations

import math
import sys
from typing import TYPE_CHECKING, Callable

from .errors import (
    ContractViolationError,
    DegenerateObservableError,
    InvalidDimensionError,
    NumericalConsistencyError,
    TruncationError,
)

if TYPE_CHECKING:
    from .operators import StateVector

# Tolerances from the numerical contract; exposed so callers can reuse them.
HERMITICITY_RTOL = 1e-12
TRACE_TOL = 1e-10
PSD_TOL = 1e-10
LEAKAGE_TOL = 1e-8
# The policy's truncation: the smallest dim whose exact leakage is at most this.
TAIL_TARGET = 1e-12
IMAG_RESIDUE_TOL = 1e-10
# Variance this small (relative to <m^2>) is treated as an exact eigenstate.
VARIANCE_ZERO_RTOL = 1e-13
# Largest truncation dimension accepted from the policy or a command line: one
# dense complex matrix at this size is 64 MiB.
MAX_DIM = 2048


def _finite(name: str, value: float) -> float:
    """The rule for an input that must be finite: value, as a float, if it is."""
    if not math.isfinite(value):
        raise ContractViolationError(f"{name} must be finite, got {value}")
    return float(value)


def _finite_non_negative(name: str, value: float) -> float:
    """The rule for beta and N: value, as a float, if it is finite and >= 0."""
    if not 0.0 <= value < math.inf:  # False for NaN too
        raise ContractViolationError(f"{name} must be finite and >= 0, got {value}")
    return float(value)


def _sample_count(count: int) -> int:
    """The rule for a number of draws: count, if it is at least 1."""
    if not count >= 1:
        raise ContractViolationError(f"sample count must be positive, got {count}")
    return count


def check_dim(dim: int) -> int:
    """dim if it is at most MAX_DIM; InvalidDimensionError naming both otherwise."""
    if dim > MAX_DIM:
        raise InvalidDimensionError(
            f"truncation dim {dim} exceeds the ceiling MAX_DIM = {MAX_DIM}"
        )
    return dim


class _Value:
    """__slots__ fields set once, by __init__; eq, hash and repr as in a frozen dataclass."""

    __slots__ = ()

    def __init__(self, *values):
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        same = other.__class__ is self.__class__
        return self._values() == other._values() if same else NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):  # pickle and copy rebuild through __init__, checks included
        return type(self), self._values()


class GaussianProbeSpec(_Value):
    """Real displacement/squeezing pair defining a probe D(alpha) S(r) |0> on
    the first dim Fock states.

    Checked in this order: a finite alpha and r, dim >= 2, a vacuum
    amplitude that does not underflow (NumericalConsistencyError, since no
    dim can hold such a probe) and dim <= MAX_DIM.
    """

    __slots__ = ("alpha", "r", "dim")

    def __init__(self, alpha: float, r: float, dim: int):
        super().__init__(alpha, r, dim)
        _finite("alpha", alpha)
        _finite("r", r)
        if dim < 2:
            raise InvalidDimensionError("truncation dimension must be >= 2")
        c0 = self.vacuum_amplitude
        if c0 < sys.float_info.min:
            raise NumericalConsistencyError(
                f"probe vacuum amplitude underflows ({c0:.3e}) at alpha={alpha}, r={r}"
            )
        check_dim(dim)

    @property
    def vacuum_amplitude(self) -> float:
        """c_0 = exp(-alpha^2 (1 - tanh r)/2) / sqrt(cosh r)."""
        one_minus_tanh = math.exp(-self.r) / math.cosh(self.r)  # without cancellation
        return math.exp(-0.5 * self.alpha**2 * one_minus_tanh) / math.sqrt(math.cosh(self.r))

    @classmethod
    def with_default_dim(cls, alpha: float, r: float) -> "GaussianProbeSpec":
        return cls(alpha, r, default_truncation_dim(alpha, r))


def default_truncation_dim(alpha: float, r: float) -> int:
    """The smallest dim >= 16 whose exact leakage 1 - sum_{n<dim} c_n^2 is at
    most TAIL_TARGET, running the recurrence of gaussian_probe only that far;
    else MAX_DIM if it holds the probe within LEAKAGE_TOL, else
    InvalidDimensionError. Its spec checks alpha, r and the vacuum amplitude first."""
    leakage = 1.0
    for dim, c in enumerate(_amplitudes(GaussianProbeSpec(alpha, r, MAX_DIM)), 1):
        leakage -= c * c
        if dim >= 16 and leakage <= TAIL_TARGET:
            return dim
    if leakage > LEAKAGE_TOL:
        raise InvalidDimensionError(
            f"no truncation up to the ceiling MAX_DIM = {MAX_DIM} holds alpha={alpha}, r={r}")
    return MAX_DIM


def _amplitudes(spec: GaussianProbeSpec):
    """c_0, ..., c_{dim-1} by the recurrence of gaussian_probe, from spec.vacuum_amplitude."""
    drive = spec.alpha * (math.exp(-spec.r) / math.cosh(spec.r))  # alpha (1 - tanh r)
    tanh = math.tanh(spec.r)
    c, prev = spec.vacuum_amplitude, 0.0
    for n in range(spec.dim):
        yield c
        c, prev = (drive * c + tanh * math.sqrt(n) * prev) / math.sqrt(n + 1), c


def _probe(spec: GaussianProbeSpec) -> list[float]:
    """The normalized amplitudes of gaussian_probe(spec), as floats. The
    leakage 1 - sum_{n<dim} c_n^2 is exact. Raises TruncationError if it
    exceeds LEAKAGE_TOL, with default_truncation_dim as the dim to try, or
    with suggested_dim None when no truncation up to MAX_DIM holds the probe."""
    c = list(_amplitudes(spec))
    norm_sq = math.fsum(x * x for x in c)
    leakage = 1.0 - norm_sq
    if leakage > LEAKAGE_TOL:
        lost = f"projection to dim={spec.dim} loses {leakage:.3e} of the norm; "
        try:
            suggested = default_truncation_dim(spec.alpha, spec.r)
        except InvalidDimensionError:
            raise TruncationError(
                lost + f"no truncation up to MAX_DIM = {MAX_DIM} holds the probe") from None
        raise TruncationError(lost + f"try dim >= {suggested}", suggested_dim=suggested)
    norm = math.sqrt(norm_sq)
    return [x / norm for x in c]


def _fock(dim: int, n: int) -> list[float]:
    """The amplitudes of the Fock state |n> on dim levels."""
    if not 0 <= n < dim:
        raise InvalidDimensionError(f"Fock index {n} outside [0, {dim})")
    return [float(k == n) for k in range(dim)]


class DiffusionParams(_Value):
    """Degree beta >= 0 of the Gaussian phase diffusion."""

    __slots__ = ("beta",)

    def __init__(self, beta: float):
        super().__init__(beta)
        _finite_non_negative("beta", beta)


class PhaseFamilySpec(_Value):
    """Probe + diffusion + phase interval defining one estimation problem."""

    __slots__ = ("probe", "diffusion", "phi_domain")

    def __init__(self, probe: GaussianProbeSpec | StateVector, diffusion: DiffusionParams,
                 phi_domain: tuple[float, float]):
        super().__init__(probe, diffusion, phi_domain)
        lo, hi = phi_domain
        if not (hi > lo):
            raise ContractViolationError(f"phi_domain ({lo}, {hi}) must be a nonempty interval")
        # phi +- pi may round each end by up to its spacing of doubles
        if hi - lo > math.tau + 1e-12 + math.ulp(lo) + math.ulp(hi):
            raise ContractViolationError(f"phi_domain ({lo}, {hi}) wider than one phase period")

    @property
    def dim(self) -> int:
        return self.probe.dim

    def probe_state(self) -> StateVector:
        if not isinstance(self.probe, GaussianProbeSpec):
            return self.probe
        from .operators import gaussian_probe

        return gaussian_probe(self.probe)


class SensitivityReport(_Value):
    """Statistics of one (family, x, observable) triple: nsr is the parameter
    uncertainty propagated from the observable's noise, fisher = slope^2 /
    variance its square inverse."""

    __slots__ = ("mean", "variance", "slope", "nsr", "fisher")

    def __init__(self, mean: float, variance: float, slope: float, nsr: float, fisher: float):
        super().__init__(mean, variance, slope, nsr, fisher)


def _sensitivity_report(mean: float, var: float, slope: float) -> SensitivityReport:
    """The report of an observable's mean, variance (>= 0) and slope: a
    variance at roundoff level is an eigenstate, which carries no information
    unless the mean moves (DegenerateObservableError); otherwise nsr and
    fisher follow from the variance and |slope|."""
    msq = mean**2 + var
    if var <= VARIANCE_ZERO_RTOL * max(1.0, msq):
        if slope != 0.0 and abs(slope) > VARIANCE_ZERO_RTOL * max(1.0, abs(mean)):
            raise DegenerateObservableError(
                "zero variance with moving mean; eigenstate of m yet <m> depends "
                "on x (truncation artifact or inconsistent family)"
            )
        return SensitivityReport(mean, var, slope, math.inf, 0.0)
    if slope == 0.0:
        return SensitivityReport(mean, var, slope, math.inf, 0.0)
    return SensitivityReport(
        mean, var, slope, math.sqrt(var) / abs(slope), slope**2 / var
    )


def _complex_fsum(terms) -> complex:
    """The sum of real or complex terms, each part exactly rounded (math.fsum)."""
    terms = list(terms)
    return complex(math.fsum(t.real for t in terms), math.fsum(t.imag for t in terms))


def _quadrature_reports(spec: PhaseFamilySpec, phi: float) -> Callable[[float], SensitivityReport]:
    """offset -> the SensitivityReport of quadrature(phi + offset) at rho(phi),
    as assess_observable gives it, from four sums over the probe amplitudes c
    instead of d x d matrices:

        <a>       = e^{-beta^2} sum sqrt(n+1) c_{n+1} conj(c_n),
        <a^2>     = e^{-4 beta^2} sum sqrt((n+1)(n+2)) c_{n+2} conj(c_n),
        <a^dag a> = sum n |c_n|^2,
        <a a^dag> = sum_{n<d-1} (n+1) |c_n|^2 (a a^dag on d levels).

    sqrt(n+1) is math.sqrt, the same correctly rounded value as the entries
    of fock_ladder. At rho(phi) the phase turns <a> by e^{-i phi} and <a^2>
    by e^{-2i phi}; the quadrature's angle phi + offset turns them back, so
    the report depends on the offset alone, which is exact for any phi (the
    family is covariant): with z = e^{i offset} <a>, the mean is 2 Re z, the
    slope 2 Im z and <X^2> = 2 Re(e^{2i offset} <a^2>) + <a^dag a> + <a a^dag>.
    The probe is built, and phi checked against the domain, once.
    """
    lo, hi = spec.phi_domain
    if not (math.isfinite(phi) and lo <= phi <= hi):
        raise ContractViolationError(f"phi_true {phi} outside family domain {spec.phi_domain}")
    probe = spec.probe  # a GaussianProbeSpec's floats, or a StateVector's complex amplitudes
    c = _probe(probe) if isinstance(probe, GaussianProbeSpec) else probe.amplitudes.tolist()
    d = len(c)
    if d < 2:
        raise InvalidDimensionError(f"quadrature needs dim >= 2, got {d}")
    beta = spec.diffusion.beta
    root = [math.sqrt(n + 1) for n in range(d - 1)]
    a1 = math.exp(-(beta**2)) * _complex_fsum(
        c[n].conjugate() * (root[n] * c[n + 1]) for n in range(d - 1))
    a2 = math.exp(-4.0 * beta**2) * _complex_fsum(
        c[n].conjugate() * (root[n] * root[n + 1] * c[n + 2]) for n in range(d - 2))
    p = [(x * x.conjugate()).real for x in c]
    sym = (math.fsum(n * p[n] for n in range(d))  # <a^dag a>
           + math.fsum((n + 1) * p[n] for n in range(d - 1)))  # <a a^dag>

    def report(offset: float) -> SensitivityReport:
        _finite("quadrature offset", offset)
        turn = complex(math.cos(offset), math.sin(offset))
        z = turn * a1
        mean = 2.0 * z.real
        msq = 2.0 * (turn * turn * a2).real + sym
        return _sensitivity_report(mean, max(msq - mean**2, 0.0), 2.0 * z.imag)

    return report


def _number_moments(c) -> tuple[float, float]:
    """Mean and variance of the number operator n on the probe amplitudes c,
    from the sums sum n |c_n|^2 and sum n^2 |c_n|^2: O(d), no matrix. n
    commutes with the phase and the diffusion keeps the populations |c_n|^2,
    so these are its moments at every phase of the dephasing family too. The
    variance is clamped to >= 0 against roundoff, as operators.variance does."""
    p = [(x * x.conjugate()).real for x in c]
    mean = math.fsum(n * pn for n, pn in enumerate(p))
    return mean, max(math.fsum(n * n * pn for n, pn in enumerate(p)) - mean**2, 0.0)


def optimal_calibration(phi_true: float) -> float:
    """Best quadrature angle phi_true - pi/2, wrapped into (-pi, pi]."""
    x = _finite("phi_true", phi_true) - math.pi / 2.0
    wrapped = math.fmod(x + math.pi, math.tau)
    if wrapped <= 0.0:
        wrapped += math.tau
    return wrapped - math.pi


def _beta_terms(beta: float) -> tuple[float, float, float, float, float]:
    """The beta-only factors of r_opt, analytic_fnsr and c_q: w = e^{-4 beta^2},
    sqrt(1 - w^2), e^{-2 beta^2}, 1 - w (by expm1, exact near 0) and 8 beta^2."""
    b2 = beta**2
    return (math.exp(-4.0 * b2), math.sqrt(-math.expm1(-8.0 * b2)),
            math.exp(-2.0 * b2), -math.expm1(-4.0 * b2), 8.0 * b2)


def _fnsr_form(r, alpha, decay, noise):
    """analytic_fnsr's quotient at decay = e^{-2 beta^2} and noise =
    1 - e^{-4 beta^2}, exact where e^{-2r} and sinh 2r are finite: |r| below
    about 354.9."""
    num = 4.0 * alpha**2 * decay
    return num / (math.exp(-2.0 * r) + noise * (2.0 * alpha**2 + math.sinh(2.0 * r)))


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
            _, _, decay, noise, _ = _beta_terms(beta)
            return _fnsr_form(r, alpha, decay, noise)
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


def _r_opt_form(n_mean, w, root):
    """r_opt's closed form at w = e^{-4 beta^2} and root = sqrt(1 - w^2)."""
    q = 1.0 / (2.0 * n_mean + 1.0)
    p = 2.0 * n_mean * q
    s = math.hypot(root, w * q)  # sqrt(1 - w^2 + w^2 q^2)
    a = (1.0 + w) * (2.0 - q) - w * q * q  # >= 1
    b = q * q * (4.0 + 2.0 * w) + 4.0 * (1.0 + w) * p * (2.0 * q + p)
    x = w * p * (1.0 + w) * b / ((a + q * s) * (1.0 + w + s) * (w * q + s))
    return 0.5 * math.log1p(x)


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
    w, root, *_ = _beta_terms(beta)
    r = _r_opt_form(n_mean, w, root)
    if math.sinh(r) ** 2 > n_mean + 1e-12 * max(1.0, n_mean):
        raise NumericalConsistencyError(
            f"r_opt={r} puts sinh^2 r above N={n_mean}; no excitation left for alpha"
        )
    return r


def _c_q_form(n_mean, eight_beta_sq, top):
    """4N / (1 + 8 beta^2 N) with both terms divided by top = max(N, 1), so
    that 4N cannot overflow: 4 / (1/N + 8 beta^2) for N >= 1."""
    u = n_mean / top
    return 4.0 * u / (1.0 / top + eight_beta_sq * u)


def c_q(n_mean: float, beta: float) -> float:
    """Standard-limit benchmark 4N / (1 + 8 beta^2 N), finite up to the
    largest N; numpy scalars are taken as floats."""
    n_mean, beta = _finite_non_negative("N", n_mean), _finite_non_negative("beta", beta)
    return _c_q_form(n_mean, _beta_terms(beta)[4], max(n_mean, 1.0))


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


def _ratio_table(two_beta_sq_grid, n_grid) -> tuple[list[list[float]], list[int]]:
    """Fig. 2's table in O(cells): for each 2 beta^2, the row of
    _enhancement_ratio(N, sqrt(2 beta^2 / 2)) over n_grid, bit for bit, as
    it runs the point functions' per-cell forms after _beta_terms once per
    row; and the index of the row's first maximum. The first cell in row
    order that the scalar route may reject (a ratio not finite, sinh^2 r
    above N, (2N + 1) e^{2 beta^2} overflowing, an arithmetic error) is
    replayed through _enhancement_ratio, which raises what that route raises;
    NumericalConsistencyError if it passes."""
    tbs, ns = [float(t) for t in two_beta_sq_grid], [float(n) for n in n_grid]
    if not tbs or not all(0.0 <= t < math.inf for t in tbs):
        raise ContractViolationError("two_beta_sq grid must be nonempty, finite and >= 0")
    if not ns or not all(0.0 < n < math.inf for n in ns):
        raise ContractViolationError("N grid must be nonempty, finite and positive")
    rows, argmax = [], []
    for t in tbs:
        beta, row = math.sqrt(t / 2.0), []
        try:
            w, root, decay, noise, eight_beta_sq = _beta_terms(beta)
            grow = math.exp(2.0 * beta**2)
            for n in ns:
                r = _r_opt_form(n, w, root)
                sinh_sq = math.sinh(r) ** 2
                alpha = math.sqrt(max(n - sinh_sq, 0.0))
                ratio = (_fnsr_form(r, alpha, decay, noise)
                         / _c_q_form(n, eight_beta_sq, max(n, 1.0)))
                if not ((2.0 * n + 1.0) * grow < math.inf
                        and sinh_sq <= n + 1e-12 * max(1.0, n) and ratio < math.inf):
                    break
                row.append(ratio)
        except (ArithmeticError, ValueError):
            pass  # the replay raises it as the scalar route does
        if len(row) < len(ns):
            _enhancement_ratio(ns[len(row)], beta)
            raise NumericalConsistencyError(
                f"enhancement ratio at 2 beta^2={t}, N={ns[len(row)]} fails on the table, "
                "where the scalar closed forms accept the point")
        rows.append(row)
        argmax.append(row.index(max(row)))
    return rows, argmax


def _linspace(lo: float, hi: float, count: int) -> list[float]:
    """np.linspace's points as it computes them: i * step + lo with step =
    (hi - lo) / (count - 1), or (i / (count - 1)) * (hi - lo) + lo where step
    underflows to 0, and the last point hi."""
    if count == 1:
        return [lo]
    div, delta = count - 1, hi - lo
    step = delta / div
    if step == 0:  # a span so small that the step underflows
        return [i / div * delta + lo for i in range(div)] + [hi]
    return [i * step + lo for i in range(div)] + [hi]


def _geomspace(lo: float, hi: float, count: int) -> list[float]:
    """np.geomspace's rule for 0 < lo <= hi on floats: 10.0 ** y at the
    _linspace points y from log10(lo) to log10(hi), both ends pinned to lo
    and hi. libm's log10 and pow may differ from numpy's in the last bit."""
    if count == 1:
        return [lo]
    exponents = _linspace(math.log10(lo), math.log10(hi), count)
    return [lo] + [10.0 ** y for y in exponents[1:-1]] + [hi]


# Fig. 2's default grids, dense near small 2 beta^2, where the threshold sits.
DEFAULT_TWO_BETA_SQ_GRID = tuple(_geomspace(0.01, 1.0, 60))
DEFAULT_N_GRID = tuple(_geomspace(0.05, 1e4, 200))


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
    search in log N over [0.05, 1e4], the whole range of Fig. 2's
    DEFAULT_N_GRID (the rule pins both ends), on which the ratio is unimodal
    (its slope changes sign at most once). Where it still rises at the range end, the search converges
    to that end. Returns (max_ratio, argmax_N)."""

    def ratio_log(u: float) -> float:
        return _enhancement_ratio(math.exp(u), beta)

    u_star = _golden_max(ratio_log, math.log(0.05), math.log(1e4))
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
