"""Noise-to-sensibility ratio, SLD, quantum Fisher information and
calibration-cost machinery for one-parameter families rho(x).

A family is a pair of maps x -> rho(x) and x -> drho/dx with an analytic
derivative. The figure of merit of an observable m is the ratio
sqrt(Var m) / |d<m>/dx|; its square inverse (the Fisher value) is maximized
by the symmetric logarithmic derivative, and the maximum is the QFI.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import (
    ContractViolationError,
    DegenerateObservableError,
    DimensionMismatchError,
    NoInformationError,
    SupportTruncationWarning,
    UndefinedResidualError,
)
from .operators import (
    DensityMatrix,
    Operator,
    StateVector,
    expectation,
    real_trace,
    variance,
)

# Eigenvalue-pair cut for the SLD solve, relative to the largest eigenvalue.
SLD_EIG_CUT_REL = 1e-12
# Weight of drho outside the kept support that triggers a warning, relative
# to the largest entry of drho.
SUPPORT_LEAK_RTOL = 1e-8
# Variance this small (relative to <m^2>) is treated as an exact eigenstate.
VARIANCE_ZERO_RTOL = 1e-13
# Step of the central difference of derivative_at that gives d^2 rho/dx^2;
# 1e-3 and 1e-4 leave up to 5.9e-6 and 6e-8 relative error in G (dim 16-116).
CURVATURE_STEP = 1e-5


@dataclass(frozen=True)
class ParamFamily:
    """Differentiable map x -> (rho(x), drho/dx) on an interval."""

    dim: int
    state_at: Callable[[float], DensityMatrix]
    derivative_at: Callable[[float], Operator]
    domain: tuple[float, float]

    def contains(self, x: float) -> bool:
        return math.isfinite(x) and self.domain[0] <= x <= self.domain[1]

    def check_derivative(self, x: float) -> float:
        """Max elementwise gap between the analytic derivative and a central
        finite difference of the states, step 1e-5; used by the consistency
        tests."""
        fd = (self.state_at(x + 1e-5).matrix - self.state_at(x - 1e-5).matrix) / 2e-5
        return float(np.abs(fd - self.derivative_at(x).matrix).max())


@dataclass(frozen=True)
class SensitivityReport:
    """Statistics of one (family, x, observable) triple.

    nsr is the parameter uncertainty propagated from the observable's noise;
    fisher = slope^2 / variance is its square inverse.
    """

    mean: float
    variance: float
    slope: float
    nsr: float
    fisher: float


def _check_dims(fam: ParamFamily, m: Operator):
    if m.dim != fam.dim:
        raise DimensionMismatchError(f"observable dim {m.dim} != family dim {fam.dim}")


def assess_observable(fam: ParamFamily, x: float, m: Operator) -> SensitivityReport:
    """Mean, variance, slope and noise-to-sensibility ratio of m at rho(x).

    The slope is Tr[drho/dx m], signed; the nsr takes its absolute value.
    A zero slope with finite noise yields nsr = inf and fisher = 0.
    """
    if not fam.contains(x):
        raise ContractViolationError(f"x={x} outside family domain {fam.domain}")
    _check_dims(fam, m)
    rho = fam.state_at(x)
    drho = fam.derivative_at(x)
    mean = expectation(rho, m)
    var = variance(rho, m)
    slope = real_trace(drho.matrix, m.matrix)
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


def _solve_sld(rho: DensityMatrix, drho: Operator):
    """The SLD equation solved in the eigenbasis V of rho, shared by sld and
    calibration_curvature: returns the eigenvalues p, V, the pair sums
    p_j + p_k, the mask of kept pairs, D = V^dag drho V and L in that basis.
    The checks on drho, the support cut and its warning live here."""
    if rho.dim != drho.dim:
        raise DimensionMismatchError(f"rho dim {rho.dim} != drho dim {drho.dim}")
    scale = np.abs(drho.matrix).max()
    if abs(np.trace(drho.matrix)) > 1e-9 * max(1.0, scale):
        raise ContractViolationError("drho must be traceless")
    evals, vecs = np.linalg.eigh(rho.matrix)
    pair_sums = evals[:, None] + evals[None, :]
    kept = pair_sums > SLD_EIG_CUT_REL * max(evals.max(), 0.0)
    d_eig = vecs.conj().T @ drho.matrix @ vecs
    if scale > 0 and not kept.all() and np.abs(d_eig[~kept]).max() > SUPPORT_LEAK_RTOL * scale:
        warnings.warn(
            "drho has weight outside the regularized support of rho; "
            "formally divergent directions truncated from the SLD",
            SupportTruncationWarning,
            stacklevel=3,
        )
    l_eig = np.zeros_like(d_eig)
    np.divide(2.0 * d_eig, pair_sums, out=l_eig, where=kept)
    return evals, vecs, pair_sums, kept, d_eig, l_eig


def sld(rho: DensityMatrix, drho: Operator) -> Operator:
    """Hermitian L solving (rho L + L rho)/2 = drho on the support of rho.

    In the rho eigenbasis, L_jk = 2 <j|drho|k> / (p_j + p_k) for eigenvalue
    pairs with p_j + p_k above SLD_EIG_CUT_REL times the largest eigenvalue;
    the rest are set to zero (the standard support restriction for
    near-singular rho), with a SupportTruncationWarning if drho has weight
    there. With traceless drho this lands in the gauge <L>_rho = 0.
    """
    _, vecs, _, _, _, l_eig = _solve_sld(rho, drho)
    l_mat = vecs @ l_eig @ vecs.conj().T
    return Operator((l_mat + l_mat.conj().T) / 2)


def qfi(fam: ParamFamily, x: float) -> float:
    """Quantum Fisher information <L^2> at rho(x), with L from sld."""
    if not fam.contains(x):
        raise ContractViolationError(f"x={x} outside family domain {fam.domain}")
    rho = fam.state_at(x)
    l_mat = sld(rho, fam.derivative_at(x)).matrix
    return real_trace(rho.matrix, l_mat @ l_mat)


def optimality_residual(rho: DensityMatrix, drho: Operator, m: Operator) -> float:
    """Frobenius norm of the stationarity defect of m.

    Vanishes exactly on the affine family a(L - b): the anticommutator of rho
    with the centered observable must equal (Var m / slope) drho.
    """
    slope = real_trace(drho.matrix, m.matrix)
    if slope == 0.0:
        raise UndefinedResidualError(
            "observable has zero slope; stationarity residual undefined"
        )
    mean = expectation(rho, m)
    var = variance(rho, m)
    centered = m.matrix - mean * np.eye(m.dim)
    lhs = (rho.matrix @ centered + centered @ rho.matrix) / 2
    rhs = (var / slope) * drho.matrix
    return float(np.linalg.norm(lhs - rhs))


def pure_unitary_family(h: Operator, psi: StateVector) -> ParamFamily:
    """Family exp(-i x h)|psi><psi|exp(i x h) with exact analytic derivative."""
    if h.dim != psi.dim:
        raise DimensionMismatchError(f"h dim {h.dim} != state dim {psi.dim}")
    evals, vecs = np.linalg.eigh(h.matrix)
    psi_eig = vecs.conj().T @ psi.amplitudes
    scale = float(np.abs(evals).max())

    def state_at(x: float) -> DensityMatrix:
        if not math.isfinite(x * scale):
            raise ContractViolationError(f"phase x h is not finite at x={x}")
        amp = vecs @ (np.exp(-1j * evals * x) * psi_eig)
        rho = np.outer(amp, amp.conj())
        return DensityMatrix((rho + rho.conj().T) / 2)

    def derivative_at(x: float) -> Operator:
        rho = state_at(x).matrix
        d = -1j * (h.matrix @ rho - rho @ h.matrix)
        return Operator((d + d.conj().T) / 2)

    return ParamFamily(
        dim=h.dim,
        state_at=state_at,
        derivative_at=derivative_at,
        domain=(-math.inf, math.inf),
    )


def pure_unitary_qfi(h: Operator, psi: StateVector) -> float:
    """Closed form 4 Var(h) on |psi> for pure unitary families."""
    return 4.0 * variance(psi.density_matrix(), h)


def calibration_curvature(fam: ParamFamily, x: float) -> float:
    """Signed curvature G(x) of the Fisher value of a miscalibrated SLD:
    G = Var(L') - <L' L + L L'>^2 / (4 <L^2>), moments at rho(x).

    L' = dL/dx comes from the same eigenbasis solve as L: differentiating
    (rho L + L rho)/2 = rho' gives rho L' + L' rho = 2 rho'' - (rho' L + L rho'),
    so L'_jk = [2 V^dag rho'' V - (D L + L D)]_jk / (p_j + p_k) on the pairs
    that sld keeps, and zero elsewhere. rho'' is a central difference of
    derivative_at at x +- CURVATURE_STEP, which must stay in the domain.
    G is not guaranteed nonnegative; the signed value is returned.
    """
    return _curvature_and_qfi(fam, x)[0]


def _curvature_and_qfi(fam: ParamFamily, x: float) -> tuple[float, float]:
    """(G, <L^2>) of calibration_curvature's one SLD solve; <L^2> is the QFI."""
    h = CURVATURE_STEP
    if not (fam.contains(x - h) and fam.contains(x + h)):
        raise ContractViolationError(f"x +- {h} leaves the family domain {fam.domain}")
    rho = fam.state_at(x)
    p, vecs, pair_sums, kept, d_eig, l_eig = _solve_sld(rho, fam.derivative_at(x))
    d2rho = (fam.derivative_at(x + h).matrix - fam.derivative_at(x - h).matrix) / (2 * h)
    rhs = 2.0 * (vecs.conj().T @ d2rho @ vecs) - (d_eig @ l_eig + l_eig @ d_eig)
    dl_eig = np.zeros_like(rhs)
    np.divide(rhs, pair_sums, out=dl_eig, where=kept)
    dl_eig = (dl_eig + dl_eig.conj().T) / 2

    # <A> = sum_j p_j A_jj and <AB> = sum_jk p_j A_jk B_kj in the eigenbasis
    mean_lsq = float(p @ (np.abs(l_eig) ** 2).sum(axis=1))
    if mean_lsq <= 0.0:
        raise NoInformationError("zero <L^2>; curvature undefined")
    mean_dl = float(p @ dl_eig.diagonal().real)
    mean_dl2 = float(p @ (np.abs(dl_eig) ** 2).sum(axis=1))
    mean_dlsq = 2.0 * float(p @ (dl_eig * l_eig.T).sum(axis=1).real)
    return (mean_dl2 - mean_dl**2) - mean_dlsq**2 / (4.0 * mean_lsq), mean_lsq


def pure_unitary_sample_size_bound(h: Operator, psi: StateVector) -> float:
    """Closed-form calibration bound for exp(-i x h)|psi>:
    [<(Delta h)^4> / <Delta h^2>^2 - 1] / 4. Scale-free in h."""
    rho = psi.density_matrix()
    hc = h.matrix - expectation(rho, h) * np.eye(h.dim)
    hc2 = hc @ hc
    m2 = real_trace(rho.matrix, hc2)
    if m2 <= 0.0:
        raise NoInformationError("psi is an eigenstate of h; no information")
    m4 = real_trace(rho.matrix, hc2 @ hc2)
    return (m4 / m2**2 - 1.0) / 4.0


def sample_size_bound(fam: ParamFamily, x: float) -> float:
    """G(x) / QFI(x)^2; the sample size must dominate this for the calibrated
    measurement to reach the quantum sensitivity.

    G and the QFI <L^2> come from calibration_curvature's single SLD solve,
    which raises NoInformationError at zero QFI; on pure unitary families
    this matches pure_unitary_sample_size_bound to about 1e-9 relative.
    """
    g, q = _curvature_and_qfi(fam, x)
    return g / q**2
