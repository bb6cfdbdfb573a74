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
from .scalar import SensitivityReport, _sensitivity_report

# Eigenvalue-pair cut for the SLD solve, relative to the largest eigenvalue.
SLD_EIG_CUT_REL = 1e-12
# Weight of drho outside the kept support that triggers a warning, relative
# to the largest entry of drho.
SUPPORT_LEAK_RTOL = 1e-8
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


def assess_observable(fam: ParamFamily, x: float, m: Operator) -> SensitivityReport:
    """Mean, variance, slope and noise-to-sensibility ratio of m at rho(x),
    from the dense matrices: O(d^3) for the variance's m @ m. A quadrature on
    a dephasing family has the O(d) route scalar._quadrature_reports,
    which returns through the same rule (_sensitivity_report).

    The slope is Tr[drho/dx m], signed; the nsr takes its absolute value.
    A zero slope with finite noise yields nsr = inf and fisher = 0.
    """
    if not fam.contains(x):
        raise ContractViolationError(f"x={x} outside family domain {fam.domain}")
    if m.dim != fam.dim:
        raise DimensionMismatchError(f"observable dim {m.dim} != family dim {fam.dim}")
    rho = fam.state_at(x)
    drho = fam.derivative_at(x)
    mean = expectation(rho, m)
    var = variance(rho, m)
    slope = real_trace(drho.matrix, m.matrix)
    return _sensitivity_report(mean, var, slope)


def _sld_in_eigenbasis(evals: np.ndarray, y: np.ndarray, scale: float):
    """X solving rho X + X rho = 2Y in the eigenbasis of rho, from its
    eigenvalues p and Y in that basis: X_jk = 2 Y_jk / (p_j + p_k), and
    <X^2> = sum_jk p_j |X_jk|^2. With Y = D = V^dag drho V, X is the SLD L and
    <X^2> the QFI (Braunstein & Caves, PRL 72, 3439 (1994)). Pairs with
    p_j + p_k at or below SLD_EIG_CUT_REL times the largest eigenvalue are set
    to zero, with a SupportTruncationWarning if scale > 0 and Y has weight
    there above SUPPORT_LEAK_RTOL times scale, drho's largest Fock entry.
    X is doubled in place and <X^2> summed by row blocks: no 2Y or |X|^2 at d x d."""
    pair_sums = evals[:, None] + evals[None, :]
    kept = pair_sums > SLD_EIG_CUT_REL * max(evals.max(), 0.0)
    if scale > 0 and not kept.all() and np.abs(y[~kept]).max() > SUPPORT_LEAK_RTOL * scale:
        warnings.warn(
            "drho has weight outside the regularized support of rho; "
            "formally divergent directions truncated from the SLD",
            SupportTruncationWarning,
            stacklevel=4,  # the caller of qfi or sld
        )
    x = np.zeros_like(y)
    np.divide(y, pair_sums, out=x, where=kept)
    x *= 2.0
    rows = [(np.abs(x[i:i + 256]) ** 2).sum(axis=1) for i in range(0, len(x), 256)]
    return x, float(evals @ np.concatenate(rows))


def _solve_sld(rho: DensityMatrix, drho: Operator):
    """The SLD equation solved in the eigenbasis V of rho, shared by sld, qfi
    and calibration_curvature: returns the eigenvalues p, V, D = V^dag drho V,
    L in that basis and the QFI <L^2>, as _sld_in_eigenbasis gives them. The
    checks on drho live here."""
    if rho.dim != drho.dim:
        raise DimensionMismatchError(f"rho dim {rho.dim} != drho dim {drho.dim}")
    scale = np.abs(drho.matrix).max()
    if abs(np.trace(drho.matrix)) > 1e-9 * max(1.0, scale):
        raise ContractViolationError("drho must be traceless")
    evals, vecs = np.linalg.eigh(rho.matrix)
    d_eig = vecs.conj().T @ drho.matrix @ vecs
    return evals, vecs, d_eig, *_sld_in_eigenbasis(evals, d_eig, scale)


def sld(rho: DensityMatrix, drho: Operator) -> Operator:
    """Hermitian L solving (rho L + L rho)/2 = drho on the support of rho.

    In the rho eigenbasis, L_jk = 2 <j|drho|k> / (p_j + p_k) for eigenvalue
    pairs with p_j + p_k above SLD_EIG_CUT_REL times the largest eigenvalue;
    the rest are set to zero (the standard support restriction for
    near-singular rho), with a SupportTruncationWarning if drho has weight
    there. With traceless drho this lands in the gauge <L>_rho = 0. Only
    here is L mapped back to the Fock basis.
    """
    _, vecs, _, l_eig, _ = _solve_sld(rho, drho)
    l_mat = vecs @ l_eig @ vecs.conj().T
    return Operator._adopt((l_mat + l_mat.conj().T) / 2)


def qfi(fam: ParamFamily, x: float) -> float:
    """Quantum Fisher information <L^2> at rho(x), read in rho's eigenbasis."""
    if not fam.contains(x):
        raise ContractViolationError(f"x={x} outside family domain {fam.domain}")
    return _solve_sld(fam.state_at(x), fam.derivative_at(x))[-1]


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
    """Family |psi(x)><psi(x)|, psi(x) = e^{-i x h} psi = V e^{-i x evals} V^dag psi
    from one eigh of h, with the exact derivative |psi'><psi| + |psi><psi'|,
    psi' = -i h psi(x): no eigensolve or d x d matrix product per call."""
    if h.dim != psi.dim:
        raise DimensionMismatchError(f"h dim {h.dim} != state dim {psi.dim}")
    evals, vecs = np.linalg.eigh(h.matrix)
    psi_eig = vecs.conj().T @ psi.amplitudes
    scale = float(np.abs(evals).max())

    def psi_at(x: float) -> StateVector:
        if not math.isfinite(x * scale):
            raise ContractViolationError(f"phase x h is not finite at x={x}")
        return StateVector(vecs @ (np.exp(-1j * evals * x) * psi_eig))

    def derivative_at(x: float) -> Operator:
        amp = psi_at(x).amplitudes
        damp = -1j * (h.matrix @ amp)
        return Operator._adopt(np.outer(damp, amp.conj()) + np.outer(amp, damp.conj()))

    return ParamFamily(
        dim=h.dim,
        state_at=lambda x: psi_at(x).density_matrix(),
        derivative_at=derivative_at,
        domain=(-math.inf, math.inf),
    )


def pure_unitary_qfi(h: Operator, psi: StateVector) -> float:
    """Closed form 4 Var(h) = 4 (|h c|^2 - <c|h c>^2) >= 0 of pure unitary
    families on |psi> = c; OverflowError where a moment overflows, not nan."""
    if h.dim != psi.dim:
        raise DimensionMismatchError(f"h dim {h.dim} != state dim {psi.dim}")
    hc = h.matrix @ psi.amplitudes
    mean, msq = float(np.vdot(psi.amplitudes, hc).real), float(np.vdot(hc, hc).real)
    four_var = 4.0 * max(msq - mean * mean, 0.0)
    if not math.isfinite(four_var):
        raise OverflowError(f"4 Var(h) is not finite: <h> = {mean}, <h^2> = {msq}")
    return four_var


def calibration_curvature(fam: ParamFamily, x: float) -> float:
    """Signed curvature G(x) of the Fisher value of a miscalibrated SLD:
    G = Var(L') - <L' L + L L'>^2 / (4 <L^2>), moments at rho(x).

    L' = dL/dx solves rho L' + L' rho = 2Y', the derivative of
    (rho L + L rho)/2 = rho', with Y' = V^dag rho'' V - (D L + L D)/2 taken
    Hermitian: the same eigenbasis step as L, on the pairs sld keeps, without
    a warning. rho'' is a central difference of derivative_at at
    x +- CURVATURE_STEP, which must stay in the domain.
    G is not guaranteed nonnegative; the signed value is returned.
    """
    return _curvature_and_qfi(fam, x)[0]


def _curvature_and_qfi(fam: ParamFamily, x: float) -> tuple[float, float]:
    """(G, <L^2>) of calibration_curvature's one SLD solve; <L^2> is the QFI."""
    h = CURVATURE_STEP
    if not (fam.contains(x - h) and fam.contains(x + h)):
        raise ContractViolationError(f"x +- {h} leaves the family domain {fam.domain}")
    rho = fam.state_at(x)
    p, vecs, d_eig, l_eig, mean_lsq = _solve_sld(rho, fam.derivative_at(x))
    d2rho = (fam.derivative_at(x + h).matrix - fam.derivative_at(x - h).matrix) / (2 * h)
    y = vecs.conj().T @ d2rho @ vecs - (d_eig @ l_eig + l_eig @ d_eig) / 2.0
    dl_eig, mean_dl2 = _sld_in_eigenbasis(p, (y + y.conj().T) / 2, 0.0)

    # <A> = sum_j p_j A_jj and <AB> = sum_jk p_j A_jk B_kj in the eigenbasis
    if mean_lsq <= 0.0:
        raise NoInformationError("zero <L^2>; curvature undefined")
    mean_dl = float(p @ dl_eig.diagonal().real)
    mean_dlsq = 2.0 * float(p @ (dl_eig * l_eig.T).sum(axis=1).real)
    return (mean_dl2 - mean_dl**2) - mean_dlsq**2 / (4.0 * mean_lsq), mean_lsq


def pure_unitary_sample_size_bound(h: Operator, psi: StateVector) -> float:
    """Closed-form calibration bound for exp(-i x h)|psi>:
    [<(Delta h)^4> / <Delta h^2>^2 - 1] / 4. Scale-free in h. The moments are
    |hc|^2 and |(h - <h>) hc|^2 for hc = (h - <h>) c: two products with h."""
    if h.dim != psi.dim:
        raise DimensionMismatchError(f"h dim {h.dim} != state dim {psi.dim}")
    c = psi.amplitudes
    hc = h.matrix @ c
    mean = float(np.vdot(c, hc).real)
    hc -= mean * c
    m2 = float(np.vdot(hc, hc).real)
    if m2 <= 0.0:
        raise NoInformationError("psi is an eigenstate of h; no information")
    h2c = h.matrix @ hc - mean * hc
    return (float(np.vdot(h2c, h2c).real) / m2**2 - 1.0) / 4.0


def sample_size_bound(fam: ParamFamily, x: float) -> float:
    """G(x) / QFI(x)^2; the sample size must dominate this for the calibrated
    measurement to reach the quantum sensitivity.

    G and the QFI <L^2> come from calibration_curvature's single SLD solve,
    which raises NoInformationError at zero QFI; on pure unitary families
    this matches pure_unitary_sample_size_bound to about 1e-9 relative.
    """
    g, q = _curvature_and_qfi(fam, x)
    return g / q**2
