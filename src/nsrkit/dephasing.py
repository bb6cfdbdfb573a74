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

from .errors import ContractViolationError
from .estimation import ParamFamily, _sld_in_eigenbasis
from .operators import DensityMatrix, Operator, fock_ladder
from .scalar import PhaseFamilySpec, _finite, _finite_non_negative, _ratio_table
from .scalar import analytic_fnsr, enhancement_threshold  # noqa: F401  (perfbench/traced.py)


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
    return DensityMatrix._adopt(state * _kernel(state.shape[0], beta))


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
        return Operator._adopt(-1j * dn * base.phase_shifted(phi).matrix)

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
    return Operator._adopt(a * np.exp(1j * phi_exp) + adag * np.exp(-1j * phi_exp))


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
    """scalar._ratio_table over one-dimensional grids, which are copied, not
    frozen, as read-only arrays: every cell bit-identical to the scalar route."""
    tbs = np.array(two_beta_sq_grid, dtype=float)
    n = np.array(n_grid, dtype=float)
    if tbs.ndim != 1 or n.ndim != 1:
        raise ContractViolationError("the two_beta_sq and N grids must be one-dimensional")
    ratio, argmax = _ratio_table(tbs.tolist(), n.tolist())
    fields = (tbs, n, np.array(ratio), np.array(argmax))
    for arr in fields:
        arr.flags.writeable = False
    return EnhancementScan(*fields)
