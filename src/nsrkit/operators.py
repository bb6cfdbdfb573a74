"""Dense operators and states on truncated Fock / qubit Hilbert spaces.

Everything is a plain complex numpy matrix wrapped in a thin immutable
container that checks the declared invariants once, at construction.
Conventions: hbar = 1 and the quadrature a e^{i phi} + a^dag e^{-i phi} is
normalized so the vacuum variance is 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    ContractViolationError,
    DimensionMismatchError,
    InvalidDimensionError,
    NumericalConsistencyError,
    TruncationError,
)

# Tolerances from the numerical contract; exposed so callers can reuse them.
HERMITICITY_RTOL = 1e-12
TRACE_TOL = 1e-10
PSD_TOL = 1e-10
NORM_TOL = 1e-10
LEAKAGE_TOL = 1e-8
IMAG_RESIDUE_TOL = 1e-10


def _as_complex_matrix(entries) -> np.ndarray:
    m = np.array(entries, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise InvalidDimensionError(f"expected a square matrix, got shape {m.shape}")
    if m.shape[0] < 1:
        raise InvalidDimensionError("empty matrix")
    return m


@dataclass(frozen=True)
class Operator:
    """A dense complex square matrix with a declared Hermiticity flag."""

    matrix: np.ndarray
    hermitian: bool = False

    def __post_init__(self):
        m = _as_complex_matrix(self.matrix)
        if self.hermitian:
            scale = np.abs(m).max()
            if scale > 0 and np.abs(m - m.conj().T).max() > HERMITICITY_RTOL * scale:
                raise ContractViolationError(
                    "matrix declared hermitian is not hermitian within tolerance"
                )
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


@dataclass(frozen=True)
class DensityMatrix:
    """Hermitian, positive-semidefinite, unit-trace operator."""

    op: Operator

    def __post_init__(self):
        if not self.op.hermitian:
            raise ContractViolationError("density matrix requires a hermitian Operator")
        tr = np.trace(self.op.matrix)
        if abs(tr - 1.0) > TRACE_TOL:
            raise ContractViolationError(f"trace {tr} differs from 1 beyond tolerance")
        evals = np.linalg.eigvalsh(self.op.matrix)
        if evals.min() < -PSD_TOL:
            raise ContractViolationError(
                f"negative eigenvalue {evals.min():.3e} beyond tolerance"
            )

    @property
    def matrix(self) -> np.ndarray:
        return self.op.matrix

    @property
    def dim(self) -> int:
        return self.op.dim

    @classmethod
    def from_matrix(cls, matrix) -> "DensityMatrix":
        m = _as_complex_matrix(matrix)
        return cls(Operator((m + m.conj().T) / 2, hermitian=True))

    def phase_shifted(self, phi: float) -> "DensityMatrix":
        """D rho D^dag with D = diag(e^{-i phi n}), n the Fock index.

        Conjugation by a diagonal unitary keeps the diagonal and the spectrum,
        so the unit trace and positivity checked on this state carry over and
        are not re-checked; only Operator's O(d^2) Hermiticity check runs.
        """
        if not math.isfinite(phi):
            raise ContractViolationError(f"phase shift must be finite, got {phi}")
        ph = np.exp(-1j * phi * np.arange(self.dim))
        shifted = object.__new__(DensityMatrix)
        object.__setattr__(
            shifted, "op", Operator(self.matrix * np.outer(ph, ph.conj()), hermitian=True)
        )
        return shifted


@dataclass(frozen=True)
class StateVector:
    """Normalized pure state in the computational (Fock) basis."""

    amplitudes: np.ndarray

    def __post_init__(self):
        v = np.array(self.amplitudes, dtype=complex).reshape(-1)
        if v.size < 1:
            raise InvalidDimensionError("empty state vector")
        nrm = np.linalg.norm(v)
        if abs(nrm - 1.0) > NORM_TOL:
            raise ContractViolationError(f"norm {nrm} differs from 1 beyond tolerance")
        v.setflags(write=False)
        object.__setattr__(self, "amplitudes", v)

    @property
    def dim(self) -> int:
        return self.amplitudes.size

    def density_matrix(self) -> DensityMatrix:
        rho = np.outer(self.amplitudes, self.amplitudes.conj())
        return DensityMatrix(Operator(rho, hermitian=True))


@dataclass(frozen=True)
class GaussianProbeSpec:
    """Real displacement/squeezing pair defining a probe D(alpha) S(r) |0>."""

    alpha: float
    r: float
    dim: int

    def __post_init__(self):
        n = self.mean_excitation
        if not math.isfinite(n) or n < 0:
            raise ContractViolationError(f"mean excitation {n} must be finite and >= 0")
        if self.dim < 2:
            raise InvalidDimensionError("truncation dimension must be >= 2")

    @property
    def mean_excitation(self) -> float:
        return self.alpha**2 + math.sinh(self.r) ** 2

    @classmethod
    def with_default_dim(cls, alpha: float, r: float) -> "GaussianProbeSpec":
        return cls(alpha, r, default_truncation_dim(alpha, r))


def default_truncation_dim(alpha: float, r: float) -> int:
    """Truncation policy targeting tail mass below 1e-9 for alpha <= 2, r <= 1.

    The squeezed-vacuum number tail decays geometrically like (tanh^2 r)^(n/2)
    until far past the mean, so the cutoff must scale with 1/(-ln tanh|r|);
    displacement along the anti-squeezed axis adds roughly alpha^2 e^{2|r|}.
    """
    for name, value in (("alpha", alpha), ("r", r)):
        if not math.isfinite(value):
            raise ContractViolationError(f"{name} must be finite, got {value}")
    n = alpha**2 + math.sinh(r) ** 2
    dim = max(16, math.ceil(8.0 * (n + 1.0)))
    if r != 0.0:
        squeeze_tail = 20.75 / (-math.log(math.tanh(abs(r))))
        dim = max(dim, math.ceil(squeeze_tail + alpha**2 * math.exp(2 * abs(r)) + 10))
    return dim


def fock_ladder(dim: int) -> tuple[Operator, Operator]:
    """Annihilation and creation operators on a dim-dimensional Fock space."""
    if not isinstance(dim, (int, np.integer)) or dim < 2:
        raise InvalidDimensionError(f"ladder operators need dim >= 2, got {dim}")
    a = np.diag(np.sqrt(np.arange(1, dim, dtype=float)), 1).astype(complex)
    return Operator(a), Operator(a.conj().T)


def number_operator(dim: int) -> Operator:
    """n = a^dag a, diagonal (0, 1, ..., dim-1)."""
    if dim < 2:
        raise InvalidDimensionError(f"number operator needs dim >= 2, got {dim}")
    return Operator(np.diag(np.arange(dim, dtype=float)).astype(complex), hermitian=True)


def fock_state(dim: int, n: int) -> StateVector:
    if not 0 <= n < dim:
        raise InvalidDimensionError(f"Fock index {n} outside [0, {dim})")
    v = np.zeros(dim, dtype=complex)
    v[n] = 1.0
    return StateVector(v)


def unitary_from_generator(g: Operator) -> Operator:
    """exp(g) for anti-Hermitian g, via eigendecomposition of the Hermitian i*g.

    The eigendecomposition route keeps the result unitary to roundoff, unlike
    scaling-and-squaring.
    """
    m = g.matrix
    scale = np.abs(m).max()
    if scale > 0 and np.abs(m + m.conj().T).max() > 1e-10 * max(1.0, scale):
        raise ContractViolationError("generator is not anti-Hermitian within tolerance")
    h = 1j * m  # Hermitian
    evals, vecs = np.linalg.eigh((h + h.conj().T) / 2)
    u = (vecs * np.exp(-1j * evals)) @ vecs.conj().T
    return Operator(u)


def displacement_generator(alpha: float, dim: int) -> Operator:
    a, adag = fock_ladder(dim)
    return Operator(alpha * (adag.matrix - a.matrix))


def gaussian_probe(spec: GaussianProbeSpec) -> StateVector:
    """D(alpha) S(r)|0>, S = exp(r (a^dag^2 - a^2)/2), on the first spec.dim
    Fock states, from the recurrence that its annihilator
    a cosh r - a^dag sinh r - alpha e^{-r} gives (Yuen, PRA 13, 2226 (1976)):

        sqrt(n+1) cosh(r) c_{n+1} = alpha e^{-r} c_n + sqrt(n) sinh(r) c_{n-1},
        c_0 = exp(-alpha^2 (1 - tanh r)/2) / sqrt(cosh r).

    The leakage 1 - sum_{n<dim} c_n^2 is exact. Raises TruncationError, with a
    suggested larger dimension, if it exceeds LEAKAGE_TOL, and
    NumericalConsistencyError if c_0 underflows.
    """
    alpha, r = spec.alpha, spec.r
    one_minus_tanh = math.exp(-r) / math.cosh(r)  # 1 - tanh r, without cancellation
    c = np.empty(spec.dim)
    c[0] = math.exp(-0.5 * alpha**2 * one_minus_tanh) / math.sqrt(math.cosh(r))
    if c[0] < np.finfo(float).tiny:
        raise NumericalConsistencyError(
            f"probe vacuum amplitude underflows ({c[0]:.3e}) at alpha={alpha}, r={r}"
        )
    drive = alpha * one_minus_tanh
    tanh = math.tanh(r)
    sqrt_n = np.sqrt(np.arange(spec.dim))
    prev = 0.0
    for n in range(spec.dim - 1):
        c[n + 1] = (drive * c[n] + tanh * sqrt_n[n] * prev) / sqrt_n[n + 1]
        prev = c[n]
    leakage = 1.0 - float(c @ c)
    if leakage > LEAKAGE_TOL:
        suggested = default_truncation_dim(alpha, r)
        if suggested <= spec.dim:
            suggested = 2 * spec.dim
        raise TruncationError(
            f"projection to dim={spec.dim} loses {leakage:.3e} of the norm; "
            f"try dim >= {suggested}",
            suggested_dim=suggested,
        )
    return StateVector(c / np.linalg.norm(c))


def real_trace(a: np.ndarray, b: np.ndarray) -> float:
    """Tr[a b] for Hermitian a, as the O(d^2) contraction np.vdot(a, b) =
    sum_ij conj(a_ij) b_ij. The imaginary residue must be at most
    IMAG_RESIDUE_TOL * max(1, |Tr|): absolute up to |Tr| = 1 and relative
    above, so the rule does not depend on the scale of b."""
    val = complex(np.vdot(a, b))
    if abs(val.imag) > IMAG_RESIDUE_TOL * max(1.0, abs(val.real)):
        raise NumericalConsistencyError(f"trace has imaginary residue {val.imag:.3e}")
    return val.real


def expectation(rho: DensityMatrix, m: Operator) -> float:
    """Tr[rho m] through real_trace, which is O(d^2) because rho is Hermitian."""
    if rho.dim != m.dim:
        raise DimensionMismatchError(f"state dim {rho.dim} != observable dim {m.dim}")
    return real_trace(rho.matrix, m.matrix)


def variance(rho: DensityMatrix, m: Operator) -> float:
    """<m^2> - <m>^2, clamped to >= 0 against roundoff."""
    mm = Operator(m.matrix @ m.matrix, hermitian=m.hermitian)
    v = expectation(rho, mm) - expectation(rho, m) ** 2
    return max(v, 0.0)
