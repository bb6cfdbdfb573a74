"""Dense operators and states on truncated Fock / qubit Hilbert spaces.

An Operator is a Hermitian matrix by construction, and a DensityMatrix is an
Operator that also has unit trace and no negative eigenvalue; each checks its
invariants once, when it is built, and holds a read-only complex numpy
matrix. Only DensityMatrix(...) and from_matrix prove positivity, with an
eigensolve; a matrix the library builds is adopted (Operator._adopt) without a
copy, and a state it builds, positive by construction, without the eigensolve.
The ladder matrices, the only non-Hermitian ones, are plain arrays.
Conventions: hbar = 1 and the quadrature a e^{i phi} + a^dag e^{-i phi} is
normalized so the vacuum variance is 1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    ContractViolationError,
    DimensionMismatchError,
    InvalidDimensionError,
    NumericalConsistencyError,
)
from .scalar import (
    HERMITICITY_RTOL,
    IMAG_RESIDUE_TOL,
    PSD_TOL,
    TRACE_TOL,
    GaussianProbeSpec,
    _finite,
    _fock,
    _probe,
)


@dataclass(frozen=True, eq=False)  # identity equality: an ndarray has no truth value
class Operator:
    """A Hermitian matrix: dense, complex, square and read-only, equal to its
    conjugate transpose within HERMITICITY_RTOL of its largest entry."""

    matrix: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "matrix", self._hold(np.array(self.matrix, dtype=complex)))

    @classmethod
    def _adopt(cls, matrix: np.ndarray):
        """cls(matrix) of a complex array the library just built: held, not
        copied, after the same checks but for DensityMatrix's eigensolve, which
        from_matrix runs next; the other such states are positive as built."""
        value = object.__new__(cls)
        object.__setattr__(value, "matrix", cls._hold(matrix))
        return value

    @classmethod
    def _hold(cls, m: np.ndarray) -> np.ndarray:
        """m, checked square, non-empty, finite and Hermitian, made read-only."""
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise InvalidDimensionError(f"expected a square matrix, got shape {m.shape}")
        if m.shape[0] < 1:
            raise InvalidDimensionError("empty matrix")
        if not np.isfinite(m).all():
            raise ContractViolationError("matrix has a non-finite entry")
        scale = skew = 0.0
        for i in range(0, m.shape[0], 64):  # row blocks: no d x d temporary
            scale = max(scale, np.abs(m[i:i + 64]).max())
            skew = max(skew, np.abs(m[i:i + 64] - m[:, i:i + 64].conj().T).max())
        if scale > 0 and skew > HERMITICITY_RTOL * scale:
            raise ContractViolationError("matrix is not hermitian within tolerance")
        m.setflags(write=False)
        return m

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


@dataclass(frozen=True, eq=False)
class DensityMatrix(Operator):
    """Positive-semidefinite, unit-trace Operator."""

    def __post_init__(self):
        super().__post_init__()
        self._prove_positive()

    def _prove_positive(self) -> "DensityMatrix":
        """self, once an eigensolve finds no eigenvalue below -PSD_TOL."""
        low = np.linalg.eigvalsh(self.matrix).min()
        if low < -PSD_TOL:
            raise ContractViolationError(f"negative eigenvalue {low:.3e} beyond tolerance")
        return self

    @classmethod
    def _hold(cls, m: np.ndarray) -> np.ndarray:
        m = super()._hold(m)
        tr = np.trace(m)
        if not abs(tr - 1.0) <= TRACE_TOL:  # also rejects a NaN trace
            raise ContractViolationError(f"trace {tr} differs from 1 beyond tolerance")
        return m

    @classmethod
    def from_matrix(cls, matrix) -> "DensityMatrix":
        """cls of the Hermitian part of matrix, formed in place in one copy; a
        matrix not square and finite is passed on as it is, for the checks."""
        m = np.array(matrix, dtype=complex)
        if m.ndim == 2 and m.shape[0] == m.shape[1] and np.isfinite(m).all():
            m += m.conj().T
            m *= 0.5
        return cls._adopt(m)._prove_positive()

    def phase_shifted(self, phi: float) -> "DensityMatrix":
        """D rho D^dag with D = diag(e^{-i phi n}), n the Fock index.

        Conjugation by a unitary keeps the spectrum, so the state stays
        positive and is adopted (_adopt), without an eigensolve.
        """
        _finite("phase shift", phi)
        ph = np.exp(-1j * phi * np.arange(self.dim))
        return DensityMatrix._adopt(self.matrix * np.outer(ph, ph.conj()))


@dataclass(frozen=True, eq=False)
class StateVector:
    """Pure state in the computational (Fock) basis whose squared norm is
    within TRACE_TOL of 1, the tolerance its projector's trace is held to."""

    amplitudes: np.ndarray

    def __post_init__(self):
        v = np.array(self.amplitudes, dtype=complex).reshape(-1)
        if v.size < 1:
            raise InvalidDimensionError("empty state vector")
        nsq = float(np.vdot(v, v).real)
        if not abs(nsq - 1.0) <= TRACE_TOL:  # also rejects a NaN norm
            raise ContractViolationError(f"squared norm {nsq} differs from 1 beyond tolerance")
        v.setflags(write=False)
        object.__setattr__(self, "amplitudes", v)

    @property
    def dim(self) -> int:
        return self.amplitudes.size

    def density_matrix(self) -> DensityMatrix:
        """|psi><psi|, a projector, so positive by construction."""
        return DensityMatrix._adopt(np.outer(self.amplitudes, self.amplitudes.conj()))


def _ladder_entries(dim: int) -> np.ndarray:
    """sqrt(n + 1) for n < dim - 1, the entries <n|a|n+1> of a on dim levels."""
    return np.sqrt(np.arange(1, dim, dtype=float))


def fock_ladder(dim: int) -> tuple[np.ndarray, np.ndarray]:
    """Annihilation and creation matrices (a, a^dag) on a dim-dimensional Fock
    space, as read-only complex arrays: they are not Hermitian, so not
    Operators."""
    if not isinstance(dim, (int, np.integer)) or dim < 2:
        raise InvalidDimensionError(f"ladder operators need dim >= 2, got {dim}")
    a = np.diag(_ladder_entries(dim), 1).astype(complex)
    adag = a.T.conj()
    a.setflags(write=False)
    adag.setflags(write=False)
    return a, adag


def number_operator(dim: int) -> Operator:
    """n = a^dag a, diagonal (0, 1, ..., dim-1)."""
    if dim < 2:
        raise InvalidDimensionError(f"number operator needs dim >= 2, got {dim}")
    return Operator._adopt(np.diag(np.arange(dim, dtype=float)).astype(complex))


def fock_state(dim: int, n: int) -> StateVector:
    return StateVector(_fock(dim, n))


def gaussian_probe(spec: GaussianProbeSpec) -> StateVector:
    """D(alpha) S(r)|0>, S = exp(r (a^dag^2 - a^2)/2), on the first spec.dim
    Fock states, from the recurrence that its annihilator
    a cosh r - a^dag sinh r - alpha e^{-r} gives (Yuen, PRA 13, 2226 (1976)):

        sqrt(n+1) cosh(r) c_{n+1} = alpha e^{-r} c_n + sqrt(n) sinh(r) c_{n-1}.

    The amplitudes are scalar._probe's floats: the leakage 1 - sum_{n<dim} c_n^2
    is exact, and TruncationError is raised if it exceeds LEAKAGE_TOL, with
    default_truncation_dim as the dim to try, or with suggested_dim None when
    no truncation up to MAX_DIM holds the probe.
    """
    return StateVector(_probe(spec))


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
    mean = expectation(rho, m)
    return max(real_trace(rho.matrix, m.matrix @ m.matrix) - mean**2, 0.0)
