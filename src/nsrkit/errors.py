"""Exception and warning types shared across the toolkit."""


class InvalidDimensionError(ValueError):
    """Hilbert-space dimension is too small or not a positive integer."""


class DimensionMismatchError(ValueError):
    """Operands live on Hilbert spaces of different dimension."""


class ContractViolationError(ValueError):
    """An input violates a declared precondition (Hermiticity, trace, norm, ...)."""


class TruncationError(RuntimeError):
    """State preparation leaks too much norm past the Fock-space cutoff.

    Attributes:
        suggested_dim: a truncation dimension expected to be large enough.
    """

    def __init__(self, message, suggested_dim=None):
        super().__init__(message)
        self.suggested_dim = suggested_dim


class NumericalConsistencyError(RuntimeError):
    """A quantity that must be real or normalized came out otherwise."""


class DegenerateObservableError(RuntimeError):
    """Zero variance with nonzero slope: the state is an eigenstate of the
    observable yet its mean moves with the parameter."""


class UndefinedResidualError(ValueError):
    """Stationarity residual is undefined because the observable has zero slope."""


class NoInformationError(RuntimeError):
    """The family carries no information at this point (zero Fisher information)."""


class NonInvertibleCurveError(RuntimeError):
    """The observable's mean is flat in the parameter, or not the cosine of a
    quadrature on a phase family, so it cannot be inverted in closed form."""


class EstimatorDivergenceError(RuntimeError):
    """Adaptive estimation left the parameter domain.

    Attributes:
        round_index: zero-based round at which the run was aborted.
    """

    def __init__(self, message, round_index=None):
        super().__init__(message)
        self.round_index = round_index


class SupportTruncationWarning(UserWarning):
    """The state derivative has weight outside the regularized support of rho;
    formally divergent directions were dropped from the SLD."""

