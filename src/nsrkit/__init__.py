"""nsrkit: quantum single-parameter estimation via the noise-to-sensibility
ratio, with the phase-diffusion case study and a Monte Carlo harness.

Importing nsrkit loads only its numpy-free layer (errors and scalar); the
numpy modules load on first access to one of their names (PEP 562)."""

import importlib

from .errors import (
    ContractViolationError,
    DegenerateObservableError,
    DimensionMismatchError,
    EstimatorDivergenceError,
    InvalidDimensionError,
    NoInformationError,
    NonInvertibleCurveError,
    NumericalConsistencyError,
    SupportTruncationWarning,
    TruncationError,
    UndefinedResidualError,
)
from .scalar import (
    DiffusionParams,
    GaussianProbeSpec,
    PhaseFamilySpec,
    SensitivityReport,
    analytic_fnsr,
    c_q,
    default_truncation_dim,
    enhancement_threshold,
    max_enhancement_ratio,
    no_squeeze_ratio_bound,
    optimal_calibration,
    optimal_fnsr,
    r_max,
    r_opt,
)

__version__ = "0.1.0"

# The numpy-backed public names, by the module that defines them.
_LAZY = {
    "operators": ("DensityMatrix", "Operator", "StateVector", "expectation", "fock_ladder",
                  "fock_state", "gaussian_probe", "number_operator", "variance"),
    "estimation": ("ParamFamily", "assess_observable", "calibration_curvature",
                   "optimality_residual", "pure_unitary_family", "pure_unitary_qfi",
                   "pure_unitary_sample_size_bound", "qfi", "sample_size_bound", "sld"),
    "dephasing": ("EnhancementScan", "dephase_channel", "dephasing_family", "enhancement_scan",
                  "quadrature"),
    "montecarlo": ("CalibrationCurve", "MeasurementModel", "TrialRun", "adaptive_calibrate",
                   "build_curve", "invert_mean", "mean_inversion_condition", "run_trials"),
}
_HOME = {name: module for module, names in _LAZY.items() for name in names}


def __getattr__(name):
    """A numpy-backed name or module, imported on first access."""
    if name in _LAZY:
        return importlib.import_module(f".{name}", __name__)
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_HOME))


# The public names: those imported above from errors and scalar, and the lazy ones.
__all__ = sorted({*_HOME, *(name for name, value in globals().items()
                            if getattr(value, "__module__", None) in ("nsrkit.errors",
                                                                      "nsrkit.scalar"))})
