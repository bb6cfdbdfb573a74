"""The three input rules of nsrkit.operators at every public entry that takes
such an input: a value that must be finite, a beta or N that must be finite
and >= 0, and a sample count that must be at least 1. Each bad value raises
ContractViolationError naming the input, before any arithmetic reads it."""

import math
import re

import pytest

from nsrkit import (
    ContractViolationError,
    DiffusionParams,
    GaussianProbeSpec,
    adaptive_calibrate,
    analytic_fnsr,
    build_curve,
    c_q,
    default_truncation_dim,
    dephase_channel,
    max_enhancement_ratio,
    mean_inversion_condition,
    no_squeeze_ratio_bound,
    optimal_calibration,
    optimal_fnsr,
    quadrature,
    r_max,
    r_opt,
    run_trials,
)
from nsrkit.scalar import _quadrature_reports

from conftest import fock_dephasing_spec

SPEC = fock_dephasing_spec(1.0, 0.0, 0.3, dim=16)
REPORT_AT = _quadrature_reports(SPEC, 0.7)
STATE = SPEC.probe_state().density_matrix()

# (id, the input's name, a call that passes the bad value as that input)
FINITE = [
    ("analytic_fnsr-r", "r", lambda v: analytic_fnsr(v, 1.0, 0.3)),
    ("analytic_fnsr-alpha", "alpha", lambda v: analytic_fnsr(0.5, v, 0.3)),
    ("optimal_calibration", "phi_true", optimal_calibration),
    ("build_curve", "start", lambda v: build_curve(REPORT_AT, v, SPEC.phi_domain)),
    ("phase_shifted", "phase shift", lambda v: STATE.phase_shifted(v)),
    ("dephase_channel-phi", "phase shift", lambda v: dephase_channel(STATE, v, 0.3)),
    ("quadrature", "phi_exp", lambda v: quadrature(v, 4)),
    ("quadrature_reports-offset", "quadrature offset", REPORT_AT),
    ("default_truncation_dim-alpha", "alpha", lambda v: default_truncation_dim(v, 0.0)),
    ("default_truncation_dim-r", "r", lambda v: default_truncation_dim(1.0, v)),
    ("GaussianProbeSpec-alpha", "alpha", lambda v: GaussianProbeSpec(v, 0.0, 16)),
    ("GaussianProbeSpec-r", "r", lambda v: GaussianProbeSpec(1.0, v, 16)),
]
NON_NEGATIVE = [
    ("DiffusionParams", "beta", DiffusionParams),
    ("dephase_channel-beta", "beta", lambda v: dephase_channel(STATE, 0.3, v)),
    ("analytic_fnsr-beta", "beta", lambda v: analytic_fnsr(0.5, 1.0, v)),
    ("r_max", "beta", r_max),
    ("r_opt-N", "N", lambda v: r_opt(v, 0.3)),
    ("r_opt-beta", "beta", lambda v: r_opt(1.0, v)),
    ("c_q-N", "N", lambda v: c_q(v, 0.3)),
    ("c_q-beta", "beta", lambda v: c_q(1.0, v)),
    ("optimal_fnsr-N", "N", lambda v: optimal_fnsr(v, 0.3)),
    ("optimal_fnsr-beta", "beta", lambda v: optimal_fnsr(1.0, v)),
    ("no_squeeze_ratio_bound-N", "N", lambda v: no_squeeze_ratio_bound(v, 0.3)),
    ("no_squeeze_ratio_bound-beta", "beta", lambda v: no_squeeze_ratio_bound(1.0, v)),
    ("max_enhancement_ratio", "beta", max_enhancement_ratio),
]
SAMPLE_COUNT = [
    ("mean_inversion_condition", lambda v: mean_inversion_condition(REPORT_AT(-math.pi / 2), v)),
    ("run_trials", lambda v: run_trials(SPEC, 0.7, v, 3, 1)),
    ("adaptive_calibrate", lambda v: adaptive_calibrate(SPEC, 0.7, v, 2, 1)),
]
NON_FINITE = [math.nan, math.inf, -math.inf]


def cases(entries, values):
    return [pytest.param(call, name, value, id=f"{key}-{value}")
            for key, name, call in entries for value in values]


@pytest.mark.parametrize("call, name, value", cases(FINITE, NON_FINITE))
def test_finite_rule(call, name, value):
    with pytest.raises(ContractViolationError, match=f"^{re.escape(name)} must be finite, got "):
        call(value)


@pytest.mark.parametrize("call, name, value", cases(NON_NEGATIVE, NON_FINITE + [-0.3]))
def test_finite_non_negative_rule(call, name, value):
    with pytest.raises(ContractViolationError,
                       match=f"^{re.escape(name)} must be finite and >= 0, got {value}$"):
        call(value)


@pytest.mark.parametrize("call", [pytest.param(call, id=key) for key, call in SAMPLE_COUNT])
@pytest.mark.parametrize("count", [0, -3])
def test_sample_count_rule(call, count):
    with pytest.raises(ContractViolationError, match=f"^sample count must be positive, got {count}$"):
        call(count)


@pytest.mark.parametrize("call", [
    lambda: DiffusionParams(-0.0),
    lambda: r_max(0.0),
    lambda: c_q(0.0, -0.0),
    lambda: mean_inversion_condition(REPORT_AT(-math.pi / 2), 1),
], ids=["beta--0.0", "r_max-0", "c_q-zeros", "one-sample"])
def test_rules_accept_their_edges(call):
    call()
