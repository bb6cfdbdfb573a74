"""Physics invariants of the phase-diffusion family, drawn over probes at the
policy dim: the QFI does not depend on the phase, bounds the Fisher value of
every quadrature (Braunstein-Caves), does not grow with the diffusion (data
processing: the kernels e^{-beta^2 (n-m)^2} multiply, so more diffusion is
less diffusion followed by a phase-independent channel), and on the
noiseless probe equals 4 Var(n). A quadrature's Born distribution follows the
phase: that of angle theta at phi is that of angle 0 at phi - theta."""

import math

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from nsrkit import (  # noqa: E402
    GaussianProbeSpec,
    MeasurementModel,
    assess_observable,
    dephasing_family,
    gaussian_probe,
    optimal_calibration,
    qfi,
    quadrature,
)

from conftest import fock_dephasing_spec  # noqa: E402

phases = st.floats(-math.pi, math.pi)


@settings(max_examples=40, derandomize=True, deadline=None)
@given(alpha=st.floats(0.0, 3.0), r=st.floats(0.0, 1.2), beta=st.floats(0.0, 0.8),
       phi1=phases, phi2=phases, offset=phases)
def test_phase_family_invariants(alpha, r, beta, phi1, phi2, offset):
    # tolerances are relative to max(1, value): near zero QFI, roundoff is absolute
    fam = dephasing_family(fock_dephasing_spec(alpha, r, beta))
    q = qfi(fam, phi1)
    assert abs(qfi(fam, phi2) - q) <= 1e-12 * max(1.0, q)
    # the quadrature angle is drawn as an offset from the optimal one
    m = quadrature(optimal_calibration(phi1) + offset, fam.dim)
    assert assess_observable(fam, phi1, m).fisher <= q + 1e-10 * max(1.0, q)
    # X_theta = D X_0 D^dag with D = e^{-i theta n}: its Born distribution at
    # phi is X_0's at phi - theta
    theta = optimal_calibration(phi1) + offset
    p_theta = MeasurementModel.from_observable(m).probabilities(fam.state_at(phi2))
    p_zero = MeasurementModel.from_observable(quadrature(0.0, fam.dim)).probabilities(
        fam.state_at(phi2 - theta))
    assert np.abs(p_theta - p_zero).max() <= 1e-13

    q_half = qfi(dephasing_family(fock_dephasing_spec(alpha, r, beta / 2)), phi1)
    q_pure = qfi(dephasing_family(fock_dephasing_spec(alpha, r, 0.0)), phi1)
    assert q <= q_half + 1e-12 * max(1.0, q_half)
    assert q_half <= q_pure + 1e-12 * max(1.0, q_pure)

    # the truncated probe's own number variance, without the library's SLD
    p = np.abs(gaussian_probe(GaussianProbeSpec.with_default_dim(alpha, r)).amplitudes) ** 2
    n = np.arange(p.size)
    four_var = 4.0 * (p @ n**2 - (p @ n) ** 2)
    assert abs(q_pure - four_var) <= 1e-10 * max(1.0, four_var)
