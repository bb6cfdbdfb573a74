"""Physics invariants of the phase-diffusion family, drawn over probes at the
policy dim: the QFI does not depend on the phase, bounds the Fisher value of
every quadrature (Braunstein-Caves), does not grow with the diffusion (data
processing: the kernels e^{-beta^2 (n-m)^2} multiply, so more diffusion is
less diffusion followed by a phase-independent channel), and on the
noiseless probe equals 4 Var(n), which the closed form
4 (alpha^2 e^{2r} + sinh^2(2r)/2) gives up to the truncation. The optimally
calibrated quadrature's Fisher value is analytic_fnsr up to the truncation. A
quadrature's Born distribution follows the phase: that of angle theta at phi is
that of angle 0 at phi - theta.

The truncation tolerances come from the probe's tail beyond the policy dim d,
T_k = sum_{n>=d} n^k c_n^2, read from the same probe on 4d levels (at most
MAX_DIM), and are fixed by the formulas below, not by the draws."""

import math

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from nsrkit import (  # noqa: E402
    GaussianProbeSpec,
    MeasurementModel,
    analytic_fnsr,
    assess_observable,
    dephasing_family,
    gaussian_probe,
    optimal_calibration,
    qfi,
    quadrature,
)

from nsrkit.dephasing import _covariant_sld  # noqa: E402
from nsrkit.scalar import (  # noqa: E402
    MAX_DIM,
    _covariant_sld_floats,
    _probe,
    _quadrature_reports,
)

from conftest import fock_dephasing_spec  # noqa: E402
from oracles import wrapped_normal_fisher  # noqa: E402

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

    # the tail beyond d: its weight L (leak) and moments T1 = sum n c_n^2, T2 = sum n^2 c_n^2
    d = p.size
    c_pad = gaussian_probe(GaussianProbeSpec(alpha, r, min(4 * d, MAX_DIM))).amplitudes
    n_pad = np.arange(c_pad.size)
    tail = np.abs(c_pad[d:]) ** 2
    leak, t1, t2 = tail.sum(), n_pad[d:] @ tail, n_pad[d:] ** 2 @ tail

    # The truncated probe is the full one cut to n < d and renormalized, so its
    # moments are m_k = (M_k - T_k) / (1 - L): Var(n) moves by at most
    # (T2 + M2 L + (T1 + M1 L)(m1 + M1)) / (1 - L), with M1, M2 in closed form.
    closed = 4.0 * (alpha**2 * math.exp(2 * r) + math.sinh(2 * r) ** 2 / 2)
    m1_full = alpha**2 + math.sinh(r) ** 2
    m2_full = closed / 4.0 + m1_full**2
    var_shift = (t2 + m2_full * leak + (t1 + m1_full * leak) * (p @ n + m1_full)) / (1 - leak)
    assert abs(q_pure - closed) <= 4.0 * var_shift + 1e-10 * max(1.0, closed)

    # F = S^2 / V at the optimal angle, S = 2 alpha e^{-beta^2}. X^2 <= 4n + 2, so
    # to first order the tail moves V by at most 4 T2 and S by 2 T2 (n <= n^2 on
    # it), and F by at most F (4 T2 / V + 4 T2 / |S|).
    f_closed = analytic_fnsr(r, alpha, beta)
    m_opt = quadrature(optimal_calibration(phi1), fam.dim)
    f_shift = 0.0
    if f_closed > 0.0:
        s_closed = 2.0 * alpha * math.exp(-(beta**2))
        f_shift = 4.0 * t2 * f_closed * (f_closed / s_closed**2 + 1.0 / s_closed)
    fisher = assess_observable(fam, phi1, m_opt).fisher
    assert abs(fisher - f_closed) <= f_shift + 1e-10 * max(1.0, f_closed)


# (alpha, r): policy dims 16 to 26, so that every QFI route runs on each
CHAIN_PROBES = [(0.3, 0.0), (1.0, 0.0), (1.5, 0.0), (2.0, 0.0), (0.0, 0.3), (0.5, 0.2),
                (0.7, -0.2), (1.2, 0.1), (-1.0, 0.1)]


@pytest.mark.parametrize("beta", [0.05, 0.1, 0.3, 0.7, 1.0])
def test_fisher_chain(beta):
    """F_NSR <= F_Q <= F_wrap(beta) on nine probes at phase 0: the Fisher
    value of the quadrature at three angles (_quadrature_reports) is at most
    the QFI (Braunstein & Caves, PRL 72, 3439 (1994)), and the QFI, by the
    float route, _covariant_sld and library qfi, at most the Fisher
    information of the wrapped normal location family the diffusion averages
    over (data processing; Escher, de Matos Filho & Davidovich, Nat. Phys. 7,
    406 (2011)), from the oracle, which shares no code with nsrkit. Both hold
    exactly on the truncated space; the slack, fixed before the first run, is
    1e-12 relative. F_C, the Fisher information of measuring X's
    eigenbasis, between the first two, is not tested here."""
    f_wrap = wrapped_normal_fisher(beta)
    for alpha, r in CHAIN_PROBES:
        spec = fock_dephasing_spec(alpha, r, beta)
        report = _quadrature_reports(spec, 0.0)
        f_nsr = max(report(offset).fisher for offset in (-math.pi / 2.0, -1.0, 0.4))
        routes = (_covariant_sld_floats(_probe(spec.probe), beta)[0],
                  _covariant_sld(spec.probe_state().amplitudes, beta)[0],
                  qfi(dephasing_family(spec), 0.0))
        for f_q in routes:
            assert f_nsr <= f_q * (1.0 + 1e-12), (alpha, r, f_nsr, f_q)
            assert f_q <= f_wrap * (1.0 + 1e-12), (alpha, r, f_q, f_wrap)
