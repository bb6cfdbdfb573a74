"""Acceptance gate: one test per numbered criterion, each printing a PASS line
(visible with pytest -s or in the captured-output section).

Every tolerance below is fixed; the independent reference computations live in
oracles.py next to this module.
"""

import math
import time

import numpy as np
import pytest

from nsrkit import (
    DensityMatrix,
    DiffusionParams,
    GaussianProbeSpec,
    Operator,
    PhaseFamilySpec,
    StateVector,
    analytic_fnsr,
    assess_observable,
    calibration_curvature,
    dephase_channel,
    dephasing_family,
    enhancement_threshold,
    max_enhancement_ratio,
    no_squeeze_ratio_bound,
    optimal_calibration,
    optimal_fnsr,
    pure_unitary_family,
    qfi,
    quadrature,
    r_opt,
    run_trials,
    sample_size_bound,
    sld,
    variance,
)

from conftest import SIGMA_Z, dephased_qubit_spec, fock_dephasing_spec, plus_state
from oracles import (
    gauss_hermite_dephase,
    random_density_mat,
    random_hermitian,
    random_state_vec,
)


def _report(number, text):
    print(f"[criterion {number:2d}] PASS - {text}")


def test_criterion_1_pure_unitary_qfi_identity():
    """QFI = 4 Var(h) for 20 random pure unitary families, rel <= 1e-9."""
    start = time.time()
    rng = np.random.default_rng(1001)
    worst = 0.0
    for _ in range(20):
        dim = int(rng.integers(2, 33))
        h = Operator(random_hermitian(rng, dim))
        psi = StateVector(random_state_vec(rng, dim))
        fam = pure_unitary_family(h, psi)
        x = float(rng.normal())
        expected = 4.0 * variance(psi.density_matrix(), h)
        rel = abs(qfi(fam, x) - expected) / expected
        worst = max(worst, rel)
    elapsed = time.time() - start
    assert worst <= 1e-9
    assert elapsed < 10.0
    _report(1, f"pure-unitary QFI = 4 Var(h), worst rel err {worst:.2e} in {elapsed:.1f}s")


def test_criterion_2_eq10_cross_validation():
    """Numeric fisher of the calibrated quadrature matches the analytic
    sensitivity formula, rel <= 1e-4 over the 27-point grid."""
    start = time.time()
    phi_true = 0.7
    worst = 0.0
    for alpha in (0.5, 1.0, 2.0):
        for r in (0.0, 0.3, 0.8):
            for beta in (0.0, 0.3, 0.63):
                spec = fock_dephasing_spec(alpha, r, beta)
                fam = dephasing_family(spec)
                m = quadrature(optimal_calibration(phi_true), spec.dim)
                fisher = assess_observable(fam, phi_true, m).fisher
                analytic = analytic_fnsr(r, alpha, beta)
                worst = max(worst, abs(fisher - analytic) / analytic)
    elapsed = time.time() - start
    assert worst <= 1e-4
    assert elapsed < 60.0
    _report(2, f"quadrature fisher vs closed form, worst rel err {worst:.2e} in {elapsed:.1f}s")


def test_criterion_3_sld_optimality():
    """No observable beats the SLD; the SLD itself attains the QFI."""
    start = time.time()
    rng = np.random.default_rng(1003)
    families = [
        ("pure qubit", pure_unitary_family(Operator(SIGMA_Z / 2),
                                           plus_state()), 0.3),
        ("dephased qubit", dephasing_family(dephased_qubit_spec(0.4)), 0.3),
        ("Fock dephasing", dephasing_family(fock_dephasing_spec(1.0, 0.3, 0.3)), 0.4),
    ]
    for name, fam, x in families:
        q = qfi(fam, x)
        for _ in range(200):
            m = Operator(random_hermitian(rng, fam.dim))
            fisher = assess_observable(fam, x, m).fisher
            assert fisher <= q + 1e-8, f"{name}: observable beat the SLD"
        l_op = sld(fam.state_at(x), fam.derivative_at(x))
        fisher_l = assess_observable(fam, x, l_op).fisher
        assert abs(fisher_l - q) <= 1e-9, f"{name}: SLD does not attain QFI"
    elapsed = time.time() - start
    assert elapsed < 30.0
    _report(3, f"600 random observables below QFI, SLD attains it, in {elapsed:.1f}s")


def test_criterion_4_noiseless_optimum():
    """F at the optimal squeezing equals 4N(N+1) analytically (rel 1e-9) and
    numerically via the calibrated-quadrature pipeline (rel 1e-3, N <= 2).

    The numeric check targets the quantity the formula describes: the Fisher
    value of the optimally calibrated quadrature. (The SLD QFI of the same
    probe is strictly larger once r > 0, so it is not the comparison target;
    see the optimality criterion for the dominance direction.)
    """
    phi_true = 0.7
    for n_mean in (0.5, 1.0, 2.0, 5.0):
        r = r_opt(n_mean, 0.0)
        alpha = math.sqrt(n_mean - math.sinh(r) ** 2)
        target = 4.0 * n_mean * (n_mean + 1.0)
        assert analytic_fnsr(r, alpha, 0.0) == pytest.approx(target, rel=1e-9)
        if n_mean <= 2.0:
            spec = fock_dephasing_spec(alpha, r, 0.0)
            fam = dephasing_family(spec)
            m = quadrature(optimal_calibration(phi_true), spec.dim)
            fisher = assess_observable(fam, phi_true, m).fisher
            assert fisher == pytest.approx(target, rel=1e-3)
            assert qfi(fam, phi_true) >= fisher - 1e-8  # SLD dominance holds here too
    _report(4, "noiseless optimum 4N(N+1), analytic rel 1e-9 and numeric rel 1e-3")


def test_criterion_5_fig2_threshold():
    """Max-over-N enhancement ratio crosses 1 at 2 beta^2 = 0.21 +- 0.01."""
    start = time.time()
    threshold = enhancement_threshold()
    assert abs(threshold - 0.21) <= 0.01
    tbs_grid = np.geomspace(0.02, 1.0, 20)
    ratios = [max_enhancement_ratio(math.sqrt(t / 2.0))[0] for t in tbs_grid]
    assert all(b < a for a, b in zip(ratios, ratios[1:]))
    elapsed = time.time() - start
    assert elapsed < 10.0
    _report(5, f"threshold 2beta^2 = {threshold:.4f}, max-ratio curve monotone, "
               f"in {elapsed:.1f}s")


def test_criterion_6_no_squeezing_bound_endpoints():
    """Bound at beta = 0.63: 0.7285 at N = 1, monotone in N, 0.902 at N = 1e6."""
    beta = 0.63
    at_one = no_squeeze_ratio_bound(1.0, beta)
    at_large = no_squeeze_ratio_bound(1e6, beta)
    assert abs(at_one - 0.7285) <= 1e-3
    assert abs(at_large - 0.902) <= 1e-3
    ns = np.geomspace(1.0, 1e6, 80)
    vals = [no_squeeze_ratio_bound(float(n), beta) for n in ns]
    assert all(b > a for a, b in zip(vals, vals[1:]))
    _report(6, f"no-squeezing bound 73% -> 90%: {at_one:.4f} at N=1, "
               f"{at_large:.4f} at N=1e6, monotone")


def test_criterion_7_channel_closed_form_vs_quadrature():
    """Closed-form decoherence factors match 64-node Gauss-Hermite quadrature
    of the diffusion integral elementwise within 1e-10."""
    start = time.time()
    rng = np.random.default_rng(1007)
    dim, phi = 8, 0.37
    worst = 0.0
    for beta in (0.2, 0.5, 1.0):
        for _ in range(10):
            rho = DensityMatrix.from_matrix(random_density_mat(rng, dim))
            closed = dephase_channel(rho, phi, beta).matrix
            reference = gauss_hermite_dephase(rho.matrix, phi, beta, nodes=64)
            worst = max(worst, float(np.abs(closed - reference).max()))
    elapsed = time.time() - start
    assert worst <= 1e-10
    assert elapsed < 10.0
    _report(7, f"channel vs Gauss-Hermite, worst elementwise dev {worst:.2e} "
               f"in {elapsed:.1f}s")


def test_criterion_8_large_n_limit():
    """Optimal sensitivity approaches csch(2 beta^2) at N = 1e6, rel 1e-3."""
    for tbs in (0.2, 0.5, 1.0):
        beta = math.sqrt(tbs / 2.0)
        value = optimal_fnsr(1e6, beta)
        target = 1.0 / math.sinh(tbs)
        assert value == pytest.approx(target, rel=1e-3)
    _report(8, "F_opt(N=1e6) = csch(2beta^2) within rel 1e-3 at 2beta^2 in {0.2,0.5,1.0}")


def test_criterion_9_monte_carlo_attainability():
    """nu Var(phi_hat) F in [0.95, 1.10] at the case-study point, fixed seed."""
    start = time.time()
    phi_true = 0.7
    spec = PhaseFamilySpec(
        probe=GaussianProbeSpec.with_default_dim(1.0, 0.0),
        diffusion=DiffusionParams(0.3),
        phi_domain=(phi_true - math.pi, phi_true + math.pi),
    )
    nu = 100000
    run = run_trials(spec, phi_true, nu=nu, repeats=200, seed=7)
    fnsr = analytic_fnsr(0.0, 1.0, 0.3)
    ratio = nu * run.empirical_variance * fnsr
    elapsed = time.time() - start
    assert 0.95 <= ratio <= 1.10
    assert elapsed < 120.0
    _report(9, f"nu Var(phi_hat) F = {ratio:.4f} in [0.95, 1.10], in {elapsed:.1f}s")


def test_criterion_10_expansion_and_curvature():
    """Quadratic expansion of the miscalibrated-SLD fisher reproduces QFI and
    -G on the dephased qubit; the pure qubit calibration bound is zero."""
    fam = dephasing_family(dephased_qubit_spec(0.4))
    x_true = 0.3
    offsets = np.array([-0.02, -0.01, 0.01, 0.02])
    values = []
    for dx in offsets:
        l_exp = sld(fam.state_at(x_true + dx), fam.derivative_at(x_true + dx))
        values.append(assess_observable(fam, x_true, l_exp).fisher)
    c2, c1, c0 = np.polyfit(offsets, values, 2)
    q_true = qfi(fam, x_true)
    g_true = calibration_curvature(fam, x_true)
    assert c0 == pytest.approx(q_true, rel=1e-6)
    assert c2 == pytest.approx(-g_true, rel=0.05)

    qubit = pure_unitary_family(Operator(SIGMA_Z / 2), plus_state())
    bound = sample_size_bound(qubit, 0.0)
    assert abs(bound) <= 1e-9
    _report(10, f"fit c0 = QFI (rel {abs(c0 - q_true)/q_true:.1e}), "
                f"c2 = -G (rel {abs(c2 + g_true)/g_true:.1e}), qubit bound {bound:.1e}")
