import math

import numpy as np
import pytest

from nsrkit import (
    ContractViolationError,
    DensityMatrix,
    DiffusionParams,
    GaussianProbeSpec,
    InvalidDimensionError,
    PhaseFamilySpec,
    analytic_fnsr,
    assess_observable,
    build_curve,
    c_q,
    dephase_channel,
    dephasing_family,
    enhancement_scan,
    enhancement_threshold,
    expectation,
    fock_state,
    gaussian_probe,
    max_enhancement_ratio,
    no_squeeze_ratio_bound,
    number_operator,
    optimal_calibration,
    optimal_fnsr,
    qfi,
    quadrature,
    r_max,
    r_opt,
    unitary_from_generator,
)
from nsrkit.operators import Operator

from conftest import fock_dephasing_spec
from oracles import gauss_hermite_dephase, golden_max, random_density_mat


def fnsr_reference(r, alpha, beta):
    """Direct transcription of the sensitivity formula, used as the oracle."""
    return 4 * alpha**2 * math.exp(-2 * beta**2) / (
        math.exp(-2 * r)
        + (1 - math.exp(-4 * beta**2)) * (2 * alpha**2 + math.sinh(2 * r))
    )


class TestDephaseChannel:
    def test_beta_zero_is_unitary_rotation(self, rng):
        dim, phi = 7, 0.9
        rho = DensityMatrix.from_matrix(random_density_mat(rng, dim))
        out = dephase_channel(rho, phi, 0.0)
        u = unitary_from_generator(Operator(-1j * phi * number_operator(dim).matrix))
        expected = u.matrix @ rho.matrix @ u.matrix.conj().T
        np.testing.assert_allclose(out.matrix, expected, atol=1e-12)

    def test_coherence_decay_vs_quadrature_oracle(self, rng):
        # (n-m) = 2 at beta = 0.5 must decay by e^{-1}; checked against the
        # Gauss-Hermite average of the diffusion integral
        rho = DensityMatrix.from_matrix(random_density_mat(rng, 4))
        out = dephase_channel(rho, 0.0, 0.5)
        ratio = out.matrix[0, 2] / rho.matrix[0, 2]
        assert abs(ratio - math.exp(-1)) < 1e-12
        gh = gauss_hermite_dephase(rho.matrix, 0.0, 0.5)
        np.testing.assert_allclose(out.matrix, gh, atol=1e-11)

    def test_strong_diffusion_kills_coherence(self, rng):
        rho = DensityMatrix.from_matrix(random_density_mat(rng, 5))
        out = dephase_channel(rho, 0.3, 6.0)
        off = out.matrix - np.diag(np.diag(out.matrix))
        assert np.abs(off).max() < 1e-15
        np.testing.assert_allclose(np.diag(out.matrix), np.diag(rho.matrix), atol=1e-14)

    def test_trace_preserving_and_positive(self, rng):
        for _ in range(50):
            rho = DensityMatrix.from_matrix(random_density_mat(rng, 6))
            out = dephase_channel(rho, float(rng.uniform(-3, 3)), float(rng.uniform(0, 1.5)))
            assert abs(np.trace(out.matrix) - 1.0) <= 1e-12
            assert np.linalg.eigvalsh(out.matrix).min() >= -1e-10

    def test_semigroup_composition(self, rng):
        rho = DensityMatrix.from_matrix(random_density_mat(rng, 6))
        b1, b2 = 0.3, 0.45
        once = dephase_channel(dephase_channel(rho, 0.4, b1), 0.25, b2)
        joint = dephase_channel(rho, 0.65, math.sqrt(b1**2 + b2**2))
        np.testing.assert_allclose(once.matrix, joint.matrix, atol=1e-12)

    def test_negative_beta_rejected(self, rng):
        rho = DensityMatrix.from_matrix(random_density_mat(rng, 3))
        with pytest.raises(ContractViolationError):
            dephase_channel(rho, 0.0, -0.1)


class TestDephasingFamily:
    def test_derivative_traceless_hermitian(self):
        fam = dephasing_family(fock_dephasing_spec(1.0, 0.3, 0.3))
        d = fam.derivative_at(0.4).matrix
        assert abs(np.trace(d)) <= 1e-12
        assert np.abs(d - d.conj().T).max() <= 1e-14

    def test_finite_difference_consistency(self):
        fam = dephasing_family(fock_dephasing_spec(1.0, 0.3, 0.3))
        for phi in (-0.5, 0.8):
            assert fam.check_derivative(phi) <= 1e-6

    def test_beta_zero_coherent_qfi(self):
        fam = dephasing_family(fock_dephasing_spec(1.0, 0.0, 0.0))
        assert qfi(fam, 0.3) == pytest.approx(4.0, rel=1e-8)

    def test_qfi_phase_covariant(self):
        fam = dephasing_family(fock_dephasing_spec(1.0, 0.3, 0.3))
        values = [qfi(fam, phi) for phi in (-0.9, 0.0, 1.3)]
        assert max(values) - min(values) <= 1e-9

    def test_state_at_is_phase_shifted_base(self):
        spec = fock_dephasing_spec(2.0, 1.0, 0.3)
        fam = dephasing_family(spec)
        amp = gaussian_probe(spec.probe).amplitudes
        n = np.arange(spec.dim)
        dn = n[:, None] - n[None, :]
        base = np.outer(amp, amp.conj()) * np.exp(-(spec.diffusion.beta**2) * dn**2.0)
        spectrum0 = np.linalg.eigvalsh(fam.state_at(0.0).matrix)
        for phi in (-2.9, -0.4, 0.7, 3.1):
            rho = fam.state_at(phi).matrix
            np.testing.assert_allclose(rho, base * np.exp(-1j * phi * dn), rtol=0, atol=1e-14)
            np.testing.assert_allclose(np.linalg.eigvalsh(rho), spectrum0, rtol=0, atol=1e-12)

    def test_build_curve_checks_no_spectrum(self, monkeypatch):
        # the family's state is validated once, at construction; tabulating
        # 2001 states runs no eigensolver
        spec = PhaseFamilySpec(GaussianProbeSpec.with_default_dim(1.0, 0.0),
                               DiffusionParams(0.3), (0.7 - math.pi, 0.7 + math.pi))
        fam = dephasing_family(spec)
        calls = []
        for name in ("eigvalsh", "eigh"):
            original = getattr(np.linalg, name)

            def counted(*args, _original=original, _name=name, **kwargs):
                calls.append(_name)
                return _original(*args, **kwargs)

            monkeypatch.setattr(np.linalg, name, counted)
        phi_exp = optimal_calibration(0.7)
        curve = build_curve(fam, quadrature(phi_exp, spec.dim),
                            np.linspace(phi_exp, phi_exp + math.pi, 2001))
        assert curve.xs.size == 2001
        assert calls == []

    def test_statevector_probe(self):
        spec = PhaseFamilySpec(fock_state(2, 1), DiffusionParams(0.1), (-1.0, 1.0))
        fam = dephasing_family(spec)
        assert qfi(fam, 0.0) == pytest.approx(0.0, abs=1e-12)  # Fock state: no phase info


class TestQuadrature:
    def test_vacuum_variance_any_angle(self):
        rho = fock_state(8, 0).density_matrix()
        for phi in (0.0, 0.7, -2.1):
            m = quadrature(phi, 8)
            assert np.abs(m.matrix - m.matrix.conj().T).max() == 0
            got = expectation(rho, Operator(m.matrix @ m.matrix, hermitian=True))
            assert got == pytest.approx(1.0, abs=1e-12)

    def test_coherent_mean(self):
        alpha = 1.1
        spec = GaussianProbeSpec.with_default_dim(alpha, 0.0)
        rho = gaussian_probe(spec).density_matrix()
        for phi in (0.0, 0.6):
            got = expectation(rho, quadrature(phi, spec.dim))
            assert got == pytest.approx(2 * alpha * math.cos(phi), abs=1e-8)

    def test_dim_guard(self):
        with pytest.raises(InvalidDimensionError):
            quadrature(0.0, 1)


class TestAnalyticFnsr:
    def test_noiseless_no_squeezing(self):
        for alpha in (0.5, 1.0, 2.0):
            assert analytic_fnsr(0.0, alpha, 0.0) == pytest.approx(4 * alpha**2, rel=1e-14)

    def test_reference_point(self):
        assert analytic_fnsr(0.5, 1.0, 0.3) == pytest.approx(
            fnsr_reference(0.5, 1.0, 0.3), rel=1e-14)
        assert analytic_fnsr(0.5, 1.0, 0.3) == pytest.approx(2.5162191, abs=1e-6)

    def test_noiseless_optimum_identity(self):
        for n in (0.5, 1.0, 2.0, 5.0):
            r = r_opt(n, 0.0)
            alpha = math.sqrt(n - math.sinh(r) ** 2)
            assert analytic_fnsr(r, alpha, 0.0) == pytest.approx(4 * n * (n + 1), rel=1e-9)

    def test_overflow_guards(self):
        assert analytic_fnsr(400.0, 1.0, 0.3) == pytest.approx(0.0, abs=1e-200)
        assert analytic_fnsr(-400.0, 1.0, 0.3) == pytest.approx(0.0, abs=1e-200)
        assert math.isinf(analytic_fnsr(400.0, 1.0, 0.0))

    def test_numpy_scalars_behave_as_floats(self):
        args = (np.float64(0.5), np.float64(1.0), np.float64(0.3))
        assert analytic_fnsr(*args) == analytic_fnsr(0.5, 1.0, 0.3)
        assert analytic_fnsr(np.float64(400.0), np.float64(1.0), np.float64(0.3)) == 0.0
        # alpha**2 overflows as it does for a float, not to a silent inf
        with pytest.raises(OverflowError):
            analytic_fnsr(0.0, 1e200, 0.3)
        with pytest.raises(OverflowError):
            analytic_fnsr(np.float64(0.0), np.float64(1e200), np.float64(0.3))
        with pytest.raises(OverflowError):  # alpha**2 is finite, 4 alpha^2 is not
            analytic_fnsr(0.0, 1e154, 0.3)

    def test_monotone_up_to_rmax_then_down(self):
        alpha, beta = 1.0, 0.4
        rm = r_max(beta)
        rs_up = np.linspace(0.0, rm - 1e-6, 40)
        vals_up = [analytic_fnsr(float(r), alpha, beta) for r in rs_up]
        assert all(b > a for a, b in zip(vals_up, vals_up[1:]))
        rs_down = np.linspace(rm + 1e-6, rm + 2.0, 40)
        vals_down = [analytic_fnsr(float(r), alpha, beta) for r in rs_down]
        assert all(b < a for a, b in zip(vals_down, vals_down[1:]))


class TestOptimalCalibration:
    def test_known_values(self):
        assert optimal_calibration(math.pi / 2) == pytest.approx(0.0, abs=1e-15)
        assert optimal_calibration(0.0) == pytest.approx(-math.pi / 2, abs=1e-15)

    def test_wraps_into_principal_interval(self):
        for phi in (-7.0, 5.5, 12.0):
            val = optimal_calibration(phi)
            assert -math.pi < val <= math.pi
            # same angle modulo 2 pi
            assert math.cos(val) == pytest.approx(math.cos(phi - math.pi / 2), abs=1e-12)

    def test_grid_argmax_matches(self):
        # numeric sweep oracle: fisher of quadrature(phi_exp) peaks at
        # phi_true - pi/2. The quadrature at phi_exp + pi is minus the one at
        # phi_exp, so the Fisher value has period pi: a grid over one period
        # holds a single maximum, where a 2 pi grid holds two exact ties.
        spec = fock_dephasing_spec(1.0, 0.3, 0.4)
        fam = dephasing_family(spec)
        phi_true = 0.7

        def fisher(p):
            return assess_observable(fam, phi_true, quadrature(float(p), spec.dim)).fisher

        grid = np.linspace(phi_true - math.pi, phi_true, 360, endpoint=False)
        fishers = [fisher(p) for p in grid]
        for k in (0, 90, 180, 270):
            assert fisher(grid[k] + math.pi) == pytest.approx(fishers[k], rel=1e-12)
        best = grid[int(np.argmax(fishers))]
        assert abs(best - optimal_calibration(phi_true)) <= 2 * math.pi / 720 + 1e-12


class TestRmaxRopt:
    def test_rmax_quarter(self):
        # coth(2 beta^2) = e inverts to r_max = 1/4 exactly
        two_beta_sq = 0.5 * math.log((math.e + 1) / (math.e - 1))  # arccoth(e)
        beta = math.sqrt(two_beta_sq / 2)
        assert r_max(beta) == pytest.approx(0.25, abs=1e-12)

    def test_rmax_limits(self):
        assert math.isinf(r_max(0.0))
        assert 0.0 < r_max(3.0) < 1e-7

    def test_ropt_beta_zero(self):
        for n in (0.5, 1.0, 4.0):
            assert r_opt(n, 0.0) == pytest.approx(0.5 * math.log(2 * n + 1), rel=1e-12)

    def test_ropt_n_zero(self):
        r = r_opt(0.0, 0.7)
        assert abs(r) <= 1e-12
        assert math.sinh(r) ** 2 <= 1e-12  # alpha^2 = N - sinh^2 r stays >= 0

    def test_ropt_matches_golden_section(self):
        for n in (1.0, 5.0):
            for beta in (0.2, 0.63):
                def fisher_of_r(r, n=n, beta=beta):
                    if math.sinh(r) ** 2 > n:
                        return -1.0
                    return analytic_fnsr(r, math.sqrt(n - math.sinh(r) ** 2), beta)

                r_star = golden_max(fisher_of_r, 0.0, math.asinh(math.sqrt(n)))
                assert r_opt(n, beta) == pytest.approx(r_star, abs=1e-6)


class TestBenchmarks:
    def test_cq_values(self):
        assert c_q(1.0, 0.0) == pytest.approx(4.0, rel=1e-15)
        beta = math.sqrt(0.1)  # 2 beta^2 = 0.2
        assert c_q(10.0, beta) == pytest.approx(40.0 / 9.0, rel=1e-12)
        assert c_q(1e9, 0.5) == pytest.approx(1.0 / (2 * 0.25), rel=1e-6)

    def test_large_n_limit_csch(self):
        for tbs in (0.2, 0.5, 1.0):
            beta = math.sqrt(tbs / 2)
            assert optimal_fnsr(1e6, beta) == pytest.approx(1 / math.sinh(tbs), rel=1e-3)

    def test_no_squeeze_bound(self):
        assert no_squeeze_ratio_bound(1.0, 0.63) == pytest.approx(0.7285, abs=1e-3)
        tbs = 2 * 0.63**2
        assert no_squeeze_ratio_bound(1e6, 0.63) == pytest.approx(
            tbs / math.sinh(tbs), rel=1e-4)
        for n in (0.0, 0.5, 3.0, 100.0):
            assert no_squeeze_ratio_bound(n, 0.0) == pytest.approx(1.0, rel=1e-14)

    def test_no_squeeze_bound_monotone(self):
        ns = np.geomspace(0.1, 1e6, 60)
        vals = [no_squeeze_ratio_bound(float(n), 0.63) for n in ns]
        assert all(b > a for a, b in zip(vals, vals[1:]))


class TestEnhancementScan:
    def test_beta_zero_column(self):
        scan = enhancement_scan([0.0], [0.5, 1.0, 3.0])
        for tbs, n, ratio, enhanced in scan.cells:
            assert ratio == pytest.approx(n + 1, rel=1e-12)
            assert enhanced

    def test_order_independence(self):
        grid_t = [0.1, 0.4]
        grid_n = [0.5, 2.0, 8.0]
        assert enhancement_scan(grid_t, grid_n) == enhancement_scan(grid_t, grid_n)

    def test_region_flags(self):
        scan = enhancement_scan([0.05, 1.0], np.geomspace(0.05, 1e4, 60))
        by_tbs = {}
        for tbs, n, ratio, enhanced in scan.cells:
            by_tbs.setdefault(tbs, []).append(enhanced)
        assert any(by_tbs[0.05])
        assert not any(by_tbs[1.0])

    def test_threshold_near_021(self):
        thr = enhancement_threshold()
        assert abs(thr - 0.21) <= 0.01

    def test_max_ratio_monotone_decreasing(self):
        tbs_grid = np.geomspace(0.02, 1.0, 25)
        vals = [max_enhancement_ratio(math.sqrt(t / 2))[0] for t in tbs_grid]
        assert all(b < a for a, b in zip(vals, vals[1:]))

    def test_rejects_bad_grids(self):
        with pytest.raises(ContractViolationError):
            enhancement_scan([-0.1], [1.0])
        with pytest.raises(ContractViolationError):
            enhancement_scan([0.1], [0.0])


class TestAnalyticNumericAgreement:
    GRID = [(a, r, b) for a in (0.5, 1.0) for r in (0.0, 0.3) for b in (0.0, 0.3)]

    @pytest.mark.parametrize("alpha,r,beta", GRID)
    def test_calibrated_quadrature_fisher(self, alpha, r, beta):
        spec = fock_dephasing_spec(alpha, r, beta)
        fam = dephasing_family(spec)
        phi_true = 0.4
        m = quadrature(optimal_calibration(phi_true), spec.dim)
        fisher = assess_observable(fam, phi_true, m).fisher
        assert fisher == pytest.approx(fnsr_reference(r, alpha, beta), rel=1e-4)

    def test_slope_attenuation(self):
        alpha, beta = 1.0, 0.3
        spec = fock_dephasing_spec(alpha, 0.0, beta)
        fam = dephasing_family(spec)
        phi_true = 0.7
        rep = assess_observable(fam, phi_true,
                                quadrature(optimal_calibration(phi_true), spec.dim))
        assert abs(rep.slope) == pytest.approx(2 * alpha * math.exp(-beta**2), abs=1e-6)

    def test_sld_dominates_quadrature(self):
        for alpha, r, beta in self.GRID:
            spec = fock_dephasing_spec(alpha, r, beta)
            fam = dephasing_family(spec)
            assert qfi(fam, 0.4) >= analytic_fnsr(r, alpha, beta) - 1e-6


class TestSpecContracts:
    def test_negative_beta(self):
        with pytest.raises(ContractViolationError):
            DiffusionParams(-0.2)

    def test_two_beta_sq_roundtrip(self):
        d = DiffusionParams.from_two_beta_sq(0.5)
        assert d.two_beta_sq == pytest.approx(0.5, rel=1e-15)
        with pytest.raises(ContractViolationError):
            DiffusionParams.from_two_beta_sq(-0.1)

    def test_explicit_probe_dim_respected(self):
        spec = PhaseFamilySpec(GaussianProbeSpec(1.0, 0.0, 32), DiffusionParams(0.1),
                               (-1.0, 1.0))
        assert spec.dim == 32
        assert dephasing_family(spec).dim == 32

    def test_domain_width_capped(self):
        with pytest.raises(ContractViolationError):
            PhaseFamilySpec(fock_state(2, 0), DiffusionParams(0.1), (0.0, 10.0))
