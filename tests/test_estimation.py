import math

import numpy as np
import pytest
from numpy.polynomial.hermite_e import hermegauss

from nsrkit import (
    ContractViolationError,
    DegenerateObservableError,
    DensityMatrix,
    DiffusionParams,
    GaussianProbeSpec,
    NoInformationError,
    Operator,
    ParamFamily,
    PhaseFamilySpec,
    StateVector,
    SupportTruncationWarning,
    UndefinedResidualError,
    assess_observable,
    calibration_curvature,
    dephasing_family,
    gaussian_probe,
    number_operator,
    optimality_residual,
    pure_unitary_family,
    pure_unitary_qfi,
    pure_unitary_sample_size_bound,
    qfi,
    sample_size_bound,
    sld,
    variance,
)
from nsrkit.estimation import _curvature_and_qfi

from conftest import SIGMA_Y, SIGMA_Z, dephased_qubit_spec, fock_dephasing_spec
from oracles import (
    bloch_qfi,
    covariant_curvature,
    poisson_central_moment,
    random_hermitian,
    random_state_vec,
)


def coherent_number_family(alpha=1.0):
    psi = gaussian_probe(GaussianProbeSpec.with_default_dim(alpha, 0.0))
    return pure_unitary_family(number_operator(psi.dim), psi), psi


def flat_family(dim=2):
    """rho(x) = I/2 for every x: no information."""
    rho = DensityMatrix.from_matrix(np.eye(dim) / dim)
    zero = Operator(np.zeros((dim, dim), dtype=complex))
    return ParamFamily(dim=dim, state_at=lambda x: rho, derivative_at=lambda x: zero,
                       domain=(-1.0, 1.0))


class TestAssessObservable:
    def test_qubit_sigma_y(self, qubit_family):
        rep = assess_observable(qubit_family, 0.0, Operator(SIGMA_Y))
        assert rep.slope == pytest.approx(1.0, abs=1e-12)
        assert rep.variance == pytest.approx(1.0, abs=1e-12)
        assert rep.fisher == pytest.approx(1.0, abs=1e-12)
        assert rep.nsr == pytest.approx(1.0, abs=1e-12)

    def test_qubit_sigma_z_blind(self, qubit_family):
        rep = assess_observable(qubit_family, 0.0, Operator(SIGMA_Z))
        assert rep.slope == 0.0
        assert rep.fisher == 0.0
        assert math.isinf(rep.nsr)

    def test_fisher_nsr_identity(self, qubit_family, rng):
        for _ in range(20):
            m = Operator(random_hermitian(rng, 2))
            rep = assess_observable(qubit_family, 0.3, m)
            if math.isfinite(rep.nsr) and rep.fisher > 0:
                assert rep.fisher * rep.nsr**2 == pytest.approx(1.0, abs=1e-9)

    def test_degenerate_observable(self):
        # eigenstate of m whose mean pretends to move: inconsistent family
        fam = ParamFamily(
            dim=2,
            state_at=lambda x: DensityMatrix.from_matrix(np.diag([1.0, 0.0])),
            derivative_at=lambda x: Operator(np.diag([1.0, -1.0]).astype(complex)),
            domain=(-1.0, 1.0),
        )
        with pytest.raises(DegenerateObservableError):
            assess_observable(fam, 0.0, Operator(SIGMA_Z))

    def test_domain_enforced(self, qubit_family):
        fam = dephasing_family(dephased_qubit_spec(0.2))
        with pytest.raises(ContractViolationError):
            assess_observable(fam, 7.0, Operator(SIGMA_Y))

    def test_eigenstate_with_flat_mean(self):
        # Fock-state probe: its number statistics carry no phase signal, and
        # the state is a number eigenstate; nsr = inf without a degeneracy error
        from nsrkit import DiffusionParams, PhaseFamilySpec, fock_state
        spec = PhaseFamilySpec(fock_state(4, 1), DiffusionParams(0.2), (-1.0, 1.0))
        fam = dephasing_family(spec)
        rep = assess_observable(fam, 0.0, number_operator(4))
        assert rep.variance == 0.0
        assert rep.fisher == 0.0
        assert math.isinf(rep.nsr)


class TestSld:
    def test_pure_qubit_is_sigma_y(self, qubit_family):
        rho = qubit_family.state_at(0.0)
        drho = qubit_family.derivative_at(0.0)
        l_op = sld(rho, drho)
        np.testing.assert_allclose(l_op.matrix, SIGMA_Y, atol=1e-10)

    def test_pure_state_finite_difference_oracle(self, qubit_family):
        # for pure states L = 2 drho/dx; take drho from central differences
        x, delta = 0.4, 1e-6
        fd = (qubit_family.state_at(x + delta).matrix
              - qubit_family.state_at(x - delta).matrix) / (2 * delta)
        l_op = sld(qubit_family.state_at(x), qubit_family.derivative_at(x))
        np.testing.assert_allclose(l_op.matrix, 2 * fd, atol=1e-8)

    def test_classical_diagonal(self):
        x = 0.3
        rho = DensityMatrix.from_matrix(np.diag([x, 1 - x]))
        drho = Operator(np.diag([1.0, -1.0]).astype(complex))
        l_op = sld(rho, drho)
        np.testing.assert_allclose(np.diag(l_op.matrix).real, [1 / x, -1 / (1 - x)],
                                   atol=1e-12)

    def test_zero_derivative(self):
        rho = DensityMatrix.from_matrix(np.diag([0.5, 0.5]))
        zero = Operator(np.zeros((2, 2), dtype=complex))
        l_op = sld(rho, zero)
        assert np.abs(l_op.matrix).max() == 0.0

    def test_support_truncation_warning(self):
        rho = DensityMatrix.from_matrix(np.diag([1.0, 0.0]))
        drho = Operator(np.diag([-1.0, 1.0]).astype(complex))
        with pytest.warns(SupportTruncationWarning):
            sld(rho, drho)

    def test_rejects_traceful_drho(self):
        rho = DensityMatrix.from_matrix(np.diag([0.5, 0.5]))
        with pytest.raises(ContractViolationError):
            sld(rho, Operator(np.eye(2, dtype=complex)))

    def test_custom_eig_cut_restricts_support(self):
        # a small eigenvalue far above the relative cut keeps its formally
        # huge SLD entry
        eps = 1e-6
        rho = DensityMatrix.from_matrix(np.diag([1 - eps, eps]))
        drho = Operator(np.diag([1.0, -1.0]).astype(complex))
        full = sld(rho, drho)
        assert full.matrix[1, 1].real == pytest.approx(-1 / eps, rel=1e-9)


class TestQfi:
    def test_pure_unitary_identity(self, rng):
        for _ in range(5):
            dim = int(rng.integers(2, 17))
            h = Operator(random_hermitian(rng, dim))
            psi = StateVector(random_state_vec(rng, dim))
            fam = pure_unitary_family(h, psi)
            expected = 4.0 * variance(psi.density_matrix(), h)
            assert qfi(fam, float(rng.normal())) == pytest.approx(expected, rel=1e-9)
            assert pure_unitary_qfi(h, psi) == pytest.approx(expected, rel=1e-12)

    def test_dephased_qubit_bloch_oracle(self, dephased_qubit):
        fam, beta = dephased_qubit
        q = math.exp(-beta**2)
        x = 0.3
        # Bloch image of the dephased |+> state: r(x) = q (cos x, -sin x, 0)
        r_vec = np.array([q * math.cos(x), -q * math.sin(x), 0.0])
        dr_vec = np.array([-q * math.sin(x), -q * math.cos(x), 0.0])
        assert qfi(fam, x) == pytest.approx(bloch_qfi(r_vec, dr_vec), rel=1e-10)
        assert qfi(fam, x) == pytest.approx(math.exp(-2 * beta**2), rel=1e-10)

    def test_flat_family_no_information(self):
        assert qfi(flat_family(), 0.0) == pytest.approx(0.0, abs=1e-14)

    def test_gauge_identities(self, dephased_qubit):
        fam, _ = dephased_qubit
        x = 0.5
        rho = fam.state_at(x)
        drho = fam.derivative_at(x)
        l_op = sld(rho, drho)
        tr_rho_l = np.trace(rho.matrix @ l_op.matrix).real
        tr_drho_l = np.trace(drho.matrix @ l_op.matrix).real
        tr_rho_l2 = np.trace(rho.matrix @ l_op.matrix @ l_op.matrix).real
        assert abs(tr_rho_l) <= 1e-9
        assert abs(tr_drho_l - tr_rho_l2) <= 1e-9 * (1 + tr_rho_l2)


class TestOptimalityResidual:
    def test_sld_is_stationary(self, dephased_qubit):
        fam, _ = dephased_qubit
        rho, drho = fam.state_at(0.3), fam.derivative_at(0.3)
        l_op = sld(rho, drho)
        assert optimality_residual(rho, drho, l_op) <= 1e-9

    def test_affine_gauge_family(self, dephased_qubit, rng):
        fam, _ = dephased_qubit
        rho, drho = fam.state_at(0.3), fam.derivative_at(0.3)
        l_op = sld(rho, drho)
        for _ in range(5):
            a = rng.normal() or 1.0
            b = rng.normal()
            m = Operator(a * (l_op.matrix - b * np.eye(2)))
            assert optimality_residual(rho, drho, m) <= 1e-9

    def test_generic_observable_not_stationary(self, dephased_qubit, rng):
        fam, _ = dephased_qubit
        rho, drho = fam.state_at(0.3), fam.derivative_at(0.3)
        q = qfi(fam, 0.3)
        m = Operator(random_hermitian(rng, 2))
        assert optimality_residual(rho, drho, m) > 1e-6
        assert assess_observable(fam, 0.3, m).fisher < q

    def test_zero_slope_undefined(self, qubit_family):
        rho = qubit_family.state_at(0.0)
        drho = qubit_family.derivative_at(0.0)
        with pytest.raises(UndefinedResidualError):
            optimality_residual(rho, drho, Operator(np.eye(2, dtype=complex)))


class TestPureUnitaryFamily:
    def test_qubit_qfi_constant(self, qubit_family):
        for x in (-1.2, 0.0, 0.7):
            assert qfi(qubit_family, x) == pytest.approx(1.0, rel=1e-10)

    def test_coherent_number_generator(self):
        fam, _ = coherent_number_family(alpha=1.0)
        assert qfi(fam, 0.0) == pytest.approx(4.0, rel=1e-8)

    def test_eigenstate_no_information(self):
        h = Operator(SIGMA_Z / 2)
        psi = StateVector(np.array([1.0, 0.0]))
        fam = pure_unitary_family(h, psi)
        assert qfi(fam, 0.2) == pytest.approx(0.0, abs=1e-14)

    def test_finite_difference_consistency(self, qubit_family):
        assert qubit_family.check_derivative(0.3) <= 1e-6


class TestCalibrationCurvature:
    def test_pure_qubit_zero(self, qubit_family):
        assert abs(calibration_curvature(qubit_family, 0.1)) <= 1e-9

    def test_dephased_qubit_closed_form(self, dephased_qubit):
        fam, beta = dephased_qubit
        q_sq = math.exp(-2 * beta**2)
        expected = q_sq * (1 - q_sq)
        assert calibration_curvature(fam, 0.3) == pytest.approx(expected, rel=1e-8)

    def test_exponential_family_second_term_vanishes(self):
        # classical exponential family: dL/dx is a multiple of the identity, so
        # both the spread of dL/dx and <dL^2/dx> vanish and G is zero
        def rho_at(x):
            z = 2 * math.cosh(x)
            return DensityMatrix.from_matrix(np.diag([math.exp(x) / z,
                                                      math.exp(-x) / z]))

        def drho_at(x):
            z = 2 * math.cosh(x)
            t = math.tanh(x)
            return Operator(np.diag([math.exp(x) / z * (1 - t),
                                     math.exp(-x) / z * (-1 - t)]).astype(complex))

        fam = ParamFamily(dim=2, state_at=rho_at, derivative_at=drho_at,
                          domain=(-1.0, 1.0))
        assert fam.check_derivative(0.25) <= 1e-6
        assert qfi(fam, 0.25) == pytest.approx(1 / math.cosh(0.25) ** 2, rel=1e-10)
        assert abs(calibration_curvature(fam, 0.25)) <= 1e-9

    def test_classical_family_with_moving_fisher(self):
        # p(x) = ((1 + x)/2, (1 - x)/2): the Fisher value 1/(1 - x^2) moves with
        # x, so <L' L + L L'> is not zero; oracle from the classical score
        # l = p'/p and its derivative l' = -(p'/p)^2
        x = 0.3
        p = np.array([1 + x, 1 - x]) / 2
        score = np.array([0.5, -0.5]) / p
        dscore = -score**2
        expected = (p @ dscore**2 - (p @ dscore) ** 2) - (p @ (dscore * score)) ** 2 / (
            p @ score**2)
        fam = ParamFamily(
            dim=2,
            state_at=lambda t: DensityMatrix.from_matrix(np.diag([1 + t, 1 - t]) / 2),
            derivative_at=lambda t: Operator(np.diag([0.5, -0.5]).astype(complex)),
            domain=(-0.9, 0.9),
        )
        assert abs(p @ (dscore * score)) > 0.1
        assert calibration_curvature(fam, x) == pytest.approx(expected, rel=1e-8)

    def test_coherent_moment_ratio(self):
        # Poisson kurtosis oracle behind the pure-case bound
        alpha = 1.3
        lam = alpha**2
        m4 = poisson_central_moment(lam, 4)
        m2 = poisson_central_moment(lam, 2)
        assert m4 / m2**2 == pytest.approx(3 + 1 / lam, rel=1e-10)

    def test_step_must_stay_in_domain(self, dephased_qubit):
        fam, _ = dephased_qubit
        with pytest.raises(ContractViolationError):
            calibration_curvature(fam, fam.domain[1] - 1e-6)

    @pytest.mark.parametrize("alpha, r, beta, dim", [
        (1.0, 0.0, 0.3, 16), (1.0, 0.5, 0.3, 40), (2.0, 1.0, 0.3, 116), (1.0, 0.8, 0.1, 66),
    ], ids=["case-d16", "squeezed-d40", "large-d116", "squeezed-d66"])
    def test_matches_covariant_oracle(self, alpha, r, beta, dim):
        # a phase family moves its SLD as dL/dx = -i[n, L], with no derivative
        # of rho beyond the first
        spec = PhaseFamilySpec(GaussianProbeSpec(alpha, r, dim), DiffusionParams(beta),
                               (-math.pi, math.pi))
        fam = dephasing_family(spec)
        x = 0.3
        expected = covariant_curvature(fam.state_at(x).matrix, fam.derivative_at(x).matrix)
        assert calibration_curvature(fam, x) == pytest.approx(expected, rel=1e-7)

    def test_one_eigendecomposition(self, monkeypatch):
        fam = dephasing_family(fock_dephasing_spec(1.0, 0.5, 0.3))
        calls = []
        eigh = np.linalg.eigh

        def counting_eigh(a, *args, **kwargs):
            calls.append(a.shape)
            return eigh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
        calibration_curvature(fam, 0.3)
        assert len(calls) == 1


class TestSampleSizeBound:
    def test_qubit_zero(self, qubit_family):
        assert abs(sample_size_bound(qubit_family, 0.0)) <= 1e-12

    def test_coherent_closed_form(self):
        fam, psi = coherent_number_family(alpha=1.0)
        expected = (2.0 + 1.0) / 4.0  # (2 + 1/alpha^2)/4 at alpha = 1
        assert sample_size_bound(fam, 0.0) == pytest.approx(expected, rel=1e-8)

    def test_scale_invariance(self):
        fam, psi = coherent_number_family(alpha=1.2)
        h = number_operator(fam.dim)
        scaled = Operator(3.7 * h.matrix)
        assert pure_unitary_sample_size_bound(scaled, psi) == pytest.approx(
            pure_unitary_sample_size_bound(h, psi), rel=1e-12)

    def test_generic_path_matches_closed_form(self):
        fam, psi = coherent_number_family(alpha=1.0)
        closed = pure_unitary_sample_size_bound(number_operator(fam.dim), psi)
        assert sample_size_bound(fam, 0.2) == pytest.approx(closed, rel=1e-8)

    def test_dephased_qubit_generic(self, dephased_qubit):
        fam, beta = dephased_qubit
        q_sq = math.exp(-2 * beta**2)
        assert sample_size_bound(fam, 0.3) == pytest.approx((1 - q_sq) / q_sq, rel=1e-8)

    def test_no_information(self):
        with pytest.raises(NoInformationError):
            sample_size_bound(flat_family(), 0.0)

    @pytest.mark.parametrize("alpha,r", [(1.0, 0.0), (1.0, 0.8), (2.0, 1.0)],
                             ids=["dim-16", "dim-66", "dim-116"])
    def test_one_solve_qfi_matches_qfi(self, alpha, r):
        fam = dephasing_family(fock_dephasing_spec(alpha, r, 0.3))
        assert _curvature_and_qfi(fam, 0.7)[1] == pytest.approx(qfi(fam, 0.7), rel=1e-13)


class TestCalibrationCost:
    """The SLD calibrated at a first-stage estimate x_hat ~ N(x, 1/(nu QFI))
    loses a fraction sample_size_bound / nu of the QFI at leading order."""

    @pytest.mark.parametrize("alpha,r,beta,dim,bound", [
        (1.0, 0.0, 0.3, 16, 0.19387),
        (1.0, 0.8, 0.1, 66, 0.82705),
    ], ids=["case-point", "squeezed"])
    def test_fisher_loss_approaches_bound(self, alpha, r, beta, dim, bound):
        fam = dephasing_family(fock_dephasing_spec(alpha, r, beta))
        assert fam.dim == dim
        x = 0.7
        q = qfi(fam, x)
        b = sample_size_bound(fam, x)
        assert b == pytest.approx(bound, abs=1e-5)
        t, w = hermegauss(40)  # nodes and weights of the standard normal
        w = w / w.sum()
        gaps = []
        for nu in (1e2, 1e3, 1e4):
            fisher = [assess_observable(fam, x, sld(fam.state_at(xh), fam.derivative_at(xh))).fisher
                      for xh in x + t / math.sqrt(nu * q)]
            gap = nu * (1.0 - w @ fisher / q) - b
            assert abs(gap) <= 3.0 / nu
            gaps.append(gap)
        for a, c in zip(gaps, gaps[1:]):
            assert abs(c) <= abs(a) / 5.0


class TestOptimalityAndInvariance:
    def test_no_observable_beats_sld(self, dephased_qubit, rng):
        fam, _ = dephased_qubit
        x = 0.3
        q = qfi(fam, x)
        for _ in range(50):
            m = Operator(random_hermitian(rng, 2))
            assert assess_observable(fam, x, m).fisher <= q + 1e-8

    def test_nsr_affine_invariance(self, qubit_family, rng):
        m = Operator(random_hermitian(rng, 2))
        base = assess_observable(qubit_family, 0.3, m).nsr
        for _ in range(5):
            a = float(rng.normal()) or 0.7
            b = float(rng.normal())
            m2 = Operator(a * (m.matrix - b * np.eye(2)))
            got = assess_observable(qubit_family, 0.3, m2).nsr
            assert got == pytest.approx(base, rel=1e-9)

    def test_quadratic_expansion_of_miscalibrated_sld(self, dephased_qubit):
        # fisher of L(x_exp) at x_true is QFI - G (x_true - x_exp)^2 + O(dx^3)
        fam, beta = dephased_qubit
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
        assert abs(c1) <= 1e-10
        assert c2 == pytest.approx(-g_true, rel=0.05)

    def test_family_finite_difference_invariant(self, dephased_qubit):
        fam, _ = dephased_qubit
        for x in (-0.5, 0.0, 0.8):
            assert fam.check_derivative(x) <= 1e-6
