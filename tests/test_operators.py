import math
import re

import numpy as np
import pytest

from nsrkit import (
    ContractViolationError,
    DensityMatrix,
    DimensionMismatchError,
    GaussianProbeSpec,
    InvalidDimensionError,
    NumericalConsistencyError,
    Operator,
    StateVector,
    TruncationError,
    default_truncation_dim,
    expectation,
    fock_ladder,
    fock_state,
    gaussian_probe,
    number_operator,
    quadrature,
    unitary_from_generator,
    variance,
)
from nsrkit.operators import displacement_generator, real_trace

from oracles import (
    coherent_amplitudes,
    expm_gaussian_probe,
    random_density_mat,
    random_hermitian,
    squeezed_vacuum_amplitudes,
)


def vacuum_density(dim):
    return fock_state(dim, 0).density_matrix()


class TestFockLadder:
    def test_dim2(self):
        a, adag = fock_ladder(2)
        np.testing.assert_array_equal(a.matrix, [[0, 1], [0, 0]])
        np.testing.assert_array_equal(adag.matrix, [[0, 0], [1, 0]])

    def test_sqrt_elements(self):
        a, _ = fock_ladder(3)
        assert a.matrix[1, 2] == pytest.approx(math.sqrt(2), abs=1e-15)

    def test_number_spectrum(self):
        a, adag = fock_ladder(16)
        n = adag.matrix @ a.matrix
        np.testing.assert_allclose(np.diag(n).real, np.arange(16), atol=1e-13)
        assert np.abs(n - np.diag(np.diag(n))).max() == 0

    def test_commutator_block(self):
        # [a, a+] = 1 except in the last row/column clipped by the truncation
        a, adag = fock_ladder(12)
        comm = a.matrix @ adag.matrix - adag.matrix @ a.matrix
        np.testing.assert_allclose(comm[:11, :11], np.eye(11), atol=1e-13)

    @pytest.mark.parametrize("dim", [0, 1, -3])
    def test_invalid_dim(self, dim):
        with pytest.raises(InvalidDimensionError):
            fock_ladder(dim)


class TestUnitaryFromGenerator:
    def test_zero_generator(self):
        u = unitary_from_generator(Operator(np.zeros((4, 4))))
        np.testing.assert_allclose(u.matrix, np.eye(4), atol=1e-14)

    def test_phase_rotation(self):
        g = Operator(-1j * math.pi * np.diag([0.0, 1.0]))
        u = unitary_from_generator(g)
        np.testing.assert_allclose(u.matrix, np.diag([1.0, -1.0]), atol=1e-12)

    def test_coherent_column(self):
        # first column of D(alpha) carries the coherent amplitudes
        alpha, dim = 0.9, 40
        u = unitary_from_generator(displacement_generator(alpha, dim))
        n = np.arange(30)
        log_fact = np.array([math.lgamma(k + 1) for k in n])
        expected = np.exp(-alpha**2 / 2 + n * math.log(alpha) - log_fact / 2)
        np.testing.assert_allclose(u.matrix[:30, 0].real, expected, atol=1e-12)
        assert np.abs(u.matrix[:30, 0].imag).max() < 1e-14

    def test_unitarity(self, rng):
        for dim in (2, 7, 24):
            h = random_hermitian(rng, dim)
            u = unitary_from_generator(Operator(-1j * h))
            defect = np.abs(u.matrix.conj().T @ u.matrix - np.eye(dim)).max()
            assert defect <= 1e-10

    def test_rejects_non_antihermitian(self):
        with pytest.raises(ContractViolationError):
            unitary_from_generator(Operator(np.eye(2)))


class TestGaussianProbe:
    def test_vacuum(self):
        psi = gaussian_probe(GaussianProbeSpec(0.0, 0.0, 16))
        assert psi.amplitudes[0] == pytest.approx(1.0, abs=1e-14)
        assert np.abs(psi.amplitudes[1:]).max() < 1e-14

    def test_mean_excitation(self):
        spec = GaussianProbeSpec.with_default_dim(1.0, 0.5)
        psi = gaussian_probe(spec)
        n_mean = expectation(psi.density_matrix(), number_operator(spec.dim))
        assert n_mean == pytest.approx(1.0 + math.sinh(0.5) ** 2, abs=1e-8)

    def test_squeezed_vacuum_parity(self):
        psi = gaussian_probe(GaussianProbeSpec.with_default_dim(0.0, 0.3))
        assert np.abs(psi.amplitudes[1::2]).max() < 1e-12

    def test_norm(self):
        psi = gaussian_probe(GaussianProbeSpec.with_default_dim(2.0, 0.8))
        assert abs(np.linalg.norm(psi.amplitudes) - 1.0) <= 1e-12

    def test_truncation_error_suggests_dim(self):
        with pytest.raises(TruncationError) as exc:
            gaussian_probe(GaussianProbeSpec(2.0, 0.8, 16))
        assert exc.value.suggested_dim > 16

    def test_policy_dim_passes_for_hard_corner(self):
        spec = GaussianProbeSpec.with_default_dim(2.0, 1.0)
        gaussian_probe(spec)  # must not raise at the policy dimension

    def test_invalid_spec(self):
        with pytest.raises(InvalidDimensionError):
            GaussianProbeSpec(1.0, 0.0, 1)
        with pytest.raises(ContractViolationError):
            GaussianProbeSpec(math.inf, 0.0, 16)


# (alpha, r) over both signs of each, at the policy dimension (16 to 239).
PROBE_SPECS = [
    (0.0, 0.0), (1.0, 0.0), (-1.0, 0.0), (3.0, 0.0), (0.0, 0.3), (0.0, -0.7),
    (1.0, 0.5), (-1.0, 0.3), (0.5, -0.7), (2.0, -0.5), (1.0, 0.8), (2.0, 1.0),
    (3.0, 0.2), (1.0, 1.5),
]


def normalized(c):
    return c / np.linalg.norm(c)


def leakage_message(c):
    """The TruncationError text for oracle amplitudes c kept to len(c)."""
    return re.escape(f"loses {1.0 - float(c @ c):.3e} of the norm")


class TestGaussianProbeReference:
    """The recurrence against matrix exponentials and closed forms."""

    @pytest.mark.parametrize("alpha, r", PROBE_SPECS,
                             ids=[f"{a}-{r}" for a, r in PROBE_SPECS])
    def test_matches_padded_expm(self, alpha, r):
        pytest.importorskip("scipy")
        dim = default_truncation_dim(alpha, r)
        expected = normalized(expm_gaussian_probe(alpha, r, 4 * dim)[:dim])
        psi = gaussian_probe(GaussianProbeSpec(alpha, r, dim))
        np.testing.assert_allclose(psi.amplitudes, expected, rtol=0, atol=1e-12)

    def test_leakage_matches_padded_expm(self):
        pytest.importorskip("scipy")
        c = expm_gaussian_probe(2.0, 0.8, 400)[:16]
        with pytest.raises(TruncationError, match=leakage_message(c)):
            gaussian_probe(GaussianProbeSpec(2.0, 0.8, 16))

    @pytest.mark.parametrize("alpha", [-1.3, 0.7, 2.5])
    def test_coherent_closed_form(self, alpha):
        dim = default_truncation_dim(alpha, 0.0)
        psi = gaussian_probe(GaussianProbeSpec(alpha, 0.0, dim))
        np.testing.assert_allclose(psi.amplitudes, normalized(coherent_amplitudes(alpha, dim)),
                                   rtol=0, atol=1e-12)

    @pytest.mark.parametrize("r", [-0.7, 0.3, 1.2])
    def test_squeezed_vacuum_closed_form(self, r):
        dim = default_truncation_dim(0.0, r)
        psi = gaussian_probe(GaussianProbeSpec(0.0, r, dim))
        expected = normalized(squeezed_vacuum_amplitudes(r, dim))
        np.testing.assert_allclose(psi.amplitudes, expected, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("c, spec", [
        (coherent_amplitudes(2.0, 12), GaussianProbeSpec(2.0, 0.0, 12)),
        (squeezed_vacuum_amplitudes(0.8, 16), GaussianProbeSpec(0.0, 0.8, 16)),
    ], ids=["coherent", "squeezed-vacuum"])
    def test_leakage_is_exact(self, c, spec):
        with pytest.raises(TruncationError, match=leakage_message(c)):
            gaussian_probe(spec)

    @pytest.mark.parametrize("alpha", [40.0, 38.5], ids=["zero", "subnormal"])
    def test_vacuum_amplitude_underflow(self, alpha):
        # c_0 = e^{-800} is 0.0, which leaves no state; e^{-741} is a
        # subnormal, which has lost the precision the exact leakage needs.
        with pytest.raises(NumericalConsistencyError, match="underflows"):
            gaussian_probe(GaussianProbeSpec(alpha, 0.0, 20000))


class TestExpectation:
    def test_vacuum_number(self):
        assert expectation(vacuum_density(8), number_operator(8)) == pytest.approx(0.0, abs=1e-14)

    def test_fock_eigenstate(self):
        rho = fock_state(8, 1).density_matrix()
        assert expectation(rho, number_operator(8)) == pytest.approx(1.0, abs=1e-14)

    def test_coherent_poisson_mean(self):
        spec = GaussianProbeSpec.with_default_dim(1.0, 0.0)
        rho = gaussian_probe(spec).density_matrix()
        assert expectation(rho, number_operator(spec.dim)) == pytest.approx(1.0, abs=1e-8)

    def test_linearity(self, rng):
        dim = 6
        rho = DensityMatrix.from_matrix(random_density_mat(rng, dim))
        for _ in range(5):
            m1 = Operator(random_hermitian(rng, dim), hermitian=True)
            m2 = Operator(random_hermitian(rng, dim), hermitian=True)
            c1, c2 = rng.normal(), rng.normal()
            combo = Operator(c1 * m1.matrix + c2 * m2.matrix, hermitian=True)
            lhs = expectation(rho, combo)
            rhs = c1 * expectation(rho, m1) + c2 * expectation(rho, m2)
            assert lhs == pytest.approx(rhs, abs=1e-10)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            expectation(vacuum_density(4), number_operator(8))

    def test_imaginary_residue_rejected(self):
        m = Operator(np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex))  # non-hermitian
        rho = DensityMatrix.from_matrix(np.array([[0.5, 0.25j], [-0.25j, 0.5]]))
        with pytest.raises(NumericalConsistencyError):
            expectation(rho, m)

    def test_imaginary_residue_rule_scales_with_trace(self):
        # absolute for |Tr| <= 1, relative to |Tr| above it
        rho = DensityMatrix.from_matrix(np.diag([1.0, 0.0]))
        big = 1e6

        def observable(residue):
            return Operator(np.diag([big + 1j * residue, 0.0]))

        assert expectation(rho, observable(1e-11 * big)) == big
        with pytest.raises(NumericalConsistencyError):
            expectation(rho, observable(1e-9 * big))
        assert real_trace(rho.matrix, observable(1e-11 * big).matrix) == big
        with pytest.raises(NumericalConsistencyError):  # 1e-9 residue on Tr = 1e-6
            real_trace(np.diag([1e-6, 0.0]), np.diag([1.0 + 1e-3j, 0.0]))


class TestVariance:
    def test_vacuum_quadrature(self):
        # <(a + a+)^2> on vacuum = <a a+> = 1 by the ladder algebra
        dim = 10
        m = quadrature(0.0, dim)
        assert variance(vacuum_density(dim), m) == pytest.approx(1.0, abs=1e-12)

    def test_fock_number_eigenstate(self):
        rho = fock_state(8, 3).density_matrix()
        assert variance(rho, number_operator(8)) == 0.0

    def test_squeezed_vacuum_noise(self):
        # variance of the pi/2 quadrature on S(r)|0> is e^{-2r}
        r = 0.3
        spec = GaussianProbeSpec.with_default_dim(0.0, r)
        rho = gaussian_probe(spec).density_matrix()
        got = variance(rho, quadrature(math.pi / 2, spec.dim))
        assert got == pytest.approx(math.exp(-2 * r), rel=1e-8)

    def test_shift_invariance(self, rng):
        dim = 5
        rho = DensityMatrix.from_matrix(random_density_mat(rng, dim))
        m = Operator(random_hermitian(rng, dim), hermitian=True)
        base = variance(rho, m)
        for b in rng.normal(size=4) * 3:
            shifted = Operator(m.matrix + b * np.eye(dim), hermitian=True)
            assert variance(rho, shifted) == pytest.approx(base, abs=1e-9)


class TestPhaseShifted:
    def test_matches_number_rotation(self, rng):
        dim, phi = 7, 0.9
        rho = DensityMatrix.from_matrix(random_density_mat(rng, dim))
        u = unitary_from_generator(Operator(-1j * phi * number_operator(dim).matrix))
        expected = u.matrix @ rho.matrix @ u.matrix.conj().T
        np.testing.assert_allclose(rho.phase_shifted(phi).matrix, expected, atol=1e-12)

    @pytest.mark.parametrize("phi", [math.nan, math.inf])
    def test_non_finite_phase_rejected(self, phi):
        with pytest.raises(ContractViolationError):
            vacuum_density(4).phase_shifted(phi)


class TestTypeContracts:
    def test_operator_hermitian_flag_checked(self):
        with pytest.raises(ContractViolationError):
            Operator(np.array([[0, 1], [0, 0]], dtype=complex), hermitian=True)

    def test_density_trace(self):
        with pytest.raises(ContractViolationError):
            DensityMatrix(Operator(np.eye(2, dtype=complex), hermitian=True))

    def test_density_psd(self):
        with pytest.raises(ContractViolationError):
            DensityMatrix.from_matrix(np.diag([1.5, -0.5]))

    def test_state_norm(self):
        with pytest.raises(ContractViolationError):
            StateVector(np.array([1.0, 1.0]))

    def test_operator_immutable(self):
        a, _ = fock_ladder(4)
        with pytest.raises(ValueError):
            a.matrix[0, 0] = 5.0

    def test_default_truncation_dim_floor(self):
        assert default_truncation_dim(0.0, 0.0) == 16
        assert default_truncation_dim(2.0, 0.0) == 40  # 8 (N+1) with N = 4
        assert default_truncation_dim(1.0, 0.8) > 40  # squeezed tail dominates

    @pytest.mark.parametrize("alpha, r, name", [
        (math.inf, 0.0, "alpha"), (math.nan, 0.0, "alpha"), (1.0, math.nan, "r"),
    ])
    def test_default_truncation_dim_rejects_non_finite(self, alpha, r, name):
        with pytest.raises(ContractViolationError, match=f"{name} must be finite"):
            default_truncation_dim(alpha, r)

    def test_non_square_matrix_rejected(self):
        with pytest.raises(InvalidDimensionError):
            Operator(np.zeros((2, 3)))

    def test_fock_state_index_range(self):
        with pytest.raises(InvalidDimensionError):
            fock_state(4, 4)
        with pytest.raises(InvalidDimensionError):
            fock_state(4, -1)
