import copy
import dataclasses
import math
import pickle
import re
import tracemalloc

import numpy as np
import pytest

from nsrkit import (
    CalibrationCurve,
    ContractViolationError,
    DensityMatrix,
    DiffusionParams,
    DimensionMismatchError,
    GaussianProbeSpec,
    InvalidDimensionError,
    MeasurementModel,
    NumericalConsistencyError,
    Operator,
    PhaseFamilySpec,
    SensitivityReport,
    StateVector,
    TruncationError,
    default_truncation_dim,
    expectation,
    fock_ladder,
    fock_state,
    gaussian_probe,
    number_operator,
    quadrature,
    variance,
)
from nsrkit.operators import real_trace
from nsrkit.scalar import MAX_DIM, check_dim

from oracles import (
    coherent_amplitudes,
    displacement_generator,
    expm_gaussian_probe,
    random_density_mat,
    random_hermitian,
    squeezed_vacuum_amplitudes,
    unitary_from_generator,
)


def vacuum_density(dim):
    return fock_state(dim, 0).density_matrix()


class TestFockLadder:
    def test_dim2(self):
        a, adag = fock_ladder(2)
        np.testing.assert_array_equal(a, [[0, 1], [0, 0]])
        np.testing.assert_array_equal(adag, [[0, 0], [1, 0]])

    def test_sqrt_elements(self):
        a, _ = fock_ladder(3)
        assert a[1, 2] == pytest.approx(math.sqrt(2), abs=1e-15)

    def test_number_spectrum(self):
        a, adag = fock_ladder(16)
        n = adag @ a
        np.testing.assert_allclose(np.diag(n).real, np.arange(16), atol=1e-13)
        assert np.abs(n - np.diag(np.diag(n))).max() == 0

    def test_commutator_block(self):
        # [a, a+] = 1 except in the last row/column clipped by the truncation
        a, adag = fock_ladder(12)
        comm = a @ adag - adag @ a
        np.testing.assert_allclose(comm[:11, :11], np.eye(11), atol=1e-13)

    @pytest.mark.parametrize("dim", [0, 1, -3])
    def test_invalid_dim(self, dim):
        with pytest.raises(InvalidDimensionError):
            fock_ladder(dim)


class TestUnitaryFromGenerator:
    """The eigendecomposition oracle for exp(g), used by the tests below."""

    def test_zero_generator(self):
        u = unitary_from_generator(np.zeros((4, 4)))
        np.testing.assert_allclose(u, np.eye(4), atol=1e-14)

    def test_phase_rotation(self):
        u = unitary_from_generator(-1j * math.pi * np.diag([0.0, 1.0]))
        np.testing.assert_allclose(u, np.diag([1.0, -1.0]), atol=1e-12)

    def test_coherent_column(self):
        # first column of D(alpha) carries the coherent amplitudes
        alpha, dim = 0.9, 40
        u = unitary_from_generator(displacement_generator(alpha, dim))
        n = np.arange(30)
        log_fact = np.array([math.lgamma(k + 1) for k in n])
        expected = np.exp(-alpha**2 / 2 + n * math.log(alpha) - log_fact / 2)
        np.testing.assert_allclose(u[:30, 0].real, expected, atol=1e-12)
        assert np.abs(u[:30, 0].imag).max() < 1e-14

    def test_unitarity(self, rng):
        for dim in (2, 7, 24):
            u = unitary_from_generator(-1j * random_hermitian(rng, dim))
            defect = np.abs(u.conj().T @ u - np.eye(dim)).max()
            assert defect <= 1e-10

    def test_rejects_non_antihermitian(self):
        with pytest.raises(ValueError):
            unitary_from_generator(np.eye(2))


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

    def test_suggested_dim_capped_at_ceiling(self):
        # no dim up to MAX_DIM holds this probe to TAIL_TARGET, but MAX_DIM
        # holds it within LEAKAGE_TOL, so the hint is MAX_DIM and it runs
        with pytest.raises(TruncationError) as exc:
            gaussian_probe(GaussianProbeSpec(0.0, 2.7, 100))
        assert exc.value.suggested_dim == MAX_DIM
        gaussian_probe(GaussianProbeSpec(0.0, 2.7, exc.value.suggested_dim))
        assert default_truncation_dim(0.0, 2.6) == MAX_DIM

    def test_no_suggested_dim_above_ceiling(self):
        # MAX_DIM does not hold this probe, so no hint can lead to a run
        with pytest.raises(TruncationError, match="no truncation up to MAX_DIM") as exc:
            gaussian_probe(GaussianProbeSpec(0.0, 3.0, 100))
        assert exc.value.suggested_dim is None
        with pytest.raises(TruncationError, match="no truncation up to MAX_DIM"):
            gaussian_probe(GaussianProbeSpec(0.0, 3.0, MAX_DIM))

    def test_no_suggested_dim_at_ceiling(self):
        with pytest.raises(TruncationError, match="no truncation up to MAX_DIM") as exc:
            gaussian_probe(GaussianProbeSpec(0.0, 3.3, MAX_DIM))
        assert exc.value.suggested_dim is None

    def test_policy_dim_passes_for_hard_corner(self):
        spec = GaussianProbeSpec.with_default_dim(2.0, 1.0)
        gaussian_probe(spec)  # must not raise at the policy dimension

    def test_invalid_spec(self):
        with pytest.raises(InvalidDimensionError):
            GaussianProbeSpec(1.0, 0.0, 1)
        with pytest.raises(ContractViolationError):
            GaussianProbeSpec(math.inf, 0.0, 16)


# (alpha, r) over both signs of each, at the policy dimension (16 to 281).
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

    @pytest.mark.parametrize("alpha, r", [
        (0.5, 0.0), (2.0, 0.0), (-3.0, 0.0), (10.0, 0.0),
        (0.0, 0.3), (0.0, -0.7), (0.0, 1.2), (0.0, 1.5),
    ])
    def test_policy_dim_is_minimal(self, alpha, r):
        # the closed form's tail beyond d, summed directly; the 10% band allows
        # for the policy's running 1 - sum c_n^2 rounding differently
        d = default_truncation_dim(alpha, r)
        c = coherent_amplitudes(alpha, 4 * d) if r == 0.0 else squeezed_vacuum_amplitudes(r, 4 * d)
        tail = np.cumsum((c * c)[::-1])[::-1]  # tail[k] = sum_{n >= k} c_n^2
        assert tail[d] <= 1.1e-12
        if d > 16:
            assert tail[d - 1] > 0.9e-12

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
            m1 = Operator(random_hermitian(rng, dim))
            m2 = Operator(random_hermitian(rng, dim))
            c1, c2 = rng.normal(), rng.normal()
            combo = Operator(c1 * m1.matrix + c2 * m2.matrix)
            lhs = expectation(rho, combo)
            rhs = c1 * expectation(rho, m1) + c2 * expectation(rho, m2)
            assert lhs == pytest.approx(rhs, abs=1e-10)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            expectation(vacuum_density(4), number_operator(8))

    def test_imaginary_residue_rejected(self):
        # an Operator cannot be non-hermitian, so the raw trace is checked
        m = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
        rho = DensityMatrix.from_matrix(np.array([[0.5, 0.25j], [-0.25j, 0.5]]))
        with pytest.raises(NumericalConsistencyError):
            real_trace(rho.matrix, m)

    def test_imaginary_residue_rule_scales_with_trace(self):
        # absolute for |Tr| <= 1, relative to |Tr| above it
        rho = DensityMatrix.from_matrix(np.diag([1.0, 0.0]))
        big = 1e6

        def observable(residue):
            return np.diag([big + 1j * residue, 0.0])

        assert real_trace(rho.matrix, observable(1e-11 * big)) == big
        with pytest.raises(NumericalConsistencyError):
            real_trace(rho.matrix, observable(1e-9 * big))
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
        m = Operator(random_hermitian(rng, dim))
        base = variance(rho, m)
        for b in rng.normal(size=4) * 3:
            shifted = Operator(m.matrix + b * np.eye(dim))
            assert variance(rho, shifted) == pytest.approx(base, abs=1e-9)


class TestPhaseShifted:
    def test_matches_number_rotation(self, rng):
        dim, phi = 7, 0.9
        rho = DensityMatrix.from_matrix(random_density_mat(rng, dim))
        u = unitary_from_generator(-1j * phi * number_operator(dim).matrix)
        expected = u @ rho.matrix @ u.conj().T
        np.testing.assert_allclose(rho.phase_shifted(phi).matrix, expected, atol=1e-12)

    @pytest.mark.parametrize("phi", [math.nan, math.inf])
    def test_non_finite_phase_rejected(self, phi):
        with pytest.raises(ContractViolationError):
            vacuum_density(4).phase_shifted(phi)


class TestTypeContracts:
    def test_operator_rejects_non_hermitian(self):
        with pytest.raises(ContractViolationError, match="not hermitian"):
            Operator(np.array([[0, 1], [0, 0]], dtype=complex))
        with pytest.raises(ContractViolationError, match="not hermitian"):
            DensityMatrix(np.array([[0.5, 0.5], [0.0, 0.5]], dtype=complex))
        # within HERMITICITY_RTOL of the largest entry is hermitian
        Operator(np.array([[1e3, 1e-10], [0.0, 1.0]], dtype=complex))

    def test_non_hermitian_entry_in_the_last_row_block(self):
        # rows are checked 64 at a time: at dim 200 the last block holds rows
        # 192..199, and a non-real diagonal entry there is seen by no other
        m = np.diag(np.arange(200.0)).astype(complex)
        Operator(m)
        m[199, 199] += 1j
        with pytest.raises(ContractViolationError, match="not hermitian"):
            Operator(m)

    def test_density_is_operator(self):
        rho = DensityMatrix(np.diag([0.25, 0.75]))
        assert isinstance(rho, Operator)
        assert rho.dim == 2
        assert [f.name for f in dataclasses.fields(rho)] == ["matrix"]

    def test_density_trace(self):
        with pytest.raises(ContractViolationError, match="trace"):
            DensityMatrix(np.eye(2, dtype=complex))

    @pytest.mark.parametrize("error", [-1.1e-10, -0.9e-10, -0.6e-10, -0.4e-10,
                                       0.4e-10, 0.6e-10, 0.9e-10, 1.1e-10])
    def test_state_norm_held_to_projector_trace(self, error):
        # |v| = 1 + error: |v|^2 and the trace of its projector are both off
        # by about 2 error, so one tolerance accepts or rejects both
        rng = np.random.default_rng(3)
        u = rng.normal(size=4) + 1j * rng.normal(size=4)
        accepted = abs(error) < 0.5e-10
        for v in (np.array([1.0 + error, 0.0, 0.0]), (1.0 + error) * u / np.linalg.norm(u)):
            if accepted:
                DensityMatrix(np.outer(v, v.conj()))
                assert StateVector(v).density_matrix().dim == v.size
            else:
                with pytest.raises(ContractViolationError, match="trace"):
                    DensityMatrix(np.outer(v, v.conj()))
                with pytest.raises(ContractViolationError, match="norm"):
                    StateVector(v)

    def test_density_nan_trace(self):
        with pytest.raises(ContractViolationError, match="non-finite"):
            DensityMatrix(np.full((2, 2), np.nan, dtype=complex))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, complex(0.0, -math.inf)],
                             ids=["nan", "inf", "imag-inf"])
    def test_non_finite_entries_rejected(self, bad):
        m = np.eye(2, dtype=complex) / 2
        m[0, 1] = m[1, 0] = bad
        for build in (Operator, DensityMatrix, DensityMatrix.from_matrix):
            with pytest.raises(ContractViolationError, match="non-finite"):
                build(m)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_state_rejects_non_finite_amplitude(self, bad):
        with pytest.raises(ContractViolationError, match="norm"):
            StateVector(np.array([bad, 0.0]))

    def test_density_psd(self):
        with pytest.raises(ContractViolationError):
            DensityMatrix.from_matrix(np.diag([1.5, -0.5]))

    def test_from_matrix_holds_two_copies(self, rng):
        # the Hermitian part is formed in place in one copy of the input and
        # adopted, so the peak is that copy and the eigensolve's: about 2.03x
        # the matrix at dim 512
        m = random_density_mat(rng, 512)
        m[0, 1] += 1e-15  # not Hermitian, so the Hermitian part differs from m
        DensityMatrix.from_matrix(m)  # warm caches and imports
        tracemalloc.start()
        try:
            rho = DensityMatrix.from_matrix(m)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.2 * m.nbytes, peak / m.nbytes
        assert np.array_equal(rho.matrix, (m + m.conj().T) / 2)

    def test_state_norm(self):
        with pytest.raises(ContractViolationError):
            StateVector(np.array([1.0, 1.0]))

    def test_operator_immutable(self):
        a, adag = fock_ladder(4)
        for m in (a, adag, number_operator(4).matrix, vacuum_density(4).matrix):
            with pytest.raises(ValueError):
                m[0, 0] = 5.0

    def test_default_truncation_dim_floor(self):
        assert default_truncation_dim(0.0, 0.0) == 16  # the vacuum fits in one level
        assert default_truncation_dim(2.0, 0.0) == 26  # coherent tail 1e-12 at 26 levels
        assert default_truncation_dim(1.0, 0.8) > 26  # the squeezed tail is longer

    @pytest.mark.parametrize("alpha, r, name", [
        (math.inf, 0.0, "alpha"), (math.nan, 0.0, "alpha"), (1.0, math.nan, "r"),
    ])
    def test_default_truncation_dim_rejects_non_finite(self, alpha, r, name):
        with pytest.raises(ContractViolationError, match=f"{name} must be finite"):
            default_truncation_dim(alpha, r)

    @pytest.mark.parametrize("alpha, r", [
        (37.5, 1.5), (16.0, 2.5), (1.0, 3.0), (1.0, 20.0),
    ], ids=["alpha-37.5", "alpha-16", "r-3", "r-20-tanh-one"])
    def test_policy_dim_above_ceiling(self, alpha, r):
        # displacement along the anti-squeezed axis lengthens the tail; at
        # r = 20, tanh r rounds to 1 and the amplitudes never sum to 1
        with pytest.raises(InvalidDimensionError, match=f"ceiling MAX_DIM = {MAX_DIM}") as exc:
            GaussianProbeSpec.with_default_dim(alpha, r)
        assert max(map(int, re.findall(r"\d+", str(exc.value)))) == MAX_DIM
        with pytest.raises(TruncationError, match="no truncation up to MAX_DIM"):
            gaussian_probe(GaussianProbeSpec(alpha, r, MAX_DIM))

    def test_underflow_reported_before_ceiling(self):
        # no dimension holds this probe, so the underflow is the error to report
        with pytest.raises(NumericalConsistencyError, match="underflows"):
            GaussianProbeSpec(40.0, 0.0, MAX_DIM + 1)

    def test_check_dim_at_ceiling(self):
        assert check_dim(MAX_DIM) == MAX_DIM
        assert GaussianProbeSpec(1.0, 0.0, MAX_DIM).dim == MAX_DIM
        with pytest.raises(InvalidDimensionError, match=f"dim {MAX_DIM + 1} exceeds"):
            check_dim(MAX_DIM + 1)

    def test_non_square_matrix_rejected(self):
        with pytest.raises(InvalidDimensionError):
            Operator(np.zeros((2, 3)))

    @pytest.mark.parametrize("build, fragment", [
        (lambda: Operator(np.zeros((0, 0))), "empty matrix"),
        (lambda: StateVector(np.zeros(0)), "empty state vector"),
        (lambda: number_operator(1), "number operator needs dim >= 2, got 1"),
    ], ids=["empty-matrix", "empty-state", "number-operator-dim-1"])
    def test_too_small_rejected(self, build, fragment):
        with pytest.raises(InvalidDimensionError, match=fragment):
            build()

    def test_fock_state_index_range(self):
        with pytest.raises(InvalidDimensionError):
            fock_state(4, 4)
        with pytest.raises(InvalidDimensionError):
            fock_state(4, -1)

    def test_adopt_holds_the_array_with_operators_checks(self):
        # the library's fresh arrays are adopted, not copied; Operator(...)
        # still copies what a caller passes
        m = np.diag(np.arange(3.0)).astype(complex)
        assert not np.shares_memory(Operator(m).matrix, m) and m.flags.writeable
        op = Operator._adopt(m)
        assert op.matrix is m and not m.flags.writeable and op.dim == 3
        for bad, error, fragment in [
            (np.array([[0, 1], [0, 0]], dtype=complex), ContractViolationError, "not hermitian"),
            (np.full((2, 2), np.nan, dtype=complex), ContractViolationError, "non-finite"),
            (np.zeros((2, 3), dtype=complex), InvalidDimensionError, "square matrix"),
            (np.zeros((0, 0), dtype=complex), InvalidDimensionError, "empty matrix"),
        ]:
            with pytest.raises(error, match=fragment):
                Operator._adopt(bad)
        with pytest.raises(ContractViolationError, match="trace"):
            DensityMatrix._adopt(np.eye(2, dtype=complex))
        rho = DensityMatrix._adopt(np.diag([0.25, 0.75]).astype(complex))
        assert isinstance(rho, DensityMatrix) and not rho.matrix.flags.writeable


# Each builds a fresh value that holds an array, equal in value to the last.
ARRAY_VALUES = {
    "Operator": lambda: Operator(np.diag([1.0, -1.0])),
    "DensityMatrix": lambda: DensityMatrix(np.eye(2) / 2),
    "StateVector": lambda: StateVector([1.0, 0.0]),
    "MeasurementModel": lambda: MeasurementModel.from_observable(number_operator(3)),
    "CalibrationCurve": lambda: CalibrationCurve(xs=np.array([0.0, math.pi]),
                                                 means=np.array([2.0, -2.0]), window=(0.5, 2.5)),
}


class TestArrayValueTypes:
    """A value that holds an array is equal only to itself and hashes by
    identity: a field-wise == on arrays has no truth value."""

    @pytest.mark.parametrize("build", ARRAY_VALUES.values(), ids=ARRAY_VALUES.keys())
    def test_twins_compare_unequal_and_hash(self, build):
        value, twin = build(), build()
        assert value == value and value != twin and not value == twin
        assert hash(value) == hash(value) and len({value, twin, value}) == 2

    def test_state_vector_probe_spec_in_a_set(self):
        psi = StateVector([1.0, 0.0])
        spec = PhaseFamilySpec(psi, DiffusionParams(0.3), (-1.0, 1.0))
        twin = PhaseFamilySpec(psi, DiffusionParams(0.3), (-1.0, 1.0))
        assert spec == twin and len({spec, twin}) == 1
        assert spec != PhaseFamilySpec(StateVector([1.0, 0.0]), DiffusionParams(0.3), (-1.0, 1.0))


def scalar_values():
    probe = GaussianProbeSpec(1.0, 0.0, 16)
    return [probe, DiffusionParams(0.3), PhaseFamilySpec(probe, DiffusionParams(0.3), (-1.0, 2.0)),
            SensitivityReport(1.0, 2.0, 3.0, 4.0, 5.0)]


class TestScalarValueTypes:
    """nsrkit.scalar's value types are frozen slotted classes that behave as
    frozen dataclasses of the same fields, without importing dataclasses."""

    @pytest.mark.parametrize("value", scalar_values(), ids=lambda v: type(v).__name__)
    def test_fields_are_read_only(self, value):
        before = repr(value)
        for name in value.__slots__:
            with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
                setattr(value, name, 0.0)
            with pytest.raises(AttributeError, match=f"cannot delete field '{name}'"):
                delattr(value, name)
        with pytest.raises(AttributeError):
            value.extra = 1.0
        assert repr(value) == before

    @pytest.mark.parametrize("value", scalar_values(), ids=lambda v: type(v).__name__)
    def test_equality_hash_and_repr_by_field_value(self, value):
        fields = tuple(getattr(value, name) for name in value.__slots__)
        twin = type(value)(*fields)
        assert twin == value and hash(twin) == hash(value) and len({twin, value}) == 1
        assert value != fields and fields != value
        assert all(value != other for other in scalar_values() if type(other) is not type(value))
        reference = dataclasses.make_dataclass(type(value).__name__, value.__slots__, frozen=True)
        assert repr(value) == repr(reference(*fields))
        assert hash(value) == hash(reference(*fields))
        assert pickle.loads(pickle.dumps(value)) == value == copy.deepcopy(value)

    def test_repr_and_inequality(self):
        assert repr(GaussianProbeSpec(1.0, 0.0, 16)) == "GaussianProbeSpec(alpha=1.0, r=0.0, dim=16)"
        assert GaussianProbeSpec(1.0, 0.0, 16) != GaussianProbeSpec(1.0, 0.0, 17)
        assert DiffusionParams(0.3) != DiffusionParams(0.4)

    def test_keyword_construction(self):
        # as perfbench/setup_probe.py and the README's example build them
        psi = gaussian_probe(GaussianProbeSpec.with_default_dim(alpha=1.0, r=0.5))
        spec = PhaseFamilySpec(probe=psi, diffusion=DiffusionParams(beta=0.3),
                               phi_domain=(-math.pi, math.pi))
        assert (spec.probe, spec.diffusion.beta, spec.phi_domain) == (psi, 0.3, (-math.pi, math.pi))
        assert spec.dim == psi.dim and spec.probe_state() is psi
        assert GaussianProbeSpec(alpha=1.0, r=0.0, dim=16) == GaussianProbeSpec(1.0, 0.0, 16)
        report = SensitivityReport(mean=1.0, variance=2.0, slope=3.0, nsr=4.0, fisher=5.0)
        assert report == SensitivityReport(1.0, 2.0, 3.0, 4.0, 5.0)
        with pytest.raises(ContractViolationError, match="beta must be finite and >= 0"):
            DiffusionParams(beta=-1.0)
