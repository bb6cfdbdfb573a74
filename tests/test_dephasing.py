import math
import warnings

import numpy as np
import pytest

from nsrkit import (
    ContractViolationError,
    DensityMatrix,
    DiffusionParams,
    GaussianProbeSpec,
    InvalidDimensionError,
    NumericalConsistencyError,
    PhaseFamilySpec,
    analytic_fnsr,
    assess_observable,
    build_curve,
    c_q,
    default_truncation_dim,
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
    pure_unitary_family,
    pure_unitary_qfi,
    qfi,
    quadrature,
    r_max,
    r_opt,
    variance,
)
from nsrkit import scalar
from nsrkit.errors import SupportTruncationWarning
from nsrkit.estimation import SLD_EIG_CUT_REL, _solve_sld
from nsrkit.operators import Operator, StateVector
from nsrkit.scalar import (
    DEFAULT_N_GRID,
    DEFAULT_TWO_BETA_SQ_GRID,
    PSD_TOL,
    TRACE_TOL,
    _number_moments,
    _quadrature_reports,
)

from conftest import dephasing_covariant_sld, fock_dephasing_spec
from oracles import (
    check_derivative,
    gauss_hermite_dephase,
    golden_max,
    random_density_mat,
    random_hermitian,
    unitary_from_generator,
)


def count_eigensolves(monkeypatch) -> list:
    """Names of the numpy.linalg eigvalsh and eigh calls made from now on."""
    calls = []
    for name in ("eigvalsh", "eigh"):
        original = getattr(np.linalg, name)

        def counted(*args, _original=original, _name=name, **kwargs):
            calls.append(_name)
            return _original(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    return calls


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
        u = unitary_from_generator(-1j * phi * number_operator(dim).matrix)
        expected = u @ rho.matrix @ u.conj().T
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

    def test_non_finite_beta_and_non_state_rejected(self, rng):
        # the channel builds its output without an eigensolve, so it takes
        # only a checked state and a finite kernel
        rho = DensityMatrix.from_matrix(random_density_mat(rng, 3))
        for beta in (math.nan, math.inf):
            with pytest.raises(ContractViolationError, match="beta"):
                dephase_channel(rho, 0.0, beta)
        with pytest.raises(ContractViolationError, match="DensityMatrix"):
            dephase_channel(Operator(np.diag([1.5, -0.5])), 0.0, 0.2)


class TestDephasingFamily:
    def test_derivative_traceless_hermitian(self):
        fam = dephasing_family(fock_dephasing_spec(1.0, 0.3, 0.3))
        d = fam.derivative_at(0.4).matrix
        assert abs(np.trace(d)) <= 1e-12
        assert np.abs(d - d.conj().T).max() <= 1e-14

    def test_finite_difference_consistency(self):
        fam = dephasing_family(fock_dephasing_spec(1.0, 0.3, 0.3))
        for phi in (-0.5, 0.8):
            assert check_derivative(fam, phi) <= 1e-6

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
        # the curve reads the probe's four sums: it takes no state and runs
        # no eigensolver
        spec = PhaseFamilySpec(GaussianProbeSpec.with_default_dim(1.0, 0.0),
                               DiffusionParams(0.3), (0.7 - math.pi, 0.7 + math.pi))
        report_at = _quadrature_reports(spec, 0.7)
        states = []
        shifted = DensityMatrix.phase_shifted
        monkeypatch.setattr(DensityMatrix, "phase_shifted",
                            lambda rho, phi: states.append(phi) or shifted(rho, phi))
        calls = count_eigensolves(monkeypatch)
        build_curve(report_at, optimal_calibration(0.7), spec.phi_domain)
        assert states == []
        assert calls == []

    def test_statevector_probe(self):
        spec = PhaseFamilySpec(fock_state(2, 1), DiffusionParams(0.1), (-1.0, 1.0))
        fam = dephasing_family(spec)
        assert qfi(fam, 0.0) == pytest.approx(0.0, abs=1e-12)  # Fock state: no phase info


class TestPositiveByConstruction:
    """The states the library builds skip DensityMatrix's eigensolve: the
    probe's projector, its product with the diffusion kernel, phase rotations
    of those, dephase_channel outputs and pure-family states. Their
    positivity and unit trace are checked here instead, on a grid of probes
    (alpha, r, beta) at the policy dim or a larger one."""

    @pytest.mark.parametrize("alpha, r, beta, dim", [
        (1.0, 0.0, 0.3, None),   # case-study point, dim 16
        (0.3, 0.8, 0.1, None),   # dim 66
        (2.0, 1.0, 0.3, None),   # dim 134
        (0.0, 1.2, 0.8, 256),
        (1.0, 1.5, 0.05, 512),
        (4.0, 0.0, 0.0, 512),
    ])
    def test_library_states_are_states(self, rng, alpha, r, beta, dim):
        probe = GaussianProbeSpec(alpha, r, dim or default_truncation_dim(alpha, r))
        spec = PhaseFamilySpec(probe, DiffusionParams(beta), (-math.pi, math.pi))
        psi = gaussian_probe(probe)
        mixed = DensityMatrix.from_matrix(random_density_mat(rng, probe.dim))
        fam = dephasing_family(spec)
        states = [
            fam.state_at(0.0),
            fam.state_at(2.3),
            dephase_channel(psi.density_matrix(), -1.1, beta),
            dephase_channel(mixed, 0.4, beta),
            pure_unitary_family(number_operator(probe.dim), psi).state_at(0.9),
            pure_unitary_family(quadrature(0.4, probe.dim), psi).state_at(-0.6),
        ]
        for rho in states:
            assert isinstance(rho, DensityMatrix)
            assert np.linalg.eigvalsh(rho.matrix).min() >= -PSD_TOL
            assert abs(np.trace(rho.matrix) - 1.0) <= TRACE_TOL

    def test_library_states_run_no_eigensolve(self, monkeypatch):
        spec = fock_dephasing_spec(2.0, 1.0, 0.3)
        psi = gaussian_probe(spec.probe)
        pure = pure_unitary_family(quadrature(0.4, spec.dim), psi)  # its one eigh
        calls = count_eigensolves(monkeypatch)
        fam = dephasing_family(spec)
        rho = psi.density_matrix()
        dephase_channel(rho, 0.7, 0.3)
        fam.state_at(0.5)
        fam.derivative_at(0.5)
        pure.state_at(0.3)
        pure.derivative_at(0.3)
        assert calls == []


class TestQuadrature:
    def test_vacuum_variance_any_angle(self):
        rho = fock_state(8, 0).density_matrix()
        for phi in (0.0, 0.7, -2.1):
            m = quadrature(phi, 8)
            assert np.abs(m.matrix - m.matrix.conj().T).max() == 0
            got = expectation(rho, Operator(m.matrix @ m.matrix))
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


def heavy_tailed_probe(rng, dim: int) -> StateVector:
    """Random complex amplitudes falling off as (n+1)^{-3/4}: the top level
    keeps enough weight that truncating a a^dag at dim levels shows."""
    c = (rng.normal(size=dim) + 1j * rng.normal(size=dim)) / np.arange(1, dim + 1) ** 0.75
    return StateVector(c / np.linalg.norm(c))


class TestQuadratureReports:
    """The four-sum route against assess_observable on the dense matrices.

    Tolerances, fixed from double roundoff over at most 2048 terms: fisher
    to 1e-12 relative; mean and slope to 1e-12 of the quadrature's scale
    sqrt(<X^2>); the variance, a difference of second moments, to 1e-12 of
    <X^2>."""

    @staticmethod
    def assert_matches_dense(spec, phi, offset):
        got = _quadrature_reports(spec, phi)(offset)
        want = assess_observable(dephasing_family(spec), phi, quadrature(phi + offset, spec.dim))
        msq = want.mean**2 + want.variance
        scale = math.sqrt(msq)
        assert got.mean == pytest.approx(want.mean, rel=0, abs=1e-12 * scale)
        assert got.slope == pytest.approx(want.slope, rel=0, abs=1e-12 * scale)
        assert got.variance == pytest.approx(want.variance, rel=0, abs=1e-12 * msq)
        assert got.fisher == pytest.approx(want.fisher, rel=1e-12)
        assert got.nsr == pytest.approx(want.nsr, rel=1e-12)

    @pytest.mark.parametrize("alpha, r, beta, dim", [
        (1.0, 0.0, 0.3, 16), (0.5, 0.0, 0.0, None), (1.0, 0.5, 0.3, None),
        (2.0, 1.0, 0.3, None), (10.0, 0.0, 0.3, None), (1.0, 0.3, 0.2, 1024),
    ])
    def test_gaussian_probes(self, rng, alpha, r, beta, dim):
        probe = (GaussianProbeSpec.with_default_dim(alpha, r) if dim is None
                 else GaussianProbeSpec(alpha, r, dim))
        phi_true = float(rng.uniform(-3.0, 3.0))
        spec = PhaseFamilySpec(probe, DiffusionParams(beta),
                               (phi_true - math.pi, phi_true + math.pi))
        for offset in (-math.pi / 2, *rng.uniform(-math.pi, math.pi, 3)):
            self.assert_matches_dense(spec, phi_true + float(rng.uniform(-1.0, 1.0)), offset)

    @pytest.mark.parametrize("dim", [2, 16, 40, 200])
    def test_heavy_tailed_complex_probes(self, rng, dim):
        probe = heavy_tailed_probe(rng, dim)
        assert dim * abs(probe.amplitudes[-1]) ** 2 > 1e-4  # the truncated term matters
        spec = PhaseFamilySpec(probe, DiffusionParams(float(rng.uniform(0.05, 0.5))),
                               (-math.pi, math.pi))
        for offset in rng.uniform(-math.pi, math.pi, 4):
            self.assert_matches_dense(spec, float(rng.uniform(-math.pi, math.pi)), float(offset))

    def test_large_coherent_probe(self):
        # 4 alpha^2 at beta = 0; the variance, about 1, is a difference of
        # second moments near 2 alpha^2 = 1800
        spec = PhaseFamilySpec(GaussianProbeSpec(30.0, 0.0, 2048), DiffusionParams(0.0),
                               (-math.pi, math.pi))
        assert _quadrature_reports(spec, 0.0)(-math.pi / 2).fisher == pytest.approx(
            3600.0, rel=1e-11)

    def test_checks(self):
        spec = fock_dephasing_spec(1.0, 0.0, 0.3)
        with pytest.raises(ContractViolationError, match="outside family domain"):
            _quadrature_reports(spec, 4.0)
        with pytest.raises(ContractViolationError, match="outside family domain"):
            _quadrature_reports(spec, math.nan)
        with pytest.raises(ContractViolationError, match="offset must be finite"):
            _quadrature_reports(spec, 0.0)(math.inf)
        one_level = PhaseFamilySpec(StateVector([1.0]), DiffusionParams(0.3), (-1.0, 1.0))
        with pytest.raises(InvalidDimensionError):
            _quadrature_reports(one_level, 0.0)


def mp_covariant_sld(spec, mp):
    """_covariant_sld's formula and cut in 40-digit arithmetic, from the same
    double amplitudes: (QFI, largest singular value of A)."""
    with mp.workdps(40):
        c = [mp.mpf(float(x)) for x in spec.probe_state().amplitudes.real]
        d = len(c)
        b2 = mp.mpf(spec.diffusion.beta) ** 2
        rho0 = mp.matrix(d, d)
        for n in range(d):
            for m in range(d):
                rho0[n, m] = c[n] * c[m] * mp.exp(-b2 * (n - m) ** 2)
        p, v = mp.eigsy(rho0)
        nv = mp.matrix(d, d)
        for n in range(d):
            for k in range(d):
                nv[n, k] = n * v[n, k]
        big_n = v.T * nv
        cut = SLD_EIG_CUT_REL * max(p)
        a = mp.matrix(d, d)
        for j in range(d):
            for k in range(d):
                if p[j] + p[k] > cut:
                    a[j, k] = 2 * (p[j] - p[k]) * big_n[j, k] / (p[j] + p[k])
        q = mp.fsum(p[j] * a[j, k] ** 2 for j in range(d) for k in range(d))
        top = max(mp.eigsy(a.T * a, eigvals_only=True))
        return float(q), float(mp.sqrt(top))


class TestCovariantSld:
    """The real route of qfi --family dephasing against the dense complex SLD
    solve at phase 0 and against the same formula in 40-digit arithmetic.

    Tolerances, fixed before the first run: the QFI, a sum of positive terms,
    to 1e-13 relative. The largest SLD eigenvalue hangs on rho0's near-null
    eigenvectors, so it is held to 1e-5 relative of the dense route, and to
    1e-10 (dim 16) and 1e-7 (dim 45) of the 40-digit value. Without
    diffusion the family is pure, and both are held to 1e-10 of the closed
    forms, which share no code with the route."""

    @pytest.mark.parametrize("alpha, r, beta, dim", [
        (1.0, 0.0, 0.3, None),   # dim 16, the case study
        (1.0, 0.5, 0.3, None),   # dim 45
        (2.0, 1.0, 0.3, None),   # dim 134, the large probe
        (10.0, 0.0, 0.3, None),  # dim 179
        (1.0, 1.5, 0.3, None),   # dim 281
        (1.0, 0.0, 0.3, 1024),
    ])
    def test_matches_dense_solve(self, alpha, r, beta, dim):
        spec = fock_dephasing_spec(alpha, r, beta, dim)
        got_qfi, got_max = dephasing_covariant_sld(spec)
        fam = dephasing_family(spec)
        # the QFI qfi(fam, 0.0) returns, and L in rho's eigenbasis, from one solve
        *_, l_eig, want_qfi = _solve_sld(fam.state_at(0.0), fam.derivative_at(0.0))
        evals = np.linalg.eigvalsh(l_eig)
        assert got_qfi == pytest.approx(want_qfi, rel=1e-13)
        assert got_max == pytest.approx(evals.max(), rel=1e-5)
        assert got_max == pytest.approx(-evals.min(), rel=1e-5)

    @pytest.mark.parametrize("alpha, r", [(1.0, 0.0), (2.0, 1.0), (0.5, 0.8)])
    def test_pure_limit(self, alpha, r):
        # beta = 0: rho0 = |psi><psi| and L = -2i[n, rho0], whose eigenvalues
        # are +-2 sqrt(Var n), so the QFI is 4 Var(n)
        spec = fock_dephasing_spec(alpha, r, 0.0)
        four_var = pure_unitary_qfi(number_operator(spec.dim), spec.probe_state())
        got_qfi, got_max = dephasing_covariant_sld(spec)
        assert got_qfi == pytest.approx(four_var, rel=1e-10)
        assert got_max == pytest.approx(math.sqrt(four_var), rel=1e-10)

    @pytest.mark.parametrize("r, max_rtol", [(0.0, 1e-10), (0.5, 1e-7)], ids=["dim16", "dim45"])
    def test_matches_40_digits(self, r, max_rtol):
        mp = pytest.importorskip("mpmath")
        spec = fock_dephasing_spec(1.0, r, 0.3)
        want_qfi, want_max = mp_covariant_sld(spec, mp)
        got_qfi, got_max = dephasing_covariant_sld(spec)
        assert got_qfi == pytest.approx(want_qfi, rel=1e-13)
        assert got_max == pytest.approx(want_max, rel=max_rtol)

    def test_support_truncation_warning_as_dense(self):
        # near-vacuum real probe: dropped pairs of its two tiny eigenvalues
        # carry |p_j - p_k| |N_jk| above SUPPORT_LEAK_RTOL of drho's scale
        c = np.array([1.0, 1e-7, 1e-7])
        spec = PhaseFamilySpec(StateVector(c / np.linalg.norm(c)), DiffusionParams(0.3),
                               (-math.pi, math.pi))
        with pytest.warns(SupportTruncationWarning):
            got_qfi, _ = dephasing_covariant_sld(spec)
        with pytest.warns(SupportTruncationWarning):
            want_qfi = qfi(dephasing_family(spec), 0.0)
        assert got_qfi == pytest.approx(want_qfi, rel=1e-13)

    def test_rejects_complex_probe(self):
        spec = PhaseFamilySpec(StateVector(np.array([1.0, 1.0j]) / math.sqrt(2.0)),
                               DiffusionParams(0.3), (-math.pi, math.pi))
        with pytest.raises(ContractViolationError, match="real probe amplitudes"):
            dephasing_covariant_sld(spec)


class TestCovariantSldPureOrbit:
    """The closed form of qfi --family pure, the QFI 4 Var(h) and the SLD
    spectrum +-sqrt(4 Var h), against the dense complex SLD solve on
    pure_unitary_family(h, psi) at two points of the orbit, and against
    4 Var(h) from the density matrix, for the number generator (the two sums
    of _number_moments) and for random real symmetric and complex Hermitian
    files (pure_unitary_qfi's one product h c).

    Tolerances, fixed before the first run: the QFI to 1e-13 relative of the
    dense solve and 1e-12 of the dense 4 Var(h). A pure state's SLD L = 2 drho
    has rank 2 and trace 0, so its spectrum is +-2 sqrt(Var h) and no
    near-null pair enters it: the largest eigenvalue is held to 1e-12
    relative of the dense max and of minus the dense min."""

    @staticmethod
    def generator(kind: str, psi: StateVector):
        """(4 Var(h) as qfi --family pure reads it, h as an Operator)."""
        if kind == "number":
            return 4.0 * _number_moments(psi.amplitudes)[1], number_operator(psi.dim)
        mat = random_hermitian(np.random.default_rng(psi.dim), psi.dim)
        if kind == "real":
            mat = mat.real.astype(complex)  # a real symmetric file, read as complex
        op = Operator(mat)
        return pure_unitary_qfi(op, psi), op

    @pytest.mark.parametrize("x", [0.0, 0.7])
    @pytest.mark.parametrize("kind", ["number", "real", "complex"])
    @pytest.mark.parametrize("alpha, r", [(1.3, 0.0), (1.0, 0.5), (1.0, 1.5)],
                             ids=["coherent:1.3", "gaussian:1:0.5", "gaussian:1:1.5"])
    def test_matches_dense_solve(self, alpha, r, kind, x):
        psi = gaussian_probe(GaussianProbeSpec.with_default_dim(alpha, r))
        got_qfi, op = self.generator(kind, psi)
        got_max = math.sqrt(got_qfi)
        fam = pure_unitary_family(op, psi)
        *_, l_eig, want_qfi = _solve_sld(fam.state_at(x), fam.derivative_at(x))
        evals = np.linalg.eigvalsh(l_eig)
        assert got_qfi == pytest.approx(want_qfi, rel=1e-13)
        assert got_max == pytest.approx(evals.max(), rel=1e-12)
        assert got_max == pytest.approx(-evals.min(), rel=1e-12)
        assert got_qfi == pytest.approx(4.0 * variance(psi.density_matrix(), op), rel=1e-12)


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
        # 2r overflows to inf, which math.exp and math.sinh take without raising
        assert math.isinf(analytic_fnsr(1e308, 1.0, 0.0))
        assert analytic_fnsr(-1e308, 1.0, 0.0) == 0.0
        assert analytic_fnsr(1e308, 1.0, 0.3) == 0.0

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

    def test_finite_and_nonnegative_up_to_overflow(self):
        # no cancellation to a negative value, an error or a spurious 0.0 on
        # the way to where (2N + 1) e^{2 beta^2} overflows
        for beta in np.geomspace(1e-300, 18.6, 300):
            assert 0.0 <= r_max(float(beta)) < math.inf
            for n in (0.0, 1e-6, 1.0, 1e6):
                assert 0.0 <= r_opt(n, float(beta)) < math.inf
        assert r_max(4.0) > 0.0  # about 8e-29
        assert r_opt(1.0, 5.0) > 0.0
        with pytest.raises(OverflowError):
            r_opt(1.0, 19.0)

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

    @pytest.mark.parametrize("fn, args, fragment", [
        (r_max, (-0.1,), "beta must be finite and >= 0"),
        (r_opt, (-1.0, 0.3), "N must be finite and >= 0"),
        (r_opt, (1.0, -0.3), "beta must be finite and >= 0"),
        (c_q, (-1.0, 0.3), "N must be finite and >= 0"),
        (no_squeeze_ratio_bound, (-1.0, 0.3), "N must be finite and >= 0"),
    ], ids=["r_max-beta", "r_opt-N", "r_opt-beta", "c_q-N", "no_squeeze-N"])
    def test_negative_inputs_rejected(self, fn, args, fragment):
        with pytest.raises(ContractViolationError, match=fragment):
            fn(*args)

    @pytest.mark.parametrize("fn, n, beta, expected", [
        (c_q, 1e308, 1.0, 0.5),  # 4 / (1/N + 8 beta^2)
        (c_q, 5e307, 0.1, 1.0 / (2.0 * 0.1**2)),
        (no_squeeze_ratio_bound, 1e308, 0.5, 0.5 / math.sinh(0.5)),  # 8 beta^2 / (4 sinh 2 beta^2)
    ], ids=["c_q-1e308", "c_q-5e307", "no_squeeze-1e308"])
    def test_finite_at_huge_n(self, fn, n, beta, expected):
        assert fn(n, beta) == pytest.approx(expected, rel=1e-15)

    @pytest.mark.parametrize("fn, args", [
        (r_opt, (1e308, 0.1)),
        (c_q, (1e308, 1e200)),
        (optimal_fnsr, (1e308, 0.1)),
        (no_squeeze_ratio_bound, (1e308, 1e200)),
        (r_max, (1e200,)),
    ], ids=["r_opt", "c_q", "optimal_fnsr", "no_squeeze", "r_max"])
    def test_numpy_scalars_behave_as_floats(self, fn, args):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(OverflowError):
                fn(*args)
            with pytest.raises(OverflowError):
                fn(*map(np.float64, args))
            regular = (2.0, 0.3)[:len(args)]
            assert fn(*map(np.float64, regular)) == fn(*regular)
            assert type(fn(*map(np.float64, regular))) is float

    def test_no_squeeze_bound_monotone(self):
        ns = np.geomspace(0.1, 1e6, 60)
        vals = [no_squeeze_ratio_bound(float(n), 0.63) for n in ns]
        assert all(b > a for a, b in zip(vals, vals[1:]))


class TestEnhancementScan:
    def test_beta_zero_column(self):
        scan = enhancement_scan([0.0], [0.5, 1.0, 3.0])
        for n, ratio in zip(scan.n, scan.ratio[0]):
            assert ratio == pytest.approx(n + 1, rel=1e-12)
            assert ratio >= 1.0

    def test_order_independence(self):
        grid_t = [0.1, 0.4]
        grid_n = [0.5, 2.0, 8.0]
        first, second = enhancement_scan(grid_t, grid_n), enhancement_scan(grid_t, grid_n)
        for field in ("two_beta_sq", "n", "ratio", "argmax"):
            assert np.array_equal(getattr(first, field), getattr(second, field))
        # cells are independent: the reversed grids give the reversed table
        flipped = enhancement_scan(grid_t[::-1], grid_n[::-1]).ratio[::-1, ::-1]
        assert flipped.tolist() == first.ratio.tolist()

    def test_region_flags(self):
        scan = enhancement_scan([0.05, 1.0], np.geomspace(0.05, 1e4, 60))
        assert scan.two_beta_sq.tolist() == [0.05, 1.0]
        enhanced = scan.ratio >= 1.0
        assert enhanced[0].any()
        assert not enhanced[1].any()

    def test_fields_are_read_only(self):
        grid_n = np.array([0.5, 2.0])
        scan = enhancement_scan([0.1], grid_n)
        for field in ("two_beta_sq", "n", "ratio", "argmax"):
            with pytest.raises(ValueError):
                getattr(scan, field)[0] = 0.0
        assert grid_n.flags.writeable  # the caller's grid is copied, not frozen

    def test_argmax_is_first_maximum(self):
        # equal N give equal ratios; the first of them is the row's maximum
        scan = enhancement_scan([0.1, 0.5], [3.0, 3.0, 3.0])
        assert scan.argmax.tolist() == [0, 0]
        scan = enhancement_scan([0.5], [1.0, 1e4, 1e4, 2.0])  # rising up to 1e4
        assert scan.argmax.tolist() == [1]

    def test_threshold_near_021(self):
        thr = enhancement_threshold()
        assert abs(thr - 0.21) <= 0.01

    def test_max_ratio_monotone_decreasing(self):
        tbs_grid = np.geomspace(0.02, 1.0, 25)
        vals = [max_enhancement_ratio(math.sqrt(t / 2))[0] for t in tbs_grid]
        assert all(b < a for a, b in zip(vals, vals[1:]))

    def test_max_ratio_is_one_search_over_a_unimodal_range(self):
        # max_enhancement_ratio searches the whole N range of the Fig. 2 grid
        # without a bracket, which holds only if the ratio is unimodal in log N
        n_dense = np.geomspace(0.05, 1e4, 3000)
        for tbs in np.geomspace(1e-4, 50.0, 60):
            beta = math.sqrt(tbs / 2.0)
            ratios = np.array([optimal_fnsr(float(n), beta) / c_q(float(n), beta)
                               for n in n_dense])
            slope = np.sign(np.diff(ratios))
            slope = slope[slope != 0]
            assert np.count_nonzero(slope[1:] != slope[:-1]) <= 1, tbs
            assert max_enhancement_ratio(beta)[0] >= ratios.max() * (1.0 - 1e-12), tbs

    @pytest.mark.parametrize("tbs, argmax, tol", [
        (0.5, 1e4, dict(rel=1e-9)),  # still rising at the upper end of the range
        (0.1, 1.5715, dict(abs=5e-4)),  # inside the range, near its lower end
    ], ids=["upper-end", "interior"])
    def test_max_ratio_argmax(self, tbs, argmax, tol):
        assert max_enhancement_ratio(math.sqrt(tbs / 2.0))[1] == pytest.approx(argmax, **tol)

    def test_rejects_bad_grids(self):
        with pytest.raises(ContractViolationError):
            enhancement_scan([-0.1], [1.0])
        with pytest.raises(ContractViolationError):
            enhancement_scan([0.1], [0.0])



def scalar_scan(grid_t, grid_n):
    """optimal_fnsr / c_q cell by cell, with beta built as the scalar route
    builds it, and each row's first maximum."""
    ratio = np.array([[optimal_fnsr(float(n), math.sqrt(float(t) / 2.0))
                       / c_q(float(n), math.sqrt(float(t) / 2.0)) for n in grid_n]
                      for t in grid_t])
    return ratio, np.argmax(ratio, axis=1)


class TestEnhancementScanParity:
    """enhancement_scan, the arrays of the scalar table, against the scalar
    closed forms cell by cell: equal to the bit."""

    @pytest.mark.parametrize("grid_t, grid_n", [
        (DEFAULT_TWO_BETA_SQ_GRID, DEFAULT_N_GRID),
        ([0.0, 0.2], DEFAULT_N_GRID),
        ([1e-320], DEFAULT_N_GRID),
        ([0.1, 1.0], [1e-300, 1e-10, 1.0]),
        ([1e-20], [1e307]),
        ([700.0], np.geomspace(0.05, 80.0, 50)),
    ], ids=["default", "beta-zero", "two-beta-sq-subnormal", "N-tiny", "N-1e307",
            "two-beta-sq-700"])
    def test_cells_match_scalar_route(self, grid_t, grid_n):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            scan = enhancement_scan(grid_t, grid_n)
        ratio, argmax = scalar_scan(grid_t, grid_n)
        assert scan.ratio.shape == ratio.shape
        assert scan.ratio.tolist() == ratio.tolist()
        assert np.array_equal(scan.argmax, argmax)

    @pytest.mark.parametrize("grid_t, grid_n", [
        ([1e-20], [1.0, 5e307]),
        ([0.1, 0.2], np.geomspace(1e308, 1.7e308, 3)),
        ([1e300], [1.0]),
    ], ids=["4-alpha-sq-overflow", "fig2-N-huge", "fig2-two-beta-sq-huge"])
    def test_failing_cell_raises_as_scalar_route(self, grid_t, grid_n):
        with pytest.raises(Exception) as scalar_error:
            scalar_scan(grid_t, grid_n)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(Exception) as grid_error:
                enhancement_scan(grid_t, grid_n)
        assert type(grid_error.value) is type(scalar_error.value) is OverflowError
        assert str(grid_error.value) == str(scalar_error.value)

    @pytest.mark.parametrize("route", ["both-routes"])
    def test_sinh_sq_above_n_is_rejected(self, monkeypatch, route):
        # an r_opt that leaves no excitation for alpha: the table and the
        # point route share the one per-cell form, and both reject it
        form = scalar._r_opt_form

        def drifted(n_mean, w, root):
            return form(n_mean, w, root) + 1.0

        monkeypatch.setattr(scalar, "_r_opt_form", drifted)
        with pytest.raises(NumericalConsistencyError, match="sinh"):
            enhancement_scan([0.1], [1.0, 2.0])

    def test_cell_the_replay_accepts_still_fails(self, monkeypatch):
        # a failing cell whose replay returns raises rather than entering the table
        monkeypatch.setattr(scalar, "_r_opt_form", lambda n_mean, w, root: 50.0)
        monkeypatch.setattr(scalar, "_enhancement_ratio", lambda n_mean, beta: 1.0)
        with pytest.raises(NumericalConsistencyError, match="N=2.0 fails on the table"):
            enhancement_scan([0.1], [2.0, 3.0])


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

    def test_explicit_probe_dim_respected(self):
        spec = PhaseFamilySpec(GaussianProbeSpec(1.0, 0.0, 32), DiffusionParams(0.1),
                               (-1.0, 1.0))
        assert spec.dim == 32
        assert dephasing_family(spec).dim == 32

    def test_domain_width_capped(self):
        with pytest.raises(ContractViolationError):
            PhaseFamilySpec(fock_state(2, 0), DiffusionParams(0.1), (0.0, 10.0))

    @pytest.mark.parametrize("center", [0.0, 1e6, 2.0**20, 2.0**38, 1e16])
    def test_domain_width_allows_rounded_ends(self, center):
        # phi +- pi rounds each end by up to its spacing of doubles: a period
        # centered anywhere is accepted, a domain wider than that is not
        lo, hi = center - math.pi, center + math.pi
        PhaseFamilySpec(fock_state(2, 0), DiffusionParams(0.1), (lo, hi))
        slack = math.ulp(lo) + math.ulp(hi)
        with pytest.raises(ContractViolationError, match="wider than one phase period"):
            PhaseFamilySpec(fock_state(2, 0), DiffusionParams(0.1), (lo - 2 * slack - 2e-12, hi))
