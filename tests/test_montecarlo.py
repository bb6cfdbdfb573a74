import math
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

import nsrkit
from nsrkit import (
    CalibrationCurve,
    ContractViolationError,
    DensityMatrix,
    DiffusionParams,
    EstimatorDivergenceError,
    GaussianProbeSpec,
    MeasurementModel,
    NonInvertibleCurveError,
    NumericalConsistencyError,
    Operator,
    PhaseFamilySpec,
    StateVector,
    adaptive_calibrate,
    analytic_fnsr,
    assess_observable,
    build_curve,
    dephasing_family,
    expectation,
    fock_state,
    gaussian_probe,
    invert_mean,
    mean_inversion_condition,
    optimal_calibration,
    quadrature,
    number_operator,
    run_trials,
)
from nsrkit.montecarlo import CHUNK, _GuideTable

from conftest import SIGMA_Z, plus_state
from oracles import random_density_mat, random_hermitian


def case_study_spec(phi_true=0.7, alpha=1.0, r=0.0, beta=0.3, offset=0.0):
    return PhaseFamilySpec(
        probe=GaussianProbeSpec.with_default_dim(alpha, r),
        diffusion=DiffusionParams(beta),
        phi_domain=(phi_true - math.pi + offset, phi_true + math.pi + offset),
    )


class TestMeasurementModel:
    def test_probabilities_sum_and_match(self, rng):
        m = quadrature(0.3, 6)
        model = MeasurementModel.from_observable(m)
        rho = DensityMatrix.from_matrix(random_density_mat(rng, 6))
        p = model.probabilities(rho)
        assert p.sum() == pytest.approx(1.0, abs=1e-12)
        assert p.min() >= 0.0

    def test_probabilities_are_eigenbasis_diagonal(self, rng):
        m = Operator(random_hermitian(rng, 7))
        model = MeasurementModel.from_observable(m)
        rho = DensityMatrix.from_matrix(random_density_mat(rng, 7))
        vecs = model.eigenvectors
        expected = np.diag(vecs.conj().T @ rho.matrix @ vecs).real
        np.testing.assert_allclose(model.probabilities(rho), expected, rtol=0, atol=1e-15)

    def test_requires_hermitian(self):
        # a non-hermitian matrix is rejected before it can become an observable
        with pytest.raises(ContractViolationError):
            MeasurementModel.from_observable(Operator(np.array([[0, 1], [0, 0]], dtype=complex)))

    def test_negative_probability_rejected(self):
        # a state that passes the PSD tolerance can still expose a Born
        # probability below the clamp threshold
        eps = 5e-11
        rho = DensityMatrix.from_matrix(np.diag([1.0 + eps, -eps]))
        model = MeasurementModel.from_observable(Operator(SIGMA_Z))
        with pytest.raises(NumericalConsistencyError):
            model.probabilities(rho)

    def test_born_frequencies(self):
        spec = case_study_spec()
        fam = dephasing_family(spec)
        rho = fam.state_at(0.7)
        m = quadrature(optimal_calibration(0.7), spec.dim)
        p = MeasurementModel.from_observable(m).probabilities(rho)
        nu = 100000
        _, counts = born_counts(rho, m, nu, 5)
        for k in range(p.size):
            if p[k] >= 0.01:
                assert abs(counts[k] / nu - p[k]) <= 5.0 / math.sqrt(nu)


def born_counts(rho, m, nu, seed):
    """The eigenvalues of m and how often each comes up in nu Born draws on rho."""
    model = MeasurementModel.from_observable(m)
    table = _GuideTable(model.probabilities(rho), nu)
    return model.eigenvalues, table.counts(np.random.default_rng(seed))


class TestSampleOutcomes:
    """Born outcomes as the guide table counts them."""

    def test_vacuum_number_all_zero(self):
        values, counts = born_counts(fock_state(6, 0).density_matrix(), number_operator(6), 100, 3)
        assert counts.sum() == 100
        assert counts[values != 0.0].sum() == 0

    def test_plus_state_sigma_z(self):
        nu = 100000
        values, counts = born_counts(plus_state().density_matrix(), Operator(SIGMA_Z), nu, 11)
        assert abs(counts @ values / nu) <= 4.0 / math.sqrt(nu)

    def test_deterministic(self):
        rho = plus_state().density_matrix()
        _, a = born_counts(rho, Operator(SIGMA_Z), 1000, 42)
        _, b = born_counts(rho, Operator(SIGMA_Z), 1000, 42)
        np.testing.assert_array_equal(a, b)

    def test_rotated_coherent_mean(self):
        spec = case_study_spec(beta=0.0)
        fam = dephasing_family(spec)
        rho = fam.state_at(0.7)
        m = quadrature(optimal_calibration(0.7), spec.dim)
        nu = 100000
        values, counts = born_counts(rho, m, nu, 9)
        mean = counts @ values / nu
        sigma = math.sqrt((counts @ values**2 / nu - mean**2) / nu)
        assert abs(mean - expectation(rho, m)) <= 4 * sigma


def choice_cdf(p):
    """The CDF as Generator.choice builds it."""
    cdf = np.cumsum(p)
    return cdf / cdf[-1]


def spread_probabilities(dim):
    """A distribution spread over many decades, with many near-equal CDF nodes."""
    p = np.random.default_rng(dim).random(dim) ** 12
    return p / p.sum()


def born_probabilities(alpha, r):
    """Born distribution of the calibrated quadrature on the probe D(alpha)S(r)|0>."""
    spec = case_study_spec(alpha=alpha, r=r)
    m = quadrature(optimal_calibration(0.7), spec.dim)
    return MeasurementModel.from_observable(m).probabilities(dephasing_family(spec).state_at(0.7))


def choice_counts(p, nu, seed):
    """The histogram of Generator.choice's draws for the seed."""
    draws = np.random.default_rng(seed).choice(p.size, size=nu, p=p)
    return np.bincount(draws, minlength=p.size)


class FixedUniforms:
    """Stands in for a Generator whose uniforms are given."""

    def __init__(self, values):
        self._values = np.asarray(values)

    def random(self, out):
        out[:] = self._values[:out.size]
        self._values = self._values[out.size:]


# One draw, a chunk boundary from both sides, and the benchmark's sample count.
SAMPLE_COUNTS = [1, CHUNK - 1, CHUNK, CHUNK + 1, 100000]


class TestGuideTableSampler:
    """counts() is the exact histogram of the indices choice(p=p) draws."""

    @pytest.mark.parametrize("make_p", [
        lambda: spread_probabilities(2),
        lambda: spread_probabilities(3),
        lambda: spread_probabilities(16),
        lambda: spread_probabilities(116),
        lambda: spread_probabilities(300),
        lambda: born_probabilities(1.0, 0.0),
        lambda: born_probabilities(2.0, 1.0),
    ], ids=["spread-2", "spread-3", "spread-16", "spread-116", "spread-300",
            "case-study-16", "large-probe-116"])
    def test_indices_match_searchsorted_and_choice(self, make_p):
        p = make_p()
        cdf = choice_cdf(p)
        for nu in SAMPLE_COUNTS:
            table = _GuideTable(p, nu)
            for seed in range(6):
                counts = table.counts(np.random.default_rng(seed))
                assert counts.dtype == np.int64
                u = np.random.default_rng(seed).random(nu)
                np.testing.assert_array_equal(
                    counts, np.bincount(cdf.searchsorted(u, side="right"), minlength=p.size))
                np.testing.assert_array_equal(counts, choice_counts(p, nu, seed))

    @pytest.mark.parametrize("p", [
        [0.0, 0.3, 0.0, 0.0, 0.7, 0.0],
        [0.25, 0.25, 0.5],
    ], ids=["zero-entries", "nodes-on-bucket-edges"])
    def test_edge_distributions(self, p):
        p = np.array(p)
        for nu in SAMPLE_COUNTS:
            table = _GuideTable(p, nu)
            for seed in range(6):
                counts = table.counts(np.random.default_rng(seed))
                np.testing.assert_array_equal(counts, choice_counts(p, nu, seed))
                assert counts[p == 0.0].sum() == 0

    @pytest.mark.parametrize("p", [[0.3, 0.7], [0.25, 0.25, 0.5]],
                             ids=["node-inside-bucket", "nodes-on-bucket-edges"])
    def test_uniform_on_a_node(self, p):
        # u equal to a CDF node takes the next index (side="right"), as in choice
        p = np.array(p)
        cdf = choice_cdf(p)
        nodes = cdf[:-1]
        u = np.concatenate([nodes, np.nextafter(nodes, 0.0), np.nextafter(nodes, 1.0), [0.0]])
        table = _GuideTable(p, u.size)
        counts = table.counts(FixedUniforms(u))
        np.testing.assert_array_equal(
            counts, np.bincount(cdf.searchsorted(u, side="right"), minlength=p.size))

    def test_run_trials_memory_does_not_grow_with_nu(self):
        # holding the 2e6 draws of one repeat would take 16 MB or more
        spec = case_study_spec()
        run_trials(spec, 0.7, nu=1000, repeats=2, seed=0)  # warm caches and imports
        tracemalloc.start()
        try:
            run_trials(spec, 0.7, nu=2_000_000, repeats=2, seed=0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20

    def test_born_counts_match_choice(self):
        # eigh sorts the eigenvalues, so repeating each by its count gives the
        # sorted outcomes that choice draws from the eigenvalues
        spec = case_study_spec()
        rho = dephasing_family(spec).state_at(0.7)
        m = quadrature(optimal_calibration(0.7), spec.dim)
        p = MeasurementModel.from_observable(m).probabilities(rho)
        for seed in range(5):
            values, counts = born_counts(rho, m, 10000, seed)
            np.testing.assert_array_equal(
                np.repeat(values, counts),
                np.sort(np.random.default_rng(seed).choice(values, size=10000, p=p)))


def case_study_curve():
    spec = case_study_spec()
    phi_exp = optimal_calibration(0.7)
    return build_curve(dephasing_family(spec), quadrature(phi_exp, spec.dim), phi_exp)


class TestBuildCurve:
    def test_cosine_mean_closed_form(self):
        alpha, beta = 1.0, 0.3
        spec = case_study_spec(alpha=alpha, beta=beta)
        phi_exp = optimal_calibration(0.7)
        curve = build_curve(dephasing_family(spec), quadrature(phi_exp, spec.dim), phi_exp)
        amplitude = 2 * alpha * math.exp(-beta**2)
        np.testing.assert_allclose(curve.means, [amplitude, -amplitude], atol=1e-7)
        np.testing.assert_allclose(curve.xs, [phi_exp, phi_exp + math.pi], atol=1e-12)
        np.testing.assert_allclose(curve.window, [phi_exp, phi_exp + math.pi], atol=1e-12)

    def test_beta_zero_amplitude(self):
        spec = case_study_spec(beta=0.0)
        phi_exp = optimal_calibration(0.7)
        curve = build_curve(dephasing_family(spec), quadrature(phi_exp, spec.dim), phi_exp)
        assert curve.means[0] == pytest.approx(2.0, abs=1e-7)

    def test_constant_mean_not_invertible(self):
        # the number operator's mean is constant, not a cosine through its two means
        spec = case_study_spec()
        with pytest.raises(NonInvertibleCurveError):
            build_curve(dephasing_family(spec), number_operator(spec.dim), 0.7 - math.pi / 2)

    def test_flat_quadrature_not_invertible(self):
        # alpha = 0: every quadrature mean of a squeezed vacuum is zero
        spec = case_study_spec(alpha=0.0, r=0.5)
        phi_exp = optimal_calibration(0.7)
        with pytest.raises(NonInvertibleCurveError):
            build_curve(dephasing_family(spec), quadrature(phi_exp, spec.dim), phi_exp)

    def test_grid_must_stay_in_domain(self):
        spec = case_study_spec()
        fam = dephasing_family(spec)
        start = 0.7 + 2.0  # [start, start + pi] spills past the domain edge
        curve = build_curve(fam, quadrature(0.0, spec.dim), start)
        lo, hi = curve.window
        assert fam.domain[0] <= lo < hi == fam.domain[1]
        assert curve.xs[0] <= lo and hi <= curve.xs[1]

    def test_window_straddles_peak(self):
        # [start, start + pi] centered before the mean's maximum at phi_exp:
        # the window is the monotone side after the peak
        spec = case_study_spec()
        phi_exp = optimal_calibration(0.7)
        start = phi_exp - 1.0
        curve = build_curve(dephasing_family(spec), quadrature(phi_exp, spec.dim), start)
        assert curve.window == pytest.approx((phi_exp, start + math.pi), abs=1e-12)

    def test_complex_amplitude_window_trimmed(self):
        # coherent probe of amplitude e^{i theta}: its mean curve is shifted by theta
        theta = 0.4
        psi = gaussian_probe(GaussianProbeSpec.with_default_dim(1.0, 0.0))
        rotated = StateVector(psi.amplitudes * np.exp(1j * theta * np.arange(psi.dim)))
        spec = PhaseFamilySpec(rotated, DiffusionParams(0.3), (0.7 - math.pi, 0.7 + math.pi))
        fam = dephasing_family(spec)
        phi_exp = optimal_calibration(0.7)
        m = quadrature(phi_exp, spec.dim)
        curve = build_curve(fam, m, phi_exp)
        # the mean peaks at phi_exp + theta, so the window loses [phi_exp, phi_exp + theta)
        assert curve.window == pytest.approx((phi_exp + theta, phi_exp + math.pi), abs=1e-12)
        lo, hi = curve.window
        for x in np.linspace(lo + 0.1, hi - 0.1, 17):  # away from the flat peak at lo
            true_mean = expectation(fam.state_at(float(x)), m)
            estimate, clamped = invert_mean(curve, true_mean)
            assert estimate == pytest.approx(float(x), abs=1e-12)
            assert not clamped


def cosine_curve():
    """<m>_x = 2 cos x on the window [0.5, 2.5] of the half period [0, pi]."""
    return CalibrationCurve(xs=np.array([0.0, math.pi]), means=np.array([2.0, -2.0]),
                            window=(0.5, 2.5))


class TestInvertMean:
    def test_node_inversion(self):
        curve = cosine_curve()
        for x in (0.6, 1.2, 2.4):
            estimate, clamped = invert_mean(curve, 2 * math.cos(x))
            assert estimate == pytest.approx(x, abs=1e-15)
            assert clamped is False

    def test_linear_midpoint(self):
        # the zero crossing of the cosine, where it is closest to linear
        estimate, _ = invert_mean(cosine_curve(), 0.0)
        assert estimate == pytest.approx(math.pi / 2, abs=1e-15)

    def test_self_consistency_on_window(self):
        spec = case_study_spec()
        fam = dephasing_family(spec)
        phi_exp = optimal_calibration(0.7)
        m = quadrature(phi_exp, spec.dim)
        curve = build_curve(fam, m, phi_exp)
        for x in np.linspace(phi_exp + 0.1, phi_exp + math.pi - 0.1, 17):
            true_mean = expectation(fam.state_at(float(x)), m)
            estimate, clamped = invert_mean(curve, true_mean)
            assert estimate == pytest.approx(float(x), abs=1e-12)
            assert not clamped

    def test_out_of_range_clamps_with_flag(self):
        curve = case_study_curve()
        amplitude = curve.means[0]
        assert invert_mean(curve, 1.5 * amplitude) == (curve.window[0], True)
        assert invert_mean(curve, -1.5 * amplitude) == (curve.window[1], True)

    def test_outside_window_clamps_with_flag(self):
        # means within the amplitude whose arccos falls outside the window
        curve = cosine_curve()
        assert invert_mean(curve, 1.9) == (0.5, True)
        assert invert_mean(curve, -1.9) == (2.5, True)

    def test_nan_mean_rejected(self):
        with pytest.raises(ContractViolationError):
            invert_mean(cosine_curve(), math.nan)


def test_import_does_not_load_scipy():
    code = ("import sys, nsrkit, nsrkit.cli; "
            "print([m for m in sys.modules if m.split('.')[0] == 'scipy'])")
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(nsrkit.__file__)))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "[]"


class TestRunTrials:
    def test_deterministic_reports(self):
        spec = case_study_spec()
        a = run_trials(spec, 0.7, nu=2000, repeats=8, seed=123)
        b = run_trials(spec, 0.7, nu=2000, repeats=8, seed=123)
        np.testing.assert_array_equal(a.estimates, b.estimates)
        np.testing.assert_array_equal(a.clamped, b.clamped)
        assert (a.empirical_variance, a.predicted_variance, a.small_dm) == (
            b.empirical_variance, b.predicted_variance, b.small_dm)

    def test_predicted_variance_definition(self):
        spec = case_study_spec()
        run = run_trials(spec, 0.7, nu=5000, repeats=5, seed=1)
        fam = dephasing_family(spec)
        m = quadrature(optimal_calibration(0.7), spec.dim)
        nsr = assess_observable(fam, 0.7, m).nsr
        assert run.predicted_variance == nsr**2 / 5000
        assert run.estimates.shape == run.clamped.shape == (5,)

    def test_variance_tracks_prediction(self):
        spec = case_study_spec()
        run = run_trials(spec, 0.7, nu=20000, repeats=150, seed=2)
        ratio = run.empirical_variance / run.predicted_variance
        assert 0.75 <= ratio <= 1.3

    def test_variance_halves_when_nu_doubles(self):
        spec = case_study_spec()
        v1 = run_trials(spec, 0.7, nu=20000, repeats=150, seed=11).empirical_variance
        v2 = run_trials(spec, 0.7, nu=40000, repeats=150, seed=12).empirical_variance
        assert 0.3 <= v2 / v1 <= 0.8

    # -3.0 and 5.0 lie outside (-pi/2, 3pi/2], where the wrapped optimal
    # calibration is a 2pi image away from phi_true.
    @pytest.mark.parametrize("phi_true", [0.7, -3.0, -math.pi / 2, 5.0],
                             ids=["0.7", "-3.0", "-half-pi", "5.0"])
    def test_estimator_unbiased_within_noise(self, phi_true):
        spec = case_study_spec(phi_true=phi_true)
        run = run_trials(spec, phi_true, nu=50000, repeats=100, seed=4)
        var = run.empirical_variance
        assert abs(run.estimates.mean() - phi_true) <= 3 * math.sqrt(var / 100) + 1e-4
        assert not run.clamped.any()

    def test_phi_true_outside_domain(self):
        spec = case_study_spec()
        with pytest.raises(ContractViolationError):
            run_trials(spec, 0.7 + 4.0, nu=100, repeats=3, seed=0)

    def test_small_dm_condition_reported(self):
        spec = case_study_spec()
        fam = dephasing_family(spec)
        m = quadrature(optimal_calibration(0.7), spec.dim)
        rep = assess_observable(fam, 0.7, m)
        delta_m, threshold, ok = mean_inversion_condition(rep, 10000)
        assert delta_m == pytest.approx(math.sqrt(rep.variance / 10000), rel=1e-12)
        assert ok  # optimal calibration sits at the inflection of the mean curve

    def test_small_dm_threshold_inf_at_optimum(self):
        # the mean there is a roundoff zero, not a curvature to report
        spec = case_study_spec()
        rep = assess_observable(dephasing_family(spec), 0.7,
                                quadrature(optimal_calibration(0.7), spec.dim))
        _, threshold, ok = mean_inversion_condition(rep, 100000)
        assert threshold == math.inf
        assert ok

    def test_small_dm_threshold_off_optimum(self):
        spec = case_study_spec()
        rep = assess_observable(dephasing_family(spec), 0.7,
                                quadrature(optimal_calibration(0.7) + 0.3, spec.dim))
        _, threshold, _ = mean_inversion_condition(rep, 100000)
        assert threshold == 2.0 * rep.slope**2 / abs(rep.mean)
        assert math.isfinite(threshold)


class TestAdaptiveCalibrate:
    def optimal_fisher(self, spec, phi_true):
        fam = dephasing_family(spec)
        m = quadrature(optimal_calibration(phi_true), spec.dim)
        return assess_observable(fam, phi_true, m).fisher

    def test_fixed_point_at_optimum(self):
        phi_true = 0.7
        spec = case_study_spec(phi_true=phi_true)  # domain midpoint == phi_true
        ests, clamped = adaptive_calibrate(spec, phi_true, batch=20000, rounds=4, seed=3)
        fisher = analytic_fnsr(0.0, 1.0, 0.3)
        sigma = 1.0 / math.sqrt(20000 * fisher)
        assert all(abs(e - phi_true) <= 5 * sigma for e in ests)
        assert not clamped.any()

    def test_offset_start_improves_fisher(self):
        # start the calibration 0.3 rad off and watch the fisher recover,
        # averaged over 20 independent seeds
        phi_true = 0.7
        spec = case_study_spec(phi_true=phi_true, offset=0.3)
        fam = dephasing_family(spec)
        initial_phi_exp = phi_true + 0.3 - math.pi / 2
        f_initial = assess_observable(fam, phi_true,
                                      quadrature(initial_phi_exp, spec.dim)).fisher
        rounds = 4
        per_round = np.zeros(rounds + 1)
        per_round[0] = f_initial
        for seed in range(20):
            ests, _ = adaptive_calibrate(spec, phi_true, batch=2000, rounds=rounds,
                                         seed=seed)
            for k, est in enumerate(ests):
                m = quadrature(est - math.pi / 2, spec.dim)
                per_round[k + 1] += assess_observable(fam, phi_true, m).fisher / 20
        f_opt = self.optimal_fisher(spec, phi_true)
        assert f_initial < 0.995 * f_opt
        for a, b in zip(per_round, per_round[1:]):
            assert b >= a - 0.01 * f_opt  # monotone up to statistical noise
        assert per_round[-1] >= 0.98 * f_opt

    def test_zero_sensibility_start_flagged_or_recovers(self):
        # the initial angle sits at the flat top of the mean curve; either the
        # run aborts with a flagged divergence or it recovers the optimum
        phi_true = 0.7
        spec = case_study_spec(phi_true=phi_true, offset=math.pi / 2)
        f_opt = self.optimal_fisher(spec, phi_true)
        fam = dephasing_family(spec)
        for seed in range(3):
            try:
                ests, _ = adaptive_calibrate(spec, phi_true, batch=2000, rounds=6, seed=seed)
            except EstimatorDivergenceError as exc:
                assert exc.round_index is not None
                continue
            m = quadrature(ests[-1] - math.pi / 2, spec.dim)
            assert assess_observable(fam, phi_true, m).fisher >= 0.95 * f_opt

    def test_clamp_flags_returned(self):
        # one draw per round: round 1's mean lies beyond the curve's amplitude
        spec = case_study_spec(phi_true=0.0)
        ests, clamped = adaptive_calibrate(spec, 0.0, batch=1, rounds=2, seed=2)
        assert clamped.tolist() == [False, True]
        assert ests.shape == (2,)
        assert not ests.flags.writeable and not clamped.flags.writeable

    def test_divergence_guard(self):
        spec = case_study_spec()
        spec = PhaseFamilySpec(spec.probe, spec.diffusion, (0.0, 1.0))
        with pytest.raises(EstimatorDivergenceError):
            build_curve(dephasing_family(spec), quadrature(5.0, spec.dim), 5.0)
