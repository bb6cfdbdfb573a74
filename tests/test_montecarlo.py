import math
import os
import statistics
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
from nsrkit import montecarlo, operators
from nsrkit.montecarlo import CHUNK, GUIDE_BUCKETS, SHIFT, _GuideTable
from nsrkit.scalar import _quadrature_reports

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

    @pytest.mark.parametrize("alpha, r", [(1.0, 0.0), (1.0, 0.8), (2.0, 1.0), (1.0, 1.5)],
                             ids=["dim-16", "dim-78", "dim-134", "dim-281"])
    def test_x0_real_route_matches_complex_route(self, alpha, r, monkeypatch):
        # the distributions mc's measurement step hands its sampler, from X_0's
        # real eigenbasis and Re rho(x) of the probe, against the complex model
        # on the dense family; a step calibrated for phase reads X_0 at
        # x = pi/2 + (0.7 - phase). On the rotated probe's complex amplitudes
        # Re rho(x) is not even in x.
        tables = []
        monkeypatch.setattr(montecarlo, "_GuideTable", lambda p, nu: tables.append(p))
        spec = case_study_spec(alpha=alpha, r=r)
        c = spec.probe_state().amplitudes
        rotated = PhaseFamilySpec(StateVector(c * np.exp(-0.4j * np.arange(c.size))), spec.diffusion,
                                  spec.phi_domain)
        model = MeasurementModel.from_observable(quadrature(0.0, spec.dim))
        for probe_spec in (spec, rotated):
            _, _, measurement = montecarlo._prepare(probe_spec, 0.7, 100)
            fam = dephasing_family(probe_spec)
            for x in (0.0, 0.7, math.pi / 2, 2.5):
                measurement(0.7 + (math.pi / 2 - x))
                np.testing.assert_allclose(tables[-1], model.probabilities(fam.state_at(x)),
                                           rtol=0, atol=1e-14)

    def test_complex_quadrature_keeps_complex_eigenbasis(self):
        model = MeasurementModel.from_observable(quadrature(0.3, 16))
        assert np.iscomplexobj(model.eigenvectors)

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


class FixedWords:
    """Stands in for a Generator whose bit generator's 64-bit words are given."""

    def __init__(self, words):
        self._words = np.asarray(words, dtype=np.uint64)
        self.bit_generator = self

    def random_raw(self, n):
        words, self._words = self._words[:n], self._words[n:]
        return words


# One draw, a chunk boundary from both sides, and the benchmark's sample count.
SAMPLE_COUNTS = [1, CHUNK - 1, CHUNK, CHUNK + 1, 100000]


@pytest.mark.parametrize("n", [1, CHUNK - 1, CHUNK, CHUNK + 1])
def test_words_give_the_uniforms_of_default_rng(n):
    # the sampler reads PCG64's words in place of Generator.random's uniforms:
    # u = (w >> 11) 2^-53 bit for bit, so the bucket floor(u * GUIDE_BUCKETS)
    # is w >> SHIFT; seeds are built as run_trials builds them
    for seed in (0, 12345):
        for k in (0, 1, 999):
            u = np.random.default_rng([seed, k]).random(n)
            words = np.random.default_rng([seed, k]).bit_generator.random_raw(n)
            np.testing.assert_array_equal(
                u.view(np.uint64), ((words >> 11) * 2.0**-53).view(np.uint64))
            np.testing.assert_array_equal(
                words >> SHIFT, np.floor(u * GUIDE_BUCKETS).astype(np.uint64))


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
        # u equal to a CDF node takes the next index (side="right"), as in choice.
        # The generator makes only u = k 2^-53, from any word k 2^11 + low with
        # low < 2^11: the node 0.3 is no such u and drops out, its two
        # neighbours stay. The words 0 and 2^64 - 1 are the two ends.
        p = np.array(p)
        cdf = choice_cdf(p)
        nodes = cdf[:-1]
        u = np.concatenate([nodes, np.nextafter(nodes, 0.0), np.nextafter(nodes, 1.0)])
        k = (u * 2.0**53)[u * 2.0**53 == np.floor(u * 2.0**53)].astype(np.uint64)
        words = np.concatenate([k << 11, (k << 11) | (2**11 - 1),
                                np.array([0, 2**64 - 1], dtype=np.uint64)])
        table = _GuideTable(p, words.size)
        counts = table.counts(FixedWords(words))
        u = (words >> 11) * 2.0**-53
        np.testing.assert_array_equal(
            counts, np.bincount(cdf.searchsorted(u, side="right"), minlength=p.size))

    def test_buffer_counted_several_times_per_repeat(self):
        # with a node in about size of the 4096 buckets, a step holds about
        # size / 4096 of CHUNK node words: at size 400 the CHUNK // 8-word
        # buffer fills every step or two and is counted several times within
        # one repeat; at 3000 no full step's node words fit in it, so each such
        # step is counted at once
        nu = 6 * CHUNK + 123
        for size, direct in ((400, 0), (3000, 6)):
            p = np.random.default_rng(size).random(size) + 0.5
            p /= p.sum()
            cdf = choice_cdf(p)
            table = _GuideTable(p, nu)
            flushes = []
            below = table._below
            table._below = lambda held: flushes.append(held.size) or below(held)
            for seed in range(3):
                flushes.clear()
                counts = table.counts(np.random.default_rng(seed))
                assert len(flushes) >= 3 and max(flushes) <= CHUNK
                assert sum(f > CHUNK // 8 for f in flushes) == direct, flushes
                u = np.random.default_rng(seed).random(nu)
                np.testing.assert_array_equal(
                    counts, np.bincount(cdf.searchsorted(u, side="right"), minlength=p.size))
                np.testing.assert_array_equal(counts, choice_counts(p, nu, seed))

    @pytest.mark.parametrize("alpha, r", [(1.0, 0.0), (2.0, 1.0)], ids=["case-study", "large-probe"])
    def test_step_size_changes_no_draw(self, monkeypatch, alpha, r):
        # at the benchmark's two probes the estimates are the same at any CHUNK
        spec = case_study_spec(alpha=alpha, r=r)
        trials, adaptive = [], []
        for chunk in (2**10, 2**14, 2**15):
            monkeypatch.setattr(montecarlo, "CHUNK", chunk)
            trials.append(run_trials(spec, 0.7, nu=100000, repeats=3, seed=5).estimates)
            adaptive.append(adaptive_calibrate(spec, 0.7, batch=100000, rounds=2, seed=5)[0])
        for estimates in (trials, adaptive):
            for other in estimates[1:]:
                np.testing.assert_array_equal(other, estimates[0])

    def test_words_at_the_edges(self):
        # u = (w >> 11) 2^-53 >= cdf_k exactly when w >= ceil(cdf_k 2^53) << 11.
        # Words one below, at and one above each edge: cdf_0 = 0.0 (a leading
        # zero), nodes off the grid of u, and cdf_k == 1.0 before the end
        # (trailing zeros), whose edge 2^64 no word reaches. Every word falls
        # in a bucket that holds a node, so none is counted by its bucket.
        p = np.array([0.0, 1e-5, 0.3, 0.7 - 2e-5, 1e-5, 0.0, 0.0])
        cdf = choice_cdf(p)
        assert cdf[0] == 0.0 and cdf[-3] == 1.0
        edges = [math.ceil(c * 2**53) << 11 for c in cdf]
        words = np.array([w for edge in edges for w in (edge - 1, edge, edge + 1)
                          if 0 <= w < 2**64], dtype=np.uint64)
        table = _GuideTable(p, words.size)
        assert table._holds_node[(words >> SHIFT).astype(np.intp)].all()
        counts = table.counts(FixedWords(words))
        u = (words >> 11) * 2.0**-53
        np.testing.assert_array_equal(
            counts, np.bincount(cdf.searchsorted(u, side="right"), minlength=p.size))
        assert counts[p == 0.0].sum() == 0

    def test_run_trials_memory_does_not_grow_with_nu(self):
        # holding the 2e6 draws of one repeat would take 16 MB or more; from
        # 2e5 draws on, every buffer is at its full size
        spec = case_study_spec()
        run_trials(spec, 0.7, nu=1000, repeats=2, seed=0)  # warm caches and imports
        peaks = []
        for nu in (200_000, 2_000_000):
            tracemalloc.start()
            try:
                run_trials(spec, 0.7, nu=nu, repeats=2, seed=0)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] < 2 * 2**20
        assert peaks[1] - peaks[0] <= 64 * 2**10, peaks
        # At dim 134 the probe and X_0's eigenbasis alone peak near 2.3 MB,
        # whatever nu, so one measurement step is traced on its own: about
        # 1.45% of draws are node words, and holding those of 2e7 draws would
        # take about 2.3 MB.
        spec, nu = case_study_spec(alpha=2.0, r=1.0), 20_000_000
        _, _, measurement = montecarlo._prepare(spec, 0.7, nu)
        tracemalloc.start()
        try:
            estimate = measurement(0.7)
            estimate(np.random.default_rng([0, 0]))
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
    return build_curve(_quadrature_reports(spec, 0.7), optimal_calibration(0.7), spec.phi_domain)


class TestBuildCurve:
    def test_cosine_mean_closed_form(self):
        alpha, beta = 1.0, 0.3
        spec = case_study_spec(alpha=alpha, beta=beta)
        phi_exp = optimal_calibration(0.7)
        curve = build_curve(_quadrature_reports(spec, 0.7), phi_exp, spec.phi_domain)
        amplitude = 2 * alpha * math.exp(-beta**2)
        np.testing.assert_allclose(curve.means, [amplitude, -amplitude], atol=1e-7)
        np.testing.assert_allclose(curve.xs, [phi_exp, phi_exp + math.pi], atol=1e-12)
        np.testing.assert_allclose(curve.window, [phi_exp, phi_exp + math.pi], atol=1e-12)

    def test_arrays_are_read_only(self):
        # writeable, means[0] = -means[0] would move invert_mean(curve, 0.3)
        # from -0.16487 to +0.16487 without an error
        spec = case_study_spec(phi_true=0.0)
        curve = build_curve(_quadrature_reports(spec, 0.0), optimal_calibration(0.0),
                            spec.phi_domain)
        before = invert_mean(curve, 0.3)
        assert before[0] == pytest.approx(-0.16487, abs=1e-5)
        for arr in (curve.xs, curve.means):
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = -arr[0]
        assert invert_mean(curve, 0.3) == before

    def test_beta_zero_amplitude(self):
        spec = case_study_spec(beta=0.0)
        curve = build_curve(_quadrature_reports(spec, 0.7), optimal_calibration(0.7),
                            spec.phi_domain)
        assert curve.means[0] == pytest.approx(2.0, abs=1e-7)

    def test_flat_quadrature_not_invertible(self):
        # alpha = 0: every quadrature mean of a squeezed vacuum is zero
        spec = case_study_spec(alpha=0.0, r=0.5)
        with pytest.raises(NonInvertibleCurveError):
            build_curve(_quadrature_reports(spec, 0.7), optimal_calibration(0.7), spec.phi_domain)

    def test_grid_must_stay_in_domain(self):
        spec = case_study_spec()
        report_at = _quadrature_reports(spec, 0.7)
        start = 0.7 + 2.0  # [start, start + pi] spills past the domain edge
        # the curve of X_0, whose mean at rho(x) is report_at(0 - x)
        curve = build_curve(lambda offset: report_at(offset - start), start, spec.phi_domain)
        lo, hi = curve.window
        assert spec.phi_domain[0] <= lo < hi == spec.phi_domain[1]
        assert curve.xs[0] <= lo and hi <= curve.xs[1]

    def test_window_straddles_peak(self):
        # [start, start + pi] centered before the mean's maximum at phi_exp:
        # the window is the monotone side after the peak
        spec = case_study_spec()
        report_at = _quadrature_reports(spec, 0.7)
        phi_exp = optimal_calibration(0.7)
        start = phi_exp - 1.0
        # the curve of X_phi_exp, whose mean at rho(x) is report_at(phi_exp - x)
        curve = build_curve(lambda offset: report_at(offset + 1.0), start, spec.phi_domain)
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
        curve = build_curve(_quadrature_reports(spec, 0.7), phi_exp, spec.phi_domain)
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
        curve = build_curve(_quadrature_reports(spec, 0.7), phi_exp, spec.phi_domain)
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
        nsr = _quadrature_reports(spec, 0.7)(-math.pi / 2).nsr
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


# nu Var(phi_hat) F over n = 10^4 sample means has the relative sd
# sqrt(2 / (n - 1)) = 1.4%, so +-4 sd is the band [0.943, 1.057]. The means are
# drawn test-side, from the direct Born distribution of the calibrated
# quadrature; criterion 9 checks run_trials at 200 repeats.
@pytest.mark.parametrize("alpha, r, beta", [(1.0, 0.0, 0.3), (2.0, 1.0, 0.3), (1.0, 0.5, 0.3)])
def test_calibration_cost_attains_fisher(alpha, r, beta, rng):
    phi_true, nu, n = 0.7, 100000, 10_000
    spec = case_study_spec(phi_true=phi_true, alpha=alpha, r=r, beta=beta)
    fam = dephasing_family(spec)
    phi_exp = optimal_calibration(phi_true)
    m = quadrature(phi_exp, fam.dim)
    model = MeasurementModel.from_observable(m)
    p = model.probabilities(fam.state_at(phi_true))
    means = rng.multinomial(nu, p, size=n) @ model.eigenvalues / nu
    curve = build_curve(_quadrature_reports(spec, phi_true), phi_exp, spec.phi_domain)
    estimates = [invert_mean(curve, mean)[0] for mean in means]
    ratio = nu * np.var(estimates, ddof=1) * analytic_fnsr(r, alpha, beta)
    assert 0.943 <= ratio <= 1.057


def test_attainability_with_stated_error_rate():
    """nu Var(phi_hat) F at the case-study point (alpha 1, beta 0.3, phi_true
    0.7, dim 16) lies in a band that a correct estimator leaves with
    probability at most 1e-6: R = 20000 repeats of nu = 10^4 draws, seed 1.

    s^2 / sigma^2 over R estimates has Var(s^2) / sigma^4 = 2 / (R - 1)
    + kappa / R, for kappa the estimates' excess kurtosis: 0 for Gaussian
    estimates, and -0.03 to +0.04 measured at seeds 1 to 3, within the sd
    sqrt(24 / R) = 0.035 of a sample kurtosis. The band allows kappa up to
    0.1 through the effective degrees of freedom df = 2 / (2 / (R - 1)
    + 0.1 / R), about 19050, and takes the chi-square quantiles for df at
    each tail 5e-7 by Wilson-Hilferty, as perfbench/run.py::chi2_band does:
    [0.9507, 1.0509] (kappa = 0 would give [0.9518, 1.0497]). The band was
    fixed before the first run.

    Power: the statistic's sd is about 0.010. A 5% error in the predicted
    variance centers it on 1.05 or 0.95, at the band's edge, so it fails
    with probability 0.46 or 0.53; a 9% move, such as the 1 / 1.05^2 = 0.907
    that a 5% error in the curve's amplitude gives, is 4.8 sd outside the
    band and fails with probability 1 - 1e-6. Criterion 9 keeps its own seed
    and band.
    """
    repeats, nu, kappa, tail = 20000, 10**4, 0.1, 5e-7
    df = 2.0 / (2.0 / (repeats - 1) + kappa / repeats)
    z, c = statistics.NormalDist().inv_cdf(tail), 2.0 / (9.0 * df)
    lo, hi = ((1.0 - c + s * z * math.sqrt(c)) ** 3 for s in (1.0, -1.0))
    run = run_trials(case_study_spec(), 0.7, nu=nu, repeats=repeats, seed=1)
    ratio = nu * run.empirical_variance * analytic_fnsr(0.0, 1.0, 0.3)
    assert lo <= ratio <= hi


class TestAdaptiveCalibrate:
    def optimal_fisher(self, spec, phi_true):
        fam = dephasing_family(spec)
        m = quadrature(optimal_calibration(phi_true), spec.dim)
        return assess_observable(fam, phi_true, m).fisher

    def test_fixed_point_at_optimum(self):
        phi_true = 0.7
        spec = case_study_spec(phi_true=phi_true)  # domain midpoint == phi_true
        ests, clamped, _, _ = adaptive_calibrate(spec, phi_true, batch=20000, rounds=4, seed=3)
        fisher = analytic_fnsr(0.0, 1.0, 0.3)
        sigma = 1.0 / math.sqrt(20000 * fisher)
        assert all(abs(e - phi_true) <= 5 * sigma for e in ests)
        assert all(dephasing_family(spec).contains(e) for e in ests)
        assert not clamped.any()

    def test_offset_start_improves_fisher(self):
        # start the calibration 0.3 rad off and watch the fisher recover,
        # averaged over 20 independent seeds; the returned Fisher values are
        # those of each round's angle and the optimal one, assessed test-side
        phi_true = 0.7
        spec = case_study_spec(phi_true=phi_true, offset=0.3)
        fam = dephasing_family(spec)
        initial_phi_exp = phi_true + 0.3 - math.pi / 2
        f_initial = assess_observable(fam, phi_true,
                                      quadrature(initial_phi_exp, spec.dim)).fisher
        f_opt = self.optimal_fisher(spec, phi_true)
        rounds = 4
        per_round = np.zeros(rounds + 1)
        per_round[0] = f_initial
        for seed in range(20):
            ests, _, fisher, optimal = adaptive_calibrate(spec, phi_true, batch=2000,
                                                          rounds=rounds, seed=seed)
            assert all(fam.contains(e) for e in ests)
            expected = [f_initial]
            for k, est in enumerate(ests):
                m = quadrature(est - math.pi / 2, spec.dim)
                expected.append(assess_observable(fam, phi_true, m).fisher)
                per_round[k + 1] += expected[-1] / 20
            assert fisher == pytest.approx(expected, rel=1e-12)
            assert optimal == pytest.approx(f_opt, rel=1e-12)
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
                ests, *_ = adaptive_calibrate(spec, phi_true, batch=2000, rounds=6, seed=seed)
            except EstimatorDivergenceError as exc:
                assert exc.round_index is not None
                continue
            assert all(fam.contains(e) for e in ests)
            m = quadrature(ests[-1] - math.pi / 2, spec.dim)
            assert assess_observable(fam, phi_true, m).fisher >= 0.95 * f_opt

    def test_clamp_flags_returned(self):
        # one draw per round: round 1's mean lies beyond the curve's amplitude
        spec = case_study_spec(phi_true=0.0)
        ests, clamped, fisher, _ = adaptive_calibrate(spec, 0.0, batch=1, rounds=2, seed=2)
        assert clamped.tolist() == [False, True]
        assert all(dephasing_family(spec).contains(e) for e in ests)
        assert ests.shape == (2,) and fisher.shape == (3,)
        assert not any(a.flags.writeable for a in (ests, clamped, fisher))

    def test_phi_true_outside_domain(self):
        with pytest.raises(ContractViolationError, match="phi_true 4.7 outside"):
            adaptive_calibrate(case_study_spec(), 0.7 + 4.0, batch=10, rounds=1, seed=0)

    def test_one_eigensolve_per_call(self, monkeypatch):
        # every round reads its Born distribution from one model of X_0
        calls = []
        eigh = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", lambda a: calls.append(a) or eigh(a))
        spec = case_study_spec(phi_true=0.7)
        for rounds in (1, 6):
            calls.clear()
            adaptive_calibrate(spec, 0.7, batch=50, rounds=rounds, seed=0)
            assert len(calls) == 1

    def test_divergence_guard(self):
        spec = case_study_spec()
        spec = PhaseFamilySpec(spec.probe, spec.diffusion, (0.0, 1.0))
        with pytest.raises(EstimatorDivergenceError):
            build_curve(_quadrature_reports(spec, 0.5), 5.0, spec.phi_domain)


class TestSpacingGuard:
    """phi_true must be resolved to 1/100 of the predicted sd of one estimate,
    nsr / sqrt(nu): 0.0069 at nu = 10^4 and 0.098 at batch 50 on the case
    study. The spacing of doubles is 0.125 at 1e15, 1.2e-4 at 2^39, 6.1e-5
    at 2^38 and 1.2e-10 at 1e6."""

    def test_run_trials_rejects(self):
        with pytest.raises(ContractViolationError, match=r"spacing .*, 0\.125, .* 0\.00693$"):
            run_trials(case_study_spec(phi_true=1e15), 1e15, nu=10000, repeats=20, seed=0)

    def test_adaptive_rejects(self):
        with pytest.raises(ContractViolationError, match=r"spacing .*, 0\.125, .* 0\.098$"):
            adaptive_calibrate(case_study_spec(phi_true=1e15), 1e15, batch=50, rounds=3, seed=0)

    def test_boundary(self):
        for phi_true, rejected in ((2.0**38, False), (2.0**39, True)):
            # (phi_true - pi, phi_true + pi) rounds wider than a period here
            spec = PhaseFamilySpec(GaussianProbeSpec.with_default_dim(1.0, 0.0),
                                   DiffusionParams(0.3), (phi_true - 3.0, phi_true + 3.0))
            if rejected:
                with pytest.raises(ContractViolationError, match="spacing"):
                    run_trials(spec, phi_true, nu=10000, repeats=2, seed=0)
            else:
                run_trials(spec, phi_true, nu=10000, repeats=2, seed=0)

    def test_large_phi_true_runs(self):
        run = run_trials(case_study_spec(phi_true=1e6), 1e6, nu=10000, repeats=20, seed=0)
        assert not run.clamped.any()
        assert np.abs(run.estimates - 1e6).max() <= 6 * math.sqrt(run.predicted_variance)

    def test_zero_fisher_not_rejected(self):
        # alpha = 0: infinite sd, so the spacing passes and the flat curve is reported
        spec = case_study_spec(phi_true=1e15, alpha=0.0, r=0.5)
        with pytest.raises(NonInvertibleCurveError):
            run_trials(spec, 1e15, nu=10000, repeats=2, seed=0)
        with pytest.raises(EstimatorDivergenceError):
            adaptive_calibrate(spec, 1e15, batch=50, rounds=1, seed=0)


def test_probe_built_once_per_run(monkeypatch):
    # the family and the report function share one probe, which
    # PhaseFamilySpec.probe_state builds with operators.gaussian_probe
    calls = []
    probe = operators.gaussian_probe
    monkeypatch.setattr(operators, "gaussian_probe", lambda spec: calls.append(spec) or probe(spec))
    spec = case_study_spec()
    run_trials(spec, 0.7, nu=100, repeats=2, seed=0)
    assert len(calls) == 1
    calls.clear()
    adaptive_calibrate(spec, 0.7, batch=100, rounds=3, seed=0)
    assert len(calls) == 1


def test_one_state_per_measurement(monkeypatch):
    # the curve and the prediction come from the probe's sums: each
    # measurement reads one state, its Born distribution's Re rho(x)
    states = []
    real_state = montecarlo._real_state
    monkeypatch.setattr(montecarlo, "_real_state",
                        lambda c, kernel, x: states.append(x) or real_state(c, kernel, x))
    run_trials(case_study_spec(), 0.7, nu=100, repeats=2, seed=0)
    assert states == [math.pi / 2]
    states.clear()
    adaptive_calibrate(case_study_spec(), 0.7, batch=100, rounds=3, seed=0)
    assert len(states) == 3


@pytest.mark.parametrize("alpha, r", [(1.0, 0.0), (2.0, 1.0)], ids=["dim-16", "dim-134"])
def test_no_operator_built(monkeypatch, alpha, r):
    # mc reads X_0 and each Born distribution as real arrays: no Operator,
    # DensityMatrix or dense family is built
    def refuse(*args):
        raise AssertionError("mc built an Operator")

    spec = case_study_spec(alpha=alpha, r=r)
    monkeypatch.setattr(Operator, "_hold", refuse)
    run = run_trials(spec, 0.7, nu=1000, repeats=3, seed=0)
    assert run.estimates.shape == (3,)
    estimates, *_ = adaptive_calibrate(spec, 0.7, batch=1000, rounds=3, seed=0)
    assert estimates.shape == (3,)


def test_run_trials_phase_covariant():
    # the family is covariant, so shifting phi_true shifts the estimates and
    # leaves the flags, the prediction and the small-noise check as they are
    nu, repeats, seed = 10**4, 20, 3
    base = run_trials(case_study_spec(phi_true=0.0), 0.0, nu=nu, repeats=repeats, seed=seed)
    for phi_true in (0.7, -2.5, 1e6, 1e9):
        run = run_trials(case_study_spec(phi_true=phi_true), phi_true, nu=nu, repeats=repeats,
                         seed=seed)
        np.testing.assert_allclose(run.estimates - phi_true, base.estimates, rtol=0,
                                   atol=2 * math.ulp(phi_true))
        np.testing.assert_array_equal(run.clamped, base.clamped)
        assert run.predicted_variance == base.predicted_variance
        assert run.small_dm == base.small_dm
