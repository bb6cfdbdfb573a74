"""Fast routes against their reference routes on drawn inputs. Each test
states its example count and its tolerance; the draws are derandomized, so
a run is reproducible."""

import math
import sys

import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, example, given, settings, strategies as st  # noqa: E402

import numpy as np  # noqa: E402

from nsrkit import (  # noqa: E402
    DiffusionParams,
    GaussianProbeSpec,
    PhaseFamilySpec,
    TruncationError,
    assess_observable,
    c_q,
    default_truncation_dim,
    dephasing_family,
    gaussian_probe,
    number_operator,
    optimal_fnsr,
    quadrature,
)
from nsrkit.dephasing import _covariant_sld  # noqa: E402
from nsrkit.estimation import _solve_sld  # noqa: E402
from nsrkit.montecarlo import CHUNK, _GuideTable  # noqa: E402
from nsrkit.scalar import (  # noqa: E402
    SCALAR_SLD_MAX_DIM,
    _covariant_sld_floats,
    _geomspace,
    _linspace,
    _number_moments,
    _probe,
    _quadrature_reports,
    enhancement_scan,
)

# 2 beta^2 at 0, subnormal, and over [1e-6, 700]; N over (1e-300, 1.7e308)
two_beta_sq = st.one_of(
    st.just(0.0),
    st.floats(0.0, sys.float_info.min, exclude_min=True, exclude_max=True),
    st.floats(1e-6, 700.0))
n_mean = st.floats(1e-300, 1.7e308, exclude_min=True, exclude_max=True)


def point_ratio(n: float, t: float):
    """optimal_fnsr / c_q from the public point functions at beta formed as
    the table forms it, or the exception they raise."""
    beta = math.sqrt(t / 2.0)
    try:
        return optimal_fnsr(n, beta) / c_q(n, beta)
    except ArithmeticError as error:
        return error


@settings(max_examples=300, derandomize=True, deadline=None)
@given(tbs=st.lists(two_beta_sq, min_size=1, max_size=3),
       ns=st.lists(n_mean, min_size=1, max_size=4))
def test_ratio_table_cells_match_point_functions(tbs, ns):
    """enhancement_scan against optimal_fnsr / c_q, cell by cell, at 300 examples
    and no tolerance: where every ratio is finite, the table's cells equal
    them bit for bit. At the first cell in row order whose ratio is inf, the
    table raises OverflowError; where the point functions raise there, it
    raises the same type with the same message."""
    expected = [[point_ratio(n, t) for n in ns] for t in tbs]
    failing = next((cell for row in expected for cell in row
                    if not (isinstance(cell, float) and cell < math.inf)), None)
    if failing is None:
        rows, _ = enhancement_scan(tbs, ns)
        assert [list(map(float.hex, row)) for row in rows] == \
            [list(map(float.hex, row)) for row in expected]
        return
    with pytest.raises(ArithmeticError) as error:
        enhancement_scan(tbs, ns)
    if isinstance(failing, float):
        assert type(error.value) is OverflowError
    else:
        assert type(error.value) is type(failing)
        assert str(error.value) == str(failing)


@settings(max_examples=30, derandomize=True, deadline=None)
@given(alpha=st.floats(-2.0, 2.0), r=st.floats(-0.4, 0.4), beta=st.floats(0.0, 1.5),
       extra=st.integers(0, 4))
def test_covariant_sld_floats_match_numpy_routes(alpha, r, beta, extra):
    """_covariant_sld_floats against _covariant_sld and against _solve_sld on
    the dense family at phase 0, at 30 examples of (alpha, r, beta) and dims
    from the policy's to 4 more, up to SCALAR_SLD_MAX_DIM. Tolerances, fixed
    before the first run: the QFI to 1e-13 relative (0 where the references
    give 0), the largest SLD eigenvalue to 1e-5 relative, as its near-null
    eigenvectors allow. _covariant_sld reads that eigenvalue as 0 where it
    is below about 1e-154, as its A^T A underflows (alpha = 0, r = 1.65e-227:
    4.67e-227 by the dense route and the float one), so there the float route
    is held to the dense route alone."""
    dim = default_truncation_dim(alpha, r) + extra
    if dim > SCALAR_SLD_MAX_DIM:
        return
    probe = GaussianProbeSpec(alpha, r, dim)
    spec = PhaseFamilySpec(probe, DiffusionParams(beta), (-math.pi, math.pi))
    got_qfi, got_max = _covariant_sld_floats(_probe(probe), beta)
    real_qfi, real_max = _covariant_sld(gaussian_probe(probe).amplitudes, beta)
    fam = dephasing_family(spec)
    *_, l_eig, dense_qfi = _solve_sld(fam.state_at(0.0), fam.derivative_at(0.0))
    dense_max = float(np.linalg.eigvalsh(l_eig).max())
    assert abs(got_qfi - real_qfi) <= 1e-13 * real_qfi
    assert abs(got_qfi - dense_qfi) <= 1e-13 * dense_qfi
    assert abs(got_max - dense_max) <= 1e-5 * dense_max
    if dense_max >= 1e-150:
        assert abs(got_max - real_max) <= 1e-5 * real_max


@settings(max_examples=100, derandomize=True, deadline=None)
@given(alpha=st.floats(-2.5, 2.5), r=st.floats(-0.8, 0.8), beta=st.floats(0.0, 1.5),
       shift=st.integers(-6, 8), phi=st.floats(-50.0, 50.0),
       offset=st.floats(-math.pi, math.pi))
def test_four_sums_match_dense_family(alpha, r, beta, shift, phi, offset):
    """_quadrature_reports (the quadrature at angle phi + offset) and
    _number_moments against assess_observable on the dense family at phase
    phi, at 100 examples, the dim drawn from 6 below the policy's to 8 above.
    Where the probe leaks past LEAKAGE_TOL, both probe routes raise
    TruncationError. Tolerance, fixed before the first run, with s = 1 +
    <X^2> (dense): mean, slope and variance within e = 1e-12 s; the Fisher
    value within (10 e (2 |slope| + fisher) + e^2) / variance, their
    propagation to first order and, where the slope is 0, second; the number
    operator's mean and variance within 1e-12 (1 + <n^2>), and its dense
    slope within the same of 0."""
    probe = GaussianProbeSpec(alpha, r, max(2, default_truncation_dim(alpha, r) + shift))
    spec = PhaseFamilySpec(probe, DiffusionParams(beta), (phi - math.pi, phi + math.pi))
    try:
        c = _probe(probe)
    except TruncationError:
        with pytest.raises(TruncationError):
            gaussian_probe(probe)
        return
    fam = dephasing_family(spec)
    got = _quadrature_reports(spec, phi)(offset)
    want = assess_observable(fam, phi, quadrature(phi + offset, probe.dim))
    e = 1e-12 * (1.0 + want.variance + want.mean**2)
    for field in ("mean", "slope", "variance"):
        assert abs(getattr(got, field) - getattr(want, field)) <= e, field
    fisher_tol = (10.0 * e * (2.0 * abs(want.slope) + want.fisher) + e * e) / want.variance
    assert abs(got.fisher - want.fisher) <= fisher_tol
    mean, var = _number_moments(c)
    dense = assess_observable(fam, phi, number_operator(probe.dim))
    s = 1.0 + dense.variance + dense.mean**2
    assert abs(mean - dense.mean) <= 1e-12 * s
    assert abs(var - dense.variance) <= 1e-12 * s
    assert abs(dense.slope) <= 1e-12 * s


@settings(max_examples=300, derandomize=True, deadline=None)
@given(lo=st.floats(allow_nan=False, allow_infinity=False),
       hi=st.floats(allow_nan=False, allow_infinity=False), count=st.integers(1, 300))
@example(lo=-0.0, hi=1.0, count=1)  # numpy's one point 0.0 * 1.0 + -0.0 is +0.0
def test_linspace_is_numpy_bit_for_bit(lo, hi, count):
    """_linspace against np.linspace at 300 drawn examples of finite (lo,
    hi), in either order, with a finite span hi - lo, and count from 1 to
    300, and one stated example. No tolerance: every point equal bit for bit,
    the sign of a zero included. numpy's last product i * step may overflow
    before it is set to hi."""
    assume(math.isfinite(hi - lo))
    with np.errstate(over="ignore"):
        want = np.linspace(lo, hi, count)
    assert np.array(_linspace(lo, hi, count)).tobytes() == want.tobytes()


@settings(max_examples=300, derandomize=True, deadline=None)
@given(ends=st.lists(st.floats(5e-324, sys.float_info.max), min_size=2, max_size=2),
       count=st.integers(1, 300))
def test_geomspace_within_stated_ulps_of_numpy(ends, count):
    """_geomspace against np.geomspace at 300 examples of 0 < lo <= hi, from
    the least subnormal to the largest float, and count from 1 to 300.
    Tolerance, fixed before the first run: the ends equal bit for bit, and
    each inner point within 4 ln(10) Y + 2 ulps of numpy's, Y = max(|log10
    lo|, |log10 hi|). math.log10 and np.log10 may differ by 1 ulp at an end,
    at most Y 2^-52; the linspace moves each exponent y by at most that, and
    by as much again from its own rounding of the different ends; 10 ** y
    turns dy into a relative error ln(10) dy, which is at most 2^53 ln(10) dy
    ulps; and 10.0 ** y and np.power each round within 1 ulp. Near the
    largest float, y may round above log10 of it: np.power then overflows to
    inf, and 10.0 ** y raises OverflowError."""
    lo, hi = sorted(ends)
    with np.errstate(over="ignore"):
        want = np.geomspace(lo, hi, count)
    if np.isinf(want).any():
        with pytest.raises(OverflowError):
            _geomspace(lo, hi, count)
        return
    got = np.array(_geomspace(lo, hi, count))
    assert got.size == want.size and got[0] == want[0] == lo
    assert got[-1] == want[-1] == (hi if count > 1 else lo)
    ulps = np.abs(got.view(np.int64) - want.view(np.int64))
    bound = 4.0 * math.log(10.0) * max(abs(math.log10(lo)), abs(math.log10(hi))) + 2.0
    assert ulps.max() <= bound


@settings(max_examples=60, derandomize=True, deadline=None)
@given(size=st.integers(1, 4000), zero_share=st.floats(0.0, 0.9),
       tiny_share=st.floats(0.0, 0.5), seed=st.integers(0, 2**32 - 1),
       nu=st.one_of(st.sampled_from([CHUNK - 1, CHUNK, CHUNK + 1]),
                    st.integers(1, 3 * CHUNK)))
def test_guide_table_counts_match_choice(size, zero_share, tiny_share, seed, nu):
    """_GuideTable(p, nu).counts against np.bincount of Generator.choice(size,
    nu, p=p), each from default_rng(seed), at 60 examples. No tolerance: the
    counts are equal. p is drawn from its own generator: uniform weights on 1
    to 4000 outcomes, a drawn share of them 0 and another share scaled to
    between 1e-300 and 1e-12, at least one left positive, then normalized;
    nu is CHUNK - 1, CHUNK, CHUNK + 1 or drawn up to 3 CHUNK."""
    gen = np.random.default_rng([seed, 1])
    w = gen.random(size)
    w[gen.random(size) < zero_share] = 0.0
    tiny = gen.random(size) < tiny_share
    w[tiny] *= 10.0 ** gen.uniform(-300.0, -12.0, np.count_nonzero(tiny))
    w[gen.integers(size)] = 1.0
    p = w / w.sum()
    got = _GuideTable(p, nu).counts(np.random.default_rng(seed))
    want = np.bincount(np.random.default_rng(seed).choice(size, size=nu, p=p), minlength=size)
    assert np.array_equal(got, want)
