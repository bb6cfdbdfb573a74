"""The phase-diffusion closed forms against the same formulas evaluated in
200-digit arithmetic (mpmath), written here from the formulas and sharing no
code with the library. The library must agree to 1e-13 relative."""

import math

import pytest

from nsrkit import analytic_fnsr, c_q, no_squeeze_ratio_bound, r_max, r_opt

mp = pytest.importorskip("mpmath")

RTOL = 1e-13
BETAS = [0.0, 1e-8, 1e-4, 0.3, 1.0, 2.0, 3.0, 5.0]
RS = [-20.0, 0.5, 20.0, 300.0]
NS = [1e-6, 0.05, 1.0, 1e4, 1e6]
ALPHAS = [1e-3, 1.0, 100.0]


def assert_close(value, reference):
    with mp.workdps(200):
        if mp.isinf(reference):
            assert value == math.inf
            return
        assert math.isfinite(value)
        err = abs(mp.mpf(value) - reference)
        assert err <= RTOL * abs(reference), f"{value!r} vs {mp.nstr(reference, 20)}"


def fnsr_reference(r, alpha, beta):
    with mp.workdps(200):
        r, alpha, beta = mp.mpf(r), mp.mpf(alpha), mp.mpf(beta)
        num = 4 * alpha**2 * mp.exp(-2 * beta**2)
        diffusion_noise = (1 - mp.exp(-4 * beta**2)) * (2 * alpha**2 + mp.sinh(2 * r))
        return num / (mp.exp(-2 * r) + diffusion_noise)


def r_opt_reference(n, beta):
    with mp.workdps(200):
        n, beta = mp.mpf(n), mp.mpf(beta)
        s = (2 * n + 1) * mp.exp(2 * beta**2)
        root = mp.sqrt(1 + 2 * s**2 * mp.sinh(4 * beta**2))
        return mp.log(2 * s * mp.cosh(2 * beta**2) / (1 + root)) / 2


def r_max_reference(beta):
    with mp.workdps(200):
        if beta == 0:
            return mp.inf
        return mp.log(mp.coth(2 * mp.mpf(beta) ** 2)) / 4


def c_q_reference(n, beta):
    with mp.workdps(200):
        n, beta = mp.mpf(n), mp.mpf(beta)
        return 4 * n / (1 + 8 * beta**2 * n)


def ratio_bound_reference(n, beta):
    with mp.workdps(200):
        n, beta = mp.mpf(n), mp.mpf(beta)
        return (1 + 8 * beta**2 * n) / (mp.exp(2 * beta**2) + 4 * mp.sinh(2 * beta**2) * n)


@pytest.mark.parametrize("beta", BETAS)
@pytest.mark.parametrize("r", RS)
@pytest.mark.parametrize("alpha", ALPHAS)
def test_analytic_fnsr(r, alpha, beta):
    assert_close(analytic_fnsr(r, alpha, beta), fnsr_reference(r, alpha, beta))


@pytest.mark.parametrize("r", [356.0, 365.0, 372.0])
@pytest.mark.parametrize("alpha", [1e-100, 1e-60])
def test_analytic_fnsr_without_diffusion_beyond_sinh_overflow(r, alpha):
    # sinh 2r overflows and e^{-2r} is subnormal, yet 4 alpha^2 e^{2r} is a double
    assert_close(analytic_fnsr(r, alpha, 0.0), fnsr_reference(r, alpha, 0.0))


@pytest.mark.parametrize("beta", BETAS)
@pytest.mark.parametrize("n", NS)
def test_r_opt(n, beta):
    assert_close(r_opt(n, beta), r_opt_reference(n, beta))


@pytest.mark.parametrize("beta", BETAS + [1e-200])
def test_r_max(beta):
    assert_close(r_max(beta), r_max_reference(beta))


@pytest.mark.parametrize("beta", BETAS)
@pytest.mark.parametrize("n", NS)
def test_c_q(n, beta):
    assert_close(c_q(n, beta), c_q_reference(n, beta))


@pytest.mark.parametrize("beta", BETAS)
@pytest.mark.parametrize("n", NS)
def test_no_squeeze_ratio_bound(n, beta):
    assert_close(no_squeeze_ratio_bound(n, beta), ratio_bound_reference(n, beta))
