"""Independent reference computations used to freeze expected test values.

Everything here is deliberately written against the definitions, not against
the library code paths it checks: Gauss-Hermite quadrature of the diffusion
integral, golden-section maximization, the Bloch-vector Fisher formula, the
exact SLD derivative of a phase family, a family's finite-difference
derivative, brute-force moment sums, and the Gaussian probe amplitudes from
matrix exponentials (scipy) or from the coherent and squeezed-vacuum closed
forms.
"""

import math

import numpy as np


def gauss_hermite_dephase(rho_mat: np.ndarray, phi: float, beta: float,
                          nodes: int = 64) -> np.ndarray:
    """Average of e^{-i(phi+theta) n} rho e^{i(phi+theta) n} over the Gaussian
    theta with density exp[-theta^2/(4 beta^2)]/sqrt(4 pi beta^2), computed by
    Gauss-Hermite quadrature (substitution theta = 2 beta t)."""
    t_nodes, weights = np.polynomial.hermite.hermgauss(nodes)
    dim = rho_mat.shape[0]
    n = np.arange(dim)
    out = np.zeros_like(rho_mat, dtype=complex)
    for t, w in zip(t_nodes, weights):
        theta = 2.0 * beta * t
        phase = np.exp(-1j * (phi + theta) * n)
        out += w * (phase[:, None] * rho_mat * phase[None, :].conj())
    return out / math.sqrt(math.pi)


def golden_max(fun, lo: float, hi: float, tol: float = 1e-11) -> float:
    """Golden-section maximizer of a unimodal scalar function."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = fun(c), fun(d)
    while b - a > tol:
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = fun(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = fun(d)
    return (a + b) / 2.0


def bloch_qfi(r_vec: np.ndarray, dr_vec: np.ndarray) -> float:
    """Mixed-qubit Fisher information F = |dr|^2 + (r . dr)^2 / (1 - |r|^2)."""
    r2 = float(np.dot(r_vec, r_vec))
    cross = float(np.dot(r_vec, dr_vec))
    val = float(np.dot(dr_vec, dr_vec))
    if r2 < 1.0 - 1e-12:
        val += cross**2 / (1.0 - r2)
    return val


def covariant_curvature(rho: np.ndarray, drho: np.ndarray) -> float:
    """Calibration curvature G = Var(L') - <L' L + L L'>^2 / (4 <L^2>) of a
    phase family rho(x) = e^{-ixn} rho0 e^{ixn}, whose SLD moves exactly as
    L' = -i[n, L], i.e. L'_jk = -i (j - k) L_jk in the Fock basis. L is solved
    in the eigenbasis of rho on the pairs with p_j + p_k above 1e-12 times the
    largest eigenvalue; the moments are plain traces."""
    p, v = np.linalg.eigh(rho)
    sums = p[:, None] + p[None, :]
    kept = sums > 1e-12 * max(p.max(), 0.0)
    d = v.conj().T @ drho @ v
    l_eig = np.where(kept, 2.0 * d / np.where(kept, sums, 1.0), 0.0)
    l_mat = v @ l_eig @ v.conj().T
    l_mat = (l_mat + l_mat.conj().T) / 2
    j = np.arange(rho.shape[0])
    dl = -1j * (j[:, None] - j[None, :]) * l_mat

    def mean(a):
        return np.trace(rho @ a).real

    return (mean(dl @ dl) - mean(dl) ** 2) - mean(dl @ l_mat + l_mat @ dl) ** 2 / (
        4.0 * mean(l_mat @ l_mat))


def check_derivative(fam, x: float) -> float:
    """Max elementwise gap between a family's analytic derivative at x and the
    central finite difference of its states, step 1e-5."""
    fd = (fam.state_at(x + 1e-5).matrix - fam.state_at(x - 1e-5).matrix) / 2e-5
    return float(np.abs(fd - fam.derivative_at(x).matrix).max())


def poisson_central_moment(lam: float, order: int, cutoff: int = 200) -> float:
    """Brute-force central moment of a Poisson(lam) distribution."""
    ks = np.arange(cutoff)
    log_p = ks * math.log(lam) - lam - [math.lgamma(k + 1) for k in ks]
    p = np.exp(log_p)
    mean = float((ks * p).sum())
    return float((((ks - mean) ** order) * p).sum())


def wrapped_normal_fisher(beta: float, points: int = 4096) -> float:
    """Fisher information, the integral of p'^2 / p over the circle, of the
    location family p(theta - phi), p the wrapped normal of variance
    2 beta^2, whose Fourier coefficients are e^{-beta^2 k^2}. The trapezoid
    rule on `points` equispaced nodes, exact to roundoff for this smooth
    periodic integrand. For beta >= 0.3, p and p' are the Fourier series;
    below, the Poisson form, Gaussians at theta + 2 pi m for |m| <= 3, as
    there the series' p underflows near theta = pi. Where p underflows to 0,
    so does the integrand."""
    theta = -math.pi + 2.0 * math.pi * np.arange(points) / points
    if beta >= 0.3:
        k = np.arange(1, int(27.0 / beta) + 2)  # e^{-beta^2 k^2} < 1e-300 beyond
        weight = np.exp(-(beta * k) ** 2)
        p = (1.0 + 2.0 * np.cos(np.outer(theta, k)) @ weight) / (2.0 * math.pi)
        dp = -2.0 * np.sin(np.outer(theta, k)) @ (k * weight) / (2.0 * math.pi)
    else:
        var = 2.0 * beta**2
        x = theta[:, None] + 2.0 * math.pi * np.arange(-3, 4)
        gauss = np.exp(-(x**2) / (2.0 * var)) / math.sqrt(2.0 * math.pi * var)
        p, dp = gauss.sum(axis=1), (-x / var * gauss).sum(axis=1)
    positive = p > 0.0
    return float((dp[positive] ** 2 / p[positive]).sum() * 2.0 * math.pi / points)


def random_hermitian(rng: np.random.Generator, dim: int) -> np.ndarray:
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return (a + a.conj().T) / 2


def random_state_vec(rng: np.random.Generator, dim: int) -> np.ndarray:
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return v / np.linalg.norm(v)


def random_density_mat(rng: np.random.Generator, dim: int) -> np.ndarray:
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    m = a @ a.conj().T
    return m / np.trace(m).real


def expm_gaussian_probe(alpha: float, r: float, big: int) -> np.ndarray:
    """D(alpha) S(r)|0> on a big-dimensional Fock space, with
    S = exp(r (a^dag^2 - a^2)/2) and D = exp(alpha (a^dag - a)), each taken
    by scipy.linalg.expm of its ladder generator. The truncated generators
    act like the untruncated ones on the low Fock numbers, so the leading
    amplitudes are exact to roundoff when big is several times the support."""
    from scipy.linalg import expm

    a = np.diag(np.sqrt(np.arange(1.0, big)), 1)
    adag = a.T
    squeezed = expm(r * (adag @ adag - a @ a) / 2)[:, 0]
    return expm(alpha * (adag - a)) @ squeezed


def coherent_amplitudes(alpha: float, dim: int) -> np.ndarray:
    """<n|alpha> = e^{-alpha^2/2} alpha^n / sqrt(n!) for real alpha, n < dim."""
    n = np.arange(dim)
    if alpha == 0.0:
        return (n == 0).astype(float)
    log_fact = np.array([math.lgamma(k + 1) for k in n])
    log_mag = -alpha**2 / 2 + n * math.log(abs(alpha)) - log_fact / 2
    return np.sign(alpha) ** n * np.exp(log_mag)


def squeezed_vacuum_amplitudes(r: float, dim: int) -> np.ndarray:
    """<2k|S(r)|0> = (tanh r)^k sqrt((2k)!) / (2^k k! sqrt(cosh r)); odd
    Fock numbers carry none."""
    out = np.zeros(dim)
    t = math.tanh(r)
    for n in range(0, dim, 2):
        k = n // 2
        log_mag = (math.lgamma(n + 1) / 2 - k * math.log(2.0) - math.lgamma(k + 1)
                   - math.log(math.cosh(r)) / 2)
        out[n] = t**k * math.exp(log_mag)
    return out


def unitary_from_generator(g: np.ndarray) -> np.ndarray:
    """exp(g) for anti-Hermitian g, via eigendecomposition of the Hermitian i*g,
    which keeps the result unitary to roundoff. Raises ValueError if g is not
    anti-Hermitian to 1e-10."""
    scale = np.abs(g).max()
    if scale > 0 and np.abs(g + g.conj().T).max() > 1e-10 * max(1.0, scale):
        raise ValueError("generator is not anti-Hermitian within tolerance")
    h = 1j * g
    evals, vecs = np.linalg.eigh((h + h.conj().T) / 2)
    return (vecs * np.exp(-1j * evals)) @ vecs.conj().T


def displacement_generator(alpha: float, dim: int) -> np.ndarray:
    """alpha (a^dag - a) on dim Fock levels, whose exponential is D(alpha)."""
    a = np.diag(np.sqrt(np.arange(1.0, dim)), 1)
    return alpha * (a.T - a)
