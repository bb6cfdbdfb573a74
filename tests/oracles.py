"""Independent reference computations used to freeze expected test values.

Everything here is deliberately written against the definitions, not against
the library code paths it checks: Gauss-Hermite quadrature of the diffusion
integral, golden-section maximization, the Bloch-vector Fisher formula, the
exact SLD derivative of a phase family, brute-force moment sums, and the
Gaussian probe amplitudes from matrix exponentials (scipy) or from the
coherent and squeezed-vacuum closed forms.
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


def poisson_central_moment(lam: float, order: int, cutoff: int = 200) -> float:
    """Brute-force central moment of a Poisson(lam) distribution."""
    ks = np.arange(cutoff)
    log_p = ks * math.log(lam) - lam - [math.lgamma(k + 1) for k in ks]
    p = np.exp(log_p)
    mean = float((ks * p).sum())
    return float((((ks - mean) ** order) * p).sum())


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
