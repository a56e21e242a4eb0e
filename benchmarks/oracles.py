"""Reference values computed apart from quadsuite, from numpy and scipy only.

Every check of the benchmark compares an output of quadsuite with one of
these functions or with a property the method must have.  None of them
calls quadsuite.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.linalg import expm
from scipy.special import dawsn, eval_hermite, gammaln

SQRT_2PI = math.sqrt(2.0 * math.pi)


# ---------------------------------------------------------------------------
# Hermite functions and quadrature densities


def hermite_functions(n_max: int, x) -> np.ndarray:
    """h_0..h_{n_max} at the points x, shape (n_max + 1, len(x)).

    h_n(x) = H_n(x) exp(-x^2/2) / sqrt(2^n n! sqrt(pi)) with H_n from
    ``scipy.special.eval_hermite``; the normalisation is applied in log
    space so that it stays finite up to degree 200.
    """
    xa = np.atleast_1d(np.asarray(x, dtype=float))
    n = np.arange(n_max + 1)[:, None]
    log_norm = 0.5 * (n * math.log(2.0) + gammaln(n + 1.0) + 0.5 * math.log(math.pi))
    return eval_hermite(n, xa[None, :]) * np.exp(-0.5 * xa[None, :] ** 2 - log_norm)


def rotated(rho: np.ndarray, theta: float) -> np.ndarray:
    """Density matrix of exp(-i theta N) rho exp(i theta N).

    The density of Q_theta = cos(theta) Q + sin(theta) P in rho is the
    position density of this matrix, since Q_theta = e^{i theta N} Q e^{-i theta N}.
    """
    ph = np.exp(-1j * theta * np.arange(rho.shape[0]))
    return ph[:, None] * rho * ph.conj()[None, :]


def quadrature_density(rho: np.ndarray, theta: float, x) -> np.ndarray:
    """Density of Q_theta in the density matrix rho at the points x."""
    h = hermite_functions(rho.shape[0] - 1, x)
    return np.sum(h * (rotated(rho, theta) @ h), axis=0).real


def normal_cdf(x: float) -> float:
    return 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))


def normal_pdf(x) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    return np.exp(-0.5 * x * x) / SQRT_2PI


# ---------------------------------------------------------------------------
# ladder operators, moments, displacements


def annihilator(dim: int) -> np.ndarray:
    """a on the first dim levels: a|n> = sqrt(n)|n-1>."""
    return np.diag(np.sqrt(np.arange(1.0, dim)), 1).astype(complex)


def quadrature_operator(theta: float, dim: int) -> np.ndarray:
    """Q_theta = (e^{-i theta} a + e^{i theta} a^dagger) / sqrt(2)."""
    a = annihilator(dim)
    return (np.exp(-1j * theta) * a + np.exp(1j * theta) * a.conj().T) / math.sqrt(2.0)


def quadrature_moments(rho: np.ndarray, theta: float, k_max: int) -> list[float]:
    """Raw moments 0..k_max of Q_theta in rho.

    The basis is padded by k_max levels, so no path of Q_theta^k that
    starts and ends inside rho's support is cut by the truncation.
    """
    dim = rho.shape[0]
    big = dim + k_max
    padded = np.zeros((big, big), dtype=complex)
    padded[:dim, :dim] = rho
    q = quadrature_operator(theta, big)
    power = np.eye(big, dtype=complex)
    out = []
    for _ in range(k_max + 1):
        out.append(float(np.trace(padded @ power).real))
        power = power @ q
    return out


def gaussian_moments(var: float, k_max: int) -> list[float]:
    """Raw moments of N(0, var): (k-1)!! var^(k/2) for even k, 0 for odd."""
    return [
        math.prod(range(1, k, 2)) * var ** (k // 2) if k % 2 == 0 else 0.0
        for k in range(k_max + 1)
    ]


def convolved_moments(mu: list[float], p: list[float]) -> list[float]:
    """Moments of the sum of independent variables with moments mu and p."""
    return [
        sum(math.comb(k, n) * mu[k - n] * p[n] for n in range(k + 1))
        for k in range(len(mu))
    ]


def number_state_even_moments(n: int, k_max: int) -> list[float]:
    """Raw moments of the density h_n(x)^2, for n in {0, 1}."""
    if n not in (0, 1):
        raise ValueError("closed form kept for n = 0 and n = 1 only")
    out = []
    for k in range(k_max + 1):
        if k % 2:
            out.append(0.0)
        elif n == 0:      # int x^k e^{-x^2} / sqrt(pi) = Gamma((k+1)/2) / sqrt(pi)
            out.append(math.gamma((k + 1) / 2.0) / math.sqrt(math.pi))
        else:             # int x^k 2 x^2 e^{-x^2} / sqrt(pi) = 2 Gamma((k+3)/2) / sqrt(pi)
            out.append(2.0 * math.gamma((k + 3) / 2.0) / math.sqrt(math.pi))
    return out


def displacement(alpha: complex, dim: int, pad: int = 60) -> np.ndarray:
    """D(alpha) = exp(alpha a^dagger - conj(alpha) a), top-left dim block.

    The exponential is taken on dim + pad levels, which leaves the
    returned block exact to rounding for |alpha| of a few units.
    """
    a = annihilator(dim + pad)
    return expm(alpha * a.conj().T - np.conj(alpha) * a)[:dim, :dim]


def gk_number_kernel(rho: np.ndarray, n: int, q: float, p: float) -> float:
    """tr[rho D |n><n| D^dagger] at alpha = (q + ip)/sqrt(2)."""
    col = displacement(complex(q, p) / math.sqrt(2.0), rho.shape[0])[:, n]
    return float((col.conj() @ rho @ col).real)


def coherent_amplitudes(alpha: complex, dim: int) -> np.ndarray:
    """<m|alpha> = e^{-|alpha|^2/2} alpha^m / sqrt(m!), in log space."""
    m = np.arange(dim)
    log_mod = -0.5 * abs(alpha) ** 2 + m * math.log(abs(alpha)) - 0.5 * gammaln(m + 1.0)
    return np.exp(log_mod + 1j * m * np.angle(alpha))


# ---------------------------------------------------------------------------
# closed forms on phase space


_GK_POLY = {          # tr[|n><n| D |k><k| D^dagger] = e^{-a} * poly(a)
    (0, 0): lambda a: 1.0,
    (0, 1): lambda a: a,
    (1, 0): lambda a: a,
    (1, 1): lambda a: (1.0 - a) ** 2,
}

_RADON_POLY = {       # integral over s of e^{-a} poly(a), a = (t^2 + s^2)/2, u = t^2/2
    (0, 0): lambda u: 1.0,
    (0, 1): lambda u: u + 0.5,
    (1, 0): lambda u: u + 0.5,
    (1, 1): lambda u: u * u - u + 0.75,
}


def gk_number_pair(n: int, k: int, q, p) -> np.ndarray:
    """Covariant density of the number state n with the number kernel k."""
    a = 0.5 * (np.asarray(q, float) ** 2 + np.asarray(p, float) ** 2)
    return np.exp(-a) * _GK_POLY[(n, k)](a)


def gk_number_pair_radon(n: int, k: int, t) -> np.ndarray:
    """Line integral of :func:`gk_number_pair` at distance t from the origin.

    The density is radial, so every angle gives the same slice; the s
    integrals use int s^(2j) e^{-s^2/2} ds = sqrt(2 pi) (2j-1)!!.
    """
    u = 0.5 * np.asarray(t, float) ** 2
    return SQRT_2PI * np.exp(-u) * _RADON_POLY[(n, k)](u)


def squeezed_wigner(r: float, phi: float, q, p) -> np.ndarray:
    """Wigner function of squeezed vacuum S(r)|0> rotated by e^{i phi N}.

    Before the rotation the position variance is e^{-2r}/2; the rotation
    moves the Wigner function to W(R(-phi)(q, p)).
    """
    q = np.asarray(q, float)
    p = np.asarray(p, float)
    u = q * math.cos(phi) + p * math.sin(phi)
    v = -q * math.sin(phi) + p * math.cos(phi)
    return np.exp(-u * u * math.exp(2.0 * r) - v * v * math.exp(-2.0 * r)) / math.pi


def squeezed_tail(r: float, dim: int) -> float:
    """Norm of the part of S(r)|0> above level dim - 1, from the closed-form
    amplitudes c_2k = sqrt(sech r) (-tanh r)^k sqrt((2k)!) / (2^k k!)."""
    k = np.arange((dim + 1) // 2, (dim + 1) // 2 + 4000)
    log_sq = (-math.log(math.cosh(r)) + 2 * k * math.log(math.tanh(r))
              + gammaln(2 * k + 1.0) - 2 * k * math.log(2.0) - 2 * gammaln(k + 1.0))
    return float(np.sqrt(np.sum(np.exp(log_sq))))


def coherent_number1_gk(beta: complex, q, p) -> np.ndarray:
    """Covariant density of the coherent state |beta> with kernel |1><1|:
    |<beta - alpha|1>|^2 = |beta - alpha|^2 e^{-|beta - alpha|^2}."""
    alpha = (np.asarray(q, float) + 1j * np.asarray(p, float)) / math.sqrt(2.0)
    b = np.abs(beta - alpha) ** 2
    return b * np.exp(-b)


# ---------------------------------------------------------------------------
# smeared marginals and tomography kernels


def marginal_moments(rho: np.ndarray, kernel: np.ndarray, theta: float) -> tuple[float, float]:
    """Mean and variance of the rotated marginal of the covariant observable.

    The marginal is the distribution of X - Y with X ~ Q_theta in rho and
    Y ~ Q_theta in the kernel (the parity flips the kernel's sign), so
    the means subtract and the variances add.
    """
    m_r = quadrature_moments(rho, theta, 2)
    m_k = quadrature_moments(kernel, theta, 2)
    return m_r[1] - m_k[1], (m_r[2] - m_r[1] ** 2) + (m_k[2] - m_k[1] ** 2)


def strip_probability(rho: np.ndarray, kernel: np.ndarray, theta: float,
                      lo: float, hi: float) -> float:
    """P(lo <= X - Y <= hi) for the pair of :func:`marginal_moments`.

    The marginal density m(t) = int p_rho(x) p_K(x - t) dx is summed by the
    trapezoid rule at step 0.01 on |x| <= 16 (spectrally accurate for a
    Gaussian times a polynomial), and t is integrated by 20-point
    Gauss-Legendre panels of width 1/8 over [lo, hi].
    """
    xs = np.linspace(-16.0, 16.0, 3201)
    p_rho = quadrature_density(rho, theta, xs)
    nodes, weights = np.polynomial.legendre.leggauss(20)
    panels = max(1, math.ceil((hi - lo) * 8))
    bounds = np.linspace(lo, hi, panels + 1)
    total = 0.0
    for a, b in zip(bounds[:-1], bounds[1:]):
        ts = 0.5 * (a + b) + 0.5 * (b - a) * nodes
        shifted = quadrature_density(kernel, theta, (xs[None, :] - ts[:, None]).ravel())
        m = np.trapezoid(p_rho[None, :] * shifted.reshape(ts.size, xs.size), xs, axis=1)
        total += 0.5 * (b - a) * float(weights @ m)
    return total


def markov_kernel(n: int, t) -> np.ndarray:
    """Dawson-derivative form sum_u C(n,u) 2^(1-u)/u! F^(2u+1)(t) of the
    Markov kernel of |h_n><h_n|, with F from ``scipy.special.dawsn`` and
    F^(k+1) = -2t F^(k) - 2k F^(k-1), the k-th derivative of F' = 1 - 2tF."""
    t = np.asarray(t, float)
    ders = [dawsn(t), 1.0 - 2.0 * t * dawsn(t)]
    for k in range(1, 2 * n + 1):
        ders.append(-2.0 * t * ders[k] - 2.0 * k * ders[k - 1])
    return sum(
        math.comb(n, u) * 2.0 ** (1 - u) / math.factorial(u) * ders[2 * u + 1]
        for u in range(n + 1)
    )


def interval_trace(theta: float, dim: int) -> float:
    """sum_{n,m<dim} e^{i theta (m-n)} O_nm O_mn with O_nm = int_0^1 h_n h_m,
    the unit-interval trace of the complementarity report."""
    nodes, weights = np.polynomial.legendre.leggauss(60)
    x = 0.5 + 0.5 * nodes
    h = hermite_functions(dim - 1, x)
    o = (h * (0.5 * weights)) @ h.T
    ph = np.exp(1j * theta * np.arange(dim))
    weighted = ph.conj()[:, None] * o * ph[None, :]
    return float(np.sum(weighted * o.T).real)
