"""Covariant phase-space observables and displacement operators.

For a state on levels < D the Wigner function is exp(-(q^2+p^2)) times a
polynomial, held exactly by a Hermite tensor with N = 2D - 1 rows,
W(q, p) = sum_ab C[a, b] h_a(sqrt(2) q) h_b(sqrt(2) p).  The Wigner
transform of |m><n| is a 50:50 beam splitter B^L (L = m + n) on h_m x h_n
followed by a Fourier factor (-i)^b on the second mode.  B^L is the SU(2)
rotation of the L-photon two-mode block by pi/2 (Campos, Saleh & Teich,
Phys. Rev. A 40 (1989) 1371), built by Risbo's two-sided recursion
(J. Geodesy 70 (1996) 383), which keeps every band orthogonal.  The
covariant density tr[rho W(z) K W(z)*] = 2 pi int W_rho(x) W_K(x - z) d^2x
correlates two such tensors axis by axis, through the same beam splitter,
into sum_eg G[e, g] h_e(q) h_g(p).  Both tables are exact for truncated
states, so a value is a bilinear form in :func:`hermite_basis` rows.

The truncated Weyl operator itself comes from a normalized Laguerre
recurrence that stays in double range on the documented domain
dim <= 400, q^2 + p^2 <= 200.

A rotated marginal convolves two quadrature densities, each exp(-x^2)
times a polynomial, so a Gauss-Hermite rule (Golub-Welsch nodes, weights
w e^(u^2) as reciprocal Christoffel sums of Hermite functions, which stay
in double range) gives it exactly, with no grid or cut-off to tune.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.linalg import eigvalsh_tridiagonal

from .domains import IntervalSet, _require_finite
from .errors import DomainError
from .fock import TruncatedState, hermite_basis, _line_integrals
# quadrature_density stays importable from here: the benchmark's tracer test reads it
from .quadrature import _quadrature_density, quadrature_density  # noqa: F401

__all__ = [
    "displacement_matrix",
    "gk_density",
    "rotated_marginal_density",
    "cartesian_marginal_density",
    "strip_probability",
]

MAX_DISPLACEMENT_DIM = 400
MAX_RADIUS_SQ = 200.0

_CHUNK = 1 << 21      # values per chunk: Hermite rows x points, or tensor slices
_PHASES = np.array([1.0, -1j, -1.0, 1j])     # (-i)^b by b mod 4


def displacement_matrix(pt, dim: int) -> np.ndarray:
    """Truncated Weyl operator W(q, p).  With a = (q + ip)/sqrt(2), x = |a|^2,
    <h_(n+d)|W|h_n> = a^d e^(-x/2) / sqrt(d!) g_n, where g_n = sqrt(n! d!/(n+d)!)
    L_n^(d)(x) runs g_{n+1} = [(2n+1+d-x) g_n - sqrt(n(n+d)) g_{n-1}] / sqrt((n+1)(n+1+d))
    over n with every diagonal d at once; W^* = W(-q,-p) gives the upper triangle."""
    q, p = pt
    if dim < 1 or dim > MAX_DISPLACEMENT_DIM:
        raise DomainError(f"dim {dim} outside [1, {MAX_DISPLACEMENT_DIM}]")
    if not q * q + p * p <= MAX_RADIUS_SQ:
        raise DomainError(f"phase point ({q}, {p}) outside q^2+p^2 <= {MAX_RADIUS_SQ}")
    alpha = complex(q, p) / math.sqrt(2.0)
    x = abs(alpha) ** 2
    d = np.arange(dim)
    head = np.cumprod(np.concatenate([[math.exp(-0.5 * x)], alpha / np.sqrt(d[1:])]))
    g = np.empty((dim, dim))                                            # g[n, d]
    g[0] = 1.0
    if dim > 1:
        g[1] = (1 + d - x) / np.sqrt(1.0 + d)
    for n in range(1, dim - 1):
        g[n + 1] = (2 * n + 1 + d - x) * g[n] - np.sqrt(n * (n + d)) * g[n - 1]
        g[n + 1] /= np.sqrt((n + 1) * (n + 1 + d))
    m, n = np.tril_indices(dim)
    d = m - n
    mat = np.empty((dim, dim), dtype=complex)
    mat[m, n] = head[d] * g[n, d]
    mat[n, m] = (-1.0) ** d * head[d].conj() * g[n, d]
    return mat


def _beam_splitter(rows: int, cols: int):
    """Yield (L, lo, band) for L < rows + cols - 1, with band[i, a] = B^L[m, a]
    for the rows m = lo + i that have m < rows and L - m < cols.  From
    B^0 = [1], with entries outside the previous band counting as zero,

        B^L[m, a] = [sqrt(m) (sqrt(a) B^(L-1)[m-1, a-1] + sqrt(L-a) B^(L-1)[m-1, a])
                     + sqrt(L-m) (sqrt(a) B^(L-1)[m, a-1] - sqrt(L-a) B^(L-1)[m, a])] / (sqrt(2) L);

    only the previous band is kept."""
    roots = np.sqrt(np.arange(rows + cols, dtype=float))
    band, lo = np.ones((1, 1)), 0
    yield 0, 0, band
    for L in range(1, rows + cols - 1):
        new_lo, hi = max(0, L - cols + 1), min(L, rows - 1)
        wide = np.zeros((hi - new_lo + 2, L + 2))           # rows m - 1 = new_lo - 1..hi, a - 1 = -1..L
        wide[lo - new_lo + 1 : lo - new_lo + 1 + len(band), 1:-1] = band
        top = wide[:-1] * (roots[new_lo : hi + 1, None] / (math.sqrt(2.0) * L))
        bot = wide[1:] * (roots[L - hi : L - new_lo + 1][::-1, None] / (math.sqrt(2.0) * L))
        band = roots[: L + 1] * (top + bot)[:, :-1] + roots[L::-1] * (top - bot)[:, 1:]
        lo = new_lo
        yield L, lo, band


def _trimmed(state: TruncatedState) -> TruncatedState:
    """The state on its levels up to the highest one holding a nonzero entry."""
    live = state.matrix != 0
    top = int(np.flatnonzero(live.any(axis=0) | live.any(axis=1))[-1])
    return state if top == state.dim - 1 else TruncatedState(top + 1, state.matrix[: top + 1, : top + 1])


def _wigner_tensor(state: TruncatedState) -> np.ndarray:
    """C with W(q, p) = sum_ab C[a, b] h_a(sqrt(2) q) h_b(sqrt(2) p) for the
    trimmed state: C[a, L-a] = Re((-i)^(L-a) sum_m rho[m, L-m] B^L[m, a]) / sqrt(pi)."""
    rho = _trimmed(state).matrix
    dim = len(rho)
    coeffs = np.zeros((2 * dim - 1, 2 * dim - 1))
    for L, lo, band in _beam_splitter(dim, dim):
        m, a = np.arange(lo, lo + len(band)), np.arange(L + 1)
        coeffs[a, L - a] = (_PHASES[(L - a) % 4] * (rho[m, L - m] @ band)).real
    return coeffs / math.sqrt(math.pi)


def _gk_tensor(state: TruncatedState, kernel: TruncatedState) -> np.ndarray:
    """G with gk(q, p) = sum_eg G[e, g] h_e(q) h_g(p).  Per axis,

        int h_a(sqrt(2) x) h_c(sqrt(2) (x - z)) dx = sum_e gamma[e, a, c] h_e(z),
        gamma[e, a, c] = ((-1)^c / 2) B^(a+c)[a, e] I_(a+c-e),

    with I_f = int h_f = sqrt(2 pi) |h_f(0)|, and G = 2 pi sum C_s[a, b]
    C_k[c, d] gamma[e, a, c] gamma[g, b, d], one block of e at a time so
    that no intermediate outgrows gamma."""
    if state.dim != kernel.dim:
        raise DomainError("state and kernel must share one truncation")
    c_s, c_k = _wigner_tensor(state), _wigner_tensor(kernel)
    ns, nk = len(c_s), len(c_k)
    ne = ns + nk - 1
    integrals = math.sqrt(2.0 * math.pi) * np.abs(hermite_basis(ne - 1, 0.0)[:, 0])
    gamma = np.zeros((ne, ns, nk))
    for L, lo, band in _beam_splitter(ns, nk):
        a = np.arange(lo, lo + len(band))
        gamma[: L + 1, a, L - a] = (band * integrals[L::-1]).T * (0.5 * (-1.0) ** (L - a))
    flat = gamma.reshape(ne, -1)
    out = np.empty((ne, ne))
    block = max(1, _CHUNK // flat.shape[1])
    for start in range(0, ne, block):
        part = c_s.T @ gamma[start : start + block] @ c_k                  # [e, b, d]
        out[start : start + block] = part.reshape(len(part), -1) @ flat.T
    return 2.0 * math.pi * out


def _tensor_values(coeffs: np.ndarray, scale: float, pt):
    """sum_ab coeffs[a, b] h_a(scale q) h_b(scale p) at the broadcast (q, p)
    points, block by block; a float for a single point."""
    qa, pa = np.broadcast_arrays(*(_require_finite("phase points", np.asarray(c, float)) for c in pt))
    qs, ps = scale * qa.ravel(), scale * pa.ravel()
    top = len(coeffs) - 1
    out = np.empty(qs.size)
    block = max(1, _CHUNK // len(coeffs))
    for start in range(0, qs.size, block):
        part = slice(start, start + block)
        hq, hp = hermite_basis(top, qs[part]), hermite_basis(top, ps[part])
        out[part] = np.einsum("ai,ai->i", hq, coeffs @ hp)
    out = out.reshape(qa.shape)
    return float(out) if out.ndim == 0 else out


def gk_density(state: TruncatedState, kernel: TruncatedState, pt):
    """Phase-space density tr[rho W(q,p) K W(q,p)*] of the covariant
    observable generated by the positive unit-trace kernel K.

    Normalized so the integral against dq dp / (2 pi) is one.  Accepts a
    single point or broadcastable coordinate arrays.
    """
    return _tensor_values(_gk_tensor(state, kernel), 1.0, pt)


def _hermite_rule(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gauss-Hermite nodes u (Golub-Welsch), the table h_k(u) for k < n, and
    lam = w e^(u^2), the reciprocal Christoffel function 1 / sum_k h_k(u)^2."""
    u = eigvalsh_tridiagonal(np.zeros(n), np.sqrt(np.arange(1.0, n) / 2.0))
    basis = hermite_basis(n - 1, u)
    return u, basis, 1.0 / np.einsum("ki,ki->i", basis, basis)


def rotated_marginal_density(state: TruncatedState, kernel: TruncatedState, theta: float, t):
    """Density of the rotated marginal of the covariant observable.

    This is the convolution M(t) = int p(x) k(t - x) dx of the quadrature
    density p of the state at angle theta with the position density k of
    the kernel rotated by pi - theta (its quadrature density at theta - pi):
    an unsharp quadrature measurement.  With n_s and n_k the highest levels
    holding a nonzero entry, n_s + n_k + 1 Gauss-Hermite nodes give it
    exactly, M(t) = (1/sqrt(2)) sum_i lam_i p(t/2 + u_i/sqrt(2)) k(t/2 - u_i/sqrt(2)).
    """
    ta = _require_finite("t", np.asarray(t, dtype=float))
    src, ker = _trimmed(state), _trimmed(kernel)
    u, _, lam = _hermite_rule(src.dim + ker.dim - 1)
    half, lam = u / math.sqrt(2.0), lam / math.sqrt(2.0)
    flat = ta.ravel()
    out = np.empty(flat.size)
    rows = max(1, _CHUNK // (u.size * max(src.dim, ker.dim)))
    for start in range(0, flat.size, rows):
        mid = 0.5 * flat[start : start + rows, None]
        vals = (_quadrature_density(src, theta, (mid + half).ravel())
                * _quadrature_density(ker, theta - math.pi, (mid - half).ravel()))
        out[start : start + rows] = vals.reshape(-1, u.size) @ lam
    out = out.reshape(ta.shape)
    return float(out) if out.ndim == 0 else out


def cartesian_marginal_density(state, kernel, axis: str, t):
    """Position (axis='q') or momentum (axis='p') marginal; the theta = 0
    or pi/2 special case of :func:`rotated_marginal_density`."""
    if axis == "q":
        return rotated_marginal_density(state, kernel, 0.0, t)
    if axis == "p":
        return rotated_marginal_density(state, kernel, math.pi / 2.0, t)
    raise DomainError(f"axis must be 'q' or 'p', got {axis!r}")


def strip_probability(state: TruncatedState, kernel: TruncatedState, theta: float, X: IntervalSet) -> float:
    """Probability that the rotated coordinate falls in X: the measure of
    the strip over X in the rotated frame.

    Exact for every X.  The rotated marginal M is exp(-t^2/2) times a
    polynomial of degree 2 (n_s + n_k), so M = sum_(a<N) c_a h_a with
    N = 2 (n_s + n_k) + 1, and N Gauss-Hermite nodes give
    c_a = sum_i lam_i M(u_i) h_a(u_i) exactly.  The probability is
    sum_a c_a int_X h_a, with the integrals from the ends of X.
    """
    u, basis, lam = _hermite_rule(2 * (_trimmed(state).dim + _trimmed(kernel).dim) - 3)
    coeffs = basis @ (lam * rotated_marginal_density(state, kernel, theta, u))
    return min(1.0, max(0.0, float(coeffs @ _line_integrals(X, u.size - 1))))
