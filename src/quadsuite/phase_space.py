"""Covariant phase-space observables and displacement operators.

For a state on levels < D the Wigner function is exp(-(q^2+p^2)) times a
polynomial, held exactly by a Hermite tensor with N = 2D - 1 rows,
W(q, p) = sum_ab C[a, b] h_a(sqrt(2) q) h_b(sqrt(2) p).  The Wigner
transform of |m><n| is a 50:50 beam splitter B^L (L = m + n) on h_m x h_n
followed by a Fourier factor (-i)^b on the second mode.  B^L is the SU(2)
rotation of the L-photon two-mode block by pi/2 (Campos, Saleh & Teich,
Phys. Rev. A 40 (1989) 1371), built by Risbo's two-sided recursion
(J. Geodesy 70 (1996) 383), which keeps every band orthogonal.  One band
table T[a, b] = sum_m M[m, a+b-m] B^(a+b)[m, a] of a real matrix M is the
one contraction with the bands: of Re rho and Im rho it gives C; against
h_f(0), a quadrature density as one vector over h_a(sqrt(2) x); against
I_f, a rotated marginal as one over h_e(t), exact, with no node rule.  The
covariant density tr[rho W(z) K W(z)*] = 2 pi int W_rho(x) W_K(x - z) d^2x
correlates two Wigner tensors axis by axis, through the same beam splitter,
into sum_eg G[e, g] h_e(q) h_g(p); its axis table of about 8 D^3 doubles
may not outgrow MAX_GK_TABLE (two full-support states fit up to D = 256).

The truncated Weyl operator itself comes from a normalized Laguerre
recurrence that stays in double range on the documented domain
dim <= 400, q^2 + p^2 <= 200.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .domains import IntervalSet, _count, _phase_point, _pointwise, _require_finite
from .errors import DomainError
from .fock import TruncatedState, _line_integrals, _rotated, hermite_basis
# quadrature_density stays importable from here: the benchmark's tracer test reads it
from .quadrature import quadrature_density  # noqa: F401

__all__ = [
    "displacement_matrix",
    "gk_density",
    "rotated_marginal_density",
    "cartesian_marginal_density",
    "strip_probability",
]

MAX_DISPLACEMENT_DIM = 400
MAX_RADIUS_SQ = 200.0
MAX_GK_TABLE = 1 << 28    # doubles in the covariant tensor's axis table gamma (2 GiB)

_CHUNK = 1 << 21      # values per chunk: Hermite rows x points, or tensor slices
_KEPT_BANDS = 1 << 18   # doubles in the largest band table kept (2 MiB; at most eight shapes)


def displacement_matrix(pt, dim: int) -> np.ndarray:
    """Truncated Weyl operator W(q, p).  With a = (q + ip)/sqrt(2), x = |a|^2,
    <h_(n+d)|W|h_n> = a^d e^(-x/2) / sqrt(d!) g_n, where g_n = sqrt(n! d!/(n+d)!)
    L_n^(d)(x) runs g_{n+1} = [(2n+1+d-x) g_n - sqrt(n(n+d)) g_{n-1}] / sqrt((n+1)(n+1+d))
    over n with every diagonal d at once; W^* = W(-q,-p) gives the upper triangle."""
    q, p = _require_finite("point", _phase_point(pt))
    dim = _count("dim", dim, MAX_DISPLACEMENT_DIM, lo=1)
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

    only the previous band is kept, as sqrt(2) B^L on odd L, so that each
    step divides by L or 2 L and never by a rounded sqrt(2)."""
    roots = np.sqrt(np.arange(rows + cols, dtype=float))
    band, lo = np.ones((1, 1)), 0
    yield 0, 0, band
    for L in range(1, rows + cols - 1):
        new_lo, hi = max(0, L - cols + 1), min(L, rows - 1)
        scale = roots[: L + 1, None] / (L if L % 2 else 2 * L)
        wide = np.zeros((hi - new_lo + 2, L + 2))           # rows m - 1 = new_lo - 1..hi, a - 1 = -1..L
        wide[lo - new_lo + 1 : lo - new_lo + 1 + len(band), 1:-1] = band
        top = wide[:-1] * scale[new_lo : hi + 1]
        bot = wide[1:] * scale[L - hi : L - new_lo + 1][::-1]
        band = roots[: L + 1] * (top + bot)[:, :-1] + roots[L::-1] * (top - bot)[:, 1:]
        lo = new_lo
        yield L, lo, (band * math.sqrt(0.5) if L % 2 else band)


def _trimmed(state: TruncatedState) -> np.ndarray:
    """The density matrix on its levels up to the highest one holding a nonzero entry."""
    live = state.matrix != 0
    top = int(np.flatnonzero(live.any(axis=0) | live.any(axis=1))[-1])
    return state.matrix[: top + 1, : top + 1]


def _line_masses(n_max: int):
    """h_f(0) and I_f = int h_f = sqrt(2 pi) |h_f(0)| for f <= n_max, the first
    by h_(f+1)(0) = -sqrt(f/(f+1)) h_(f-1)(0) as one product."""
    odd = np.arange(1.0, n_max, 2)
    zeros = np.zeros(n_max + 1)
    zeros[::2] = np.cumprod(np.concatenate([[np.pi ** -0.25], -np.sqrt(odd / (odd + 1.0))]))
    return zeros, math.sqrt(2.0 * math.pi) * np.abs(zeros)


@functools.lru_cache(maxsize=8)
def _kept_bands(rows: int, cols: int) -> tuple[np.ndarray, ...]:
    """The bands of _beam_splitter(rows, cols), built once per shape, read-only."""
    bands = tuple(band for _, _, band in _beam_splitter(rows, cols))
    for band in bands:
        band.flags.writeable = False
    return bands


def _band_table(mats: np.ndarray) -> np.ndarray:
    """T[k, a, b] = sum_m mats[k, m, a+b-m] B^(a+b)[m, a] for a stack of real matrices:
    antidiagonal L, a diagonal of the column-reversed view, times B^L fills the
    slice [L : L n + 1 : n - 1] of the flat n x n table.  Bands up to _KEPT_BANDS are kept."""
    count, rows, cols = mats.shape
    n, flipped = rows + cols - 1, mats[:, :, ::-1]
    out = np.zeros((count, n * n))
    kept = rows * cols * (rows + cols) <= 2 * _KEPT_BANDS
    bands = _kept_bands(rows, cols) if kept else (band for _, _, band in _beam_splitter(rows, cols))
    for L, band in enumerate(bands):
        out[:, L : L * n + 1 : max(n - 1, 1)] = flipped.diagonal(cols - 1 - L, axis1=1, axis2=2) @ band
    return out.reshape(count, n, n)


def _wigner_tensor(state: TruncatedState) -> np.ndarray:
    """C = Re((-i)^b T[a, b]) / sqrt(pi), +-Re T on even b and +-Im T on odd b, with T
    the band table of the trimmed rho: W(q, p) = sum_ab C[a, b] h_a(sqrt(2) q) h_b(sqrt(2) p)."""
    rho = _trimmed(state)
    re, im = _band_table(np.stack([rho.real, rho.imag]))
    b = np.arange(len(re))
    return np.where(b % 2, im, re) * np.where(b % 4 < 2, 1.0, -1.0) / math.sqrt(math.pi)


def _gk_tensor(state: TruncatedState, kernel: TruncatedState) -> np.ndarray:
    """G with gk(q, p) = sum_eg G[e, g] h_e(q) h_g(p).  Per axis,

        int h_a(sqrt(2) x) h_c(sqrt(2) (x - z)) dx = sum_e gamma[e, a, c] h_e(z),
        gamma[e, a, c] = ((-1)^c / 2) B^(a+c)[a, e] I_(a+c-e),

    and G = 2 pi sum C_s[a, b] C_k[c, d] gamma[e, a, c] gamma[g, b, d], one
    block of e at a time so that no intermediate outgrows gamma, which is
    checked against MAX_GK_TABLE before anything is built."""
    if state.dim != kernel.dim:
        raise DomainError("state and kernel must share one truncation")
    ns, nk = 2 * len(_trimmed(state)) - 1, 2 * len(_trimmed(kernel)) - 1
    ne = ns + nk - 1
    if ne * ns * nk > MAX_GK_TABLE:
        raise DomainError(f"covariant tensor needs {ne * ns * nk} doubles, above its budget {MAX_GK_TABLE}")
    c_s, c_k = _wigner_tensor(state), _wigner_tensor(kernel)
    _, integrals = _line_masses(ne - 1)
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
    """sum_ab coeffs[a, b] h_a(scale q) h_b(scale p) at the broadcast (q, p) points."""
    top = len(coeffs) - 1

    def values(qs, ps):
        return np.einsum("ai,ai->i", hermite_basis(top, scale * qs), coeffs @ hermite_basis(top, scale * ps))
    return _pointwise("phase points", values, *pt, block=max(1, _CHUNK // len(coeffs)))


def gk_density(state: TruncatedState, kernel: TruncatedState, pt):
    """Phase-space density tr[rho W(q,p) K W(q,p)*] of the covariant
    observable generated by the positive unit-trace kernel K.

    Normalized so the integral against dq dp / (2 pi) is one.  Accepts a
    single point or broadcastable coordinate arrays.
    """
    return _tensor_values(_gk_tensor(state, kernel), 1.0, _phase_point(pt))


def _marginal_coeffs(state: TruncatedState, kernel: TruncatedState, theta: float) -> np.ndarray:
    """m with the rotated marginal M(t) = sum_e m_e h_e(t).  The densities of
    the state at theta and of the kernel at theta - pi are vectors p and k by
    h_m(x) h_n(x) = sum_a B^(m+n)[m, a] h_a(sqrt(2) x) h_(m+n-a)(0), and
    int h_a(sqrt(2) x) h_c(sqrt(2) (t - x)) dx = (1/2) sum_e B^(a+c)[a, e] I_(a+c-e) h_e(t)."""
    theta, rho, kap = _require_finite("theta", theta), _trimmed(state), _trimmed(kernel)
    zeros, masses = _line_masses(2 * (len(rho) + len(kap)) - 4)
    p = _band_table(_rotated(rho, -theta).real[None])[0] @ zeros[: 2 * len(rho) - 1]
    k = _band_table(_rotated(kap, math.pi - theta).real[None])[0] @ zeros[: 2 * len(kap) - 1]
    return 0.5 * _band_table(np.outer(p, k)[None])[0] @ masses


def rotated_marginal_density(state: TruncatedState, kernel: TruncatedState, theta: float, t):
    """Density of the rotated marginal of the covariant observable.

    This is the convolution M(t) = int p(x) k(t - x) dx of the quadrature
    density p of the state at angle theta with the position density k of
    the kernel rotated by pi - theta (its quadrature density at theta - pi):
    an unsharp quadrature measurement, exactly sum_e m_e h_e(t).
    """
    coeffs = _marginal_coeffs(state, kernel, theta)
    return _pointwise("t", lambda ts: coeffs @ hermite_basis(len(coeffs) - 1, ts), t,
                      block=max(1, _CHUNK // len(coeffs)))


def cartesian_marginal_density(state, kernel, axis: str, t):
    """Position (axis='q') or momentum (axis='p') marginal; the theta = 0
    or pi/2 special case of :func:`rotated_marginal_density`."""
    if axis not in ("q", "p"):
        raise DomainError(f"axis must be 'q' or 'p', got {axis!r}")
    return rotated_marginal_density(state, kernel, 0.0 if axis == "q" else math.pi / 2.0, t)


def strip_probability(state: TruncatedState, kernel: TruncatedState, theta: float, X: IntervalSet) -> float:
    """Probability that the rotated coordinate falls in X: the measure of
    the strip over X in the rotated frame.

    Exact for every X: sum_e m_e int_X h_e, from the ends of X.
    """
    coeffs = _marginal_coeffs(state, kernel, theta)
    return min(1.0, max(0.0, float(coeffs @ _line_integrals(X, len(coeffs) - 1))))
