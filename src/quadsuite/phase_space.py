"""Displacement operators and covariant phase-space observables.

With a = (q + ip)/sqrt(2), x = |a|^2 and m = n + d, the Weyl operator has
the number-basis matrix elements <h_m|W(q,p)|h_n> = head_d g_n, where

    head_d = a^d exp(-x/2) / sqrt(d!),   g_n = sqrt(n! d!/(n+d)!) L_n^(d)(x),

and W(q,p)^* = W(-q,-p) gives the upper triangle with (-conj a)^d.  One
engine evaluates them: the head as a running product in d, and g by the
forward recurrence g_0 = 1, g_1 = (1+d-x)/sqrt(1+d),

    g_{n+1} = [(2n+1+d-x) g_n - sqrt(n(n+d)) g_{n-1}] / sqrt((n+1)(n+1+d)),

at O(1) cost per value.  |head_d| <= 1 and |g_n| <= sqrt(C(n+d,n)) e^(x/2),
so nothing leaves double range on the documented domain dim <= 400,
q^2 + p^2 <= 200.  The entries are exact, so traces against finitely
supported states carry no truncation bias.

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
from .fock import TruncatedState, hermite_basis, _panel_rule, _support_bound
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

_EIGENVALUE_CUT = 1e-14
_MARGINAL_CHUNK = 1 << 21   # Hermite values per marginal row chunk
_BLOCK = 8192             # points per block of the displacement engine
_BLOCK_CELLS = 1 << 20    # cap on coefficient rows x points in one block


def _laguerre_rows(shift: np.ndarray, d, count: int) -> np.ndarray:
    """g_n^(d)(x) for n < count on a new leading axis, from the table
    shift[s] = s - x (s < 2 count + d): either one order d over points x, or
    one point x over an array of orders d."""
    first = shift[1 + d]
    g = np.empty((count,) + first.shape)
    g[0] = 1.0
    if count > 1:
        g[1] = first / np.sqrt(1.0 + d)
    rows, tmp = list(g), np.empty(first.shape)    # row views: cheap per-step lookups
    for n in range(1, count - 1):
        np.multiply(shift[2 * n + 1 + d], rows[n], out=rows[n + 1])
        np.multiply(rows[n - 1], (n * (n + d)) ** 0.5, out=tmp)
        rows[n + 1] -= tmp
        rows[n + 1] /= ((n + 1) * (n + 1 + d)) ** 0.5
    return g


def _contract_displacement(pt, coeffs: np.ndarray, reduce):
    """reduce(re, im) at the broadcast (q, p) points, block by block, with
    re + i im = sum_{m,n} <h_m|W(q,p)|h_n> coeffs[r, m, n] in row r; a float
    for a single point.  Diagonal d folds its lower and upper coefficients
    into one real (4 rows, dim - d) weight matrix: one recurrence and one
    gemm per diagonal that holds a nonzero coefficient."""
    qa, pa = np.broadcast_arrays(*(_require_finite("phase points", np.asarray(c, float)) for c in pt))
    alphas = ((qa + 1j * pa) / math.sqrt(2.0)).ravel()
    rows, dim, _ = coeffs.shape
    # With head = hr + i hi:  re += hr (lo+up).real - hi (lo-up).imag  and
    # im += hr (lo+up).imag + hi (lo-up).real, each dotted into g.
    weights = []
    for d in range(dim):
        lo = np.diagonal(coeffs, -d, axis1=1, axis2=2)    # coeffs[r, n+d, n]
        up = (-1) ** d * np.diagonal(coeffs, d, axis1=1, axis2=2) if d else 0.0
        weights.append(np.concatenate([(lo + up).real, (up - lo).imag, (lo + up).imag, (lo - up).real]))
    live = [w.any() for w in weights]      # all-zero diagonals skip recurrence and gemm
    block = max(1, min(_BLOCK, _BLOCK_CELLS // rows))
    out = np.empty(alphas.size)
    for start in range(0, alphas.size, block):
        alpha = alphas[start : start + block]
        x = alpha.real**2 + alpha.imag**2
        shift = np.arange(2.0 * dim)[:, None] - x
        head = np.exp(-0.5 * x).astype(complex)
        acc = np.zeros((2, rows, alpha.size))                      # re, im
        for d in range(dim):
            if d:
                head *= alpha
                head *= 1.0 / math.sqrt(d)
            if not live[d]:
                continue
            terms = (weights[d] @ _laguerre_rows(shift, d, dim - d)).reshape(2, 2, rows, -1)
            terms[:, 0] *= head.real
            terms[:, 1] *= head.imag
            acc += terms[:, 0]
            acc += terms[:, 1]
        out[start : start + alpha.size] = reduce(*acc)
    out = out.reshape(qa.shape)
    return float(out) if out.ndim == 0 else out


def displacement_matrix(pt, dim: int) -> np.ndarray:
    """Truncated Weyl operator W(q, p) from the normalized recurrence, run
    over n with every diagonal d at once."""
    q, p = pt
    if dim < 1 or dim > MAX_DISPLACEMENT_DIM:
        raise DomainError(f"dim {dim} outside [1, {MAX_DISPLACEMENT_DIM}]")
    if not q * q + p * p <= MAX_RADIUS_SQ:
        raise DomainError(f"phase point ({q}, {p}) outside q^2+p^2 <= {MAX_RADIUS_SQ}")
    alpha = complex(q, p) / math.sqrt(2.0)
    x = abs(alpha) ** 2
    orders = np.arange(dim)
    head = np.cumprod(np.concatenate([[math.exp(-0.5 * x)], alpha / np.sqrt(orders[1:])]))
    g = _laguerre_rows(np.arange(3.0 * dim) - x, orders, dim)           # g[n, d]
    m, n = np.tril_indices(dim)
    d = m - n
    mat = np.empty((dim, dim), dtype=complex)
    mat[m, n] = head[d] * g[n, d]
    mat[n, m] = (-1.0) ** d * head[d].conj() * g[n, d]
    return mat


def _low_rank(state: TruncatedState) -> tuple[np.ndarray, np.ndarray]:
    evals, evecs = np.linalg.eigh(state.matrix)
    keep = evals > _EIGENVALUE_CUT
    return evals[keep], evecs[:, keep]


def gk_density(state: TruncatedState, kernel: TruncatedState, pt):
    """Phase-space density tr[rho W(q,p) K W(q,p)*] of the covariant
    observable generated by the positive unit-trace kernel K.

    Normalized so the integral against dq dp / (2 pi) is one.  Accepts a
    single point or broadcastable coordinate arrays.
    """
    if state.dim != kernel.dim:
        raise DomainError("state and kernel must share one truncation")
    # sum_ij lam_i kap_j |<u_i|W|v_j>|^2: every eigenpair is one coefficient row
    (lam, u_vecs), (kap, v_vecs) = _low_rank(state), _low_rank(kernel)
    coeffs = np.einsum("mi,nj->ijmn", u_vecs.conj(), v_vecs).reshape(-1, state.dim, state.dim)
    pair_weights = np.outer(lam, kap).ravel()
    return _contract_displacement(pt, coeffs, lambda re, im: pair_weights @ (re * re + im * im))


def _trimmed(state: TruncatedState) -> TruncatedState:
    """The state on its levels up to the highest one holding a nonzero entry."""
    live = state.matrix != 0
    top = int(np.flatnonzero(live.any(axis=0) | live.any(axis=1))[-1])
    return state if top == state.dim - 1 else TruncatedState(top + 1, state.matrix[: top + 1, : top + 1])


def _hermite_rule(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Hermite nodes u (Golub-Welsch) and lam = w e^(u^2), taken as
    the reciprocal Christoffel function 1 / sum_{k<n} h_k(u)^2."""
    u = eigvalsh_tridiagonal(np.zeros(n), np.sqrt(np.arange(1.0, n) / 2.0))
    basis = hermite_basis(n - 1, u)
    return u, 1.0 / np.einsum("ki,ki->i", basis, basis)


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
    u, lam = _hermite_rule(src.dim + ker.dim - 1)
    half, lam = u / math.sqrt(2.0), lam / math.sqrt(2.0)
    flat = ta.ravel()
    out = np.empty(flat.size)
    rows = max(1, _MARGINAL_CHUNK // (u.size * max(src.dim, ker.dim)))
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

    Integrates the rotated marginal over X with Gauss-Legendre panels.  The
    marginal is the law of a sum of the two quadratures, so it is negligible
    outside the sum of their support bounds.
    """
    _require_finite("theta", theta)
    bound = _support_bound(_trimmed(state).dim - 1) + _support_bound(_trimmed(kernel).dim - 1)
    nodes, ws = _panel_rule(X.clipped(-bound, bound))
    if nodes.size == 0:
        return 0.0
    return min(1.0, max(0.0, float(np.dot(ws, rotated_marginal_density(state, kernel, theta, nodes)))))
