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
supported states carry no truncation bias.  A matrix-exponential route
exp(i(pQ - qP)) is kept as an independent cross-check.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np
from scipy.linalg import expm

from .domains import IntervalSet, _require_finite
from .errors import DomainError
from .fock import TruncatedState, rotate_state, _panel_rule, _support_bound
from .quadrature import _quadrature_density, quadrature_density, quadrature_matrix

__all__ = [
    "PhasePoint",
    "displacement_matrix",
    "displacement_matrix_expm",
    "gk_density",
    "rotated_marginal_density",
    "cartesian_marginal_density",
    "strip_probability",
]

MAX_DISPLACEMENT_DIM = 400
MAX_RADIUS_SQ = 200.0

MARGINAL_EXTENT = 12.0
MARGINAL_STEP = 0.005

_EIGENVALUE_CUT = 1e-14
_MARGINAL_CHUNK = 200_000   # points of kernel density per marginal row chunk
_BLOCK = 8192             # points per block of the displacement engine
_BLOCK_CELLS = 1 << 20    # cap on coefficient rows x points in one block


class PhasePoint(NamedTuple):
    q: float
    p: float

    @property
    def alpha(self) -> complex:
        return complex(self.q, self.p) / math.sqrt(2.0)


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
    gemm per diagonal."""
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


def displacement_matrix_expm(pt, dim: int) -> np.ndarray:
    """Same operator via expm(i(pQ - qP)); truncation-biased near the corner."""
    q, p = pt
    q_mat = quadrature_matrix(0.0, dim).matrix
    p_mat = quadrature_matrix(math.pi / 2.0, dim).matrix
    return expm(1j * (p * q_mat - q * p_mat))


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


def _marginal_kernel_state(kernel: TruncatedState, theta: float) -> TruncatedState:
    """The kernel rotated by pi - theta (parity composed with rotation by -theta)."""
    return rotate_state(kernel, math.pi - theta)


def rotated_marginal_density(
    state: TruncatedState,
    kernel: TruncatedState,
    theta: float,
    t,
    *,
    extent: float = MARGINAL_EXTENT,
    step: float = MARGINAL_STEP,
):
    """Density of the rotated marginal of the covariant observable.

    This is the convolution of the quadrature density of the state at
    angle theta with the position density of the kernel rotated by
    pi - theta: an unsharp quadrature measurement.  The convolution is a
    direct trapezoid sum on |x| <= extent, which resolves states of
    dimension up to about 40 to 1e-12.
    """
    ta = _require_finite("t", np.atleast_1d(np.asarray(t, dtype=float)))
    xs = np.arange(-extent, extent + 0.5 * step, step)
    weights = np.full(xs.size, step)
    weights[0] = weights[-1] = 0.5 * step
    source = quadrature_density(state, theta, xs) * weights
    kprime = _marginal_kernel_state(kernel, theta)

    out = np.empty(ta.size)
    rows = max(1, _MARGINAL_CHUNK // xs.size)
    reach = _support_bound(kernel.dim - 1)
    for start in range(0, ta.size, rows):
        tb = ta[start : start + rows]
        pts = (tb[:, None] - xs[None, :]).ravel()
        kv = np.zeros(pts.size)
        inside = np.abs(pts) <= reach     # the density underflows beyond
        if np.any(inside):
            kv[inside] = _quadrature_density(kprime, 0.0, pts[inside])
        out[start : start + rows] = kv.reshape(tb.size, xs.size) @ source
    if np.isscalar(t) or np.asarray(t).ndim == 0:
        return float(out[0])
    return out.reshape(np.asarray(t).shape)


def cartesian_marginal_density(state, kernel, axis: str, t, **kw):
    """Position (axis='q') or momentum (axis='p') marginal; the theta = 0
    or pi/2 special case of :func:`rotated_marginal_density`."""
    if axis == "q":
        return rotated_marginal_density(state, kernel, 0.0, t, **kw)
    if axis == "p":
        return rotated_marginal_density(state, kernel, math.pi / 2.0, t, **kw)
    raise DomainError(f"axis must be 'q' or 'p', got {axis!r}")


def strip_probability(
    state: TruncatedState,
    kernel: TruncatedState,
    theta: float,
    X: IntervalSet,
    *,
    extent: float = MARGINAL_EXTENT,
    step: float = MARGINAL_STEP,
) -> float:
    """Probability that the rotated coordinate falls in X: the measure of
    the strip over X in the rotated frame.

    Integrates the rotated marginal over X with Gauss-Legendre panels;
    the marginal is negligible outside |t| <= 2 * extent.
    """
    bound = 2.0 * extent
    nodes, ws = _panel_rule(X.clipped(-bound, bound))
    if nodes.size == 0:
        return 0.0
    m_vals = rotated_marginal_density(
        state, kernel, theta, nodes, extent=extent, step=step
    )
    return min(1.0, max(0.0, float(np.dot(ws, m_vals))))
