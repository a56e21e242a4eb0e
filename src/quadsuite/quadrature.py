"""Rotated quadrature observables on the truncated basis.

The position operator Q and momentum P have the familiar tridiagonal
matrices; the rotated quadrature is

    Q_theta = cos(theta) Q + sin(theta) P,

equal to conjugation of Q by the oscillator rotation, so its matrix
entries are exp(i(n-m)theta) Q_nm.  The probability density of Q_theta in
a state rho coincides with the plain position density of the state
rotated by -theta; that covariance convention fixes every sign below.
"""

from __future__ import annotations

import math

import numpy as np

from .domains import IntervalSet, _count, _pointwise, _require_finite
from .errors import ConvergenceError, DomainError
from .fock import MAX_FUNCTION_DEGREE, TruncatedState, _rotated, hermite_basis, overlap_matrix

__all__ = [
    "quadrature_matrix",
    "quadrature_density",
    "quadrature_probability",
    "quadrature_moment",
    "commutator_block",
    "uncertainty_product",
    "trace_pair",
    "weyl_relation_deviation",
    "complementarity_summary",
]

MAX_MOMENT_ORDER = 200
MAX_TRACE_DIM = 400


def quadrature_matrix(theta: float, dim: int) -> np.ndarray:
    """Tridiagonal matrix of Q_theta on the first ``dim`` levels.

    Off-diagonal entries: (Q_theta)_{n,n+1} = exp(-i theta) sqrt((n+1)/2)
    and the Hermitian mirror below the diagonal.
    """
    dim = _count("dim", dim, MAX_FUNCTION_DEGREE + 1, lo=1)
    off = np.sqrt(np.arange(1, dim) / 2.0)
    mat = np.zeros((dim, dim), dtype=complex)
    upper = off * np.exp(-1j * _require_finite("theta", theta))
    mat[np.arange(dim - 1), np.arange(1, dim)] = upper
    mat[np.arange(1, dim), np.arange(dim - 1)] = upper.conj()
    return mat


def quadrature_density(state: TruncatedState, theta: float, x):
    """Probability density of Q_theta at the points x.

    Equals sum_{n,m} rho_nm exp(-i(n-m)theta) h_n(x) h_m(x); real and
    nonnegative up to rounding for a valid state.  The basis is real, so
    only the real part of the rotated matrix counts.
    """
    rho = _rotated(state.matrix, -_require_finite("theta", theta)).real

    def density(xs):
        basis = hermite_basis(state.dim - 1, xs)
        return np.einsum("ni,ni->i", rho @ basis, basis)
    return _pointwise("x", density, x)


def quadrature_probability(state: TruncatedState, theta: float, X: IntervalSet) -> float:
    """Probability that Q_theta falls in the interval set X."""
    rho = _rotated(state.matrix, -_require_finite("theta", theta))
    val = float(np.sum(rho.real * overlap_matrix(X, state.dim)))
    return min(1.0, max(0.0, val))


def _moment_walk(state: TruncatedState, theta: float, k_max: int) -> list[float]:
    """s_k = tr[rho Q_theta^k] for k <= k_max, exact despite truncation: Q_theta
    is tridiagonal, so Y_k = Q_theta Y_(k-1) from Y_0 = rho, applied as its two
    off-diagonals, reaches only the levels below dim + k, where no path from the
    state meets the truncation; s_k = tr Y_k[:dim]."""
    dim = state.dim
    upper = np.sqrt(np.arange(1, dim + k_max) / 2.0)[:, None] * np.exp(-1j * _require_finite("theta", theta))
    walk, moments = state.matrix, [1.0]
    for rows in range(dim + 1, dim + k_max + 1):
        prev, walk = walk, np.zeros((rows, dim), dtype=complex)
        walk[: rows - 2] = upper[: rows - 2] * prev[1:]
        walk[1:] += upper[: rows - 1].conj() * prev
        moments.append(float(np.trace(walk[:dim]).real))
    return moments


def quadrature_moment(state: TruncatedState, theta: float, k: int) -> float:
    """k-th moment of Q_theta, exact despite truncation (see _moment_walk)."""
    return _moment_walk(state, theta, _count("moment order", k, MAX_MOMENT_ORDER))[-1]


def commutator_block(theta: float, dim: int) -> np.ndarray:
    """Top-left (dim-2) block of Q Q_theta - Q_theta Q.

    The truncation corrupts only entries touching the highest level, so
    inside this block the commutator equals i sin(theta) times identity.
    """
    dim = _count("dim", dim, MAX_FUNCTION_DEGREE + 1, lo=3)
    q = quadrature_matrix(0.0, dim)
    q_th = quadrature_matrix(theta, dim)
    comm = q @ q_th - q_th @ q
    return comm[: dim - 2, : dim - 2]


def uncertainty_product(state: TruncatedState, theta: float) -> float:
    """Product Var(Q) Var(Q_theta); bounded below by sin^2(theta)/4."""
    (_, q1, q2), (_, t1, t2) = (_moment_walk(state, angle, 2) for angle in (0.0, theta))
    return (q2 - q1 * q1) * (t2 - t1 * t1)


def trace_pair(X: IntervalSet, Y: IntervalSet, theta: float, dim: int) -> float:
    """Partial trace sum_{n<dim} <h_n| Q(X) Q_theta(Y) |h_n>.

    Decreases monotonically toward lambda(X) lambda(Y) / (2 pi |sin theta|)
    as the dimension grows (about 0.07% high at dim = 200 for unit
    intervals at theta = pi/2).  Both indices run over the first dim levels.
    """
    if not (X.is_bounded and Y.is_bounded):
        raise DomainError("trace_pair needs bounded interval sets")
    dim = _count("dim", dim, MAX_TRACE_DIM, lo=1)
    if abs(math.sin(_require_finite("theta", theta))) < 1e-12:
        raise DomainError("angles with sin(theta) = 0 give a degenerate pair")
    # Q_theta(Y) is Q(Y) rotated by theta; in the trace that moves onto Q(X) as -theta
    weighted = _rotated(overlap_matrix(X, dim), -theta)
    return float(np.sum(weighted.real * overlap_matrix(Y, dim)))


def complementarity_summary(dim: int, theta: float) -> dict:
    """One-shot numeric check of the Q / Q_theta coupling properties.

    Bundles the unit-interval trace estimate against its infinite
    dimensional limit 1 / (2 pi |sin theta|), the commutator deviation
    from i sin(theta) I, the Weyl relation deviation at q = p = 0.5, and
    the uncertainty bound with the squeezed Gaussian that attains it.
    """
    from .fock import gaussian_pure_state

    dim = _count("dim", dim, MAX_TRACE_DIM, lo=3)
    unit = IntervalSet.of((0.0, 1.0))
    estimate = trace_pair(unit, unit, theta, dim)
    limit = 1.0 / (2.0 * math.pi * abs(math.sin(theta)))
    comm = commutator_block(theta, dim)
    eye = np.eye(dim - 2)
    var_q = math.sin(theta) / 2.0
    cov = -var_q / math.tan(theta) if abs(math.cos(theta)) > 1e-15 else 0.0
    squeezed = gaussian_pure_state(var_q, cov, dim)
    bound = math.sin(theta) ** 2 / 4.0
    return {
        "dim": dim,
        "theta": theta,
        "trace_estimate": estimate,
        "trace_limit": limit,
        "trace_rel_error": abs(estimate - limit) / limit,
        "commutator_deviation": float(
            np.max(np.abs(comm - 1j * math.sin(theta) * eye))
        ),
        "weyl_deviation": weyl_relation_deviation(0.5, 0.5, dim),
        "uncertainty_bound": bound,
        "uncertainty_attained": uncertainty_product(squeezed, theta),
    }


def weyl_relation_deviation(q: float, p: float, dim: int) -> float:
    """Truncation test of exp(-iqP) exp(ipQ) = exp(-iqp) exp(ipQ) exp(-iqP).

    Returns the max-abs entry of the difference restricted to the top-left
    dim/2 block, where boundary effects have died off.  NaN or infinite
    q or p raise DomainError, and a shift whose exponential overflows in
    ``expm`` (q = 1e20 at dim 10) ConvergenceError.
    """
    dim = _count("dim", dim, MAX_FUNCTION_DEGREE + 1, lo=2)
    _require_finite("q", q)
    _require_finite("p", p)
    from scipy.linalg import expm
    q_mat = quadrature_matrix(0.0, dim)
    p_mat = quadrature_matrix(math.pi / 2.0, dim)
    with np.errstate(over="ignore", invalid="ignore"):
        shift_q, shift_p = expm(-1j * q * p_mat), expm(1j * p * q_mat)
    if not (np.isfinite(shift_q).all() and np.isfinite(shift_p).all()):
        raise ConvergenceError(f"exp(-iqP) or exp(ipQ) overflows at q = {q:g}, p = {p:g}, dim {dim}")
    left = shift_q @ shift_p
    right = np.exp(-1j * q * p) * (shift_p @ shift_q)
    half = dim // 2
    return float(np.max(np.abs((left - right)[:half, :half])))
