"""Wigner functions, the Radon transform, and the tomographic identities.

The Wigner function and the covariant density are both Gaussian times a
polynomial, held exactly by the Hermite tensors of
:mod:`quadsuite.phase_space`.  A point costs one bilinear form in Hermite
functions; a square grid is one :func:`hermite_basis` call and two gemms,
H^T C H.  The values are exact for truncated states: evaluating the
triple product tr[rho W Pi W*] at a fixed truncation instead leaves an
alternating-series artifact of order 1e-5 at radius 8 for a dim-12 state,
which would poison every identity this module is meant to check.

The Radon transform integrates a sampled plane function along the line
q cos theta + p sin theta = t, row by row (Joseph, IEEE Trans. Med.
Imaging 1 (1982) 192).  Of the two grid axes, u is the one whose
coefficient, cos theta for q or sin theta for p, is the larger in modulus,
and v is the other.  Each grid row at fixed v then meets the line at
exactly one u, where a 1D cubic B-spline along u reads the row from four
coefficients.  The coefficients come from one tridiagonal solve per call
along u, and the rows sum with weight h_v over that larger modulus.
Every row is walked, so any uniform grid is covered: off-centre,
rectangular, or with different steps on its two axes.  Linear
interpolation carries an O(step^2) integrated bias (about 4e-5 at step
0.02) that the identity checks cannot absorb, while the cubic spline's
bias is below 1e-7 on the same grid.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.linalg import solve_banded

from .domains import GridFunction, _phase_point, _pointwise, _require_finite, uniform_axis
from .fock import TruncatedState, hermite_basis
from .phase_space import _gk_tensor, _tensor_values, _wigner_tensor, rotated_marginal_density
from .quadrature import quadrature_density

__all__ = [
    "wigner",
    "wigner_grid",
    "gk_grid",
    "radon",
    "verify_wigner_radon",
    "verify_gk_radon",
]

DEFAULT_EXTENT = 8.0
DEFAULT_STEP = 0.02
BOUNDARY_TOL = 1e-12


def wigner(state: TruncatedState, pt):
    """Wigner function of the state at (q, p); accepts coordinate arrays.

    Bounded by 1/pi in modulus and integrates to one over the plane.
    """
    return _tensor_values(_wigner_tensor(state), math.sqrt(2.0), _phase_point(pt))


def _tensor_grid(coeffs: np.ndarray, scale: float, extent: float, step: float) -> GridFunction:
    """sum_ab coeffs[a, b] h_a(scale q) h_b(scale p) on the square |q|, |p| <= extent."""
    ax = (-_require_finite("extent", extent), extent, step)
    basis = hermite_basis(len(coeffs) - 1, scale * uniform_axis(*ax))
    return GridFunction((ax, ax), basis.T @ coeffs @ basis)


def wigner_grid(state: TruncatedState, extent: float = DEFAULT_EXTENT,
                step: float = DEFAULT_STEP) -> GridFunction:
    """Wigner function tabulated on the square |q|, |p| <= extent."""
    return _tensor_grid(_wigner_tensor(state), math.sqrt(2.0), extent, step)


def gk_grid(state: TruncatedState, kernel: TruncatedState,
            extent: float = DEFAULT_EXTENT, step: float = DEFAULT_STEP) -> GridFunction:
    """Covariant-observable density tabulated on the square grid."""
    return _tensor_grid(_gk_tensor(state, kernel), 1.0, extent, step)


def radon(grid: GridFunction, theta: float, t):
    """Line integral of a sampled plane function over the line
    q cos theta + p sin theta = t, one grid row at a time.

    Of (cos theta, sin theta), a is the entry of larger modulus and b the
    other; u is the axis that a multiplies (q for cos theta, p for
    sin theta) and v the other axis.  The grid row at v meets the line at
    u = (t - v b) / a.  That point is read with a cubic B-spline
    along u, whose coefficients solve tridiag(1, 4, 1) c = 6 f on each row,
    and the rows sum with weight h_v / |a|.  Beyond the grid the
    coefficients are zero, so samples there count as zero; the boundary
    decay check at BOUNDARY_TOL bounds the spline's tail within two steps
    of the edge.  Angles are reduced modulo 2 pi first, so the transform is
    exactly periodic.  A NaN or infinite angle, line offset or grid sample
    raises DomainError.
    """
    grid.require_decayed(BOUNDARY_TOL)                      # refuses non-finite samples too
    theta = math.remainder(_require_finite("theta", theta), 2.0 * math.pi)
    c, s = math.cos(theta), math.sin(theta)
    (q0, _, hq), (p0, _, hp) = grid.axes
    if abs(c) >= abs(s):
        a, b, u0, hu, v0, hv, samples = c, s, q0, hq, p0, hp, grid.values
    else:
        a, b, u0, hu, v0, hv, samples = s, c, p0, hp, q0, hq, grid.values.T
    nu, nv = samples.shape                                  # samples[u, v]
    # column-major, so that the banded solve overwrites it in place
    rhs = np.multiply(6.0, samples, order="F")
    bands = np.repeat([[1.0], [4.0], [1.0]], nu, axis=1)
    # row v of coeffs holds its nu coefficients between three zeros and four
    coeffs = np.zeros((nv, nu + 7))
    coeffs[:, 3:-4] = solve_banded((1, 1), bands, rhs, overwrite_b=True, check_finite=False).T
    flat = coeffs.ravel()
    starts = np.arange(nv) * (nu + 7)
    # x = u index of the crossing + 2 is the position of the first of its four
    # taps in a coefficient row; clipped to [0, nu + 3], a crossing two steps
    # or more beyond the grid reads only zeros
    shift = (v0 + hv * np.arange(nv)) * (b / (a * hu)) + u0 / hu - 2.0

    def slices(ts):
        x = np.clip(ts[:, None] / (a * hu) - shift, 0.0, nu + 3.0)
        first = x.astype(np.intp)
        f = x - first
        g = 1.0 - f
        f3 = f * f * f
        w0, w1 = g * g * g, 4.0 - 6.0 * f * f + 3.0 * f3       # six times the B-spline weights
        taps = first + starts
        line = w0 * flat[taps] + w1 * flat[taps + 1] + (6.0 - w0 - w1 - f3) * flat[taps + 2] + f3 * flat[taps + 3]
        return line.sum(axis=1) * (hv / (6.0 * abs(a)))
    return _pointwise("t", slices, t, block=16)


def _radon_gap(grid: GridFunction, theta: float, density) -> float:
    """Max-abs gap between the Radon slice of the grid at angle theta and
    density(xs) on |x| <= 6 at the grid step."""
    xs = uniform_axis(-6.0, 6.0, grid.axes[0][2])
    return float(np.max(np.abs(radon(grid, theta, xs) - density(xs))))


def verify_wigner_radon(state: TruncatedState, theta: float, *, grid: GridFunction | None = None) -> float:
    """Max-abs gap between the Radon slice of the Wigner function and the
    quadrature density at angle theta, on |x| <= 6 at the grid step.

    Pass a precomputed ``grid`` to amortize the Wigner tabulation across
    angles; without one, :func:`wigner_grid` tabulates at its defaults.
    """
    if grid is None:
        grid = wigner_grid(state)
    return _radon_gap(grid, theta, lambda xs: quadrature_density(state, theta, xs))


def verify_gk_radon(state: TruncatedState, kernel: TruncatedState, theta: float, *,
                    grid: GridFunction | None = None) -> float:
    """Max-abs gap between the Radon slice of the covariant density and
    2 pi times the rotated marginal (the smeared quadrature density); the
    grid defaults to :func:`gk_grid` at its defaults."""
    if grid is None:
        grid = gk_grid(state, kernel)
    return _radon_gap(grid, theta,
                      lambda xs: 2.0 * math.pi * rotated_marginal_density(state, kernel, theta, xs))
