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
coefficients.  These come from one in-place LDL^T solve per call of the
zero-padded rows, and the rows sum with weight h_v over that larger modulus.
Every row is walked, so any uniform grid is covered: off-centre,
rectangular, or with different steps on its two axes.  Linear
interpolation carries an O(step^2) integrated bias (about 4e-5 at step
0.02) that the identity checks cannot absorb, while the cubic spline's
bias is below 1e-7 on the same grid.
"""

from __future__ import annotations

import math

import numpy as np

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
    u = (t - v b) / a.  That point is read with a cubic B-spline along u,
    whose coefficients solve tridiag(1, 4, 1) c = 6 f on each row (all rows
    in one in-place LDL^T solve of the zero-padded system), and the rows sum
    with weight h_v / |a|.  Beyond the grid the spline coefficients, not the
    samples, are zero: on a 3-sample u axis (coherent dim-16 Wigner) the
    slices differ from the spline of the zero-extended row by 2.2e-3 of
    0.36, on decayed fine grids by 1e-13.  The boundary decay check at
    BOUNDARY_TOL bounds the spline's tail within two steps of the edge.
    Angles are reduced modulo 2 pi first, so the transform is exactly
    periodic.  A NaN or infinite angle, line offset or grid sample raises
    DomainError.
    """
    grid.require_decayed(BOUNDARY_TOL)                      # refuses non-finite samples too
    theta = math.remainder(_require_finite("theta", theta), 2.0 * math.pi)
    c, s = math.cos(theta), math.sin(theta)
    (q0, _, hq), (p0, _, hp) = grid.axes
    if abs(c) >= abs(s):
        a, b, u0, hu, v0, hv, samples = c, s, q0, hq, p0, hp, grid.values
    else:
        a, b, u0, hu, v0, hv, samples = s, c, p0, hp, q0, hq, grid.values.T
    from scipy.linalg import lapack
    nu, nv = samples.shape                                  # samples[u, v]
    # row v of coeffs holds its nu coefficients between three zeros and four:
    # one LDL^T solve (dpttrf + dpttrs) of the padded system, whose pad rows are
    # identity rows that solve to exact zeros, overwrites the F-ordered coeffs.T
    coeffs = np.zeros((nv, nu + 7))
    np.multiply(6.0, samples.T, out=coeffs[:, 3 : nu + 3])
    diag = np.pad(np.full(nu, 4.0), (3, 4), constant_values=1.0)
    lapack.dptsv(diag, np.pad(np.ones(nu - 1), (3, 4)), coeffs.T, overwrite_b=True)
    flat = coeffs.ravel()
    starts = np.arange(nv) * (nu + 7)
    # x = u index of the crossing + 2 is the position of the first of its four
    # taps in a coefficient row; clipped to [0, nu + 3], a crossing two steps
    # or more beyond the grid reads only zeros.  f holds x, then its fraction
    shift = (v0 + hv * np.arange(nv)) * (b / (a * hu)) + u0 / hu - 2.0

    def slices(ts):
        f = np.subtract.outer(ts / (a * hu), shift)
        np.clip(f, 0.0, nu + 3.0, out=f)
        taps = f.astype(np.intp)
        f -= taps
        f3 = f * f
        f3 *= f
        w0 = 1.0 - f                                        # six times the B-spline weights, in place:
        w1 = w0 * w0
        w0 *= w1                                            # (1 - f)^3
        np.multiply(6.0, f, out=w1)
        w1 *= f
        np.subtract(4.0, w1, out=w1)
        np.multiply(3.0, f3, out=f)
        w1 += f                                             # 4 - 6 f^2 + 3 f^3
        np.subtract(6.0, w0, out=f)
        f -= w1
        f -= f3                                             # 6 - w0 - w1 - f^3
        taps += starts
        line = flat[taps]
        line *= w0
        for w in (w1, f, f3):
            taps += 1
            tap = flat[taps]
            tap *= w
            line += tap
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
