"""Wigner functions, the Radon transform, and the tomographic identities.

The Wigner function and the covariant density are both Gaussian times a
polynomial, held exactly by the Hermite tensors of
:mod:`quadsuite.phase_space`.  A point costs one bilinear form in Hermite
functions; a square grid is one :func:`hermite_basis` call and two gemms,
H^T C H.  The values are exact for truncated states: evaluating the
triple product tr[rho W Pi W*] at a fixed truncation instead leaves an
alternating-series artifact of order 1e-5 at radius 8 for a dim-12 state,
which would poison every identity this module is meant to check.

The Radon transform integrates a sampled plane function along the rotated
line x = const; line values are read off the grid with cubic-spline
interpolation.  Linear interpolation carries an O(step^2) integrated bias
(about 4e-5 at step 0.02) that the identity checks cannot absorb, while
the cubic spline's bias is below 1e-8 on the same grid.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import ndimage

from .domains import GridFunction, _pointwise, _require_finite, uniform_axis
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
    return _tensor_values(_wigner_tensor(state), math.sqrt(2.0), pt)


def _tensor_grid(coeffs: np.ndarray, scale: float, extent: float, step: float) -> GridFunction:
    """sum_ab coeffs[a, b] h_a(scale q) h_b(scale p) on the square |q|, |p| <= extent."""
    ax = (-extent, extent, step)
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
    """Line integral of a sampled plane function along the rotated line.

    The line through the frame point (t, s) runs over
    (t cos theta - s sin theta, t sin theta + s cos theta) for
    s in [-L, L] with L the grid half-extent; samples are cubic-spline
    interpolated and summed by the composite trapezoid rule at the grid
    step.  Points beyond the grid count as zero, which the boundary-decay
    check at BOUNDARY_TOL justifies.  Angles are reduced modulo 2 pi
    first, so the transform is exactly periodic.  A NaN or infinite angle
    or line offset raises DomainError.
    """
    grid.require_decayed(BOUNDARY_TOL)
    theta = math.remainder(_require_finite("theta", theta), 2.0 * math.pi)
    (q0, q1, hq), (p0, p1, hp) = grid.axes
    h = min(hq, hp)
    half = 0.5 * max(q1 - q0, p1 - p0)
    s = np.arange(-half, half + 0.5 * h, h)
    c, sn = math.cos(theta), math.sin(theta)

    def slices(ts):
        qs = ts[:, None] * c - s[None, :] * sn
        ps = ts[:, None] * sn + s[None, :] * c
        coords = np.stack([(qs.ravel() - q0) / hq, (ps.ravel() - p0) / hp])
        line = ndimage.map_coordinates(grid.values, coords, order=3, mode="grid-constant", cval=0.0)
        return np.trapezoid(line.reshape(qs.shape), dx=h, axis=1)
    return _pointwise("t", slices, t)


def _radon_gap(grid: GridFunction, theta: float, density) -> float:
    """Max-abs gap between the Radon slice of the grid at angle theta and
    density(xs) on |x| <= 6 at the grid step."""
    xs = uniform_axis(-6.0, 6.0, grid.axes[0][2])
    return float(np.max(np.abs(radon(grid, theta, xs) - density(xs))))


def verify_wigner_radon(state: TruncatedState, theta: float, *, grid: GridFunction | None = None,
                        extent: float = DEFAULT_EXTENT, step: float = DEFAULT_STEP) -> float:
    """Max-abs gap between the Radon slice of the Wigner function and the
    quadrature density at angle theta, on |x| <= 6 at the grid step.

    Pass a precomputed ``grid`` to amortize the Wigner tabulation across
    angles.
    """
    if grid is None:
        grid = wigner_grid(state, extent, step)
    return _radon_gap(grid, theta, lambda xs: quadrature_density(state, theta, xs))


def verify_gk_radon(state: TruncatedState, kernel: TruncatedState, theta: float, *,
                    grid: GridFunction | None = None, extent: float = DEFAULT_EXTENT,
                    step: float = DEFAULT_STEP) -> float:
    """Max-abs gap between the Radon slice of the covariant density and
    2 pi times the rotated marginal (the smeared quadrature density)."""
    if grid is None:
        grid = gk_grid(state, kernel, extent, step)
    return _radon_gap(grid, theta,
                      lambda xs: 2.0 * math.pi * rotated_marginal_density(state, kernel, theta, xs))
