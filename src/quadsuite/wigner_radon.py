"""Wigner functions, the Radon transform, and the tomographic identities.

The Wigner function is the trace of the state against the displaced
parity operator,

    W_rho(q, p) = (1/pi) tr[rho W(q,p) Pi W(q,p)*],

and the operator identity W(q,p) Pi W(q,p)* = W(2q,2p) Pi reduces this to
a single displacement evaluated at the doubled point.  That reduction is
used verbatim: it needs only the Weyl matrix elements inside the truncation,
exact from the Laguerre recurrence of :mod:`quadsuite.phase_space`, so the
sampled values are exact for truncated states.
Evaluating the triple product at a fixed truncation instead leaves an
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

from .domains import GridFunction, uniform_axis
from .errors import DomainError
from .fock import TruncatedState
from .phase_space import _contract_displacement, gk_density, rotated_marginal_density
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
    coeff = (state.matrix.T * (-1.0) ** np.arange(state.dim))[None]   # rho^T Pi
    doubled = (2.0 * np.asarray(pt[0], float), 2.0 * np.asarray(pt[1], float))
    return _contract_displacement(doubled, coeff, lambda re, im: re[0] / math.pi)


def wigner_grid(state: TruncatedState, extent: float = DEFAULT_EXTENT,
                step: float = DEFAULT_STEP) -> GridFunction:
    """Wigner function tabulated on the square |q|, |p| <= extent."""
    ax = (-extent, extent, step)
    return GridFunction.sample2d(
        lambda qs, ps: wigner(state, (qs, ps)), ax, ax,
        meta={"kind": "wigner"},
    )


def gk_grid(state: TruncatedState, kernel: TruncatedState,
            extent: float = DEFAULT_EXTENT, step: float = DEFAULT_STEP) -> GridFunction:
    """Covariant-observable density tabulated on the square grid."""
    ax = (-extent, extent, step)
    return GridFunction.sample2d(
        lambda qs, ps: gk_density(state, kernel, (qs, ps)), ax, ax,
        meta={"kind": "gk"},
    )


def radon(grid: GridFunction, theta: float, t):
    """Line integral of a sampled plane function along the rotated line.

    The line through the frame point (t, s) runs over
    (t cos theta - s sin theta, t sin theta + s cos theta) for
    s in [-L, L] with L the grid half-extent; samples are cubic-spline
    interpolated and summed by the composite trapezoid rule at the grid
    step.  Points beyond the grid count as zero, which the boundary-decay
    check at BOUNDARY_TOL justifies.  Angles are reduced modulo 2 pi
    first, so the transform is exactly periodic.
    """
    if grid.ndim != 2:
        raise DomainError("radon needs a 2D grid")
    grid.require_decayed(BOUNDARY_TOL)
    theta = math.remainder(theta, 2.0 * math.pi)
    (q0, q1, hq), (p0, p1, hp) = grid.axes
    h = min(hq, hp)
    half = 0.5 * max(q1 - q0, p1 - p0)
    s = np.arange(-half, half + 0.5 * h, h)
    ta = np.atleast_1d(np.asarray(t, dtype=float))
    c, sn = math.cos(theta), math.sin(theta)
    qs = ta[:, None] * c - s[None, :] * sn
    ps = ta[:, None] * sn + s[None, :] * c
    coords = np.stack([(qs.ravel() - q0) / hq, (ps.ravel() - p0) / hp])
    line = ndimage.map_coordinates(
        grid.values, coords, order=3, mode="grid-constant", cval=0.0
    ).reshape(qs.shape)
    vals = np.trapezoid(line, dx=h, axis=1)
    if np.isscalar(t) or np.asarray(t).ndim == 0:
        return float(vals[0])
    return vals


def verify_wigner_radon(
    state: TruncatedState,
    theta: float,
    *,
    grid: GridFunction | None = None,
    extent: float = DEFAULT_EXTENT,
    step: float = DEFAULT_STEP,
    xs: np.ndarray | None = None,
) -> float:
    """Max-abs gap between the Radon slice of the Wigner function and the
    quadrature density at angle theta.

    Pass a precomputed ``grid`` to amortize the Wigner tabulation across
    angles.  Default comparison points are |x| <= 6 at the grid step.
    """
    if grid is None:
        grid = wigner_grid(state, extent, step)
    if xs is None:
        xs = uniform_axis(-6.0, 6.0, step)
    sliced = radon(grid, theta, xs)
    direct = quadrature_density(state, theta, xs)
    return float(np.max(np.abs(sliced - direct)))


def verify_gk_radon(
    state: TruncatedState,
    kernel: TruncatedState,
    theta: float,
    *,
    grid: GridFunction | None = None,
    extent: float = DEFAULT_EXTENT,
    step: float = DEFAULT_STEP,
    xs: np.ndarray | None = None,
) -> float:
    """Max-abs gap between the Radon slice of the covariant density and
    2 pi times the rotated marginal (the smeared quadrature density)."""
    if grid is None:
        grid = gk_grid(state, kernel, extent, step)
    if xs is None:
        xs = uniform_axis(-6.0, 6.0, step)
    sliced = radon(grid, theta, xs)
    direct = 2.0 * math.pi * rotated_marginal_density(state, kernel, theta, xs)
    return float(np.max(np.abs(sliced - direct)))
