"""Geometric plumbing: interval sets and sampled grid functions.

These are the small value types the numerical routines pass around.  All
grids are uniform; an axis is described by (lo, hi, step) with the number
of points inferred as round((hi - lo)/step) + 1, which keeps endpoints
exact instead of accumulating floating-point drift.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import CoverageError, DomainError

__all__ = [
    "IntervalSet",
    "GridFunction",
    "uniform_axis",
]


def _require_finite(label: str, values):
    """Return values unchanged; DomainError if any entry is NaN or infinite."""
    scalar = isinstance(values, (int, float))      # math.isfinite is ~50x cheaper
    if not (math.isfinite(values) if scalar else np.isfinite(values).all()):
        raise DomainError(f"{label} must be finite, got {values}")
    return values


def _pointwise(label: str, evaluate, *coords, block: int = 0):
    """The point rule of every pointwise function: broadcast the coordinates,
    DomainError on a NaN or infinite entry, evaluate(*flat) on ``block``
    points at a time (0: all at once; an empty input is never evaluated),
    and a float for scalar or 0-d input, else an array of the broadcast shape."""
    arrays = [np.asarray(c, dtype=float) for c in coords]
    arrays = np.broadcast_arrays(*arrays) if len(arrays) > 1 else arrays
    shape, flat = arrays[0].shape, [_require_finite(label, a.ravel()) for a in arrays]
    size = flat[0].size
    if 0 < size <= (block or size):
        out = evaluate(*flat)
    else:
        out = np.empty(size)
        for start in range(0, size, block or 1):
            out[start : start + block] = evaluate(*(f[start : start + block] for f in flat))
    return float(out[0]) if not shape else out.reshape(shape)


def uniform_axis(lo: float, hi: float, step: float) -> np.ndarray:
    """Return the uniform grid lo, lo+step, ..., hi (endpoint included).

    DomainError unless lo < hi are finite and step is positive."""
    if not (math.isfinite(lo) and math.isfinite(hi) and hi > lo and step > 0):
        raise DomainError(f"bad axis spec ({lo}, {hi}, {step})")
    n = round((hi - lo) / step)
    if n < 1 or abs(lo + n * step - hi) > 1e-9 * max(1.0, abs(hi)):
        raise DomainError(f"step {step} does not divide [{lo}, {hi}]")
    return lo + step * np.arange(n + 1)


@dataclass(frozen=True)
class IntervalSet:
    """A finite union of disjoint open-ended intervals on the real line.

    Endpoints may be infinite; ``IntervalSet.full_line()`` is the sentinel
    for the whole axis.  The constructor sorts the pieces and rejects
    overlapping ones.
    """

    intervals: tuple[tuple[float, float], ...]

    def __post_init__(self):
        pieces = sorted((float(a), float(b)) for a, b in self.intervals)
        if not pieces:
            raise DomainError("interval set must contain at least one interval")
        for a, b in pieces:
            if math.isnan(a) or math.isnan(b) or not a < b:
                raise DomainError(f"invalid interval ({a}, {b})")
        for (_, b0), (a1, _) in zip(pieces, pieces[1:]):
            if a1 < b0:
                raise DomainError("intervals must be pairwise disjoint")
        object.__setattr__(self, "intervals", tuple(pieces))

    @classmethod
    def of(cls, *pairs: tuple[float, float]) -> "IntervalSet":
        return cls(tuple(pairs))

    @classmethod
    def full_line(cls) -> "IntervalSet":
        return cls(((-math.inf, math.inf),))

    @property
    def is_bounded(self) -> bool:
        return all(math.isfinite(a) and math.isfinite(b) for a, b in self.intervals)


@dataclass
class GridFunction:
    """Real scalar samples on a uniform 2D grid: ``values[i, j]`` is the
    sample at (q_i, p_j), so rows run over the first axis.
    """

    axes: tuple[tuple[float, float, float], ...]
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if len(self.axes) != 2:
            raise DomainError("grid functions are two-dimensional")
        shape = tuple(len(uniform_axis(*ax)) for ax in self.axes)
        if self.values.shape != shape:
            raise DomainError(
                f"values shape {self.values.shape} does not match axes {shape}"
            )

    def axis_points(self, i: int = 0) -> np.ndarray:
        return uniform_axis(*self.axes[i])

    def boundary_max(self) -> float:
        """Largest absolute sample on the outer frame of the grid."""
        v = self.values
        return max(
            float(np.max(np.abs(v[0, :]))),
            float(np.max(np.abs(v[-1, :]))),
            float(np.max(np.abs(v[:, 0]))),
            float(np.max(np.abs(v[:, -1]))),
        )

    def require_decayed(self, tol: float = 1e-12) -> None:
        """Raise CoverageError unless the boundary frame is below tol."""
        worst = self.boundary_max()
        if worst > tol:
            raise CoverageError(
                f"grid boundary reaches {worst:.3e} > {tol:.1e}; enlarge the grid"
            )

