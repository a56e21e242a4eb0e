"""Geometric plumbing: interval sets, sampled grid functions and the
argument rules.

These are the small value types the numerical routines pass around.  All
grids are uniform; an axis is described by (lo, hi, step) with the number
of points inferred as round((hi - lo)/step) + 1, which keeps endpoints
exact instead of accumulating floating-point drift.

Two rules check every public argument, with DomainError: :func:`_count`
each count (an integer in [lo, hi]; numpy integers pass, a bool does not)
and :func:`_require_finite` each real (numbers, none NaN or infinite).
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import CoverageError, DomainError

__all__ = [
    "IntervalSet",
    "GridFunction",
    "uniform_axis",
]


def _require_finite(label: str, values):
    """Return values unchanged; DomainError unless they are numbers (real or
    complex) none of which is NaN or infinite.  The message names an array's
    count of such entries, not its values."""
    if isinstance(values, (int, float)):          # math.isfinite is ~50x cheaper
        if not math.isfinite(values):
            raise DomainError(f"{label} must be finite, got {values}")
        return values
    try:
        finite = np.isfinite(values)
    except (TypeError, ValueError):
        raise DomainError(f"{label} must be a real number, got {values!r}") from None
    if not finite.all():
        if finite.ndim == 0:
            raise DomainError(f"{label} must be finite, got {values}")
        bad = finite.size - np.count_nonzero(finite)
        raise DomainError(f"{label} must be finite; {bad} of {finite.size} are NaN or infinite")
    return values


def _count(label: str, n, hi: float = math.inf, lo: int = 0) -> int:
    """n as an int; DomainError unless it is an integer in [lo, hi].  Numpy
    integers pass; a bool, a float (2.0 too) or a string does not."""
    if type(n) is not int and (isinstance(n, bool) or not isinstance(n, (int, np.integer))):
        raise DomainError(f"{label} {n!r} is not an integer")
    if not lo <= n <= hi:
        bound = f"exceeds {hi}" if n > hi else "is negative" if lo == 0 else f"is below {lo}"
        raise DomainError(f"{label} {n} {bound}")
    return int(n)


def _phase_point(pt):
    """(q, p) from a phase point: DomainError unless pt holds exactly two
    coordinates.  Each may be a number or an array; finiteness is left to
    _pointwise."""
    try:
        q, p = pt
    except (TypeError, ValueError):
        raise DomainError(f"a phase point has two coordinates (q, p), got {pt!r}") from None
    return q, p


def _pointwise(label: str, evaluate, *coords, block: int = 0):
    """The point rule of every pointwise function: broadcast the coordinates,
    DomainError on an entry that is not a real number or is NaN or infinite,
    evaluate(*flat) on ``block`` points at a time (0: all at once; an empty
    input is never evaluated), and a float for scalar or 0-d input, else an
    array of the broadcast shape."""
    try:
        arrays = [np.asarray(c, dtype=float) for c in coords]
    except (TypeError, ValueError) as exc:
        raise DomainError(f"{label} must be real numbers: {exc}") from None
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

    DomainError unless lo < hi are finite real numbers and step is positive."""
    if not (all(isinstance(v, numbers.Real) for v in (lo, hi, step))
            and math.isfinite(lo) and math.isfinite(hi) and hi > lo and step > 0):
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
        try:
            pieces = sorted((float(a), float(b)) for a, b in self.intervals)
        except (TypeError, ValueError):
            raise DomainError(f"intervals are (lo, hi) pairs of numbers, got {self.intervals!r}") from None
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
        """Raise DomainError if a sample is NaN or infinite, and
        CoverageError unless the boundary frame is below tol."""
        _require_finite("grid values", self.values)
        worst = self.boundary_max()
        if worst > tol:
            raise CoverageError(
                f"grid boundary reaches {worst:.3e} > {tol:.1e}; enlarge the grid"
            )

