"""Homodyne-style tomography: the angle-averaged quadrature observable,
state reconstruction from angle-resolved densities, and the generalized
Markov kernel that rebuilds phase-space densities from the same data.

The kernel for the number-state smearing |h_n><h_n| depends only on the
shifted coordinate t = x - q cos(theta) - p sin(theta) and has two
independent expressions: a finite combination of odd derivatives of the
Dawson function, and an alternating Hermite series.  Both are implemented
and cross-checked; the derivative form is the fast production path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import binom, dawsn

from .domains import IntervalSet, _count, _phase_point, _pointwise, _require_finite, uniform_axis
from .errors import ConditioningError, ConvergenceError, DomainError
from .fock import TruncatedState, hermite_basis, overlap_matrix

__all__ = [
    "dawson",
    "dawson_derivatives",
    "markov_kernel_number",
    "tomography_probability",
    "QuadratureDataset",
    "generate_dataset",
    "load_dataset",
    "save_dataset",
    "reconstruct_state",
    "gk_from_quadrature_data",
]

MAX_KERNEL_INDEX = 6
SERIES_RTOL = 1e-12
SERIES_MAX_TERMS = 500
SERIES_QUIET_RUN = 5
SERIES_CANCELLATION_LIMIT = 1e-9   # largest eps * sum_k |term_k| the series may carry

MIN_DATASET_ANGLES = 32
MAX_DATASET_STEP = 0.02
CONDITION_LIMIT = 1e10

_SERIES_FIRST_TERMS = 64
_KERNEL_CHUNK = 1 << 14    # kernel values per block of angles in gk_from_quadrature_data


def dawson(t):
    """Dawson integral F(t) = exp(-t^2) int_0^t exp(y^2) dy.

    Delegates to the library implementation (relative error well below
    1e-12 everywhere); F(1) = 0.5380795069127684.  NaN or infinite t
    raises DomainError.
    """
    return _pointwise("t", dawsn, t)


def dawson_derivatives(t, order: int) -> np.ndarray:
    """Derivatives F^(0..order) of the Dawson function at t; DomainError unless t is finite.

    Uses F' = 1 - 2 t F and the recurrence
    F^(k+1) = -2 t F^(k) - 2 k F^(k-1); returns shape (order+1,) + t.shape.
    """
    if order < 0:
        raise DomainError("derivative order must be nonnegative")
    ta = _require_finite("t", np.asarray(t, dtype=float))
    out = np.empty((order + 1,) + ta.shape)
    out[0] = dawsn(ta)
    if order >= 1:
        out[1] = 1.0 - 2.0 * ta * out[0]
    for k in range(1, order):
        out[k + 1] = -2.0 * ta * out[k] - 2.0 * k * out[k - 1]
    return out


def _kernel_derivative_form(n: int, t: np.ndarray) -> np.ndarray:
    """sum_{u<=n} C(n,u) 2^(1-u)/u! F^(2u+1)(t)."""
    ders = dawson_derivatives(t, 2 * n + 1)
    out = np.zeros_like(t)
    for u in range(n + 1):
        out += math.comb(n, u) * 2.0 ** (1 - u) / math.factorial(u) * ders[2 * u + 1]
    return out


def _kernel_series_form(n: int, t: np.ndarray) -> np.ndarray:
    """Alternating Hermite series sum_{k>=n} C(k,n)(-1)^(k-n) k!/(2^k (2k)!) H_2k(t).

    Since H_2k(t) = pi^(1/4) sqrt(4^k (2k)!) e^(t^2/2) h_2k(t), term k is
    C(k,n)(-1)^(k-n) pi^(1/4) k!/sqrt((2k)!) e^(t^2/2) h_2k(t): every term
    comes from one :func:`hermite_basis` table, whose size doubles from
    64 terms until five consecutive terms fall below 1e-12 of the running
    maximum.  The terms grow to about e^(t^2/2) before they cancel, so
    once eps * sum_k |term_k| exceeds SERIES_CANCELLATION_LIMIT at any
    point the sum has lost its digits and ConvergenceError is raised.
    """
    with np.errstate(over="ignore"):
        weight = np.exp(0.5 * t * t)          # inf past |t| ~ 37.6
    k = np.arange(SERIES_MAX_TERMS + 1)
    ratios = np.sqrt(k[1:] / (4.0 * k[1:] - 2.0))   # k!/sqrt((2k)!) over its value at k - 1
    coeffs = (np.pi ** 0.25 * binom(k, n) * (-1.0) ** (k - n)
              * np.concatenate(([1.0], np.cumprod(ratios))))
    size = _SERIES_FIRST_TERMS
    while np.isfinite(weight).all():          # an infinite weight cancels away outright
        size = min(size, SERIES_MAX_TERMS + 1)
        terms = coeffs[:size, None] * hermite_basis(2 * size - 2, t)[::2]
        terms *= weight
        peaks = np.abs(terms).max(axis=1)
        quiet = peaks < SERIES_RTOL * np.maximum.accumulate(peaks)
        quiet[: max(n, 1)] = False            # terms k < n are zero; k = 0 only seeds the maximum
        runs = np.flatnonzero(np.convolve(quiet, np.ones(SERIES_QUIET_RUN), "valid") == SERIES_QUIET_RUN)
        kept = terms[: runs[0] + SERIES_QUIET_RUN] if runs.size else terms
        if np.finfo(float).eps * np.abs(kept).sum(axis=0).max() > SERIES_CANCELLATION_LIMIT:
            break
        if runs.size:
            return kept.sum(axis=0)
        if size > SERIES_MAX_TERMS:
            raise ConvergenceError(
                f"Hermite series for kernel index {n} did not settle in {SERIES_MAX_TERMS} terms"
            )
        size *= 2
    raise ConvergenceError(
        f"Hermite series for kernel index {n} loses more than {SERIES_CANCELLATION_LIMIT:.0e} "
        f"to cancellation at |t| up to {np.max(np.abs(t)):.3g}; use the derivative form"
    )


def markov_kernel_number(n: int, pt, theta: float, x, form: str = "derivative"):
    """Generalized Markov kernel of the number-state smearing |h_n><h_n|.

    Depends on its arguments only through t = x - q cos(theta) - p sin(theta).
    ``form`` selects the Dawson-derivative expression or the Hermite series;
    the two agree to better than 1e-8 on |t| <= 4.  The series cancels
    terms of size e^(t^2/2), so it raises ConvergenceError wherever
    rounding could cost more than 1e-9: from |t| = 6.4 at n = 0 down to
    |t| = 5.4 at n = 6.  The derivative form holds for every finite t.
    At n = 0, t = 0 the value is exactly 2.  A kernel index that is not an
    integer in [0, MAX_KERNEL_INDEX], or NaN or infinite theta, point or x,
    raise DomainError.
    """
    n = _count("kernel index", n, MAX_KERNEL_INDEX)
    q, p = _require_finite("point", np.asarray(_phase_point(pt), dtype=float))
    shift = q * math.cos(_require_finite("theta", theta)) + p * math.sin(theta)
    forms = {"derivative": _kernel_derivative_form, "series": _kernel_series_form}
    if form not in forms:
        raise DomainError(f"unknown kernel form {form!r}")
    return _pointwise("x", lambda xs: forms[form](n, xs - shift), x)


# ---------------------------------------------------------------------------
# the angle-averaged observable


def tomography_probability(state: TruncatedState, angles: IntervalSet,
                           X: IntervalSet) -> float:
    """Probability that (theta, x) falls in angles x X under the
    angle-averaged quadrature observable (uniform angle weight 1/(2 pi))."""
    for a, b in angles.intervals:
        if not (0.0 <= a and b <= 2.0 * math.pi + 1e-15):
            raise DomainError("angle set must lie within [0, 2 pi)")
    d = np.arange(state.dim)[:, None] - np.arange(state.dim)
    # int_a^b e^(i d theta) dtheta = (b - a) e^(i d (a + b)/2) sinc(d (b - a) / (2 pi))
    phase = sum((b - a) * np.exp(0.5j * d * (a + b)) * np.sinc(d * (b - a) / (2.0 * math.pi))
                for a, b in angles.intervals)
    op = overlap_matrix(X, state.dim) * phase / (2.0 * math.pi)
    val = float(np.sum(state.matrix * op.T).real)
    return min(1.0, max(0.0, val))


# ---------------------------------------------------------------------------
# datasets and reconstruction


@dataclass
class QuadratureDataset:
    """Quadrature densities sampled at J equally spaced angles 2 pi j / J.

    ``values[j, i]`` is the density at angle theta_j and point x_i, where
    the x grid is the uniform axis described by ``x_axis``.  Rows must be
    finite, nonnegative (to -1e-10) and integrate to one within 1e-6.
    """

    angles: int
    x_axis: tuple[float, float, float]
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        xs = uniform_axis(*self.x_axis)
        if self.angles < 1 or self.values.shape != (self.angles, xs.size):
            raise DomainError(
                f"values shape {self.values.shape} does not match "
                f"{self.angles} angles x {xs.size} points"
            )
        if not np.isfinite(self.values).all():
            raise DomainError("densities must be finite (NaN or infinite sample)")
        if float(self.values.min()) < -1e-10:
            raise DomainError("densities must be nonnegative")
        masses = np.trapezoid(self.values, dx=self.x_axis[2], axis=1)
        worst = float(np.max(np.abs(masses - 1.0)))
        if worst > 1e-6:
            raise DomainError(f"a density row integrates to 1{worst:+.2e}, not 1")

    @property
    def thetas(self) -> np.ndarray:
        return 2.0 * math.pi * np.arange(self.angles) / self.angles

    @property
    def xs(self) -> np.ndarray:
        return uniform_axis(*self.x_axis)


def _band_products(basis: np.ndarray):
    """Yield (d, P_d) for every band d < D of a Hermite table h_0..h_{D-1}:
    P_d[n] = h_{n+d} h_n for n < D - d, the functions that carry the
    entries rho_{n+d,n} of band d."""
    dim = basis.shape[0]
    for d in range(dim):
        yield d, basis[d:] * basis[: dim - d]


def generate_dataset(state: TruncatedState, angles: int,
                     x_axis=(-8.0, 8.0, 0.01)) -> QuadratureDataset:
    """Tabulate the quadrature densities of a state at J uniform angles.

    Band form: p_theta(x) = sum_d w_d Re(exp(-i d theta) B_d(x)), with
    B_d = sum_n rho_{n+d,n} h_{n+d} h_n, w_0 = 1 and w_{d>0} = 2.  One
    Hermite table gives every B_d, and all J rows come from one real
    product [w_d cos d theta_j | w_d sin d theta_j] @ [Re B; Im B].
    """
    if angles < 1:
        raise DomainError(f"need at least one angle, got {angles}")
    xs = uniform_axis(*x_axis)
    values = np.empty((angles, xs.size))     # before the temporaries: keeps the heap compact
    bands = np.array([np.diagonal(state.matrix, -d) @ products
                      for d, products in _band_products(hermite_basis(state.dim - 1, xs))])
    order = np.arange(state.dim)
    phase = np.outer(2.0 * math.pi * np.arange(angles) / angles, order)
    weights = np.where(order == 0, 1.0, 2.0)
    np.matmul(np.hstack([weights * np.cos(phase), weights * np.sin(phase)]),
              np.vstack([bands.real, bands.imag]), out=values)
    return QuadratureDataset(angles, tuple(x_axis), values)


def save_dataset(data: QuadratureDataset, path) -> None:
    """Write a dataset: header "# J x_min x_max step", one row per angle.

    ``path`` may be a filesystem path or an open text stream.
    """
    lo, hi, step = data.x_axis
    row_format = " ".join(["%.12e"] * data.values.shape[1]) + "\n"
    text = (f"# {data.angles} {lo:.12e} {hi:.12e} {step:.12e}\n"
            + (row_format * data.angles) % tuple(data.values.ravel().tolist()))
    if hasattr(path, "write"):
        path.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


def load_dataset(path) -> QuadratureDataset:
    """Read a dataset written by :func:`save_dataset`.  A file that does not
    parse as one (header, numbers, row lengths, UTF-8) raises DomainError."""
    try:
        with open(path) as fh:
            header = fh.readline()
            if not header.startswith("#"):
                raise DomainError("missing header line")
            j_tok, lo, hi, step = header[1:].split()
            angles, x_axis = int(j_tok), (float(lo), float(hi), float(step))
            values = np.loadtxt(fh, ndmin=2)
    except ValueError as exc:                 # DomainError and UnicodeDecodeError are ValueErrors
        raise DomainError(f"malformed dataset file {path}: {exc}") from exc
    return QuadratureDataset(angles, x_axis, values)


def reconstruct_state(data: QuadratureDataset, dim: int) -> TruncatedState:
    """Recover a density matrix from angle-resolved quadrature densities.

    Inverts the band form p_theta = sum_d w_d Re(exp(-i d theta) B_d) of
    :func:`generate_dataset`: band d carries exp(-i d theta), so one
    discrete Fourier product over the J angles gives every B_d (alias-free
    once J >= 2 dim - 1).  A real least-squares fit of Re B_d and Im B_d
    against the products h_{n+d} h_n recovers rho_{n+d,n}, and the
    largest-to-smallest singular value ratio of that design must stay
    below ``CONDITION_LIMIT``.  The result is projected onto the
    physical cone by clipping negative eigenvalues and renormalizing;
    the clipped mass and fit residual land in ``meta``.
    """
    if dim < 1:
        raise DomainError("dim must be positive")
    if data.angles < 2 * dim - 1:
        raise DomainError(
            f"need at least {2 * dim - 1} angles to separate {dim} levels, "
            f"got {data.angles}"
        )
    # rows d and D + d: real and imaginary part of sum_j exp(i d theta_j) p_j / J
    phase = np.outer(np.arange(dim), data.thetas)
    fourier = np.vstack([np.cos(phase), np.sin(phase)]) @ data.values / data.angles
    rho = np.zeros((dim, dim), dtype=complex)
    residual = 0.0
    for d, products in _band_products(hermite_basis(dim - 1, data.xs)):
        design = products.T
        band = np.stack([fourier[d], fourier[dim + d]], axis=1)
        coeffs, _, _, svals = np.linalg.lstsq(design, band, rcond=None)
        if svals[0] > CONDITION_LIMIT * svals[-1]:
            raise ConditioningError(
                f"band {d} design matrix condition {svals[0]/svals[-1]:.2e} "
                f"exceeds {CONDITION_LIMIT:.0e}"
            )
        residual += float(np.sum((design @ coeffs - band) ** 2))
        ns = np.arange(dim - d)
        rho[ns + d, ns] = coeffs[:, 0] + 1j * coeffs[:, 1]
        if d:
            rho[ns, ns + d] = coeffs[:, 0] - 1j * coeffs[:, 1]
    rho = 0.5 * (rho + rho.conj().T)
    evals, evecs = np.linalg.eigh(rho)
    clipped = float(np.sum(np.minimum(evals, 0.0)))
    evals = np.maximum(evals, 0.0)
    total = float(np.sum(evals))
    if total <= 0.0:
        raise ConditioningError("reconstruction produced an all-zero spectrum")
    rho = (evecs * (evals / total)) @ evecs.conj().T
    return TruncatedState(
        dim, rho, meta={"clipped_mass": clipped, "fit_residual": residual}
    )


def gk_from_quadrature_data(data: QuadratureDataset, n: int, pt) -> float:
    """Phase-space density of the covariant observable with kernel
    |h_n><h_n| rebuilt from quadrature data alone.

    Averages the Markov kernel against the tabulated densities: the
    rectangle rule over the J angles (spectrally accurate for periodic
    integrands) and the trapezoid rule over x.  A kernel index that is not
    an integer in [0, MAX_KERNEL_INDEX] or a NaN or infinite point raises
    DomainError.
    """
    n = _count("kernel index", n, MAX_KERNEL_INDEX)
    if data.angles < MIN_DATASET_ANGLES:
        raise DomainError(f"need at least {MIN_DATASET_ANGLES} angles")
    if data.x_axis[2] > MAX_DATASET_STEP + 1e-15:
        raise DomainError(f"x step must be at most {MAX_DATASET_STEP}")
    q, p = _require_finite("point", np.asarray(_phase_point(pt), dtype=float))
    xs = data.xs
    shifts = q * np.cos(data.thetas) + p * np.sin(data.thetas)
    rows = max(1, _KERNEL_CHUNK // xs.size)
    total = 0.0
    for start in range(0, data.angles, rows):
        block = slice(start, start + rows)
        kernel = _kernel_derivative_form(n, xs - shifts[block, None])
        total += float(np.trapezoid(kernel * data.values[block], dx=data.x_axis[2], axis=1).sum())
    return total / data.angles
