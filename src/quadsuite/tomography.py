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
from dataclasses import dataclass, field

import numpy as np
from scipy.special import dawsn, gammaln

from .domains import IntervalSet, uniform_axis
from .errors import ConditioningError, ConvergenceError, DomainError
from .fock import TruncatedState, hermite_basis, overlap_matrix
from .quadrature import quadrature_density

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

MIN_DATASET_ANGLES = 32
MAX_DATASET_STEP = 0.02
CONDITION_LIMIT = 1e10


def dawson(t):
    """Dawson integral F(t) = exp(-t^2) int_0^t exp(y^2) dy.

    Delegates to the library implementation (relative error well below
    1e-12 everywhere); F(1) = 0.5380795069127684.
    """
    vals = dawsn(np.asarray(t, dtype=float))
    return vals if isinstance(t, np.ndarray) else float(vals)


def dawson_derivatives(t, order: int) -> np.ndarray:
    """Derivatives F^(0..order) of the Dawson function at t.

    Uses F' = 1 - 2 t F and the recurrence
    F^(k+1) = -2 t F^(k) - 2 k F^(k-1); returns shape (order+1,) + t.shape.
    """
    if order < 0:
        raise DomainError("derivative order must be nonnegative")
    ta = np.asarray(t, dtype=float)
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

    Terms decay like 2^-k; the Hermite values are carried with a running
    per-element log scale so intermediate H_2k never overflow.  Stops after
    five consecutive terms below 1e-12 of the running maximum.
    """
    mant_prev = np.ones_like(t)          # scaled H_{m-1}
    mant_cur = 2.0 * t                   # scaled H_m at m = 1
    log_scale = np.zeros_like(t)
    out = np.zeros_like(t)
    running_max = 0.0
    if n == 0:                           # k = 0 term: H_0 = 1
        out += 1.0
        running_max = 1.0
    quiet = 0
    m = 1
    for k in range(1, SERIES_MAX_TERMS + 1):
        while m < 2 * k:                 # advance the recurrence to H_{2k}
            mant_prev, mant_cur = (
                mant_cur,
                2.0 * t * mant_cur - 2.0 * m * mant_prev,
            )
            m += 1
            peak = np.maximum(np.abs(mant_cur), np.abs(mant_prev))
            peak = np.where(peak > 0, peak, 1.0)
            big = peak > 1e100
            if np.any(big):
                shrink = np.where(big, peak, 1.0)
                mant_cur = mant_cur / shrink
                mant_prev = mant_prev / shrink
                log_scale = log_scale + np.log(shrink)
        if k < n:
            continue
        log_coeff = (
            gammaln(k + 1) - gammaln(n + 1) - gammaln(k - n + 1)   # log C(k,n)
            + gammaln(k + 1) - k * math.log(2.0) - gammaln(2 * k + 1)
        )
        sign = np.sign(mant_cur) * (-1.0) ** (k - n)
        with np.errstate(divide="ignore"):
            magnitude = np.exp(log_coeff + log_scale + np.log(np.abs(mant_cur)))
        term = np.where(mant_cur == 0.0, 0.0, sign * magnitude)
        out += term
        largest = float(np.max(np.abs(term)))
        running_max = max(running_max, largest)
        quiet = quiet + 1 if largest < SERIES_RTOL * running_max else 0
        if quiet >= SERIES_QUIET_RUN:
            return out
    raise ConvergenceError(
        f"Hermite series for kernel index {n} did not settle in "
        f"{SERIES_MAX_TERMS} terms"
    )


def markov_kernel_number(n: int, pt, theta: float, x, form: str = "derivative"):
    """Generalized Markov kernel of the number-state smearing |h_n><h_n|.

    Depends on its arguments only through t = x - q cos(theta) - p sin(theta).
    ``form`` selects the Dawson-derivative expression or the Hermite series;
    the two agree to better than 1e-6 on |t| <= 4.  At n = 0, t = 0 the
    value is exactly 2.
    """
    if not 0 <= n <= MAX_KERNEL_INDEX:
        raise DomainError(f"kernel index {n} outside [0, {MAX_KERNEL_INDEX}]")
    q, p = pt
    xa = np.atleast_1d(np.asarray(x, dtype=float))
    t = xa - (q * math.cos(theta) + p * math.sin(theta))
    if form == "derivative":
        vals = _kernel_derivative_form(n, t)
    elif form == "series":
        vals = _kernel_series_form(n, t)
    else:
        raise DomainError(f"unknown kernel form {form!r}")
    return vals if isinstance(x, np.ndarray) else float(vals[0])


# ---------------------------------------------------------------------------
# the angle-averaged observable


def tomography_probability(state: TruncatedState, angles: IntervalSet,
                           X: IntervalSet) -> float:
    """Probability that (theta, x) falls in angles x X under the
    angle-averaged quadrature observable (uniform angle weight 1/(2 pi))."""
    for a, b in angles.intervals:
        if not (0.0 <= a and b <= 2.0 * math.pi + 1e-15):
            raise DomainError("angle set must lie within [0, 2 pi)")
    dim = state.dim
    d = np.arange(dim)[:, None] - np.arange(dim)[None, :]
    phase = np.zeros((dim, dim), dtype=complex)
    for a, b in angles.intervals:
        with np.errstate(divide="ignore", invalid="ignore"):
            seg = np.where(
                d == 0,
                b - a,
                (np.exp(1j * d * b) - np.exp(1j * d * a)) / (1j * np.where(d == 0, 1, d)),
            )
        phase += seg
    op = overlap_matrix(X, dim) * phase / (2.0 * math.pi)
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
    meta: dict = field(default_factory=dict)

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


def generate_dataset(state: TruncatedState, angles: int,
                     x_axis=(-8.0, 8.0, 0.01)) -> QuadratureDataset:
    """Tabulate the quadrature densities of a state at J uniform angles."""
    xs = uniform_axis(*x_axis)
    thetas = 2.0 * math.pi * np.arange(angles) / angles
    values = np.stack([quadrature_density(state, th, xs) for th in thetas])
    return QuadratureDataset(angles, tuple(x_axis), values)


def save_dataset(data: QuadratureDataset, path) -> None:
    """Write a dataset: header "# J x_min x_max step", one row per angle.

    ``path`` may be a filesystem path or an open text stream.
    """
    lo, hi, step = data.x_axis
    lines = [f"# {data.angles} {lo:.12e} {hi:.12e} {step:.12e}"]
    lines.extend(" ".join(f"{v:.12e}" for v in row) for row in data.values)
    text = "\n".join(lines) + "\n"
    if hasattr(path, "write"):
        path.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


def load_dataset(path) -> QuadratureDataset:
    """Read a dataset written by :func:`save_dataset`."""
    with open(path) as fh:
        header = fh.readline()
        if not header.startswith("#"):
            raise DomainError("missing dataset header line")
        try:
            j_tok, lo, hi, step = header[1:].split()
            angles = int(j_tok)
        except ValueError as exc:
            raise DomainError(f"malformed dataset header: {header!r}") from exc
        values = np.loadtxt(fh, ndmin=2)
    return QuadratureDataset(angles, (float(lo), float(hi), float(step)), values)


def reconstruct_state(data: QuadratureDataset, dim: int) -> TruncatedState:
    """Recover a density matrix from angle-resolved quadrature densities.

    The angle dependence of the density separates the matrix into
    diagonals: band d carries exp(-i d theta).  A discrete Fourier
    transform over the J angles isolates each band (alias-free once
    J >= 2 dim - 1), and a least-squares fit against the products
    h_{m+d} h_m recovers its entries.  The result is projected onto the
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
    xs = data.xs
    basis = hermite_basis(dim - 1, xs)
    thetas = data.thetas
    rho = np.zeros((dim, dim), dtype=complex)
    residual = 0.0
    for d in range(dim):
        band = np.exp(1j * d * thetas) @ data.values / data.angles
        design = (basis[d:dim] * basis[: dim - d]).T
        coeffs, res, rank, svals = np.linalg.lstsq(design, band, rcond=None)
        if svals[0] > CONDITION_LIMIT * svals[-1]:
            raise ConditioningError(
                f"band {d} design matrix condition {svals[0]/svals[-1]:.2e} "
                f"exceeds {CONDITION_LIMIT:.0e}"
            )
        residual += float(np.sum(np.abs(design @ coeffs - band) ** 2))
        ns = np.arange(dim - d)
        rho[ns + d, ns] = coeffs
        if d:
            rho[ns, ns + d] = coeffs.conj()
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
    integrands) and the trapezoid rule over x.
    """
    if data.angles < MIN_DATASET_ANGLES:
        raise DomainError(f"need at least {MIN_DATASET_ANGLES} angles")
    if data.x_axis[2] > MAX_DATASET_STEP + 1e-15:
        raise DomainError(f"x step must be at most {MAX_DATASET_STEP}")
    q, p = pt
    xs = data.xs
    shifts = q * np.cos(data.thetas) + p * np.sin(data.thetas)
    total = 0.0
    for j, shift in enumerate(shifts):
        kernel = _kernel_derivative_form(n, xs - shift)
        total += float(np.trapezoid(kernel * data.values[j], dx=data.x_axis[2]))
    return total / data.angles
