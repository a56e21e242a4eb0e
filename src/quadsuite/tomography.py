"""Homodyne-style tomography: the angle-averaged quadrature observable,
state reconstruction from angle-resolved densities, and the generalized
Markov kernel that rebuilds phase-space densities from the same data.

The kernel for the number-state smearing |h_n><h_n| depends only on the
shifted coordinate t = x - q cos(theta) - p sin(theta) and has three
expressions: a finite combination of odd derivatives of the Dawson
function, an alternating Hermite series, and the frequency integral
K_n(t) = int_0^inf w_n(sigma) cos(sigma t) d sigma with
w_n(sigma) = sigma e^(-sigma^2/4) L_n(sigma^2/2).  The derivative form
hands over to the frequency integral where its recurrence loses digits;
the data functional works in frequency alone, on row spectra kept with
each dataset.  State reconstruction fits each band h_{n+d} h_n by least
squares through a Householder QR kept per (x axis, dim), so a repeated
reconstruction only applies the kept factors to its data.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import lapack
from scipy.special import binom, dawsn, eval_laguerre, gammaincc, roots_legendre

from .domains import IntervalSet, _count, _phase_point, _pointwise, _require_finite, uniform_axis
from .errors import ConditioningError, ConvergenceError, DomainError
from .fock import MAX_FUNCTION_DEGREE, TruncatedState, hermite_basis, overlap_matrix
from .phase_space import _KEPT_BANDS

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
MAX_KERNEL_SHIFT = 100.0   # largest |t| the derivative form evaluates
SERIES_CANCELLATION_LIMIT = 1e-9   # largest eps * sum_k |term_k| the series may carry

MIN_DATASET_ANGLES = 32
MAX_DATASET_STEP = 0.02
CONDITION_LIMIT = 1e10

_SERIES_LENGTH = 128       # series coefficients tabulated; the derived term counts stay below 85
_KERNEL_TAIL = 1e-16       # bound on int_sigma_c^inf |w_n| for every n <= MAX_KERNEL_INDEX
_KERNEL_ATOL = 5e-14       # rounding the Dawson recurrence may carry before the sigma rule takes over
_X_BLOCK = 128             # x points per block of the row-spectrum table
_KERNEL_BLOCK = 1 << 12    # kernel points per block: bounds the sigma rule's cosine table


def dawson(t):
    """Dawson integral F(t) = exp(-t^2) int_0^t exp(y^2) dy.

    Delegates to the library implementation (relative error well below
    1e-12 everywhere); F(1) = 0.5380795069127684.  NaN or infinite t
    raises DomainError.
    """
    return _pointwise("t", dawsn, t)


def dawson_derivatives(t, order: int) -> np.ndarray:
    """Derivatives F^(0..order) of the Dawson function at t; DomainError unless t is
    finite and order is a count up to 2 MAX_KERNEL_INDEX + 1, the highest the kernel reads.

    Uses F' = 1 - 2 t F and the recurrence
    F^(k+1) = -2 t F^(k) - 2 k F^(k-1); returns shape (order+1,) + t.shape.
    """
    order = _count("derivative order", order, 2 * MAX_KERNEL_INDEX + 1)
    ta = np.asarray(_require_finite("t", t), dtype=float)
    out = np.empty((order + 1,) + ta.shape)
    out[0] = dawsn(ta)
    if order >= 1:
        out[1] = 1.0 - 2.0 * ta * out[0]
    for k in range(1, order):
        out[k + 1] = -2.0 * ta * out[k] - 2.0 * k * out[k - 1]
    return out


def _sigma_cut() -> float:
    """The frequency cut sigma_c: past it, every w_n with n <= MAX_KERNEL_INDEX
    carries at most _KERNEL_TAIL.  Since |L_n(x)| <= sum_k C(n,k) x^k/k!,
    int_sigma^inf |w_n| <= sum_k C(n,k) 2^(k+1) Q(k+1, sigma^2/4), with Q
    the regularized upper incomplete gamma function; that bound grows with
    n, so it is taken at MAX_KERNEL_INDEX on one 1/8 grid."""
    k = np.arange(MAX_KERNEL_INDEX + 1)[:, None]
    sigma = np.arange(0.0, 32.0, 1.0 / 8.0)
    tails = (binom(MAX_KERNEL_INDEX, k) * 2.0 ** (k + 1) * gammaincc(k + 1, 0.25 * sigma ** 2)).sum(axis=0)
    return float(sigma[np.argmax(tails <= _KERNEL_TAIL)])


_SIGMA_CUT = _sigma_cut()      # 15.625


def _node_count(reach: float) -> int:
    """Gauss-Legendre nodes on [0, sigma_c] for w_n(sigma) e^(i sigma y) at
    |y| <= reach.  S nodes integrate degree 2S - 1 exactly, and e^(i sigma y)
    on [0, sigma_c] needs degree about reach sigma_c / 2; w_n itself needs
    about 40 more.  Against a 60-digit oracle, every n <= 6 was within 1e-13
    from 0.26 reach sigma_c + 40 nodes up to reach 100 (3e-14 up to reach
    40), so this takes 0.3 reach sigma_c + 40, rounded up to a multiple of
    32 so that the points of one dataset share few rules."""
    return 32 * math.ceil((0.3 * _SIGMA_CUT * reach + 40.0) / 32.0)


@functools.lru_cache(maxsize=8)
def _sigma_rule(count: int):
    """(sigma, weights): count Gauss-Legendre nodes on [0, sigma_c], built
    once per count, read-only.

    The nodes are ``roots_legendre``'s, the weights 2 / ((1 - x^2) P_S'(x)^2)
    with P_S' from the three-term recurrence.  Against a 40-digit rule at
    S = 96, ``roots_legendre``'s own weights on the middle 56 nodes sat
    12 ulp high on average (51 at most), a -3e-15 bias on the data
    functional; these are within 12 ulp there and -0.3 ulp on average."""
    nodes = roots_legendre(count)[0]
    weights = 2.0 / ((1.0 - nodes ** 2) * _legendre_slope(count, nodes) ** 2)
    rule = 0.5 * _SIGMA_CUT * (nodes + 1.0), 0.5 * _SIGMA_CUT * weights
    for part in rule:
        part.flags.writeable = False
    return rule


def _legendre_slope(count: int, x: np.ndarray) -> np.ndarray:
    """P_S'(x) from (k+1) P_(k+1) = (2k+1) x P_k - k P_(k-1), for |x| < 1."""
    previous, value = np.ones_like(x), x
    for k in range(1, count):
        previous, value = value, ((2 * k + 1) * x * value - k * previous) / (k + 1)
    return count * (x * value - previous) / (x ** 2 - 1.0)


def _kernel_weight(n: int, sigma: np.ndarray) -> np.ndarray:
    """w_n(sigma) = sigma e^(-sigma^2/4) L_n(sigma^2/2), the kernel's cosine transform."""
    return sigma * np.exp(-0.25 * sigma ** 2) * eval_laguerre(n, 0.5 * sigma ** 2)


def _kernel_integral_form(n: int, t: np.ndarray) -> np.ndarray:
    """K_n(t) = int_0^sigma_c w_n(sigma) cos(sigma t) d sigma on one rule for
    the largest |t| of the block."""
    sigma, weights = _sigma_rule(_node_count(float(np.abs(t).max())))
    return np.cos(np.outer(t, sigma)) @ (weights * _kernel_weight(n, sigma))


def _derivative_reach() -> tuple[float, ...]:
    """For each kernel index n, the |t| where the Dawson recurrence may start
    to carry more than _KERNEL_ATOL.  A rounding delta = eps |F(t)| of F
    travels as delta (-1)^k H_k(t) through F^(k+1) = -2t F^(k) - 2k F^(k-1),
    so the sum carries delta |sum_u c_u H_(2u+1)(t)| with c_u the
    coefficients of :func:`_dawson_sum`; the switch is the last point of
    a 1/8 grid before that first exceeds _KERNEL_ATOL (it is 0 at t = 0)."""
    t = np.arange(0.0, MAX_KERNEL_SHIFT, 1.0 / 8.0)
    hermite = [np.ones_like(t), 2.0 * t]
    for k in range(1, 2 * MAX_KERNEL_INDEX + 1):
        hermite.append(2.0 * t * hermite[k] - 2.0 * k * hermite[k - 1])
    delta = np.finfo(float).eps * np.abs(dawsn(t))
    reach = []
    for n in range(MAX_KERNEL_INDEX + 1):
        carried = delta * np.abs(sum(_dawson_coeff(n, u) * hermite[2 * u + 1] for u in range(n + 1)))
        beyond = np.flatnonzero(carried > _KERNEL_ATOL)
        reach.append(float(t[beyond[0] - 1]) if beyond.size else MAX_KERNEL_SHIFT)
    return tuple(reach)


def _dawson_coeff(n: int, u: int) -> float:
    return math.comb(n, u) * 2.0 ** (1 - u) / math.factorial(u)


def _dawson_sum(n: int, t: np.ndarray) -> np.ndarray:
    """sum_{u<=n} C(n,u) 2^(1-u)/u! F^(2u+1)(t)."""
    ders = dawson_derivatives(t, 2 * n + 1)
    return sum(_dawson_coeff(n, u) * ders[2 * u + 1] for u in range(n + 1))


_DERIVATIVE_REACH = _derivative_reach()


def _kernel_derivative_form(n: int, t: np.ndarray) -> np.ndarray:
    """The Dawson sum up to _DERIVATIVE_REACH[n], the sigma rule past it;
    ConvergenceError past MAX_KERNEL_SHIFT."""
    reach = np.abs(t)
    if reach.max() > MAX_KERNEL_SHIFT:
        raise ConvergenceError(
            f"derivative-form kernel is limited to |t| <= {MAX_KERNEL_SHIFT:g}, got |t| up to {reach.max():.3g}"
        )
    far = reach > _DERIVATIVE_REACH[n]
    if not far.any():
        return _dawson_sum(n, t)
    out = np.empty_like(t)
    out[~far] = _dawson_sum(n, t[~far])
    out[far] = _kernel_integral_form(n, t[far])
    return out


def _kernel_series_form(n: int, t: np.ndarray) -> np.ndarray:
    """Alternating Hermite series sum_{k>=n} C(k,n)(-1)^(k-n) k!/(2^k (2k)!) H_2k(t).

    Since H_2k(t) = pi^(1/4) sqrt(4^k (2k)!) e^(t^2/2) h_2k(t), term k is
    C(k,n)(-1)^(k-n) pi^(1/4) k!/sqrt((2k)!) e^(t^2/2) h_2k(t), read from one
    :func:`hermite_basis` table.  As |h_m| <= pi^(-1/4) (Indritz 1961), the
    terms from k on sum to at most e^(t^2/2) sum_(j>=k) C(j,n) j!/sqrt((2j)!),
    so the series stops at the first k > n where that is below eps e^(t^2/2),
    the rounding the sum carries anyway: 55 terms at n = 0 up to 84 at n = 6.
    The terms grow to about e^(t^2/2) before they cancel, so once
    eps * sum_k |term_k| exceeds SERIES_CANCELLATION_LIMIT at any point
    the sum has lost its digits and ConvergenceError is raised.
    """
    with np.errstate(over="ignore"):
        weight = np.exp(0.5 * t * t)          # inf past |t| ~ 37.6
    k = np.arange(_SERIES_LENGTH)
    sizes = binom(k, n) * np.concatenate(([1.0], np.cumprod(np.sqrt(k[1:] / (4.0 * k[1:] - 2.0)))))
    tails = np.cumsum(sizes[::-1])[::-1]       # C(k,n) k!/sqrt((2k)!) summed from k on
    count = int(np.argmax((tails < np.finfo(float).eps) & (k > n)))
    if np.isfinite(weight).all():             # an infinite weight cancels away outright
        coeffs = np.pi ** 0.25 * (-1.0) ** (k[:count] - n) * sizes[:count]
        terms = coeffs[:, None] * hermite_basis(2 * count - 2, t)[::2]
        terms *= weight
        if np.finfo(float).eps * np.abs(terms).sum(axis=0).max() <= SERIES_CANCELLATION_LIMIT:
            return terms.sum(axis=0)
    raise ConvergenceError(
        f"Hermite series for kernel index {n} loses more than {SERIES_CANCELLATION_LIMIT:.0e} "
        f"to cancellation at |t| up to {np.max(np.abs(t)):.3g}; use the derivative form"
    )


def markov_kernel_number(n: int, pt, theta: float, x, form: str = "derivative"):
    """Generalized Markov kernel of the number-state smearing |h_n><h_n|.

    Depends on its arguments only through t = x - q cos(theta) - p sin(theta).
    ``form`` selects the Dawson-derivative expression or the Hermite series;
    the two agree within 5e-13 on |t| <= 4 and 6e-10 on |t| <= 4 + sqrt 2.
    The series cancels terms of size e^(t^2/2), so it raises
    ConvergenceError wherever rounding could cost more than 1e-9: from
    |t| = 6.4 at n = 0 down to |t| = 5.4 at n = 6.  The derivative form's
    recurrence amplifies the rounding of F(t) like H_(2n+1)(t), so past an
    n-dependent |t| (7.5 at n = 1, 2.9 at n = 2, 2.4-2.5 for n = 3..6,
    never at n = 0) it hands over to the frequency integral
    int_0^sigma_c w_n(sigma) cos(sigma t) d sigma on a Gauss-Legendre rule.
    Either way the value is within 1e-13 of the kernel (measured against a
    60-digit oracle) for |t| <= MAX_KERNEL_SHIFT = 100, and a larger |t|
    raises ConvergenceError.  At n = 0, t = 0 the value is exactly 2.  A
    kernel index that is not an integer in [0, MAX_KERNEL_INDEX], or NaN or
    infinite theta, point or x, raise DomainError.
    """
    n = _count("kernel index", n, MAX_KERNEL_INDEX)
    q, p = _require_finite("point", _phase_point(pt))
    shift = q * math.cos(_require_finite("theta", theta)) + p * math.sin(theta)
    forms = {"derivative": _kernel_derivative_form, "series": _kernel_series_form}
    if form not in forms:
        raise DomainError(f"unknown kernel form {form!r}")
    return _pointwise("x", lambda xs: forms[form](n, xs - shift), x, block=_KERNEL_BLOCK)


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


@dataclass(frozen=True)
class QuadratureDataset:
    """Quadrature densities sampled at J equally spaced angles 2 pi j / J.

    ``values[j, i]`` is the density at angle theta_j and point x_i, where
    the x grid is the uniform axis described by ``x_axis``.  Rows must be
    finite, nonnegative (to -1e-10) and integrate to one within 1e-6.
    A dataset is immutable once validated: ``values`` is made read-only in
    place (not copied), so a row spectrum kept by
    :func:`gk_from_quadrature_data` cannot go stale.
    """

    angles: int
    x_axis: tuple[float, float, float]
    values: np.ndarray
    _spectra: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "angles", _count("angle count", self.angles, lo=1))
        xs = uniform_axis(*self.x_axis)
        if values.shape != (self.angles, xs.size):
            raise DomainError(
                f"values shape {values.shape} does not match "
                f"{self.angles} angles x {xs.size} points"
            )
        if not np.isfinite(values).all():
            raise DomainError("densities must be finite (NaN or infinite sample)")
        if float(values.min()) < -1e-10:
            raise DomainError("densities must be nonnegative")
        masses = np.trapezoid(values, dx=self.x_axis[2], axis=1)
        worst = float(np.max(np.abs(masses - 1.0)))
        if worst > 1e-6:
            raise DomainError(f"a density row integrates to 1{worst:+.2e}, not 1")
        values.flags.writeable = False

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
    angles = _count("angle count", angles, lo=1)
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


def _band_factors(x_axis: tuple, dim: int):
    """Yield (qr, tau, svals, r_inverse) for every band d < dim of the design
    P_d^T of :func:`_band_products` (X points x k = dim - d columns): its
    Householder QR in LAPACK's raw form, the singular values of the k x k
    factor R and R^-1 = V S^-1 U^T.  A band with fewer points than columns
    or a zero singular value has no R^-1 (None)."""
    for d, products in _band_products(hermite_basis(dim - 1, uniform_axis(*x_axis))):
        qr, tau = lapack.dgeqrf(products.T, overwrite_a=True)[:2]
        u, svals, vt = np.linalg.svd(np.triu(qr[: dim - d]))
        solvable = svals.size == dim - d and svals[-1] > 0.0
        yield qr, tau, svals, (vt.T / svals) @ u.T if solvable else None


@functools.lru_cache(maxsize=8)
def _band_plan(x_axis: tuple, dim: int) -> tuple:
    """The factors of :func:`_band_factors`, built once per (x axis, dim), read-only."""
    plan = tuple(_band_factors(x_axis, dim))
    for factors in plan:
        for part in factors:
            if part is not None:
                part.flags.writeable = False
    return plan


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
    the clipped mass, the fit residual and the worst band condition land
    in ``meta``.

    The designs depend only on the x axis and dim, so each band's
    Householder QR, the singular values of its R and R^-1 are kept per
    (x axis, dim), eight plans at most, while a plan holds at most 2 MiB
    (dim <= 17 on 1601 points; a larger one is streamed band by band on
    each call).  A call then applies Q^T to the two band columns and multiplies by R^-1;
    the residual is the norm of the rest of Q^T b.  At dim 16 on 1601
    points a warm call takes 0.8-0.9 ms and a cold one 3.0-3.1 ms (2-core
    VM, one BLAS thread).
    """
    dim = _count("dim", dim, MAX_FUNCTION_DEGREE + 1, lo=1)
    if data.angles < 2 * dim - 1:
        raise DomainError(
            f"need at least {2 * dim - 1} angles to separate {dim} levels, "
            f"got {data.angles}"
        )
    # rows d and D + d: real and imaginary part of sum_j exp(i d theta_j) p_j / J
    phase = np.outer(np.arange(dim), data.thetas)
    fourier = np.vstack([np.cos(phase), np.sin(phase)]) @ data.values / data.angles
    points = data.values.shape[1]       # a band of k columns keeps X k + 2 k + k^2 doubles
    kept = sum(k * (points + k + 2) for k in range(1, dim + 1)) <= _KEPT_BANDS
    plan = _band_plan(tuple(data.x_axis), dim) if kept else _band_factors(data.x_axis, dim)
    rho = np.zeros((dim, dim), dtype=complex)
    residual = worst = 0.0
    for d, (qr, tau, svals, r_inverse) in enumerate(plan):
        condition = float(svals[0] / svals[-1]) if r_inverse is not None else math.inf
        if r_inverse is None or condition > CONDITION_LIMIT:
            raise ConditioningError(
                f"band {d} design matrix condition {condition:.2e} "
                f"exceeds {CONDITION_LIMIT:.0e}"
            )
        worst = max(worst, condition)
        band = fourier[[d, dim + d]].T          # X x 2 in Fortran order, overwritten by Q^T band
        projected = lapack.dormqr("L", "T", qr, tau, band, 2, overwrite_c=True)[0]
        coeffs = r_inverse @ projected[: dim - d]
        residual += float(np.sum(projected[dim - d :] ** 2))
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
        dim, rho, meta={"clipped_mass": clipped, "fit_residual": residual, "band_condition": worst}
    )


def _row_spectra(data: QuadratureDataset, count: int):
    """(sigma, W, P): the count-node sigma rule and the row spectra
    P_j(sigma) = sum_i omega_i p_j(x_i) e^(i sigma x_i), with the trapezoid
    weights omega_i, computed once per node count and kept on the dataset
    (read-only).  The table e^(i sigma x_i) is built _X_BLOCK points at a
    time as e^(i sigma x_0) e^(i sigma k h), and each block's real view
    [cos | sin] (interleaved) multiplies the real values.  For even J the
    row at theta_j + pi enters the functional as the conjugate of a row at
    theta_j, so P keeps the J/2 folded rows P_j + conj(P_(j+J/2))."""
    kept = data._spectra.get(count)
    if kept is None:
        sigma, weights = _sigma_rule(count)
        lo, _, step = data.x_axis
        size = data.values.shape[1]
        phase = step * np.outer(np.arange(min(_X_BLOCK, size)), sigma)
        steps = np.empty(phase.shape, dtype=complex)      # e^(i sigma k h); cos and sin beat a complex exp
        np.cos(phase, out=steps.real)
        np.sin(phase, out=steps.imag)
        sums = np.zeros((data.angles, 2 * count))
        for start in range(0, size, _X_BLOCK):
            table = steps[: size - start] * np.exp(1j * (lo + start * step) * sigma)
            if start == 0:
                table[0] *= 0.5
            if start + len(table) == size:
                table[-1] *= 0.5
            sums += data.values[:, start : start + len(table)] @ table.view(float)
        spectra = step * sums.view(complex)
        if data.angles % 2 == 0:      # s_(j + J/2) = -s_j, and Re[e^(i a) P] = Re[e^(-i a) conj(P)]
            spectra = spectra[: data.angles // 2] + spectra[data.angles // 2 :].conj()
        spectra.flags.writeable = False
        kept = data._spectra[count] = (sigma, weights, spectra)
    return kept


def gk_from_quadrature_data(data: QuadratureDataset, n: int, pt) -> float:
    """Phase-space density of the covariant observable with kernel
    |h_n><h_n| rebuilt from quadrature data alone.

    Averages the Markov kernel against the tabulated densities with the
    rectangle rule over the J angles (spectrally accurate for periodic
    integrands) and the trapezoid rule over x, in frequency:
    g(q, p) = (1/J) sum_j int_0^sigma_c w_n(sigma) Re[e^(-i sigma s_j) P_j(sigma)] d sigma,
    with s_j = q cos theta_j + p sin theta_j, w_n(sigma) = sigma e^(-sigma^2/4) L_n(sigma^2/2)
    and the row spectra P_j(sigma) = sum_i omega_i p_j(x_i) e^(i sigma x_i).

    The sigma rule: since |P_j| <= 1, cutting at sigma_c = 15.625 drops at
    most 1e-16 of w_n for any data, and S Gauss-Legendre nodes on
    [0, sigma_c] resolve e^(i sigma (x - s_j)) for |x - s_j| <= max|x| + r,
    with r the point's radius (see :func:`_node_count`; S = 96 for the
    default axis and r < 4).  A point with r > max|x| raises
    DomainError: there the data window cuts off the kernel's 1/t^2 tail.
    The spectra are computed on the first call at each S and kept on the
    dataset: J x S complex values, halved for even J by folding each row
    onto the opposite angle (S/X of its values: 6 % at S = 96 on the
    default 1601 points), so later calls cost O(J S).

    A kernel index that is not an integer in [0, MAX_KERNEL_INDEX], or a
    NaN or infinite point, raises DomainError.
    """
    n = _count("kernel index", n, MAX_KERNEL_INDEX)
    if data.angles < MIN_DATASET_ANGLES:
        raise DomainError(f"need at least {MIN_DATASET_ANGLES} angles")
    if data.x_axis[2] > MAX_DATASET_STEP + 1e-15:
        raise DomainError(f"x step must be at most {MAX_DATASET_STEP}")
    q, p = _require_finite("point", _phase_point(pt))
    edge = max(abs(data.x_axis[0]), abs(data.x_axis[1]))
    radius = math.hypot(q, p)
    if radius > edge:
        raise DomainError(f"point radius {radius:.6g} exceeds the data axis reach max|x| = {edge:.6g}")
    sigma, weights, spectra = _row_spectra(data, _node_count(edge + radius))
    thetas = data.thetas[: len(spectra)]
    phase = np.exp(-1j * np.outer(q * np.cos(thetas) + p * np.sin(thetas), sigma))
    return float((phase * spectra).real.sum(axis=0) @ (weights * _kernel_weight(n, sigma))) / data.angles
