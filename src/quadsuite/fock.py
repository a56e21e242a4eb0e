"""Truncated number-basis states and the Hermite-function machinery.

Everything downstream works in the span of the first ``dim`` eigenstates
of the harmonic oscillator.  The basis functions are

    h_n(x) = (2^n n! sqrt(pi))^(-1/2) H_n(x) exp(-x^2/2),

with H_n the physicists' Hermite polynomials, and all integrals against
them are done with Gauss-Legendre panels on the effective support
|x| <= sqrt(2 n + 1) + 6, beyond which h_n is below 1e-15.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .domains import IntervalSet, _require_finite
from .errors import DomainError, StateValidationError

__all__ = [
    "hermite_polynomial",
    "hermite_function",
    "hermite_basis",
    "overlap",
    "overlap_matrix",
    "TruncatedState",
    "make_state",
    "vacuum_state",
    "number_state",
    "coherent_state",
    "squeezed_state",
    "pure_state",
    "state_from_matrix",
    "gaussian_pure_state",
    "rotate_state",
    "parity_conjugate",
    "load_state",
    "save_state",
]

HERMITIAN_TOL = 1e-12
TRACE_TOL = 1e-12
EIGENVALUE_FLOOR = -1e-10
LEAKAGE_WARN = 1e-8

MAX_POLY_DEGREE = 4000
MAX_FUNCTION_DEGREE = 2000

_PANEL_WIDTH = 0.25
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(20)


def hermite_polynomial(n: int, x):
    """Physicists' Hermite polynomial H_n(x) by three-term recurrence.

    Accepts scalars or arrays.  Raises OverflowError when the values leave
    double range, and DomainError for n outside [0, 4000].
    """
    if not 0 <= n <= MAX_POLY_DEGREE:
        raise DomainError(f"polynomial degree {n} outside [0, {MAX_POLY_DEGREE}]")
    xa = np.asarray(x, dtype=float)
    prev = np.ones_like(xa)
    if n == 0:
        return prev if isinstance(x, np.ndarray) else float(prev)
    cur = 2.0 * xa
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(1, n):
            prev, cur = cur, 2.0 * xa * cur - 2.0 * k * prev
    if not np.all(np.isfinite(cur)):
        raise OverflowError(f"H_{n} overflows double precision at the given x")
    return cur if isinstance(x, np.ndarray) else float(cur)


def hermite_basis(n_max: int, x) -> np.ndarray:
    """All normalized Hermite functions h_0..h_{n_max} at the points x.

    Returns an array of shape (n_max + 1, len(x)).  Uses the normalized
    recurrence h_{k+1} = sqrt(2/(k+1)) x h_k - sqrt(k/(k+1)) h_{k-1},
    which is stable for every k; far outside the support the values
    underflow gracefully to zero.
    """
    if not 0 <= n_max <= MAX_FUNCTION_DEGREE:
        raise DomainError(f"degree {n_max} outside [0, {MAX_FUNCTION_DEGREE}]")
    xa = np.atleast_1d(np.asarray(x, dtype=float))
    out = np.empty((n_max + 1, xa.size), dtype=float)
    out[0] = np.pi ** -0.25 * np.exp(-0.5 * xa * xa)
    if n_max >= 1:
        out[1] = math.sqrt(2.0) * xa * out[0]
    for k in range(1, n_max):
        out[k + 1] = (
            math.sqrt(2.0 / (k + 1)) * xa * out[k]
            - math.sqrt(k / (k + 1)) * out[k - 1]
        )
    return out


def hermite_function(n: int, x):
    """Normalized Hermite function h_n(x); scalar in, scalar out."""
    vals = hermite_basis(n, x)[n]
    return vals if isinstance(x, np.ndarray) else float(vals[0])


def _support_bound(n_max: int) -> float:
    return math.sqrt(2.0 * n_max + 1.0) + 6.0


def _panel_rule(pieces) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes/weights over finite intervals, panels <= 0.25 wide."""
    xs, ws = [], []
    for a, b in pieces:
        n_panels = max(1, math.ceil((b - a) / _PANEL_WIDTH))
        bounds = np.linspace(a, b, n_panels + 1)
        for lo, hi in zip(bounds[:-1], bounds[1:]):
            mid, half = 0.5 * (hi + lo), 0.5 * (hi - lo)
            xs.append(mid + half * _GL_NODES)
            ws.append(half * _GL_WEIGHTS)
    if not xs:
        return np.empty(0), np.empty(0)
    return np.concatenate(xs), np.concatenate(ws)


def overlap(X: IntervalSet, n: int, m: int) -> float:
    """Integral of h_n h_m over the interval set X.

    Exactly symmetric in (n, m); over the full line it reproduces the
    orthonormality relation to quadrature accuracy.
    """
    if n < 0 or m < 0:
        raise DomainError("Fock indices must be nonnegative")
    bound = _support_bound(max(n, m))
    xs, ws = _panel_rule(X.clipped(-bound, bound))
    if xs.size == 0:
        return 0.0
    basis = hermite_basis(max(n, m), xs)
    return float(np.sum(ws * basis[n] * basis[m]))


def overlap_matrix(X: IntervalSet, dim: int) -> np.ndarray:
    """Matrix of overlap(X, n, m) for all n, m < dim."""
    if dim < 1:
        raise DomainError("dim must be positive")
    bound = _support_bound(dim - 1)
    xs, ws = _panel_rule(X.clipped(-bound, bound))
    if xs.size == 0:
        return np.zeros((dim, dim))
    basis = hermite_basis(dim - 1, xs)
    mat = (basis * ws) @ basis.T
    return 0.5 * (mat + mat.T)


# ---------------------------------------------------------------------------
# states


@dataclass(frozen=True)
class TruncatedState:
    """Density matrix on the first ``dim`` number states.

    Validated on construction: finite, Hermitian within 1e-12, unit trace
    within 1e-12, eigenvalues above -1e-10.  ``leakage`` records norm lost to
    truncation by the constructor that produced the state; ``meta`` carries
    advisory notes (truncation warnings, reconstruction diagnostics).
    """

    dim: int
    matrix: np.ndarray
    leakage: float = 0.0
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        mat = np.asarray(self.matrix, dtype=complex)
        if mat.shape != (self.dim, self.dim):
            raise StateValidationError(
                f"matrix shape {mat.shape} does not match dim {self.dim}"
            )
        if not np.isfinite(mat).all():
            raise StateValidationError("matrix has NaN or infinite entries")
        herm = float(np.max(np.abs(mat - mat.conj().T))) if self.dim else 0.0
        if herm > HERMITIAN_TOL:
            raise StateValidationError(f"matrix not Hermitian (deviation {herm:.3e})")
        tr = complex(np.trace(mat))
        if abs(tr - 1.0) > TRACE_TOL:
            raise StateValidationError(f"trace {tr:.15f} not 1 within {TRACE_TOL}")
        lowest = float(np.min(np.linalg.eigvalsh(0.5 * (mat + mat.conj().T))))
        if lowest < EIGENVALUE_FLOOR:
            raise StateValidationError(f"negative eigenvalue {lowest:.3e}")
        mat = mat.copy()
        mat.flags.writeable = False
        object.__setattr__(self, "matrix", mat)
        if self.leakage > LEAKAGE_WARN:
            self.meta.setdefault("truncation_warning", True)
            warnings.warn(
                f"truncation dropped probability mass {self.leakage:.3e}; "
                "increase dim",
                stacklevel=3,
            )


def _state_from_vector(coeffs: np.ndarray, dim: int, leakage: float) -> TruncatedState:
    norm = float(np.linalg.norm(coeffs))
    if norm == 0.0:
        raise StateValidationError("state vector has zero norm inside the truncation")
    vec = coeffs / norm
    return TruncatedState(dim, np.outer(vec, vec.conj()), leakage=leakage)


def vacuum_state(dim: int) -> TruncatedState:
    return number_state(0, dim)


def number_state(n: int, dim: int) -> TruncatedState:
    if not 0 <= n < dim:
        raise DomainError(f"number state {n} does not fit in dimension {dim}")
    mat = np.zeros((dim, dim), dtype=complex)
    mat[n, n] = 1.0
    return TruncatedState(dim, mat)


def coherent_state(alpha: complex, dim: int) -> TruncatedState:
    """Coherent state |alpha>, truncated and renormalized.

    Coefficients follow c_{n+1} = c_n alpha / sqrt(n+1) from
    c_0 = exp(-|alpha|^2 / 2); the lost tail mass is recorded as leakage.
    """
    alpha = complex(alpha)
    coeffs = np.empty(dim, dtype=complex)
    coeffs[0] = math.exp(-0.5 * abs(alpha) ** 2)
    for n in range(dim - 1):
        coeffs[n + 1] = coeffs[n] * alpha / math.sqrt(n + 1)
    kept = float(np.sum(np.abs(coeffs) ** 2))
    return _state_from_vector(coeffs, dim, leakage=max(0.0, 1.0 - kept))


def squeezed_state(r: float, phi: float, dim: int) -> TruncatedState:
    """Squeezed vacuum with squeeze parameter r, then rotated by phi.

    At phi = 0 the position variance is exp(-2r)/2.  Only even levels are
    populated: c_{2k} = sqrt(sech r) (-tanh r)^k sqrt((2k)!)/(2^k k!), and
    the rotation multiplies c_n by exp(i n phi).
    """
    coeffs = np.zeros(dim, dtype=complex)
    th = math.tanh(r)
    amp = math.sqrt(1.0 / math.cosh(r))
    k = 0
    while 2 * k < dim:
        coeffs[2 * k] = amp
        amp *= -th * math.sqrt((2 * k + 1) / (2 * k + 2))
        k += 1
    kept = float(np.sum(np.abs(coeffs) ** 2))
    coeffs *= np.exp(1j * phi * np.arange(dim))
    return _state_from_vector(coeffs, dim, leakage=max(0.0, 1.0 - kept))


def pure_state(coeffs, dim: int) -> TruncatedState:
    """Normalized pure state from a coefficient vector (padded or cut to dim)."""
    vec = np.asarray(coeffs, dtype=complex).ravel()
    total = float(np.sum(np.abs(vec) ** 2))
    if total == 0.0:
        raise StateValidationError("zero coefficient vector")
    if vec.size < dim:
        vec = np.concatenate([vec, np.zeros(dim - vec.size, dtype=complex)])
    cut = vec[:dim]
    kept = float(np.sum(np.abs(cut) ** 2))
    return _state_from_vector(cut, dim, leakage=max(0.0, 1.0 - kept / total))


def state_from_matrix(matrix) -> TruncatedState:
    """Wrap an explicit density matrix, enforcing the state invariants."""
    mat = np.asarray(matrix, dtype=complex)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise StateValidationError(f"density matrix must be square, got {mat.shape}")
    return TruncatedState(mat.shape[0], mat)


def make_state(spec, dim: int) -> TruncatedState:
    """Dispatch on a structured state description.

    spec is "vacuum", ("number", n), ("coherent", alpha) or
    ("coherent", re, im), ("squeezed", r, phi), a 1D coefficient vector,
    or a square density matrix.
    """
    if isinstance(spec, np.ndarray):
        return pure_state(spec, dim) if spec.ndim == 1 else state_from_matrix(spec)
    if isinstance(spec, str):
        spec = (spec,)
    kind, *args = spec
    if kind == "vacuum":
        return vacuum_state(dim)
    if kind == "number":
        return number_state(int(args[0]), dim)
    if kind == "coherent":
        if len(args) == 1:
            return coherent_state(complex(args[0]), dim)
        return coherent_state(complex(float(args[0]), float(args[1])), dim)
    if kind == "squeezed":
        return squeezed_state(float(args[0]), float(args[1]), dim)
    raise DomainError(f"unknown state kind {kind!r}")


def gaussian_pure_state(var_q: float, cov_qp: float, dim: int) -> TruncatedState:
    """Centered pure Gaussian state with a prescribed covariance matrix.

    The covariance is [[v, c], [c, (1/4 + c^2)/v]] for v = var_q and
    c = cov_qp; purity fixes the determinant at 1/4.  Realized as squeezed
    vacuum rotated so that its principal axes match.
    """
    if var_q <= 0:
        raise DomainError("position variance must be positive")
    v, c = float(var_q), float(cov_qp)
    sigma = np.array([[v, c], [c, (0.25 + c * c) / v]])
    evals, evecs = np.linalg.eigh(sigma)
    r = -0.5 * math.log(2.0 * evals[0])
    phi = math.atan2(evecs[1, 0], evecs[0, 0])
    return squeezed_state(r, phi, dim)


def rotate_state(state: TruncatedState, theta: float) -> TruncatedState:
    """Conjugate by the oscillator rotation: entries pick up exp(i(n-m)theta)."""
    _require_finite("theta", theta)
    phases = np.exp(1j * theta * np.arange(state.dim))
    mat = phases[:, None] * state.matrix * phases.conj()[None, :]
    return TruncatedState(state.dim, mat, leakage=state.leakage)


def parity_conjugate(state: TruncatedState) -> TruncatedState:
    """Conjugate by the parity operator diag((-1)^n)."""
    signs = np.where(np.arange(state.dim) % 2 == 0, 1.0, -1.0)
    mat = signs[:, None] * state.matrix * signs[None, :]
    return TruncatedState(state.dim, mat, leakage=state.leakage)


# ---------------------------------------------------------------------------
# state file format


def save_state(state: TruncatedState, path) -> None:
    """Write a state file: {"dim": D, "matrix": [[re, im], ...]} row-major."""
    flat = state.matrix.ravel()
    payload = {
        "dim": state.dim,
        "matrix": [[float(z.real), float(z.imag)] for z in flat],
    }
    with open(path, "w") as fh:
        json.dump(payload, fh)
        fh.write("\n")


def load_state(path) -> TruncatedState:
    """Read a state file written by :func:`save_state`, validating invariants."""
    try:
        with open(path) as fh:
            payload = json.load(fh)
        dim = int(payload["dim"])
        entries = payload["matrix"]
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise StateValidationError(f"unreadable state file {path}: {exc}") from exc
    if dim < 1 or len(entries) != dim * dim:
        raise StateValidationError(
            f"state file {path}: need dim^2 = {dim * dim} entries, got {len(entries)}"
        )
    try:
        flat = np.array([complex(re, im) for re, im in entries])
    except (TypeError, ValueError) as exc:
        raise StateValidationError(f"state file {path}: malformed entries") from exc
    return TruncatedState(dim, flat.reshape(dim, dim))
