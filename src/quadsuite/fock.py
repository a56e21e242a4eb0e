"""Truncated number-basis states and the Hermite-function machinery.

Everything downstream works in the span of the first ``dim`` eigenstates
of the harmonic oscillator.  The basis functions are

    h_n(x) = (2^n n! sqrt(pi))^(-1/2) H_n(x) exp(-x^2/2),

with H_n the physicists' Hermite polynomials.  Integrals over an interval
set X are exact and come from the values at its ends, [f]_X = sum f(b) - f(a):
h_n'' = (x^2 - 2n - 1) h_n makes h_n' h_m - h_n h_m' an antiderivative of
2 (m - n) h_n h_m, and the rest follow by recurrence from
int h_0^2 = [erf]_X / 2 and int h_0 = pi^(1/4) [erf(x/sqrt 2)]_X / sqrt 2.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from . import STATE_GRAMMAR
from .domains import IntervalSet, _count, _pointwise, _require_finite
from .errors import DomainError, StateValidationError

__all__ = [
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

MAX_FUNCTION_DEGREE = 2000
# Twice the turning point sqrt(2 n + 1) of the top degree: from it on every
# h_n with n <= MAX_FUNCTION_DEGREE is below e^-4000, far under the smallest
# double, so those columns are exact zeros and never reach x*x or _far_basis.
_ZERO_BEYOND = 2.0 * math.sqrt(2 * MAX_FUNCTION_DEGREE + 1)

_STATE_ARITY = {"vacuum": (0,), "number": (1,), "coherent": (1, 2), "squeezed": (2,), "file": (1,)}
_SEED_FLOOR = 1e-297   # h_0 at |x| = 37, near the bottom of double range


def hermite_basis(n_max: int, x) -> np.ndarray:
    """All normalized Hermite functions h_0..h_{n_max} at the points x.

    Returns an array of shape (n_max + 1, len(x)).  Uses the normalized
    recurrence h_{k+1} = sqrt(2/(k+1)) x h_k - sqrt(k/(k+1)) h_{k-1},
    which is stable for every k; far outside the support the values
    underflow gracefully to zero.  Points beyond |x| = 37, where the seed
    h_0 nears the bottom of double range, are redone by :func:`_far_basis`;
    beyond |x| = 126.5 every value is exactly zero.  A degree that is not
    an integer in [0, MAX_FUNCTION_DEGREE], NaN or infinite points, or a
    2-D x raise DomainError.
    """
    n_max = _count("degree", n_max, MAX_FUNCTION_DEGREE)
    xa = _require_finite("x", np.atleast_1d(np.asarray(x, dtype=float)))
    if xa.ndim > 1:
        raise DomainError(f"hermite_basis takes a 1-D array of points, got shape {xa.shape}")
    near = np.abs(xa) < _ZERO_BEYOND
    if not near.all():
        out = np.zeros((n_max + 1, xa.size))
        out[:, near] = hermite_basis(n_max, xa[near])
        return out
    out = np.empty((n_max + 1, xa.size), dtype=float)
    out[0] = np.pi ** -0.25 * np.exp(-0.5 * xa * xa)
    if n_max >= 1:
        out[1] = math.sqrt(2.0) * xa * out[0]
    for k in range(1, n_max):
        out[k + 1] = (
            math.sqrt(2.0 / (k + 1)) * xa * out[k]
            - math.sqrt(k / (k + 1)) * out[k - 1]
        )
    if xa.size and out[0].min() < _SEED_FLOOR:
        far = out[0] < _SEED_FLOOR
        out[:, far] = _far_basis(n_max, xa[far])
    return out


def _far_basis(n_max: int, x: np.ndarray) -> np.ndarray:
    """hermite_basis with a power-of-two exponent carried per point, for
    points where exp(-x^2/2) underflows: the recurrence runs on mantissas
    that are rescaled whenever they grow past 2^500."""
    half = 0.5 * x * x / math.log(2.0)            # h_0 = pi^(-1/4) 2^(-half)
    expo = -np.ceil(half).astype(int)
    out = np.empty((n_max + 1, x.size))
    prev, cur = np.zeros(x.size), np.pi ** -0.25 * np.exp2(-half - expo)
    out[0] = np.ldexp(cur, expo)
    for k in range(n_max):
        prev, cur = cur, math.sqrt(2.0 / (k + 1)) * x * cur - math.sqrt(k / (k + 1)) * prev
        big = np.abs(cur) > 2.0**500
        if big.any():
            cur[big] = np.ldexp(cur[big], -500)
            prev[big] = np.ldexp(prev[big], -500)
            expo[big] += 500
        out[k + 1] = np.ldexp(cur, expo)
    return out


def hermite_function(n: int, x):
    """Normalized h_n(x) at a point or an array of points; n is checked even for no points."""
    n = _count("degree", n, MAX_FUNCTION_DEGREE)
    return _pointwise("x", lambda xs: hermite_basis(n, xs)[n], x)


def _ends(X: IntervalSet) -> tuple[np.ndarray, np.ndarray]:
    """The ends of the pieces of X and their signs in [f]_X = sum f(b) - f(a),
    clipped to +-_ZERO_BEYOND, where every h_n is an exact zero and erf is
    +-1, so infinite ends need no branch."""
    ends = np.clip(np.asarray(X.intervals), -_ZERO_BEYOND, _ZERO_BEYOND).ravel()
    return ends, np.resize([-1.0, 1.0], ends.size)


def _line_integrals(X: IntervalSet, n_max: int) -> np.ndarray:
    """J_a = int_X h_a for a <= n_max, from J_0 = pi^(1/4) [erf(x/sqrt 2)]_X / sqrt 2
    by J_(k+1) = sqrt(k/(k+1)) J_(k-1) - sqrt(2/(k+1)) [h_k]_X, the integral of
    2 h_k' = sqrt(2k) h_(k-1) - sqrt(2(k+1)) h_(k+1)."""
    ends, signs = _ends(X)
    brackets = (hermite_basis(n_max, ends) @ signs).tolist()
    erf = sum(s * math.erf(e / math.sqrt(2.0)) for e, s in zip(ends, signs))
    out = [0.0, np.pi**0.25 * erf / math.sqrt(2.0)]          # J_(-1), J_0
    for k in range(n_max):
        out.append(math.sqrt(k / (k + 1)) * out[-2] - math.sqrt(2.0 / (k + 1)) * brackets[k])
    return np.array(out[1:])


def overlap(X: IntervalSet, n: int, m: int) -> float:
    """Integral of h_n h_m over the interval set X; the (n, m) entry of
    :func:`overlap_matrix`."""
    n, m = _count("Fock index", n, MAX_FUNCTION_DEGREE), _count("Fock index", m, MAX_FUNCTION_DEGREE)
    return float(overlap_matrix(X, max(n, m) + 1)[n, m])


def overlap_matrix(X: IntervalSet, dim: int) -> np.ndarray:
    """Matrix of the integrals of h_n h_m over X for all n, m < dim.

    Exact and exactly symmetric: off the diagonal
    int_X h_n h_m = [sqrt(2n) h_(n-1) h_m - sqrt(2m) h_n h_(m-1)]_X / (2 (m - n)),
    and on it int_X h_n^2 = int_X h_(n-1)^2 - [h_n h_(n-1)]_X / sqrt(2n) from
    int_X h_0^2 = [erf]_X / 2.  Over the full line it is the identity.
    """
    dim = _count("dim", dim, MAX_FUNCTION_DEGREE + 1, lo=1)
    ends, signs = _ends(X)
    basis = hermite_basis(dim - 1, ends)
    n = np.arange(dim)
    cross = np.zeros((dim, dim))                        # [sqrt(2n) h_(n-1) h_m]_X
    cross[1:] = (np.sqrt(2.0 * n[1:, None]) * basis[:-1] * signs) @ basis.T
    gap = 2.0 * (n - n[:, None])
    np.fill_diagonal(gap, 1.0)
    mat = (cross - cross.T) / gap
    steps = np.diag(cross)[1:] / (2.0 * n[1:])          # [h_n h_(n-1)]_X / sqrt(2n)
    first = 0.5 * sum(s * math.erf(e) for e, s in zip(ends, signs))
    np.fill_diagonal(mat, first - np.concatenate(([0.0], np.cumsum(steps))))
    return mat


# ---------------------------------------------------------------------------
# states


@dataclass(frozen=True)
class TruncatedState:
    """Density matrix on the first ``dim`` number states.

    Validated on construction: dim a count up to MAX_FUNCTION_DEGREE + 1, and
    finite, Hermitian within 1e-12, unit trace within 1e-12, eigenvalues
    above -1e-10.  ``leakage`` records norm lost to
    truncation by the constructor that produced the state; ``meta`` carries
    advisory notes (truncation warnings, reconstruction diagnostics).
    """

    dim: int
    matrix: np.ndarray
    leakage: float = 0.0
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "dim", _count("dim", self.dim, MAX_FUNCTION_DEGREE + 1, lo=1))
        _require_finite("leakage", self.leakage)
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
    dim = _count("dim", dim, MAX_FUNCTION_DEGREE + 1, lo=1)
    n = _count("Fock index", n, dim - 1)
    mat = np.zeros((dim, dim), dtype=complex)
    mat[n, n] = 1.0
    return TruncatedState(dim, mat)


def coherent_state(alpha: complex, dim: int) -> TruncatedState:
    """Coherent state |alpha>, truncated and renormalized.

    Coefficients follow c_{n+1} = c_n alpha / sqrt(n+1) from
    c_0 = exp(-|alpha|^2 / 2); the lost tail mass is recorded as leakage.
    A NaN or infinite alpha raises DomainError.
    """
    alpha = complex(_require_finite("alpha", alpha))
    dim = _count("dim", dim, MAX_FUNCTION_DEGREE + 1, lo=1)
    size = math.hypot(alpha.real, alpha.imag)      # abs() raises past the largest double
    coeffs = np.empty(dim, dtype=complex)
    coeffs[0] = math.exp(-0.5 * size * size)
    for n in range(dim - 1):
        coeffs[n + 1] = coeffs[n] * alpha / math.sqrt(n + 1)
    kept = float(np.sum(np.abs(coeffs) ** 2))
    return _state_from_vector(coeffs, dim, leakage=max(0.0, 1.0 - kept))


def squeezed_state(r: float, phi: float, dim: int) -> TruncatedState:
    """Squeezed vacuum with squeeze parameter r, then rotated by phi.

    At phi = 0 the position variance is exp(-2r)/2.  Only even levels are
    populated: c_{2k} = sqrt(sech r) (-tanh r)^k sqrt((2k)!)/(2^k k!), and
    the rotation multiplies c_n by exp(i n phi).  A NaN or infinite r or
    phi raises DomainError.
    """
    _require_finite("r", r)
    _require_finite("phi", phi)
    dim = _count("dim", dim, MAX_FUNCTION_DEGREE + 1, lo=1)
    coeffs = np.zeros(dim, dtype=complex)
    th = math.tanh(r)
    amp = math.exp(-0.5 * abs(r)) * math.sqrt(2.0 / (1.0 + math.exp(-2.0 * abs(r))))   # sqrt(sech r)
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
    dim = _count("dim", dim, MAX_FUNCTION_DEGREE + 1, lo=1)
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
    """Build a state from a spec.

    A spec is a 1D coefficient vector, a square density matrix, or one of
    the tuples ("vacuum",), ("number", n), ("coherent", alpha),
    ("coherent", re, im), ("squeezed", r, phi) and ("file", path), the
    last read by :func:`load_state`.  A string ``kind[:a,b]`` names the
    same tuple, with its arguments split at commas; after ``file:`` the
    whole rest is the path:

        vacuum | number:<n> | coherent:<re>,<im> | squeezed:<r>,<phi> | file:<path>

    An unknown kind, a wrong number of arguments or a malformed number
    raises DomainError.
    """
    if isinstance(spec, np.ndarray):
        return pure_state(spec, dim) if spec.ndim == 1 else state_from_matrix(spec)
    if isinstance(spec, str):
        kind, colon, rest = spec.partition(":")
        spec = (kind, rest) if kind == "file" else (kind, *rest.split(",")) if colon else (kind,)
    kind, *args = spec
    if len(args) not in _STATE_ARITY.get(kind, ()):
        raise DomainError(f"state spec {spec!r} does not match {STATE_GRAMMAR}")
    if kind == "file":
        return load_state(args[0])
    parse = int if kind == "number" else complex if len(args) == 1 else float
    try:
        nums = [parse(a) for a in args]
    except (TypeError, ValueError) as exc:
        raise DomainError(f"bad number in state spec {spec!r}: {exc}") from exc
    if kind == "vacuum":
        return vacuum_state(dim)
    if kind == "number":
        return number_state(*nums, dim)
    if kind == "coherent":
        return coherent_state(complex(*nums), dim)
    return squeezed_state(*nums, dim)


def gaussian_pure_state(var_q: float, cov_qp: float, dim: int) -> TruncatedState:
    """Centered pure Gaussian state with a prescribed covariance matrix.

    The covariance is [[v, c], [c, (1/4 + c^2)/v]] for v = var_q and
    c = cov_qp; purity fixes the determinant at 1/4.  Realized as squeezed
    vacuum rotated so that its principal axes match.
    """
    if _require_finite("var_q", var_q) <= 0:
        raise DomainError("position variance must be positive")
    v, c = float(var_q), float(_require_finite("cov_qp", cov_qp))
    sigma = np.array([[v, c], [c, (0.25 + c * c) / v]])
    evals, evecs = np.linalg.eigh(sigma)
    r = -0.5 * math.log(2.0 * evals[0])
    phi = math.atan2(evecs[1, 0], evecs[0, 0])
    return squeezed_state(r, phi, dim)


def _rotated(matrix: np.ndarray, theta: float) -> np.ndarray:
    """exp(i theta n) M exp(-i theta m): the square matrix M conjugated by
    the oscillator rotation.  DomainError unless theta is finite."""
    _require_finite("theta", theta)
    phases = np.exp(1j * theta * np.arange(matrix.shape[0]))
    return phases[:, None] * matrix * phases.conj()


def rotate_state(state: TruncatedState, theta: float) -> TruncatedState:
    """Conjugate by the oscillator rotation: entries pick up exp(i(n-m)theta)."""
    return TruncatedState(state.dim, _rotated(state.matrix, theta), leakage=state.leakage)


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
        dim = _count("dim", payload["dim"], MAX_FUNCTION_DEGREE + 1, lo=1)
        entries = payload["matrix"]
    except (OSError, ValueError, KeyError, TypeError) as exc:    # DomainError is a ValueError
        raise StateValidationError(f"unreadable state file {path}: {exc}") from exc
    if len(entries) != dim * dim:
        raise StateValidationError(
            f"state file {path}: need dim^2 = {dim * dim} entries, got {len(entries)}"
        )
    try:
        flat = np.array([complex(re, im) for re, im in entries])
    except (TypeError, ValueError) as exc:
        raise StateValidationError(f"state file {path}: malformed entries") from exc
    return TruncatedState(dim, flat.reshape(dim, dim))
