"""Moment algebra for sequential smeared measurements.

A measurement whose outcome distribution is a convolution mu * p mixes the
probe moments mu[k] into the observed moments s[k] through the binomial
formula.  Because the map is triangular with unit diagonal it inverts
exactly, so the intrinsic quadrature moments of a finite-Fock state can be
recovered from smeared data alone.  For such states the recovered sequence
even pins down the full density, which is a Gaussian times a polynomial.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .domains import _count, _require_finite
from .errors import DomainError
from .fock import TruncatedState
from .quadrature import MAX_MOMENT_ORDER, _moment_walk

__all__ = [
    "MomentSequence",
    "convolved_moments",
    "invert_moments",
    "gaussian_moments",
    "quadrature_moment_sequence",
    "fit_gaussian_polynomial_density",
    "sequential_demo",
]

MAX_DEMO_ORDER = 16
HANKEL_TOL = 1e-9


@dataclass(frozen=True)
class MomentSequence:
    """Raw moments values[k] for k = 0..k_max of a probability measure.

    Every value must be finite, values[0] must be 1 and the Hankel matrix
    values[i+j] must be PSD up to a small tolerance; all are checked on
    construction.
    """

    values: tuple

    def __post_init__(self):
        vals = tuple(float(v) for v in _require_finite("moments", tuple(self.values)))
        object.__setattr__(self, "values", vals)
        if not vals or abs(vals[0] - 1.0) > 1e-12:
            raise DomainError("a moment sequence must start with values[0] = 1")
        half = (len(vals) - 1) // 2
        hankel = np.array([[vals[i + j] for j in range(half + 1)]
                           for i in range(half + 1)])
        floor = -HANKEL_TOL * max(1.0, float(np.max(np.abs(hankel))))
        if float(np.linalg.eigvalsh(hankel)[0]) < floor:
            raise DomainError("Hankel matrix of the moments is not PSD")

    @property
    def k_max(self) -> int:
        return len(self.values) - 1

    def __getitem__(self, k: int) -> float:
        return self.values[k]

    def __len__(self) -> int:
        return len(self.values)


def convolved_moments(mu: MomentSequence, p: MomentSequence,
                      k_max: int) -> MomentSequence:
    """Moments of the convolution mu * p:
    s[k] = sum_n C(k,n) mu[k-n] p[n].  Symmetric in its two arguments; k_max
    may not exceed the order of either."""
    k_max = _count("k_max", k_max, min(mu.k_max, p.k_max))
    out = [
        sum(math.comb(k, n) * mu[k - n] * p[n] for n in range(k + 1))
        for k in range(k_max + 1)
    ]
    return MomentSequence(tuple(out))


def invert_moments(s: MomentSequence, mu: MomentSequence) -> MomentSequence:
    """Solve s = mu * p for p by triangular back-substitution.

    Exact inverse of :func:`convolved_moments`; the k-th step subtracts the
    lower-order contributions and divides by mu[0] = 1.
    """
    if s.k_max != mu.k_max:
        raise DomainError(
            f"sequence lengths differ: {s.k_max} vs {mu.k_max}"
        )
    p: list[float] = []
    for k in range(s.k_max + 1):
        acc = s[k] - sum(
            math.comb(k, n) * mu[k - n] * p[n] for n in range(k)
        )
        p.append(acc)
    return MomentSequence(tuple(p))


def gaussian_moments(mean: float, var: float, k_max: int) -> MomentSequence:
    """Raw moments of N(mean, var): binomial expansion around the mean with
    central moments (2j-1)!! var^j.  DomainError unless both are finite,
    var >= 0 and k_max is a count up to MAX_MOMENT_ORDER."""
    _require_finite("mean", mean)
    if _require_finite("variance", var) < 0:
        raise DomainError("variance must be nonnegative")
    k_max = _count("k_max", k_max, MAX_MOMENT_ORDER)
    central = [0.0] * (k_max + 1)
    for j in range(0, k_max + 1, 2):
        central[j] = math.prod(range(1, j, 2)) * var ** (j // 2)
    out = [
        sum(math.comb(k, n) * central[n] * mean ** (k - n) for n in range(k + 1))
        for k in range(k_max + 1)
    ]
    return MomentSequence(tuple(out))


def quadrature_moment_sequence(state: TruncatedState, theta: float,
                               k_max: int) -> MomentSequence:
    """Moments of the quadrature distribution of ``state`` at angle theta,
    every order from one walk (see quadrature._moment_walk)."""
    return MomentSequence(tuple(_moment_walk(state, theta, _count("k_max", k_max, MAX_MOMENT_ORDER))))


def fit_gaussian_polynomial_density(moments: MomentSequence, degree: int):
    """Reconstruct a density of the form exp(-x^2) * polynomial(degree)
    from its raw moments.

    Matching moments 0..degree gives a square linear system with entries
    integral x^(k+j) exp(-x^2) dx = Gamma((k+j+1)/2) for even k+j.  Returns
    a callable density; a finite-Fock quadrature distribution with support
    on h_0..h_n is recovered exactly using degree 2 n.  The monomial system
    loses digits fast with degree, so a degree above MAX_DEMO_ORDER (or
    above the order of the moments), or a negative one, raises DomainError.
    """
    degree = _count("degree", degree, min(MAX_DEMO_ORDER, moments.k_max))
    idx = np.arange(degree + 1)
    power = idx[:, None] + idx[None, :]
    gram = np.where(power % 2 == 0,
                    [[math.gamma((s + 1) / 2.0) if s % 2 == 0 else 0.0
                      for s in row] for row in power],
                    0.0)
    coeffs = np.linalg.solve(gram, np.array(moments.values[: degree + 1]))

    def density(x):
        xa = np.asarray(x, dtype=float)
        return np.exp(-(xa**2)) * np.polynomial.polynomial.polyval(xa, coeffs)

    return density


def sequential_demo(state: TruncatedState, theta: float, mu_var: float,
                    nu_var: float, k_max: int = 12) -> dict:
    """End-to-end recovery demo for a sequential smeared measurement.

    The first channel observes moments of (gaussian mu) * rho^Q and the
    second those of (gaussian nu) * rho^(Q_theta).  Both smeared sequences
    are deconvolved and compared against the direct quadrature moments.
    Returns a JSON-compatible report with the three sequences per channel
    and the worst relative error (denominator max(1, |truth|)).  Orders above
    MAX_DEMO_ORDER lose precision to binomial cancellation and are refused.
    """
    k_max = _count("k_max", k_max, MAX_DEMO_ORDER)
    report: dict = {"theta": theta, "mu_var": mu_var, "nu_var": nu_var,
                    "k_max": k_max, "channels": {}}
    worst = 0.0
    for label, angle, var in (("q", 0.0, mu_var), ("q_theta", theta, nu_var)):
        truth = quadrature_moment_sequence(state, angle, k_max)
        probe = gaussian_moments(0.0, var, k_max)
        smeared = convolved_moments(probe, truth, k_max)
        recovered = invert_moments(smeared, probe)
        errs = [
            abs(r - t) / max(1.0, abs(t))
            for r, t in zip(recovered.values, truth.values)
        ]
        worst = max(worst, max(errs))
        report["channels"][label] = {
            "ground_truth": list(truth.values),
            "smeared": list(smeared.values),
            "recovered": list(recovered.values),
            "max_rel_error": max(errs),
        }
    report["max_rel_error"] = worst
    return report
