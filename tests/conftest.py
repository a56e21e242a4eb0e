import math

import mpmath
import numpy as np
import pytest

from quadsuite import (
    generate_dataset,
    hermite_basis,
    number_state,
    pure_state,
    save_dataset,
    state_from_matrix,
)


@pytest.fixture
def rng():
    return np.random.default_rng(2024)


@pytest.fixture
def random_pure():
    """Factory for random pure states with given Fock support and dim."""

    def make(rng, support, dim):
        amps = rng.normal(size=support) + 1j * rng.normal(size=support)
        amps /= np.linalg.norm(amps)
        return pure_state(amps, dim)

    return make


@pytest.fixture
def random_mixed():
    """Factory for random full-rank density matrices."""

    def make(rng, dim):
        a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        rho = a @ a.conj().T
        return state_from_matrix(rho / np.trace(rho).real)

    return make


@pytest.fixture(scope="session")
def panel_rule():
    """Oracle quadrature: 20 Gauss-Legendre nodes per panel at most 0.25
    wide over each finite interval (lo, hi); returns (nodes, weights)."""
    nodes, weights = np.polynomial.legendre.leggauss(20)

    def rule(pieces):
        xs, ws = [], []
        for lo, hi in pieces:
            edges = np.linspace(lo, hi, max(1, math.ceil((hi - lo) / 0.25)) + 1)
            mid, half = 0.5 * (edges[1:] + edges[:-1]), 0.5 * np.diff(edges)
            xs.append((mid[:, None] + half[:, None] * nodes).ravel())
            ws.append((half[:, None] * weights).ravel())
        return np.concatenate(xs), np.concatenate(ws)

    return rule


@pytest.fixture(scope="session")
def kernel_oracle():
    """K_n(t) = int_0^inf s e^(-s^2/4) L_n(s^2/2) cos(s t) ds at 60 digits.

    L_n(x) = sum_k C(n,k) (-x)^k / k! integrates term by term:
    int_0^inf s^(2k+1) e^(-s^2/4) cos(s t) ds = k! 2^(2k+1) 1F1(k+1; 1/2; -t^2),
    so K_n(t) = sum_k C(n,k) (-1)^k 2^(k+1) 1F1(k+1; 1/2; -t^2): no
    recurrence, and no cancellation left at this precision.
    """

    def kernel(n, t):
        with mpmath.workdps(60):
            t2 = mpmath.mpf(t) ** 2
            return float(sum(math.comb(n, k) * (-1) ** k * mpmath.mpf(2) ** (k + 1)
                             * mpmath.hyp1f1(k + 1, 0.5, -t2) for k in range(n + 1)))

    return kernel


@pytest.fixture(scope="session")
def per_band_fit():
    """The reconstruction's reference: one complex least-squares fit per
    band of sum_j exp(i d theta_j) p_j / J against h_{n+d} h_n, then the
    same projection onto the physical cone as ``reconstruct_state``."""

    def fit(data, dim):
        basis = hermite_basis(dim - 1, data.xs)
        rho = np.zeros((dim, dim), dtype=complex)
        for d in range(dim):
            band = np.exp(1j * d * data.thetas) @ data.values / data.angles
            design = (basis[d:] * basis[: dim - d]).T
            coeffs = np.linalg.lstsq(design, band, rcond=None)[0]
            ns = np.arange(dim - d)
            rho[ns + d, ns] = coeffs
            rho[ns, ns + d] = coeffs.conj()
        evals, evecs = np.linalg.eigh(0.5 * (rho + rho.conj().T))
        evals = np.maximum(evals, 0.0)
        return (evecs * (evals / evals.sum())) @ evecs.conj().T

    return fit


@pytest.fixture(params=["header number", "non-numeric cell", "ragged rows", "non-utf8"])
def malformed_dataset(request, tmp_path):
    """Path of a saved dataset file broken in one of four ways."""
    path = tmp_path / "set.txt"
    save_dataset(generate_dataset(number_state(1, 4), 8), path)
    lines = path.read_text().splitlines()
    if request.param == "header number":
        lines[0] = "# 16 a b c"
    elif request.param == "non-numeric cell":
        lines[2] = "x" + lines[2][lines[2].index(" "):]
    elif request.param == "ragged rows":
        lines[3] = lines[3].rsplit(" ", 1)[0]
    text = ("\n".join(lines) + "\n").encode()
    path.write_bytes(text + b"\xff\xfe\n" if request.param == "non-utf8" else text)
    return path
