import math

import numpy as np
import pytest

from quadsuite import pure_state, state_from_matrix


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
