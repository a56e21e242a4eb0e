import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.linalg import expm

from quadsuite import (
    DomainError,
    IntervalSet,
    coherent_state,
    commutator_block,
    complementarity_summary,
    gaussian_pure_state,
    number_state,
    quadrature_density,
    quadrature_matrix,
    quadrature_moment,
    quadrature_moment_sequence,
    quadrature_probability,
    rotate_state,
    trace_pair,
    uncertainty_product,
    vacuum_state,
    weyl_relation_deviation,
)

UNIT = IntervalSet.of((0.0, 1.0))


def test_matrix_entries():
    m = quadrature_matrix(0.7, 5)
    ns = np.arange(4)
    np.testing.assert_allclose(
        np.diag(m, 1), np.exp(-0.7j) * np.sqrt((ns + 1) / 2.0), atol=1e-15
    )
    np.testing.assert_allclose(m, m.conj().T, atol=1e-15)


def test_zero_angle_is_position_and_half_pi_is_momentum():
    q = quadrature_matrix(0.0, 4)
    p = quadrature_matrix(math.pi / 2.0, 4)
    assert np.max(np.abs(q.imag)) < 1e-15
    np.testing.assert_allclose(p, 1j * (np.tril(q, -1) - np.triu(q, 1)), atol=1e-15)


def test_coherent_density_is_shifted_gaussian():
    alpha = 0.9 - 0.4j
    st = coherent_state(alpha, 50)
    theta = 0.6
    xs = np.linspace(-5.0, 5.0, 101)
    mean = math.sqrt(2.0) * (alpha * np.exp(-1j * theta)).real
    ref = np.exp(-((xs - mean) ** 2)) / math.sqrt(math.pi)
    np.testing.assert_allclose(quadrature_density(st, theta, xs), ref, atol=1e-9)


@pytest.mark.parametrize("n", [0, 1, 3])
def test_number_density_angle_free(n):
    from quadsuite import hermite_function

    st = number_state(n, 10)
    xs = np.linspace(-4.0, 4.0, 33)
    ref = hermite_function(n, xs) ** 2
    for theta in (0.0, 0.8, 2.5):
        np.testing.assert_allclose(quadrature_density(st, theta, xs), ref, atol=1e-13)


def test_density_covariance_under_rotation(rng, random_pure):
    st = random_pure(rng, 6, 10)
    xs = np.linspace(-4.0, 4.0, 21)
    phi, theta = 0.5, 1.2
    np.testing.assert_allclose(
        quadrature_density(rotate_state(st, phi), theta + phi, xs),
        quadrature_density(st, theta, xs),
        atol=1e-13,
    )


def test_probability_normalization(rng, random_pure):
    st = random_pure(rng, 8, 12)
    assert abs(quadrature_probability(st, 0.9, IntervalSet.full_line()) - 1.0) < 1e-12
    p_half = quadrature_probability(st, 0.9, IntervalSet.of((0.0, math.inf)))
    p_rest = quadrature_probability(st, 0.9, IntervalSet.of((-math.inf, 0.0)))
    assert abs(p_half + p_rest - 1.0) < 1e-12


def test_moment_against_integral_oracle(rng, random_pure):
    st = random_pure(rng, 5, 9)
    theta = 0.4
    for k in (1, 2, 3):
        ref, _ = quad(
            lambda x: x**k * quadrature_density(st, theta, np.array([x]))[0],
            -9.0,
            9.0,
            limit=300,
        )
        assert abs(quadrature_moment(st, theta, k) - ref) < 1e-9


def _moment_by_matrix_power(state, theta, k, absolute=False):
    """tr[rho Q_theta^k] from a dense power of Q_theta on dim + k levels, one
    order at a time; with absolute=True, tr[|rho| |Q_theta|^k] (entrywise
    moduli), the size of the terms the moment sums."""
    if k == 0:
        return 1.0
    q_th, rho = quadrature_matrix(theta, state.dim + k), state.matrix
    if absolute:
        q_th, rho = np.abs(q_th), np.abs(rho)
    block = np.linalg.matrix_power(q_th, k)[: state.dim, : state.dim]
    return float(np.sum(rho * block.T).real)


def test_moment_walk_matches_dense_powers(rng, random_mixed):
    # every order comes from one walk Y_k = Q_theta Y_(k-1); odd moments of mixed
    # states cancel, so the gap is held relative to the size of their terms
    cases = [(random_mixed(rng, int(rng.integers(1, 25))), float(rng.uniform(-math.pi, math.pi)), 16)
             for _ in range(40)]
    cases.append((random_mixed(rng, 400), 0.7, 40))
    for state, theta, k_max in cases:
        walk = quadrature_moment_sequence(state, theta, k_max).values
        for k in (range(k_max + 1) if state.dim < 400 else (1, 2, 39, 40)):
            gap = abs(walk[k] - _moment_by_matrix_power(state, theta, k))
            assert gap <= 1e-13 * _moment_by_matrix_power(state, theta, k, absolute=True), (state.dim, k)
        assert quadrature_moment(state, theta, k_max) == walk[k_max]


def test_number_state_moments():
    st = number_state(2, 12)
    assert abs(quadrature_moment(st, 1.1, 1)) < 1e-13
    assert abs(quadrature_moment(st, 1.1, 2) - 2.5) < 1e-12


def test_commutator_block_is_scalar():
    for theta in (0.3, math.pi / 2):
        block = commutator_block(theta, 25)
        target = 1j * math.sin(theta) * np.eye(23)
        assert np.max(np.abs(block - target)) < 1e-13


def test_commutator_needs_room():
    with pytest.raises(DomainError):
        commutator_block(0.5, 2)


def test_uncertainty_bound_random_states(rng, random_pure):
    theta = 1.1
    bound = math.sin(theta) ** 2 / 4.0
    for _ in range(100):
        st = random_pure(rng, 6, 12)
        assert uncertainty_product(st, theta) >= bound - 1e-9


def test_uncertainty_bound_attained_by_gaussian():
    theta = math.pi / 4
    var_q = math.sin(theta) / 2.0
    cov = -var_q / math.tan(theta)
    st = gaussian_pure_state(var_q, cov, 60)
    product = uncertainty_product(st, theta)
    assert abs(product / (math.sin(theta) ** 2 / 4.0) - 1.0) < 1e-6


def test_trace_pair_converges_from_above():
    limit = 1.0 / (2.0 * math.pi)
    vals = [trace_pair(UNIT, UNIT, math.pi / 2.0, d) for d in (50, 100, 200)]
    assert vals[0] > vals[1] > vals[2] > limit
    assert abs(vals[2] - limit) / limit < 0.02


def test_trace_pair_theta_symmetry():
    a = trace_pair(UNIT, UNIT, 0.9, 60)
    b = trace_pair(UNIT, UNIT, -0.9, 60)
    assert abs(a - b) < 1e-12


@pytest.mark.parametrize(
    "bad",
    [
        dict(X=IntervalSet.full_line(), Y=UNIT, theta=1.0, dim=20),
        dict(X=UNIT, Y=UNIT, theta=0.0, dim=20),
        dict(X=UNIT, Y=UNIT, theta=1.0, dim=500),
    ],
)
def test_trace_pair_rejects(bad):
    with pytest.raises(DomainError):
        trace_pair(**bad)


@pytest.mark.parametrize("theta", [math.nan, math.inf, -math.inf])
def test_angle_functions_reject_non_finite_angle(theta):
    for call in (
        lambda: trace_pair(UNIT, UNIT, theta, 20),
        lambda: complementarity_summary(20, theta),
        lambda: quadrature_moment(vacuum_state(4), theta, 2),
        lambda: commutator_block(theta, 6),
    ):
        with pytest.raises(DomainError, match="theta must be finite"):
            call()


def test_weyl_relation_small_deviation():
    assert weyl_relation_deviation(0.5, -0.3, 60) < 1e-8
    assert weyl_relation_deviation(0.0, 0.0, 10) < 1e-15


@pytest.mark.parametrize("dim", [8, 60])
def test_weyl_relation_equals_four_expm_formula(dim):
    # each exponential is computed once and reused in both products
    q, p = 0.7, -0.3
    q_mat, p_mat = quadrature_matrix(0.0, dim), quadrature_matrix(math.pi / 2.0, dim)
    left = expm(-1j * q * p_mat) @ expm(1j * p * q_mat)
    right = np.exp(-1j * q * p) * (expm(1j * p * q_mat) @ expm(-1j * q * p_mat))
    half = dim // 2
    assert weyl_relation_deviation(q, p, dim) == float(
        np.max(np.abs((left - right)[:half, :half]))
    )


@pytest.mark.parametrize("q,p", [(math.nan, 0.5), (0.5, math.inf), (-math.inf, 0.0)])
def test_weyl_relation_rejects_non_finite_point(q, p):
    with pytest.raises(DomainError, match="must be finite"):
        weyl_relation_deviation(q, p, 8)


def test_summary_is_thin_wrapper():
    summary = complementarity_summary(60, 1.0)
    assert summary["trace_estimate"] == trace_pair(UNIT, UNIT, 1.0, 60)
    assert summary["weyl_deviation"] == weyl_relation_deviation(0.5, 0.5, 60)
    assert abs(summary["uncertainty_attained"] - summary["uncertainty_bound"]) < 1e-3
    assert summary["trace_rel_error"] < 0.05


def test_vacuum_density_rotation_invariant():
    st = vacuum_state(6)
    xs = np.linspace(-3.0, 3.0, 13)
    ref = np.exp(-(xs**2)) / math.sqrt(math.pi)
    for theta in (0.0, 0.785398, 2.0):
        np.testing.assert_allclose(quadrature_density(st, theta, xs), ref, atol=1e-14)


@pytest.mark.parametrize("theta", [math.nan, math.inf])
def test_density_and_probability_reject_non_finite_angle(theta):
    st = vacuum_state(4)
    with pytest.raises(DomainError):
        quadrature_density(st, theta, np.array([0.0, 1.0]))
    with pytest.raises(DomainError):
        quadrature_probability(st, theta, UNIT)


@pytest.mark.parametrize("x", [math.nan, np.array([0.0, math.nan]), np.array([math.inf])])
def test_density_rejects_non_finite_points(x):
    with pytest.raises(DomainError):
        quadrature_density(vacuum_state(4), 0.0, x)
