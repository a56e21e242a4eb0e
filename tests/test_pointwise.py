"""One point rule for every pointwise function.

Each function broadcasts its coordinates, rejects NaN or infinite points
with DomainError, and returns a float for a scalar or 0-d point and an
array of the broadcast shape otherwise: a list or tuple gives the values
of the matching ndarray, a 2-D input keeps its shape, and an empty input
gives an empty array.
"""

import math

import numpy as np
import pytest

from quadsuite import (
    DomainError,
    cartesian_marginal_density,
    coherent_state,
    dawson,
    dawson_derivatives,
    gk_density,
    hermite_basis,
    hermite_function,
    markov_kernel_number,
    number_state,
    quadrature_density,
    radon,
    rotated_marginal_density,
    wigner,
    wigner_grid,
)

STATE = coherent_state(0.4 + 0.3j, 10)
KERNEL = number_state(1, 10)
GRID = wigner_grid(STATE, 8.0, 0.1)

POINTWISE = {
    "hermite_function": lambda x: hermite_function(3, x),
    "quadrature_density": lambda x: quadrature_density(STATE, 0.7, x),
    "dawson": dawson,
    "markov_kernel_derivative": lambda x: markov_kernel_number(1, (0.2, -0.1), 0.4, x),
    "markov_kernel_series": lambda x: markov_kernel_number(1, (0.2, -0.1), 0.4, x, form="series"),
    "wigner": lambda x: wigner(STATE, (0.3, x)),
    "gk_density": lambda x: gk_density(STATE, KERNEL, (x, x)),
    "rotated_marginal_density": lambda x: rotated_marginal_density(STATE, KERNEL, 0.9, x),
    "cartesian_marginal_density": lambda x: cartesian_marginal_density(STATE, KERNEL, "p", x),
    "radon": lambda x: radon(GRID, 0.3, x),
}
POINTS = [-1.5, -0.2, 0.0, 1.1]


@pytest.mark.parametrize("f", POINTWISE.values(), ids=POINTWISE.keys())
def test_point_rule(f):
    flat = f(np.array(POINTS))
    assert isinstance(flat, np.ndarray) and flat.shape == (4,)
    for seq in (list, tuple):
        np.testing.assert_array_equal(f(seq(POINTS)), flat)
    square = f(np.array(POINTS).reshape(2, 2))
    assert square.shape == (2, 2)
    np.testing.assert_array_equal(square.ravel(), flat)
    for scalar in (POINTS[1], np.float64(POINTS[1]), np.array(POINTS[1])):
        val = f(scalar)
        assert type(val) is float
        assert val == pytest.approx(flat[1], rel=1e-12, abs=1e-15)
    for empty in ([], np.array([])):
        assert f(empty).shape == (0,)
    for bad in (math.nan, math.inf, [0.0, -math.inf], np.array([[0.0], [math.nan]])):
        with pytest.raises(DomainError, match="must be finite"):
            f(bad)


@pytest.mark.parametrize("t", [math.nan, math.inf, np.array([0.0, -math.inf])])
def test_dawson_derivatives_reject_non_finite_points(t):
    with pytest.raises(DomainError, match="must be finite"):
        dawson_derivatives(t, 1)


def test_hermite_basis_rejects_2d_points():
    with pytest.raises(DomainError, match="1-D"):
        hermite_basis(3, np.zeros((2, 2)))


@pytest.mark.parametrize("n", [-1, 2001])
def test_hermite_function_checks_its_degree_without_points(n):
    with pytest.raises(DomainError, match="degree"):
        hermite_function(n, [])
