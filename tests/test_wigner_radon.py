import math

import numpy as np
import pytest
from scipy.special import eval_laguerre

from quadsuite import (
    CoverageError,
    DomainError,
    GridFunction,
    coherent_state,
    gk_density,
    gk_grid,
    number_state,
    quadrature_density,
    radon,
    rotated_marginal_density,
    state_from_matrix,
    uniform_axis,
    vacuum_state,
    verify_gk_radon,
    verify_wigner_radon,
    wigner,
    wigner_grid,
)
from quadsuite import wigner_radon

# tr[rho W(2q,2p) Pi] / pi for the seed-11 dim-5 mixed state, evaluated
# with scipy expm displacements at truncation 220
FROZEN_POINTS = [(0.0, 0.0), (1.1, -0.7), (-2.3, 0.4)]
FROZEN_VALUES = [0.11919368181739644, 0.008754172904382745, 0.05169368130634869]


def _seed11_state():
    rng = np.random.default_rng(11)
    a = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
    rho = a @ a.conj().T
    return state_from_matrix(rho / np.trace(rho).real)


def test_wigner_frozen_oracle():
    st = _seed11_state()
    for pt, want in zip(FROZEN_POINTS, FROZEN_VALUES):
        assert abs(wigner(st, pt) - want) < 1e-12


@pytest.mark.parametrize("n", [0, 1, 2, 3])
def test_wigner_number_states_closed_form(n):
    st = number_state(n, 12)
    for q, p in [(0.0, 0.0), (0.8, -0.3), (1.5, 1.1)]:
        r2 = q * q + p * p
        want = (-1.0) ** n / math.pi * eval_laguerre(n, 2.0 * r2) * math.exp(-r2)
        assert abs(wigner(st, (q, p)) - want) < 1e-13


def test_wigner_coherent_is_shifted_vacuum():
    alpha = 0.6 + 0.9j
    st = coherent_state(alpha, 50)
    q0, p0 = math.sqrt(2.0) * alpha.real, math.sqrt(2.0) * alpha.imag
    for q, p in [(q0, p0), (0.0, 0.0), (1.0, 1.0)]:
        want = math.exp(-((q - q0) ** 2) - (p - p0) ** 2) / math.pi
        assert abs(wigner(st, (q, p)) - want) < 1e-9


def test_wigner_bounded_by_parity(rng, random_pure):
    # |tr[rho W Pi W*]| <= 1 pointwise
    for _ in range(5):
        st = random_pure(rng, 7, 10)
        pts = rng.uniform(-3, 3, size=(20, 2))
        vals = wigner(st, (pts[:, 0], pts[:, 1]))
        assert np.max(np.abs(vals)) <= 1.0 / math.pi + 1e-12


def test_wigner_center_is_mean_parity(rng, random_mixed):
    st = random_mixed(rng, 6)
    signs = (-1.0) ** np.arange(6)
    want = float(np.sum(np.diag(st.matrix).real * signs)) / math.pi
    assert abs(wigner(st, (0.0, 0.0)) - want) < 1e-14


def test_wigner_grid_normalization():
    st = coherent_state(0.4 - 0.5j, 40)
    grid = wigner_grid(st, extent=8.0, step=0.05)
    step = grid.axes[0][2]
    mass = np.trapezoid(np.trapezoid(grid.values, dx=step), dx=step)
    assert abs(mass - 1.0) < 1e-10


def test_radon_linearity():
    g0 = wigner_grid(number_state(0, 8), extent=6.0, step=0.05)
    g1 = wigner_grid(number_state(1, 8), extent=6.0, step=0.05)
    mix = state_from_matrix(0.3 * number_state(0, 8).matrix + 0.7 * number_state(1, 8).matrix)
    gm = wigner_grid(mix, extent=6.0, step=0.05)
    xs = np.linspace(-2.0, 2.0, 9)
    direct = radon(gm, 0.9, xs)
    combo = 0.3 * radon(g0, 0.9, xs) + 0.7 * radon(g1, 0.9, xs)
    np.testing.assert_allclose(direct, combo, atol=1e-12)


def test_radon_angle_reflection():
    st = coherent_state(0.8 + 0.2j, 30)
    grid = wigner_grid(st, extent=7.0, step=0.05)
    xs = np.linspace(-3.0, 3.0, 13)
    np.testing.assert_allclose(
        radon(grid, 0.7 + math.pi, xs), radon(grid, 0.7, -xs), atol=1e-12
    )
    np.testing.assert_allclose(
        radon(grid, 0.7 + 2.0 * math.pi, xs), radon(grid, 0.7, xs), atol=1e-12
    )


def test_radon_zero_angle_is_column_sum():
    st = number_state(1, 10)
    grid = wigner_grid(st, extent=6.0, step=0.02)
    step = grid.axes[1][2]
    qs = uniform_axis(*grid.axes[0])
    direct = np.trapezoid(grid.values, dx=step, axis=1)
    sampled = radon(grid, 0.0, qs[::40])
    np.testing.assert_allclose(sampled, direct[::40], atol=1e-10)


def test_radon_matches_quadrature_density():
    st = coherent_state(0.9 - 0.3j, 24)
    grid = wigner_grid(st, extent=7.0, step=0.025)
    xs = np.linspace(-4.0, 4.0, 81)
    theta = math.pi / 3.0
    np.testing.assert_allclose(
        radon(grid, theta, xs), quadrature_density(st, theta, xs), atol=5e-7
    )


def _sampled_wigner(state, axes):
    """The Wigner function of state on the grid with the given (lo, hi, step) axes."""
    q, p = uniform_axis(*axes[0]), uniform_axis(*axes[1])
    return GridFunction(axes, wigner(state, (q[:, None], p[None, :])))


@pytest.mark.parametrize("theta", [math.pi / 2.0, 1.2])
def test_radon_covers_an_off_centre_grid(theta):
    # the state sits at (7, 0); the grid q in [0, 14] is not centred on the origin
    st = coherent_state(7.0 / math.sqrt(2.0), 120)
    grid = _sampled_wigner(st, ((0.0, 14.0, 0.05), (-7.0, 7.0, 0.05)))
    xs = np.linspace(-6.0, 12.0, 73)
    np.testing.assert_allclose(
        radon(grid, theta, xs), quadrature_density(st, theta, xs), atol=5e-7
    )


def test_radon_covers_a_rectangular_grid_with_unequal_steps():
    st = coherent_state(0.9 - 0.3j, 24)
    grid = _sampled_wigner(st, ((-7.0, 7.0, 0.025), (-6.0, 6.0, 0.04)))
    xs = np.linspace(-4.0, 4.0, 81)
    for theta in (0.3, math.pi / 3.0, 1.4, 2.2):
        np.testing.assert_allclose(
            radon(grid, theta, xs), quadrature_density(st, theta, xs), atol=5e-7
        )


@pytest.mark.parametrize("theta", [0.3, 1.2, 2.5, -2.0])
def test_radon_is_the_row_sum_of_1d_splines(theta):
    # reference: a loop over the grid rows at fixed v, each read along u by
    # scipy's 1-D cubic spline of the row extended by zeros
    from scipy import ndimage
    st = coherent_state(0.5 + 0.4j, 16)
    axes = ((-6.0, 6.5, 0.1), (-6.0, 6.0, 0.08))
    grid = _sampled_wigner(st, axes)
    (q0, _, hq), (p0, _, hp) = axes
    c, s = math.cos(theta), math.sin(theta)
    if abs(c) >= abs(s):
        a, b, u0, hu, vs, hv, samples = c, s, q0, hq, grid.axis_points(1), hp, grid.values
    else:
        a, b, u0, hu, vs, hv, samples = s, c, p0, hp, grid.axis_points(0), hq, grid.values.T
    ts = np.linspace(-3.0, 3.0, 7)
    want = np.zeros_like(ts)
    for j, v in enumerate(vs):
        at = ((ts - v * b) / a - u0) / hu
        want += ndimage.map_coordinates(samples[:, j], at[None], order=3, mode="grid-constant")
    np.testing.assert_allclose(radon(grid, theta, ts), want * hv / abs(a), rtol=0, atol=1e-13)


SWITCH_STATE = coherent_state(0.9 - 0.3j, 24)
SWITCH_GRID = wigner_grid(SWITCH_STATE, extent=7.0, step=0.025)
# either side of |cos| = |sin|, where the summed axis changes, and one angle per quadrant
SWITCH_ANGLES = [a + d for a in (math.pi / 4.0, 3.0 * math.pi / 4.0, -math.pi / 4.0)
                 for d in (-1e-9, 1e-9)] + [0.4, 2.0, -2.6, -0.9]


@pytest.mark.parametrize("theta", SWITCH_ANGLES)
def test_radon_on_both_sides_of_the_axis_switch(theta):
    xs = np.linspace(-4.0, 4.0, 81)
    np.testing.assert_allclose(
        radon(SWITCH_GRID, theta, xs), quadrature_density(SWITCH_STATE, theta, xs), atol=5e-7
    )


@pytest.mark.parametrize("theta", [0.4, math.pi / 4.0, 2.0])
def test_radon_is_zero_far_beyond_the_grid(theta):
    np.testing.assert_array_equal(radon(SWITCH_GRID, theta, [-50.0, 50.0]), 0.0)


def test_radon_rejects_non_finite_samples():
    grid = wigner_grid(vacuum_state(4), extent=6.0, step=0.1)
    grid.values[30, 40] = math.nan
    with pytest.raises(DomainError, match="must be finite"):
        radon(grid, 0.3, 0.0)


def test_decay_check_refuses_a_nan_on_the_frame():
    # nan > tol is false, so the frame maximum alone would let this grid pass
    grid = wigner_grid(vacuum_state(4), extent=6.0, step=0.5)
    grid.values[0, 3] = math.nan
    with pytest.raises(DomainError, match="must be finite; 1 of 625 are NaN or infinite"):
        grid.require_decayed()


def test_radon_requires_decayed_grid():
    st = coherent_state(2.5, 40)
    grid = wigner_grid(st, extent=4.0, step=0.05)
    with pytest.raises(CoverageError):
        radon(grid, 0.0, np.array([0.0]))


def test_verify_wigner_radon_small():
    state = vacuum_state(8)
    report = verify_wigner_radon(state, 0.6, grid=wigner_grid(state, 6.0, 0.02))
    assert report < 1e-7


def test_verify_gk_radon_small():
    st, kern = vacuum_state(10), number_state(1, 10)
    report = verify_gk_radon(st, kern, 1.0, grid=gk_grid(st, kern, 9.0, 0.05))
    assert report < 1e-4


def test_verify_compares_at_the_grid_step(monkeypatch):
    seen = []
    monkeypatch.setattr(wigner_radon, "radon", lambda grid, theta, t: seen.append(t) or radon(grid, theta, t))
    st, kern = vacuum_state(10), number_state(1, 10)
    verify_gk_radon(st, kern, 1.0, grid=gk_grid(st, kern, 9.0, 0.05))
    verify_wigner_radon(st, 0.6, grid=wigner_grid(st, 6.0, 0.04))
    np.testing.assert_array_equal(seen[0], uniform_axis(-6.0, 6.0, 0.05))
    np.testing.assert_array_equal(seen[1], uniform_axis(-6.0, 6.0, 0.04))


def test_gk_grid_agrees_with_marginal():
    # integrating the gk grid along lines reproduces the smeared marginal
    st = number_state(1, 12)
    kernel = vacuum_state(12)
    grid = gk_grid(st, kernel, extent=9.0, step=0.05)
    xs = np.array([-1.0, 0.0, 0.5, 1.5])
    slice_vals = radon(grid, 0.4, xs) / (2.0 * math.pi)
    marg = rotated_marginal_density(st, kernel, 0.4, xs)
    np.testing.assert_allclose(slice_vals, marg, atol=1e-5)


def test_grids_equal_pointwise_values(rng, random_mixed):
    state, kernel = random_mixed(rng, 12), random_mixed(rng, 12)
    w = wigner_grid(state, extent=6.0, step=0.2)
    g = gk_grid(state, kernel, extent=6.0, step=0.2)
    qs = w.axis_points(0)
    mesh = (qs[:, None], qs[None, :])
    np.testing.assert_allclose(w.values, wigner(state, mesh), rtol=0, atol=1e-14)
    np.testing.assert_allclose(g.values, gk_density(state, kernel, mesh), rtol=0, atol=1e-14)


@pytest.mark.parametrize("axis", [(-math.inf, math.inf, 1.0), (0.0, math.inf, 0.5),
                                  (-math.inf, 0.0, 0.5), (math.nan, 1.0, 0.5)])
def test_uniform_axis_rejects_non_finite_ends(axis):
    with pytest.raises(DomainError, match="bad axis spec"):
        uniform_axis(*axis)


def test_wigner_grid_rejects_infinite_extent():
    with pytest.raises(DomainError):
        wigner_grid(vacuum_state(4), extent=math.inf)
