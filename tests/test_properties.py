"""Properties of the quadrature layer over generated inputs.

Hypothesis draws the states, angles and points; every test is
derandomized, keeps no example database, and runs at most 25 examples
with dimensions up to 12 (16 for the reconstruction against its
per-band fit), so the suite is reproducible and quick.  The
reconstruction round trip needs J >= 2 dim - 1 angles to separate the
bands; the covariant density's mass 2 pi is read off its Hermite tensor.
"""

import csv
import io
import math
from contextlib import redirect_stdout

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quadsuite import (
    DomainError,
    IntervalSet,
    convolved_moments,
    gaussian_moments,
    generate_dataset,
    gk_density,
    gk_from_quadrature_data,
    hermite_basis,
    invert_moments,
    make_state,
    number_state,
    overlap_matrix,
    quadrature_density,
    quadrature_moment_sequence,
    reconstruct_state,
    rotate_state,
    radon,
    rotated_marginal_density,
    state_from_matrix,
    strip_probability,
    trace_pair,
    vacuum_state,
    wigner,
    wigner_grid,
)
from quadsuite.cli import main
from quadsuite.moments import MAX_DEMO_ORDER
from quadsuite.phase_space import _gk_tensor
from quadsuite.tomography import MAX_KERNEL_INDEX

PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=25)

angles = st.floats(-2.0 * math.pi, 2.0 * math.pi)
points = st.lists(st.floats(-10.0, 10.0), min_size=1, max_size=20).map(np.array)
phase_points = st.lists(st.tuples(st.floats(-6.0, 6.0), st.floats(-6.0, 6.0)),
                        min_size=1, max_size=20).map(np.array)
non_finite = st.sampled_from([math.nan, math.inf, -math.inf])


@st.composite
def states(draw, max_dim=12, dim=None):
    """A random density matrix of random rank on up to max_dim levels, or
    on exactly dim levels when dim is given."""
    dim = dim or draw(st.integers(1, max_dim))
    rank = draw(st.integers(1, dim))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    a = rng.normal(size=(dim, rank)) + 1j * rng.normal(size=(dim, rank))
    rho = a @ a.conj().T
    return state_from_matrix(rho / np.trace(rho).real)


@st.composite
def spec_pairs(draw):
    """The same named state as a string spec and as a tuple spec, with a dim."""
    dim = draw(st.integers(1, 12))
    kind = draw(st.sampled_from(["vacuum", "number", "coherent", "squeezed"]))
    if kind == "vacuum":
        return "vacuum", ("vacuum",), dim
    if kind == "number":
        n = draw(st.integers(0, dim - 1))
        return f"number:{n}", ("number", n), dim
    small = st.floats(-1.5, 1.5)
    a, b = draw(small), draw(small)
    return f"{kind}:{a!r},{b!r}", (kind, a, b), dim


@st.composite
def with_non_finite(draw, values):
    """values with one entry replaced by NaN or an infinity."""
    out = np.array(draw(values), dtype=float)
    out[draw(st.integers(0, out.size - 1))] = draw(non_finite)
    return out


@pytest.mark.filterwarnings("ignore:truncation dropped")
@PROPERTY
@given(spec_pairs())
def test_string_spec_equals_tuple_spec(pair):
    text, parts, dim = pair
    assert np.array_equal(make_state(text, dim).matrix, make_state(parts, dim).matrix)


@pytest.mark.filterwarnings("ignore:truncation dropped")
@PROPERTY
@given(spec_pairs(), angles)
def test_cli_state_spec_matches_library(pair, theta):
    text, parts, dim = pair
    out = io.StringIO()
    with redirect_stdout(out):
        code = main(["quad-density", "--state", text, "--dim", str(dim),
                     f"--theta={theta!r}", "--grid=-2:2:1"])
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out.getvalue())))
    want = quadrature_density(make_state(parts, dim), theta, np.array([-2.0, -1, 0, 1, 2]))
    got = np.array([float(r["density"]) for r in rows])
    np.testing.assert_allclose(got, want, rtol=1e-11, atol=1e-15)   # CSV keeps 13 digits


@PROPERTY
@given(states(), angles, angles, points)
def test_density_covariant_under_rotation(state, theta, phi, x):
    rotated = quadrature_density(rotate_state(state, phi), theta, x)
    np.testing.assert_allclose(rotated, quadrature_density(state, theta - phi, x), atol=1e-13)


@PROPERTY
@given(states(), angles, points)
def test_density_nonnegative_with_unit_mass(state, theta, x):
    assert quadrature_density(state, theta, x).min() >= -1e-14
    # e^{-x^2} times a polynomial of degree 2(dim - 1): dim Gauss-Hermite nodes are exact
    u, w = np.polynomial.hermite.hermgauss(state.dim)
    mass = np.dot(w * np.exp(u * u), quadrature_density(state, theta, u))
    assert abs(mass - 1.0) < 1e-12


@PROPERTY
@given(st.data())
def test_reconstruction_round_trip(data):
    state = data.draw(states(max_dim=8))
    angles = data.draw(st.integers(2 * state.dim - 1, 2 * state.dim + 8))
    rebuilt = reconstruct_state(generate_dataset(state, angles), state.dim)
    assert np.linalg.norm(rebuilt.matrix - state.matrix) <= 1e-6


@PROPERTY
@given(st.data())
def test_reconstruction_matches_per_band_complex_fit(per_band_fit, data):
    state = data.draw(states(max_dim=16))
    angles = data.draw(st.integers(2 * state.dim - 1, 2 * state.dim + 19))
    edge, step = data.draw(st.sampled_from([8.0, 10.0])), data.draw(st.sampled_from([0.01, 0.02]))
    dataset = generate_dataset(state, angles, (-edge, edge, step))
    rebuilt = reconstruct_state(dataset, state.dim)
    assert np.max(np.abs(rebuilt.matrix - per_band_fit(dataset, state.dim))) <= 2e-15


@PROPERTY
@given(states(), angles)
def test_radon_slice_of_wigner_grid_is_the_quadrature_density(state, theta):
    # a 0.025 grid keeps the cubic-spline gap below 3e-7 at dim 12; a 0.04 grid passes 1e-6
    xs = np.linspace(-6.0, 6.0, 121)
    slice_ = radon(wigner_grid(state, step=0.025), theta, xs)
    assert np.max(np.abs(slice_ - quadrature_density(state, theta, xs))) <= 1e-6


@PROPERTY
@given(states(), angles, st.integers(0, MAX_DEMO_ORDER), st.floats(-1.0, 1.0), st.floats(0.0, 1.0))
def test_convolved_moments_invert_back(state, theta, k_max, mean, var):
    p = quadrature_moment_sequence(state, theta, k_max)
    mu = gaussian_moments(mean, var, k_max)
    back = invert_moments(convolved_moments(mu, p, k_max), mu)
    for k in range(k_max + 1):
        # rounding of the terms C(k, n) mu[k - n] p[n] is all the round trip may lose
        size = sum(math.comb(k, n) * abs(mu[k - n] * p[n]) for n in range(k + 1))
        assert abs(back[k] - p[k]) <= 1e-12 * size


@PROPERTY
@given(states(), phase_points)
def test_wigner_bounded_by_one_over_pi(state, pts):
    assert np.max(np.abs(wigner(state, (pts[:, 0], pts[:, 1])))) <= 1.0 / math.pi + 1e-14


@PROPERTY
@given(st.data())
def test_gk_tensor_has_mass_two_pi(data):
    state = data.draw(states())
    kernel = data.draw(states(dim=state.dim))
    coeffs = _gk_tensor(state, kernel)
    # int h_f = sqrt(2) int h_f(sqrt(2) y) dy, exact on len(coeffs) Gauss-Hermite nodes
    y, w = np.polynomial.hermite.hermgauss(len(coeffs))
    integrals = math.sqrt(2.0) * hermite_basis(len(coeffs) - 1, math.sqrt(2.0) * y) @ (w * np.exp(y * y))
    assert abs(integrals @ coeffs @ integrals - 2.0 * math.pi) <= 1e-12


intervals = st.tuples(st.floats(-3.0, 2.5), st.floats(0.1, 2.0)).map(
    lambda pair: IntervalSet.of((pair[0], pair[0] + pair[1]))
)


@PROPERTY
@given(intervals, intervals, angles.filter(lambda th: abs(math.sin(th)) > 1e-3),
       st.integers(1, 12))
def test_trace_pair_even_in_theta(X, Y, theta, dim):
    forward, backward = trace_pair(X, Y, theta, dim), trace_pair(X, Y, -theta, dim)
    assert abs(forward - backward) <= 1e-14 * max(1.0, abs(forward))


ends = st.floats(-12.0, 12.0) | st.sampled_from([-math.inf, math.inf])


@st.composite
def windows(draw):
    """An interval set of one to three pieces with ends drawn from ends."""
    cuts = sorted(set(draw(st.lists(ends, min_size=2, max_size=6))))
    pieces = list(zip(cuts[::2], cuts[1::2]))
    return IntervalSet(tuple(pieces)) if pieces else IntervalSet.full_line()


@PROPERTY
@given(st.floats(-12.0, 12.0), st.floats(0.01, 5.0), st.floats(0.01, 5.0), ends, ends, st.integers(1, 12))
def test_overlap_matrix_additive_over_a_split(cut, left, right, far_left, far_right, dim):
    for lo, hi in ((cut - left, cut + right), (min(far_left, cut - left), max(far_right, cut + right))):
        whole = overlap_matrix(IntervalSet.of((lo, hi)), dim)
        parts = overlap_matrix(IntervalSet.of((lo, cut)), dim) + overlap_matrix(IntervalSet.of((cut, hi)), dim)
        np.testing.assert_allclose(whole, parts, rtol=0, atol=1e-14)


@PROPERTY
@given(states(), states(), angles)
def test_marginal_nonnegative_with_unit_mass(state, kernel, theta):
    ts = np.linspace(-15.0, 15.0, 301)
    assert rotated_marginal_density(state, kernel, theta, ts).min() >= -1e-14
    assert abs(strip_probability(state, kernel, theta, IntervalSet.full_line()) - 1.0) <= 1e-13


@PROPERTY
@given(states(), states(), angles, windows())
def test_strip_and_its_complement_sum_to_one(state, kernel, theta, X):
    cuts = [end for piece in X.intervals for end in piece]
    edges = [-math.inf, *cuts, math.inf]
    rest = [(a, b) for a, b in zip(edges[::2], edges[1::2]) if a < b]
    inside = strip_probability(state, kernel, theta, X)
    outside = strip_probability(state, kernel, theta, IntervalSet(tuple(rest))) if rest else 0.0
    assert abs(inside + outside - 1.0) <= 1e-14


@PROPERTY
@given(states(), states(), angles, windows())
def test_strip_matches_panel_oracle(panel_rule, state, kernel, theta, X):
    # the marginal is below 1e-30 beyond |t| = 40 at these dims
    nodes, weights = panel_rule([(max(a, -40.0), min(b, 40.0)) for a, b in X.intervals])
    want = weights @ rotated_marginal_density(state, kernel, theta, nodes)
    assert abs(strip_probability(state, kernel, theta, X) - want) <= 1e-13


@PROPERTY
@given(non_finite, with_non_finite(points))
def test_non_finite_input_raises_domain_error(bad, bad_points):
    state = vacuum_state(3)
    x = np.array([0.0, 1.0])
    grid = wigner_grid(state, extent=6.0, step=0.5)
    for call in (
        lambda: radon(grid, bad, x),
        lambda: radon(grid, 0.3, bad),
        lambda: radon(grid, 0.3, bad_points),
        lambda: quadrature_density(state, bad, x),
        lambda: quadrature_density(state, 0.3, bad_points),
        lambda: rotate_state(state, bad),
        lambda: rotated_marginal_density(state, state, bad, x),
        lambda: rotated_marginal_density(state, state, 0.3, bad_points),
    ):
        with pytest.raises(DomainError):
            call()


@PROPERTY
@given(st.integers(0, 12), with_non_finite(points))
def test_hermite_basis_rejects_non_finite_points(n_max, bad_points):
    with pytest.raises(DomainError):
        hermite_basis(n_max, bad_points)


@st.composite
def number_kernel_pairs(draw):
    """A kernel index n <= MAX_KERNEL_INDEX and a random state on n + 1 to 16 levels."""
    n = draw(st.integers(0, MAX_KERNEL_INDEX))
    return n, draw(states(dim=draw(st.integers(n + 1, 16))))


@PROPERTY
@given(number_kernel_pairs(), st.floats(0.0, 1.8), st.floats(0.0, 2.0 * math.pi))
def test_gk_from_data_matches_gk_density(pair, radius, phi):
    # the Dawson recurrence behind the former functional was 6e-11 off
    # at dim 10 and 8e-10 off at dim 16 for n = 6
    n, state = pair
    data = generate_dataset(state, 64)
    pt = (radius * math.cos(phi), radius * math.sin(phi))
    want = float(gk_density(state, number_state(n, state.dim), pt))
    assert abs(gk_from_quadrature_data(data, n, pt) - want) <= 1e-12
