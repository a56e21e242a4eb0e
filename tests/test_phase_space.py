import math
import warnings

import mpmath
import numpy as np
import pytest
from scipy.integrate import quad_vec, simpson
from scipy.linalg import expm
from scipy.special import eval_genlaguerre, gammaln

from quadsuite import (
    DomainError,
    IntervalSet,
    cartesian_marginal_density,
    coherent_state,
    displacement_matrix,
    gk_density,
    gk_grid,
    number_state,
    pure_state,
    quadrature_density,
    quadrature_matrix,
    rotate_state,
    rotated_marginal_density,
    squeezed_state,
    strip_probability,
    uniform_axis,
    vacuum_state,
    wigner,
)
from quadsuite import phase_space
from quadsuite.fock import hermite_basis
from quadsuite.phase_space import _beam_splitter


def displacement_matrix_expm(pt, dim):
    """W(q, p) as expm(i(pQ - qP)) on dim levels; truncation-biased near the corner."""
    q, p = pt
    q_mat = quadrature_matrix(0.0, dim)
    p_mat = quadrature_matrix(math.pi / 2.0, dim)
    return expm(1j * (p * q_mat - q * p_mat))


def _interior_displacement(pt, dim, pad=120):
    # closed form equals the infinite operator's top block; the matrix
    # exponential only does once the generator has room to act
    return displacement_matrix_expm(pt, dim + pad)[:dim, :dim]


@pytest.mark.parametrize("pt", [(0.0, 0.0), (1.3, -0.4), (-2.0, 2.5)])
def test_displacement_matches_exponential_oracle(pt):
    closed = displacement_matrix(pt, 30)
    np.testing.assert_allclose(closed, _interior_displacement(pt, 30), atol=1e-12)


def test_displacement_inverse_is_opposite_point():
    w = displacement_matrix((0.8, 0.5), 40)
    w_inv = displacement_matrix((-0.8, -0.5), 40)
    # product deviates from identity only through the truncated corner
    np.testing.assert_allclose((w @ w_inv)[:20, :20], np.eye(20), atol=1e-10)


def test_displacement_unitary_on_interior():
    w = displacement_matrix((1.0, 1.0), 80)
    np.testing.assert_allclose((w.conj().T @ w)[:40, :40], np.eye(40), atol=1e-10)


def test_displaced_parity_identity():
    # W(q,p) Pi W(q,p)* = W(2q,2p) Pi, the workhorse behind the Wigner code
    pt = (0.7, -0.3)
    dim, keep = 160, 40
    w = _interior_displacement(pt, dim, pad=60)
    par = np.diag((-1.0) ** np.arange(dim))
    left = (w @ par @ w.conj().T)[:keep, :keep]
    right = (displacement_matrix((2 * pt[0], 2 * pt[1]), dim) @ par)[:keep, :keep]
    np.testing.assert_allclose(left, right, atol=1e-10)


def test_displacement_guards():
    with pytest.raises(DomainError):
        displacement_matrix((20.0, 0.0), 30)
    with pytest.raises(DomainError):
        displacement_matrix((0.0, 0.0), 500)
    with pytest.raises(DomainError):
        displacement_matrix((math.nan, 0.0), 30)


def _laguerre_closed_form(pt, dim):
    # sqrt(n!/m!) a^(m-n) exp(-|a|^2/2) L_n^(m-n)(|a|^2) entry by entry
    alpha = complex(*pt) / math.sqrt(2.0)
    x = abs(alpha) ** 2
    logfact = gammaln(np.arange(dim) + 1.0)
    mat = np.zeros((dim, dim), dtype=complex)
    for d in range(dim):
        ns = np.arange(dim - d)
        vals = np.exp(0.5 * (logfact[ns] - logfact[ns + d]) - 0.5 * x) * eval_genlaguerre(ns, d, x)
        mat[ns + d, ns] = vals * alpha**d
        mat[ns, ns + d] = vals * (-alpha.conjugate()) ** d
    return mat


@pytest.mark.parametrize("dim", [12, 30, 60])
def test_displacement_matches_laguerre_closed_form(dim):
    rng = np.random.default_rng(dim)
    radii = np.sqrt(rng.uniform(0.0, 200.0, 8))
    angles = rng.uniform(0.0, 2.0 * math.pi, 8)
    for r, phi in zip(radii, angles):
        pt = (r * math.cos(phi), r * math.sin(phi))
        gap = np.max(np.abs(displacement_matrix(pt, dim) - _laguerre_closed_form(pt, dim)))
        assert gap <= 1e-13


def _mpmath_entry(m, n, pt):
    # <h_m|W|h_n> at 60 digits; entries above the diagonal via W* = W(-pt)
    if m < n:
        return (-1) ** (n - m) * _mpmath_entry(n, m, pt).conjugate()
    with mpmath.workdps(60):
        a = mpmath.mpc(*pt) / mpmath.sqrt(2)
        x = abs(a) ** 2
        val = (mpmath.sqrt(mpmath.factorial(n) / mpmath.factorial(m)) * a ** (m - n)
               * mpmath.exp(-x / 2) * mpmath.laguerre(n, m - n, x))
        return complex(val)


@pytest.mark.parametrize("pt", [(7.0, 7.0), (10.0, 10.0)])
def test_displacement_at_documented_extreme(pt):
    w = displacement_matrix(pt, 400)
    assert np.all(np.isfinite(w))
    alpha = complex(*pt) / math.sqrt(2.0)
    coherent = np.empty(400, dtype=complex)
    coherent[0] = math.exp(-0.5 * abs(alpha) ** 2)
    for m in range(399):
        coherent[m + 1] = coherent[m] * alpha / math.sqrt(m + 1)
    np.testing.assert_allclose(w[:, 0], coherent, rtol=0, atol=1e-12)
    corners_and_bulk = [(0, 0), (399, 0), (0, 399), (399, 399), (1, 0), (0, 1),
                        (398, 399), (230, 170), (170, 230), (120, 5), (5, 120)]
    for m, n in corners_and_bulk:
        assert abs(w[m, n] - _mpmath_entry(m, n, pt)) < 1e-13


def _padded_gk_oracle(state, kernel, pt, big=140):
    # tr[rho W K W*] with W from expm on a basis padded well past dim
    dim = state.dim
    rho = np.zeros((big, big), dtype=complex)
    rho[:dim, :dim] = state.matrix
    kmat = np.zeros((big, big), dtype=complex)
    kmat[:dim, :dim] = kernel.matrix
    q, p = pt
    off = np.sqrt(np.arange(1, big) / 2.0)
    qm = np.diag(off, 1) + np.diag(off, -1)
    pm = 1j * (np.diag(off, -1) - np.diag(off, 1))
    w = expm(1j * (p * qm - q * pm))
    return float(np.trace(rho @ w @ kmat @ w.conj().T).real)


def test_gk_density_against_exponential_oracle(rng, random_mixed):
    state = random_mixed(rng, 6)
    kernel = number_state(1, 6)
    for pt in [(0.0, 0.0), (1.1, 0.6), (-0.9, 1.4)]:
        assert abs(gk_density(state, kernel, pt) - _padded_gk_oracle(state, kernel, pt)) < 1e-10


def test_gk_density_mixed_kernel_against_exponential_oracle(rng, random_mixed):
    # every eigenpair (i, j) of a rank-6 state and a rank-6 kernel in one contraction
    state = random_mixed(rng, 6)
    kernel = random_mixed(rng, 6)
    assert np.linalg.matrix_rank(kernel.matrix) >= 2
    for pt in [(0.0, 0.0), (1.1, 0.6), (-0.9, 1.4), (2.2, -1.7)]:
        assert abs(gk_density(state, kernel, pt) - _padded_gk_oracle(state, kernel, pt)) < 1e-10


def _assert_contraction_matches_matrix(state, kernel, pts):
    parity = np.diag((-1.0) ** np.arange(state.dim))
    pts = pts[np.sum(pts**2, axis=1) <= 200.0]
    got_gk = gk_density(state, kernel, (pts[:, 0], pts[:, 1]))
    got_w = wigner(state, (pts[:, 0] / 2, pts[:, 1] / 2))
    for (q, p), gk_val, w_val in zip(pts, got_gk, got_w):
        w = displacement_matrix((q, p), state.dim)
        want_gk = np.trace(state.matrix @ w @ kernel.matrix @ w.conj().T).real
        want_w = np.trace(state.matrix @ w @ parity).real / math.pi
        assert abs(gk_val - want_gk) < 1e-13
        assert abs(w_val - want_w) < 1e-13


def test_contraction_matches_displacement_matrix(rng, random_mixed):
    # the pointwise contraction (vectorized over points) and the single-point
    # matrix (vectorized over diagonals) run one recurrence two ways
    state, kernel = random_mixed(rng, 12), random_mixed(rng, 12)
    _assert_contraction_matches_matrix(state, kernel, rng.uniform(-7.0, 7.0, size=(40, 2)))


def _squeezed_dim12(r, phi):
    # dim 12 truncates these squeezed states, and their constructor says so
    with pytest.warns(UserWarning, match="truncation"):
        return squeezed_state(r, phi, 12)


@pytest.mark.parametrize("state, kernel", [
    (lambda: number_state(2, 12), lambda: number_state(5, 12)),
    (lambda: _squeezed_dim12(0.6, 0.3), lambda: vacuum_state(12)),
    (lambda: _squeezed_dim12(0.4, 1.1), lambda: number_state(3, 12)),
], ids=["number-pair", "squeezed-vacuum", "squeezed-number"])
def test_contraction_with_zero_diagonals_matches_displacement_matrix(rng, state, kernel):
    # a number pair fills one coefficient diagonal and a squeezed vacuum only
    # the even ones; skipping the empty diagonals must not move a value
    _assert_contraction_matches_matrix(state(), kernel(), rng.uniform(-7.0, 7.0, size=(30, 2)))


def test_full_rank_dim40_pair_matches_displacement_matrix(rng, random_mixed):
    # the pair the engine took minutes for: 40 x 40 eigenpairs
    state, kernel = random_mixed(rng, 40), random_mixed(rng, 40)
    _assert_contraction_matches_matrix(state, kernel, np.array([[0.0, 0.0], [1.3, -0.4], [-2.0, 2.5]]))


def test_wigner_of_full_support_dim400_state_matches_displacement_matrix(rng, random_pure):
    state = random_pure(rng, 400, 400)
    pts = np.array([[0.0, 0.0], [1.3, -0.4], [-2.0, 2.5]])
    got = wigner(state, (pts[:, 0], pts[:, 1]))
    parity = (-1.0) ** np.arange(400)
    for (q, p), val in zip(pts, got):
        w = displacement_matrix((2 * q, 2 * p), 400)
        want = np.einsum("mn,nm,m->", state.matrix, w, parity).real / math.pi
        assert abs(val - want) <= 1e-13


def test_beam_splitter_rotates_hermite_products():
    x, y = 0.3, -0.7
    hx, hy, hu, hv = hermite_basis(14, np.array([x, y, (x + y) / math.sqrt(2.0), (x - y) / math.sqrt(2.0)])).T
    for L, lo, band in _beam_splitter(9, 6):
        m = np.arange(lo, lo + len(band))
        assert m[-1] < 9 and L - m[0] < 6
        np.testing.assert_allclose(band @ (hu[: L + 1] * hv[L::-1]), hx[m] * hy[L - m], rtol=0, atol=1e-15)


def test_beam_splitter_bands_stay_orthogonal_to_dim_400():
    levels = 0
    for L, lo, band in _beam_splitter(400, 400):
        assert np.max(np.abs(band @ band.T - np.eye(len(band)))) <= 1e-14
        levels += 1
    assert levels == 799            # L = 0..798


def test_kept_bands_are_the_streamed_bands_and_read_only():
    kept = phase_space._kept_bands(9, 6)
    assert kept is phase_space._kept_bands(9, 6)
    streamed = [band for _, _, band in _beam_splitter(9, 6)]
    assert len(kept) == len(streamed) == 14
    for band, want in zip(kept, streamed):
        assert np.array_equal(band, want) and not band.flags.writeable


def test_band_table_kept_and_streamed_agree(monkeypatch):
    mats = np.random.default_rng(12).standard_normal((2, 7, 11))
    kept = phase_space._band_table(mats)
    monkeypatch.setattr(phase_space, "_KEPT_BANDS", 0)
    assert np.array_equal(phase_space._band_table(mats), kept)


def test_line_masses_are_hermite_functions_at_zero():
    for n_max in (0, 1, 2, 7, 82, 2000):
        zeros, masses = phase_space._line_masses(n_max)
        assert np.array_equal(zeros, hermite_basis(n_max, 0.0)[:, 0])
        assert np.array_equal(masses, math.sqrt(2.0 * math.pi) * np.abs(zeros))


def test_gk_density_normalization():
    st = coherent_state(0.5 + 0.5j, 30)
    kernel = number_state(0, 30)
    axis = uniform_axis(-8.0, 8.0, 0.1)
    qa, pa = np.meshgrid(axis, axis, indexing="ij")
    vals = gk_density(st, kernel, (qa, pa))
    mass = np.trapezoid(np.trapezoid(vals, dx=0.1), dx=0.1) / (2.0 * math.pi)
    assert abs(mass - 1.0) < 1e-6


def test_pointwise_densities_reject_nan_points():
    st = vacuum_state(6)
    with pytest.raises(DomainError):
        gk_density(st, st, (math.nan, 0.0))
    with pytest.raises(DomainError):
        wigner(st, (np.array([0.0, 1.0]), np.array([math.inf, 0.0])))


def test_gk_density_dim_mismatch():
    with pytest.raises(DomainError):
        gk_density(vacuum_state(10), vacuum_state(12), (0.0, 0.0))
    with pytest.raises(DomainError, match="share one truncation"):
        gk_grid(vacuum_state(10), vacuum_state(12), extent=6.0, step=0.5)


def test_covariant_tensor_refuses_a_table_above_its_budget(monkeypatch):
    # two top-level states on 400 levels would need 799 x 799 x 1597 doubles
    # (8.2 GB) for gamma; the budget is checked before any tensor is built
    monkeypatch.setattr(phase_space, "_wigner_tensor", lambda state: pytest.fail("a tensor was built"))
    st = number_state(399, 400)
    with pytest.raises(DomainError, match="budget"):
        gk_density(st, st, (0.0, 0.0))


def test_vacuum_vacuum_marginal_is_standard_normal():
    st = vacuum_state(20)
    xs = np.linspace(-4.0, 4.0, 41)
    vals = rotated_marginal_density(st, st, 0.7, xs)
    ref = np.exp(-(xs**2) / 2.0) / math.sqrt(2.0 * math.pi)
    np.testing.assert_allclose(vals, ref, atol=1e-8)


def test_marginal_normalization(rng, random_pure):
    st = random_pure(rng, 5, 30)
    kernel = number_state(1, 30)
    xs = uniform_axis(-10.0, 10.0, 0.01)
    vals = rotated_marginal_density(st, kernel, 1.1, xs)
    assert abs(np.trapezoid(vals, dx=0.01) - 1.0) < 1e-8


def test_marginal_exact_against_adaptive_quadrature(rng, random_pure):
    # M(t) = int p(x) k(t - x) dx, with k the position density of the kernel
    # rotated by pi - theta, by adaptive quadrature on all t at once
    st = random_pure(rng, 40, 40)
    kernel = random_pure(rng, 3, 40)
    theta = 0.7
    ts = np.array([-3.1, -0.4, 0.0, 1.7, 4.4])
    kprime = rotate_state(kernel, math.pi - theta)
    integrand = lambda x: quadrature_density(st, theta, x) * quadrature_density(kprime, 0.0, ts - x)
    want, _ = quad_vec(integrand, -25.0, 25.0, epsabs=1e-15, epsrel=1e-12, limit=2000)
    got = rotated_marginal_density(st, kernel, theta, ts)
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


def test_marginal_of_far_coherent_state_is_shifted_normal():
    # the state sits near sqrt(2) 9 = 12.7, past any fixed |x| <= 12 window;
    # dim 160 keeps the truncation of the coherent state itself below 1e-14
    st = coherent_state(9.0, 160)
    kernel = vacuum_state(160)
    for theta in (0.0, 0.4):
        mean = math.sqrt(2.0) * 9.0 * math.cos(theta)
        ts = mean + np.array([-2.0, -0.7, 0.0, 0.3, 1.5])
        want = np.exp(-0.5 * (ts - mean) ** 2) / math.sqrt(2.0 * math.pi)
        np.testing.assert_allclose(rotated_marginal_density(st, kernel, theta, ts), want, rtol=0, atol=1e-10)


def test_strip_probability_of_far_coherent_state_holds_unit_mass():
    st = coherent_state(9.0, 160)
    kernel = vacuum_state(160)
    mean = math.sqrt(2.0) * 9.0 * math.cos(0.4)
    # N(mean, 1) leaves 2.6e-12 of its mass outside mean +- 7
    prob = strip_probability(st, kernel, 0.4, IntervalSet.of((mean - 7.0, mean + 7.0)))
    assert abs(prob - 1.0) < 1e-10


def test_marginal_of_padded_state_equals_unpadded(rng):
    amps = rng.normal(size=12) + 1j * rng.normal(size=12)
    kamps = rng.normal(size=3) + 1j * rng.normal(size=3)
    ts = uniform_axis(-8.0, 8.0, 0.25)
    window = IntervalSet.of((-0.6, 0.9))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        big = rotated_marginal_density(pure_state(amps, 400), pure_state(kamps, 400), 0.9, ts)
        big_strip = strip_probability(pure_state(amps, 400), pure_state(kamps, 400), 0.9, window)
    small = rotated_marginal_density(pure_state(amps, 12), pure_state(kamps, 12), 0.9, ts)
    assert np.all(np.isfinite(big))
    np.testing.assert_allclose(big, small, rtol=0, atol=1e-13)
    small_strip = strip_probability(pure_state(amps, 12), pure_state(kamps, 12), 0.9, window)
    assert abs(big_strip - small_strip) < 1e-13


def test_marginal_of_top_level_pair_against_panel_oracle(panel_rule):
    # n_s + n_k = 798: the marginal's Hermite vector runs to degree 1596, and
    # the oracle's nodes reach |x| = 40, where the seed exp(-x^2/2) of the
    # Hermite recurrence underflows
    st = number_state(399, 400)
    kernel = number_state(399, 400)
    ts = np.array([0.0, 0.37, 5.1, -17.3, 30.2])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = rotated_marginal_density(st, kernel, 0.6, ts)
    xs, ws = panel_rule([(-40.0, 40.0)])
    dens = quadrature_density(st, 0.6, xs)
    kprime = rotate_state(kernel, math.pi - 0.6)
    want = [np.dot(ws, dens * quadrature_density(kprime, 0.0, t - xs)) for t in ts]
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)


def test_cartesian_marginals_match_rotated():
    st = coherent_state(0.7 - 0.2j, 30)
    kernel = number_state(0, 30)
    xs = np.linspace(-3.0, 3.0, 7)
    np.testing.assert_allclose(
        cartesian_marginal_density(st, kernel, "q", xs),
        rotated_marginal_density(st, kernel, 0.0, xs),
        atol=1e-13,
    )
    np.testing.assert_allclose(
        cartesian_marginal_density(st, kernel, "p", xs),
        rotated_marginal_density(st, kernel, math.pi / 2.0, xs),
        atol=1e-13,
    )
    with pytest.raises(DomainError):
        cartesian_marginal_density(st, kernel, "x", xs)


def test_strip_probability_against_grid_oracle():
    st = coherent_state(0.4 + 0.3j, 30)
    kernel = number_state(0, 30)
    theta = 0.0
    window = IntervalSet.of((0.0, 1.0))
    # direct 2D integral of the phase-space density over the strip
    qs = uniform_axis(0.0, 1.0, 0.01)
    ps = uniform_axis(-8.5, 8.5, 0.02)
    qa, pa = np.meshgrid(qs, ps, indexing="ij")
    vals = gk_density(st, kernel, (qa, pa))
    ref = simpson(simpson(vals, dx=0.02), dx=0.01) / (2.0 * math.pi)
    assert abs(strip_probability(st, kernel, theta, window) - ref) < 1e-9


def test_strip_of_full_support_dim120_state_against_panel_oracle(rng, random_pure, panel_rule):
    # the strip as a double integral of p(x) k(t - x) over t in the window
    # and x on the line, with k the kernel's density at theta - pi
    st = random_pure(rng, 120, 120)
    kernel = number_state(1, 120)
    theta, window = 0.8, ((-0.4, 0.6),)
    xs, ws = panel_rule([(-30.0, 30.0)])
    dens = quadrature_density(st, theta, xs)
    kprime = rotate_state(kernel, math.pi - theta)
    ts, wt = panel_rule(window)
    want = sum(w * np.dot(ws, dens * quadrature_density(kprime, 0.0, t - xs)) for t, w in zip(ts, wt))
    assert abs(strip_probability(st, kernel, theta, IntervalSet(window)) - want) <= 1e-12


def test_full_line_strip_of_full_support_dim200_state_is_one(rng, random_pure):
    # the bands keep unit norm: dividing by a rounded sqrt(2) at every band would drift 2e-14 here
    st = random_pure(rng, 200, 200)
    assert abs(strip_probability(st, number_state(1, 200), 0.8, IntervalSet.full_line()) - 1.0) <= 1e-15


def test_strip_probability_halves_and_whole(rng, random_pure):
    st = random_pure(rng, 4, 12)
    kernel = number_state(0, 12)
    full = strip_probability(st, kernel, 0.9, IntervalSet.full_line())
    assert abs(full - 1.0) < 1e-10
    left = strip_probability(st, kernel, 0.9, IntervalSet.of((-math.inf, 0.2)))
    right = strip_probability(st, kernel, 0.9, IntervalSet.of((0.2, math.inf)))
    assert abs(left + right - 1.0) < 1e-10


def test_strip_probability_symmetric_state():
    st = number_state(2, 12)
    kernel = number_state(0, 12)
    half = strip_probability(st, kernel, 0.3, IntervalSet.of((0.0, math.inf)))
    assert abs(half - 0.5) < 1e-10


@pytest.mark.parametrize("theta", [math.nan, math.inf])
def test_marginal_and_strip_reject_non_finite_angle(theta):
    st = vacuum_state(8)
    with pytest.raises(DomainError):
        rotated_marginal_density(st, st, theta, np.array([0.0, 1.0]))
    with pytest.raises(DomainError):
        strip_probability(st, st, theta, IntervalSet.of((0.0, 1.0)))


def test_marginal_rejects_nan_point():
    st = vacuum_state(8)
    with pytest.raises(DomainError):
        rotated_marginal_density(st, st, 0.3, np.array([0.0, math.nan]))
    with pytest.raises(DomainError):
        rotated_marginal_density(st, st, 0.3, math.nan)
