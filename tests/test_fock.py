import math

import mpmath
import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import eval_hermite, gammaln

from quadsuite import (
    DomainError,
    IntervalSet,
    StateValidationError,
    coherent_state,
    gaussian_pure_state,
    hermite_basis,
    hermite_function,
    load_state,
    make_state,
    number_state,
    overlap,
    overlap_matrix,
    parity_conjugate,
    pure_state,
    quadrature_density,
    rotate_state,
    save_state,
    squeezed_state,
    state_from_matrix,
    vacuum_state,
)


@pytest.mark.parametrize("n", [0, 1, 2, 5, 17, 40])
def test_hermite_polynomial_matches_reference(n):
    # h_n = (2^n n! sqrt(pi))^(-1/2) H_n e^(-x^2/2), H_n from scipy
    xs = np.linspace(-4.0, 4.0, 41)
    log_scale = -0.5 * (n * math.log(2.0) + gammaln(n + 1) + 0.5 * math.log(math.pi))
    want = eval_hermite(n, xs) * np.exp(log_scale - 0.5 * xs**2)
    np.testing.assert_allclose(hermite_basis(n, xs)[n], want, rtol=0, atol=1e-14)


def test_hermite_function_explicit_low_orders():
    xs = np.linspace(-3.0, 3.0, 25)
    env = np.pi ** -0.25 * np.exp(-xs**2 / 2.0)
    np.testing.assert_allclose(hermite_function(0, xs), env, rtol=1e-14)
    np.testing.assert_allclose(
        hermite_function(1, xs), env * math.sqrt(2.0) * xs, rtol=1e-13
    )
    np.testing.assert_allclose(
        hermite_function(2, xs),
        env * (2.0 * xs**2 - 1.0) / math.sqrt(2.0),
        rtol=1e-12,
        atol=1e-15,
    )


def test_hermite_function_high_order_stays_bounded():
    # the normalized functions never exceed their n = 0 peak
    xs = np.linspace(-70.0, 70.0, 2001)
    vals = hermite_function(1500, xs)
    assert np.all(np.isfinite(vals))
    assert np.max(np.abs(vals)) < np.pi ** -0.25 + 1e-12
    outside = np.abs(xs) > math.sqrt(2 * 1500 + 1) + 6.0
    assert np.max(np.abs(vals[outside])) < 1e-12


def _mpmath_hermite_function(n, x):
    with mpmath.workdps(50):
        x = mpmath.mpf(x)
        norm = mpmath.sqrt(2**n * mpmath.factorial(n) * mpmath.sqrt(mpmath.pi))
        return float(mpmath.hermite(n, x) * mpmath.exp(-x * x / 2) / norm)


@pytest.mark.parametrize("n, x", [(1000, 40.0), (2000, 45.0), (2000, -45.0), (1500, 38.0), (800, 36.9)])
def test_hermite_basis_beyond_seed_underflow(n, x):
    # past |x| ~ 38.6 the seed exp(-x^2/2) underflows, yet h_n(x) is O(0.1)
    # for n near x^2/2; the whole column must keep its relative accuracy
    column = hermite_basis(n, np.array([x, 0.5]))[:, 0]
    for k in (n, n - 1, n // 2, 1):
        want = _mpmath_hermite_function(k, x)
        assert abs(column[k] - want) <= 1e-12 * abs(want) + 1e-300
    assert np.all(np.isfinite(column))


@pytest.mark.parametrize("x", [126.6, -1e10, 1e154, -1.7e308])
def test_hermite_basis_zero_far_beyond_support(x):
    # exact zeros, and no overflow or cast warning on the way
    basis = hermite_basis(2000, np.array([0.5, x, 1.0]))
    assert not basis[:, 1].any()
    np.testing.assert_array_equal(basis[:, [0, 2]], hermite_basis(2000, np.array([0.5, 1.0])))
    assert not hermite_basis(3, [x]).any()
    assert quadrature_density(number_state(3, 6), 0.4, np.array([x])) == 0.0


def test_hermite_basis_consistent_with_single_calls():
    xs = np.linspace(-5.0, 5.0, 17)
    basis = hermite_basis(6, xs)
    assert basis.shape == (7, xs.size)
    for n in range(7):
        np.testing.assert_allclose(basis[n], hermite_function(n, xs), rtol=1e-13)


def test_overlap_orthonormality():
    gram = overlap_matrix(IntervalSet.full_line(), 12)
    np.testing.assert_allclose(gram, np.eye(12), atol=1e-13)


@pytest.mark.parametrize(
    "a,b,n,m",
    [(0.0, 1.0, 0, 0), (-0.7, 0.4, 2, 5), (1.2, 3.8, 7, 7), (-2.0, -0.5, 1, 6),
     (-math.inf, 0.3, 3, 5), (0.8, math.inf, 4, 4), (-math.inf, -9.0, 40, 41), (12.0, math.inf, 60, 58)],
)
def test_overlap_matches_quadrature_oracle(a, b, n, m):
    ref, _ = quad(
        lambda x: hermite_function(n, x) * hermite_function(m, x), a, b, limit=200
    )
    assert abs(overlap(IntervalSet.of((a, b)), n, m) - ref) < 1e-12


@pytest.mark.parametrize("dim", [12, 400, 2000])
def test_full_line_gram_is_exactly_the_identity(dim):
    assert np.array_equal(overlap_matrix(IntervalSet.full_line(), dim), np.eye(dim))


def test_overlap_disjoint_pieces_add():
    X = IntervalSet.of((-1.0, 0.0), (0.5, 2.0))
    total = overlap(IntervalSet.of((-1.0, 0.0)), 3, 4) + overlap(
        IntervalSet.of((0.5, 2.0)), 3, 4
    )
    assert abs(overlap(X, 3, 4) - total) < 1e-14


def test_number_state_matrix():
    st = number_state(3, 6)
    want = np.zeros((6, 6))
    want[3, 3] = 1.0
    np.testing.assert_allclose(st.matrix, want)
    assert st.leakage == 0.0


def test_vacuum_is_number_zero():
    np.testing.assert_allclose(vacuum_state(4).matrix, number_state(0, 4).matrix)


def test_coherent_state_poisson_diagonal():
    alpha = 0.8 - 0.6j
    st = coherent_state(alpha, 40)
    ns = np.arange(40)
    log_pops = -abs(alpha) ** 2 + 2 * ns * math.log(abs(alpha)) - gammaln(ns + 1)
    np.testing.assert_allclose(
        np.diag(st.matrix).real, np.exp(log_pops), rtol=1e-10, atol=1e-15
    )
    # pure state: rho^2 = rho up to leakage
    assert np.linalg.norm(st.matrix @ st.matrix - st.matrix) < 1e-10
    assert st.leakage < 1e-12


def test_coherent_truncation_warns_and_flags():
    with pytest.warns(UserWarning):
        st = coherent_state(3.0, 12)
    assert st.meta["truncation_warning"]
    assert st.leakage > 1e-8


def test_squeezed_state_even_support():
    st = squeezed_state(0.5, 0.3, 30)
    odd = np.diag(st.matrix).real[1::2]
    assert np.max(np.abs(odd)) < 1e-15


def test_squeezed_position_variance():
    # at phi = 0 the position variance is exp(-2r)/2
    from quadsuite import quadrature_moment

    st = squeezed_state(0.4, 0.0, 60)
    var = quadrature_moment(st, 0.0, 2) - quadrature_moment(st, 0.0, 1) ** 2
    assert abs(var - math.exp(-0.8) / 2.0) < 1e-10


def test_state_parameters_non_finite_or_overflowing():
    # NaN or infinite parameters are domain errors; a finite amplitude too
    # large for any level to keep weight leaves a zero vector, as at |alpha| = 40
    for build in (lambda: coherent_state(complex(math.nan, 0.0), 4), lambda: coherent_state(math.inf, 4),
                  lambda: squeezed_state(math.nan, 0.0, 4), lambda: squeezed_state(0.5, math.inf, 4)):
        with pytest.raises(DomainError, match="must be finite"):
            build()
    for build in (lambda: coherent_state(40.0, 4), lambda: coherent_state(1e300, 4),
                  lambda: coherent_state(complex(1.7e308, 1.7e308), 4), lambda: squeezed_state(1000.0, 0.0, 4)):
        with pytest.raises(StateValidationError, match="zero norm"):
            build()


def test_gaussian_pure_state_realizes_covariance():
    from quadsuite import quadrature_moment

    var_q, cov = 0.35, -0.2
    st = gaussian_pure_state(var_q, cov, 80)
    vq = quadrature_moment(st, 0.0, 2) - quadrature_moment(st, 0.0, 1) ** 2
    vp = (
        quadrature_moment(st, math.pi / 2, 2)
        - quadrature_moment(st, math.pi / 2, 1) ** 2
    )
    assert abs(vq - var_q) < 1e-9
    # pure Gaussian: det of covariance is 1/4, fixing vp
    assert abs(vp - (0.25 + cov**2) / var_q) < 1e-8


def test_pure_state_normalizes_input(rng):
    amps = rng.normal(size=4) + 1j * rng.normal(size=4)
    amps /= np.linalg.norm(amps)
    st = pure_state(amps, 9)
    assert st.dim == 9
    assert abs(np.trace(st.matrix) - 1.0) < 1e-12


@pytest.mark.parametrize(
    "spec",
    ["vacuum", ("number", 2), ("coherent", 0.5 + 0.1j), ("squeezed", 0.3, 0.1)],
)
def test_make_state_dispatch(spec):
    st = make_state(spec, 24)
    assert st.dim == 24
    assert abs(np.trace(st.matrix) - 1.0) < 1e-12


def test_make_state_rejects_unknown():
    with pytest.raises(Exception):
        make_state(("thermal", 1.0), 8)


@pytest.mark.parametrize(
    "spec",
    ["thermal:1", "vacuum:1", "number:", "squeezed:0.3", "number:1.5", "coherent:a,b",
     ("squeezed", 0.3), ("vacuum", 1)],
)
def test_make_state_rejects_bad_spec(spec):
    with pytest.raises(DomainError, match="state spec"):
        make_state(spec, 8)


def test_make_state_file_spec(tmp_path):
    with pytest.warns(UserWarning, match="truncation"):
        st = squeezed_state(0.2, 0.4, 6)
    path = tmp_path / "a:b.json"       # everything after file: is the path
    save_state(st, path)
    np.testing.assert_array_equal(make_state(f"file:{path}", 99).matrix, st.matrix)


def test_rotate_state_moves_coherent_phase():
    alpha = 0.7 + 0.2j
    rotated = rotate_state(coherent_state(alpha, 30), 0.9)
    target = coherent_state(alpha * np.exp(0.9j), 30)
    np.testing.assert_allclose(rotated.matrix, target.matrix, atol=1e-12)


def test_rotate_state_composes():
    st = coherent_state(0.4 - 0.8j, 25)
    once = rotate_state(rotate_state(st, 0.3), 1.1)
    direct = rotate_state(st, 1.4)
    np.testing.assert_allclose(once.matrix, direct.matrix, atol=1e-14)


def test_parity_flips_coherent():
    alpha = 0.6 + 0.3j
    flipped = parity_conjugate(coherent_state(alpha, 30))
    np.testing.assert_allclose(
        flipped.matrix, coherent_state(-alpha, 30).matrix, atol=1e-13
    )


def test_state_roundtrip_through_file(tmp_path, rng, random_mixed):
    st = random_mixed(rng, 7)
    path = tmp_path / "state.json"
    save_state(st, path)
    back = load_state(path)
    assert back.dim == 7
    np.testing.assert_allclose(back.matrix, st.matrix, atol=1e-15)


@pytest.mark.parametrize(
    "matrix",
    [
        np.array([[0.5, 0.5], [0.1, 0.5]]),            # not Hermitian
        np.array([[0.7, 0.0], [0.0, 0.7]]),            # trace off
        np.array([[1.2, 0.0], [0.0, -0.2]]),           # negative eigenvalue
    ],
)
def test_state_validation_rejects(matrix):
    with pytest.raises(StateValidationError):
        state_from_matrix(matrix)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_state_validation_rejects_non_finite(bad):
    # NaN slips past every tolerance comparison, so it is refused up front
    with pytest.raises(StateValidationError, match="NaN or infinite"):
        state_from_matrix(np.array([[1.0, bad], [bad, 0.0]]))


def test_load_state_refuses_nan_entry(tmp_path):
    path = tmp_path / "nan.json"
    path.write_text('{"dim": 1, "matrix": [[NaN, 0.0]]}')
    with pytest.raises(StateValidationError):
        load_state(path)


@pytest.mark.parametrize("theta", [math.nan, math.inf, -math.inf])
def test_rotate_state_rejects_non_finite_angle(theta):
    with pytest.raises(DomainError):
        rotate_state(vacuum_state(4), theta)


def test_state_matrix_is_frozen():
    st = vacuum_state(3)
    with pytest.raises(ValueError):
        st.matrix[0, 0] = 0.0
