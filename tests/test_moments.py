import json
import math

import numpy as np
import pytest

from quadsuite import (
    DomainError,
    MomentSequence,
    commutator_block,
    convolved_moments,
    fit_gaussian_polynomial_density,
    gaussian_moments,
    invert_moments,
    number_state,
    pure_state,
    quadrature_density,
    quadrature_matrix,
    quadrature_moment,
    quadrature_moment_sequence,
    sequential_demo,
    vacuum_state,
    weyl_relation_deviation,
)

DELTA = MomentSequence((1.0, 0.0, 0.0, 0.0, 0.0))

# raw moments of the vacuum position distribution: (2k-1)!! 2^{-k}
VACUUM_MOMENTS = (1.0, 0.0, 0.5, 0.0, 0.75, 0.0, 1.875, 0.0, 6.5625)


def _point_mass_moments(rng, k_max):
    pts = rng.uniform(-1.0, 1.0, size=5)
    ws = rng.random(5)
    ws /= ws.sum()
    return MomentSequence(tuple(float(np.sum(ws * pts**k)) for k in range(k_max + 1)))


def test_sequence_requires_unit_mass():
    with pytest.raises(DomainError):
        MomentSequence((0.9, 0.0, 1.0))


def test_sequence_rejects_invalid_hankel():
    # second moment below the squared first moment is impossible
    with pytest.raises(DomainError):
        MomentSequence((1.0, 1.0, 0.5))


def test_gaussian_moments_table():
    assert gaussian_moments(0.0, 1.0, 4).values == (1.0, 0.0, 1.0, 0.0, 3.0)
    assert gaussian_moments(2.0, 0.0, 3).values == (1.0, 2.0, 4.0, 8.0)
    assert gaussian_moments(0.0, 0.7, 2).values == (1.0, 0.0, 0.7)
    with pytest.raises(DomainError):
        gaussian_moments(0.0, -1.0, 2)


@pytest.mark.parametrize("mean, var, k_max, order", [(0.0, 1e200, 4, 4), (1e200, 0.0, 4, 2), (1e10, 1.0, 200, 31)])
def test_gaussian_moments_refuse_overflow(mean, var, k_max, order):
    with pytest.raises(DomainError, match=f"moment of order {order} .* overflows"):
        gaussian_moments(mean, var, k_max)


def test_vacuum_quadrature_moments():
    seq = quadrature_moment_sequence(vacuum_state(12), 0.4, 8)
    np.testing.assert_allclose(seq.values, VACUUM_MOMENTS, atol=1e-12)


def test_convolution_identity_and_symmetry(rng):
    p = _point_mass_moments(rng, 4)
    assert convolved_moments(DELTA, p, 4).values == pytest.approx(p.values, abs=1e-15)
    m = gaussian_moments(0.3, 0.4, 4)
    left = convolved_moments(m, p, 4)
    right = convolved_moments(p, m, 4)
    np.testing.assert_allclose(left.values, right.values, atol=1e-14)


def test_convolution_adds_variance():
    p = quadrature_moment_sequence(number_state(1, 8), 0.0, 2)
    s = convolved_moments(gaussian_moments(0.0, 0.3, 2), p, 2)
    assert abs(s[2] - (p[2] + 0.3)) < 1e-14


def test_convolution_smeared_vacuum_fourth_moment():
    # N(0, 1/2) smeared with N(0, 1/2) is N(0, 1): fourth moment 3,
    # cross-checked against a dense grid convolution when frozen
    vac = quadrature_moment_sequence(vacuum_state(10), 0.0, 4)
    s = convolved_moments(gaussian_moments(0.0, 0.5, 4), vac, 4)
    assert abs(s[4] - 3.0) < 1e-12


def test_convolution_length_guard(rng):
    with pytest.raises(DomainError):
        convolved_moments(DELTA, _point_mass_moments(rng, 2), 4)


def test_invert_requires_matching_length(rng):
    with pytest.raises(DomainError):
        invert_moments(_point_mass_moments(rng, 4), MomentSequence((1.0, 0.0)))


def test_invert_delta_is_identity(rng):
    p = _point_mass_moments(rng, 4)
    back = invert_moments(p, DELTA)
    np.testing.assert_allclose(back.values, p.values, atol=1e-15)


def test_convolve_invert_roundtrip(rng):
    for _ in range(25):
        p = _point_mass_moments(rng, 12)
        m = gaussian_moments(0.0, 0.3 * float(rng.random()), 12)
        back = invert_moments(convolved_moments(m, p, 12), m)
        worst = max(
            abs(a - b) / max(1.0, abs(b)) for a, b in zip(back.values, p.values)
        )
        assert worst < 1e-12


def test_invert_recovers_vacuum_from_smeared():
    mu = gaussian_moments(0.0, 0.5, 8)
    smeared = convolved_moments(mu, MomentSequence(VACUUM_MOMENTS), 8)
    back = invert_moments(smeared, mu)
    np.testing.assert_allclose(back.values, VACUUM_MOMENTS, atol=1e-12)


def test_fitted_density_matches_quadrature(rng):
    amps = rng.normal(size=4) + 1j * rng.normal(size=4)
    st = pure_state(amps / np.linalg.norm(amps), 4)
    theta = 0.9
    density = fit_gaussian_polynomial_density(
        quadrature_moment_sequence(st, theta, 6), 6
    )
    xs = np.arange(-6.0, 6.0001, 0.01)
    np.testing.assert_allclose(
        density(xs), quadrature_density(st, theta, xs), atol=1e-6
    )


def test_fitted_density_degree_limit():
    xs = np.arange(-6.0, 6.0001, 0.01)
    st = number_state(8, 9)
    density = fit_gaussian_polynomial_density(quadrature_moment_sequence(st, 0.0, 16), 16)
    np.testing.assert_allclose(density(xs), quadrature_density(st, 0.0, xs), atol=1e-8)
    # one degree further the monomial Gram system loses its digits
    # (an error of 30 against a density below 0.6 at degree 30)
    for degree in (18, 30):
        st = number_state(degree // 2, degree // 2 + 1)
        with pytest.raises(DomainError, match="exceeds 16"):
            fit_gaussian_polynomial_density(quadrature_moment_sequence(st, 0.0, degree), degree)
    with pytest.raises(DomainError, match="negative"):
        fit_gaussian_polynomial_density(quadrature_moment_sequence(st, 0.0, 2), -1)


def test_sequential_demo_recovers_exactly():
    rep = sequential_demo(number_state(1, 12), math.pi / 3.0, 0.4, 0.7, 12)
    assert rep["max_rel_error"] < 1e-9
    chan = rep["channels"]["q_theta"]
    assert chan["smeared"][2] != pytest.approx(chan["ground_truth"][2])
    json.dumps(rep)                             # report is JSON-compatible


def test_sequential_demo_zero_smearing_passthrough():
    rep = sequential_demo(vacuum_state(8), 1.1, 0.0, 0.0, 6)
    chan = rep["channels"]["q"]
    assert chan["smeared"] == chan["ground_truth"]


def test_sequential_demo_variance_independent(rng, random_pure):
    st = random_pure(rng, 3, 10)
    recovered = [
        sequential_demo(st, 0.7, v, v, 12)["channels"]["q"]["recovered"]
        for v in (0.1, 0.5, 2.0)
    ]
    for other in recovered[1:]:
        np.testing.assert_allclose(recovered[0], other, atol=1e-9)


def test_sequential_demo_order_cap():
    with pytest.raises(DomainError):
        sequential_demo(vacuum_state(6), 0.5, 0.1, 0.1, 17)


@pytest.mark.parametrize("values", [(math.nan, 0.0, 1.0), (1.0, math.nan, 1.0),
                                    (1.0, 0.0, math.inf), (1.0, -math.inf, 1.0)])
def test_moment_sequence_rejects_non_finite(values):
    with pytest.raises(DomainError, match="must be finite"):
        MomentSequence(values)


@pytest.mark.parametrize("mean, var", [(math.nan, 0.5), (math.inf, 0.5), (0.0, math.nan), (0.0, math.inf)])
def test_gaussian_moments_reject_non_finite(mean, var):
    with pytest.raises(DomainError, match="must be finite"):
        gaussian_moments(mean, var, 4)


_MOMENTS = MomentSequence(VACUUM_MOMENTS[:5])


@pytest.mark.parametrize("call", [
    lambda: quadrature_moment(vacuum_state(4), 0.0, 2.5),
    lambda: quadrature_moment(vacuum_state(4), 0.0, "3"),
    lambda: quadrature_matrix(0.0, 2.5),
    lambda: quadrature_matrix(0.0, True),
    lambda: commutator_block(0.5, 3.5),
    lambda: weyl_relation_deviation(0.5, 0.5, 2.5),
    lambda: gaussian_moments(0.0, 1.0, 2.5),
    lambda: quadrature_moment_sequence(vacuum_state(4), 0.0, 2.5),
    lambda: fit_gaussian_polynomial_density(_MOMENTS, 2.5),
    lambda: fit_gaussian_polynomial_density(_MOMENTS, "2"),
    lambda: sequential_demo(vacuum_state(4), 0.5, 0.1, 0.1, 2.5),
    lambda: sequential_demo(vacuum_state(4), 0.5, 0.1, 0.1, True),
], ids=["moment-order-float", "moment-order-str", "matrix-dim-float", "matrix-dim-bool",
        "commutator-dim-float", "weyl-dim-float", "gaussian-k-max-float", "sequence-k-max-float",
        "fit-degree-float", "fit-degree-str", "demo-k-max-float", "demo-k-max-bool"])
def test_counts_must_be_integers(call):
    with pytest.raises(DomainError, match="not an integer"):
        call()
