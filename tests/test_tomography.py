import dataclasses
import io
import math

import mpmath
import numpy as np
import pytest
from scipy.special import binom

from quadsuite import (
    ConditioningError,
    ConvergenceError,
    DomainError,
    IntervalSet,
    QuadratureDataset,
    coherent_state,
    dawson,
    dawson_derivatives,
    generate_dataset,
    gk_density,
    gk_from_quadrature_data,
    hermite_basis,
    load_dataset,
    markov_kernel_number,
    number_state,
    pure_state,
    quadrature_density,
    reconstruct_state,
    save_dataset,
    state_from_matrix,
    tomography_probability,
    vacuum_state,
)
from quadsuite import tomography

# reference values from a 30-digit arbitrary-precision evaluation of
# F(t) = exp(-t^2) int_0^t exp(y^2) dy and its derivatives
DAWSON_TABLE = [
    (-2.0, -0.30134038892379195),
    (-0.5, -0.4244363835020223),
    (0.0, 0.0),
    (0.3, 0.28263166502131193),
    (1.0, 0.5380795069127684),
    (2.5, 0.2230837221674355),
]
DERIVS_AT_07 = [
    0.5105040575592318, 0.2852943194170755, -1.4204201623023693,
    0.847410949555015, 7.336145644437194, -17.049891498652194,
    -49.49160834625888, 273.8869496685887, 309.44078731160005,
    -4815.40829693366,
]
DERIVS_AT_M13 = [
    -0.4833975173848241, -0.25683354520054275, 0.2990278172482371,
    1.8048065056475875, 2.8983300111943047, -6.902794016075507,
    -46.930564553739366, -39.185939646816266, 555.1444606706289,
    2070.3506320926954,
]


@pytest.mark.parametrize("t,want", DAWSON_TABLE)
def test_dawson_reference_values(t, want):
    assert abs(dawson(t) - want) < 1e-14


@pytest.mark.parametrize("t,table", [(0.7, DERIVS_AT_07), (-1.3, DERIVS_AT_M13)])
def test_dawson_derivatives_reference(t, table):
    got = dawson_derivatives(t, 9)
    for k, want in enumerate(table):
        assert abs(got[k] - want) <= 1e-8 * max(1.0, abs(want))


def test_dawson_derivatives_vector_shape():
    ts = np.linspace(-2.0, 2.0, 7)
    out = dawson_derivatives(ts, 3)
    assert out.shape == (4, 7)
    np.testing.assert_allclose(out[1], 1.0 - 2.0 * ts * out[0], atol=1e-15)


def test_kernel_forms_agree():
    ts = np.arange(-4.0, 4.0001, 0.05)
    for n in range(tomography.MAX_KERNEL_INDEX + 1):
        d = markov_kernel_number(n, (0.0, 0.0), 0.0, ts, form="derivative")
        s = markov_kernel_number(n, (0.0, 0.0), 0.0, ts, form="series")
        assert np.max(np.abs(d - s)) < 1e-12
    for form in ("derivative", "series"):
        assert markov_kernel_number(1, (0.0, 0.0), 0.0, np.array([]), form=form).shape == (0,)


def test_kernel_value_at_origin():
    assert abs(markov_kernel_number(0, (0.0, 0.0), 0.0, 0.0) - 2.0) < 1e-14


def test_kernel_depends_only_on_shifted_coordinate():
    v1 = markov_kernel_number(2, (0.7, -0.3), 1.1, 2.0)
    shift = 0.7 * math.cos(1.1) - 0.3 * math.sin(1.1)
    v2 = markov_kernel_number(2, (0.0, 0.0), 0.0, 2.0 - shift)
    assert v1 == v2


def test_kernel_guards():
    with pytest.raises(DomainError):
        markov_kernel_number(9, (0.0, 0.0), 0.0, 0.0)
    with pytest.raises(DomainError):
        markov_kernel_number(0, (0.0, 0.0), 0.0, 0.0, form="magic")
    with pytest.raises(DomainError):
        dawson_derivatives(0.0, -1)


@pytest.mark.parametrize("pt,theta,x", [
    ((0.0, 0.0), math.nan, 0.5),
    ((0.0, 0.0), math.inf, 0.5),
    ((math.nan, 0.0), 0.3, 0.5),
    ((0.2, -math.inf), 0.3, 0.5),
    ((0.0, 0.0), 0.3, np.array([0.0, math.nan])),
])
def test_kernel_rejects_non_finite_input(pt, theta, x):
    for form in ("derivative", "series"):
        with pytest.raises(DomainError, match="must be finite"):
            markov_kernel_number(1, pt, theta, x, form=form)


@pytest.mark.parametrize("n", [0, 2, 6])
@pytest.mark.parametrize("t", [8.0, -10.0, 30.0, 40.0, 1e10])
def test_kernel_series_refuses_cancelled_digits(n, t):
    # the terms reach e^(t^2/2) before they cancel, so at t = 10 rounding
    # swamps the kernel value -0.0102; past |t| = 37.6 the weight
    # e^(t^2/2) overflows, and neither case may warn
    with pytest.raises(ConvergenceError, match="cancellation"):
        markov_kernel_number(n, (0.0, 0.0), 0.0, np.array([0.5, t]), form="series")


def test_kernel_series_keeps_the_benchmark_range():
    ts = np.linspace(-4.0 - math.sqrt(2.0), 4.0 + math.sqrt(2.0), 201)
    for n in range(tomography.MAX_KERNEL_INDEX + 1):
        d = markov_kernel_number(n, (0.0, 0.0), 0.0, ts, form="derivative")
        s = markov_kernel_number(n, (0.0, 0.0), 0.0, ts, form="series")
        assert np.max(np.abs(d - s)) < 1e-9


@pytest.mark.parametrize("n, count", enumerate([55, 61, 67, 71, 76, 80, 84]))
def test_kernel_series_tail_is_below_rounding(n, count):
    # term k is C(k,n)(-1)^(k-n) pi^(1/4) k!/sqrt((2k)!) e^(t^2/2) h_2k(t); a table
    # twice as long as the series' term count adds a tail below eps e^(t^2/2),
    # and each sum of terms totalling at most 2 e^(t^2/2) rounds by a few eps
    # e^(t^2/2) (6.3 at most on a 2049-point grid), wherever the series answers
    ts = np.linspace(-6.4, 6.4, 257)
    k = np.arange(2 * count)
    ratios = np.sqrt(k[1:] / (4.0 * k[1:] - 2.0))
    coeffs = np.pi ** 0.25 * binom(k, n) * (-1.0) ** (k - n) * np.concatenate(([1.0], np.cumprod(ratios)))
    terms = coeffs[:, None] * hermite_basis(4 * count - 2, ts)[::2] * np.exp(0.5 * ts * ts)
    answered = np.finfo(float).eps * np.abs(terms).sum(axis=0) <= tomography.SERIES_CANCELLATION_LIMIT
    assert answered.sum() > 200
    series = markov_kernel_number(n, (0.0, 0.0), 0.0, ts[answered], form="series")
    gap = np.abs(series - terms[:, answered].sum(axis=0))
    assert np.all(gap <= 10.0 * np.finfo(float).eps * np.exp(0.5 * ts[answered] ** 2))


def test_kernel_oracle_is_the_defining_integral(kernel_oracle):
    # the closed form against mpmath.quadosc of int_0^inf w_6(s) cos(6 s) ds,
    # with L_6(s^2/2) = sum_k C(6,k) (-s^2/2)^k / k!
    laguerre = [math.comb(6, k) * (-0.5) ** k / math.factorial(k) for k in range(7)]
    with mpmath.workdps(20):
        w6 = lambda s: s * mpmath.exp(-s * s / 4) * mpmath.polyval(laguerre[::-1], s * s)
        want = mpmath.quadosc(lambda s: w6(s) * mpmath.cos(6 * s), [0, mpmath.inf], omega=6)
    assert abs(kernel_oracle(6, 6.0) - float(want)) < 1e-15
    assert [kernel_oracle(n, 0.0) for n in range(3)] == [2.0, -2.0, 2.0]


SHIFTS = [-25.0, -7.3, -2.9, -0.6, 0.0, 1.3, 2.6, 3.4, 4.5, 6.0, 10.0, 15.0, 25.0]


@pytest.mark.parametrize("n", range(tomography.MAX_KERNEL_INDEX + 1))
def test_derivative_form_matches_mpmath_up_to_large_shifts(n, kernel_oracle):
    # the Dawson recurrence alone returned +8.81 at n = 6, t = 25, where
    # the kernel is -1.65e-3; past its reach the sigma rule takes over
    got = markov_kernel_number(n, (0.0, 0.0), 0.0, np.array(SHIFTS))
    want = np.array([kernel_oracle(n, t) for t in SHIFTS])
    assert np.max(np.abs(got - want)) <= 1e-13
    assert np.all(np.abs(got - want) <= 1e-10 * np.abs(want))


def test_derivative_form_refuses_shifts_past_its_cap(kernel_oracle):
    cap = tomography.MAX_KERNEL_SHIFT
    assert abs(markov_kernel_number(6, (0.0, 0.0), 0.0, -cap) - kernel_oracle(6, cap)) <= 1e-13
    with pytest.raises(ConvergenceError, match="limited to"):
        markov_kernel_number(0, (0.0, 0.0), 0.0, np.array([0.0, cap + 0.5]))


def test_dataset_validation():
    xs_axis = (-8.0, 8.0, 0.01)
    good = generate_dataset(vacuum_state(6), 4, xs_axis)
    bad_values = good.values.copy()
    bad_values[1] *= 0.5                      # breaks normalization
    with pytest.raises(DomainError):
        QuadratureDataset(4, xs_axis, bad_values)
    negative = good.values.copy()
    negative[0, 3] = -1e-3
    with pytest.raises(DomainError):
        QuadratureDataset(4, xs_axis, negative)
    with pytest.raises(DomainError):
        QuadratureDataset(5, xs_axis, good.values)
    for angles in (0, -1):
        with pytest.raises(DomainError):
            generate_dataset(vacuum_state(6), angles, xs_axis)
    for bad in (math.nan, math.inf):
        non_finite = good.values.copy()
        non_finite[3, 0] = bad
        with pytest.raises(DomainError, match="finite"):
            QuadratureDataset(4, xs_axis, non_finite)


def test_dataset_is_read_only_after_validation():
    # a write used to go through, and the functional then returned nan
    data = generate_dataset(vacuum_state(4), 32, (-8.0, 8.0, 0.02))
    with pytest.raises(ValueError, match="read-only"):
        data.values[0, 5] = math.nan
    with pytest.raises(dataclasses.FrozenInstanceError):
        data.values = np.zeros_like(data.values)
    assert math.isfinite(gk_from_quadrature_data(data, 0, (0.1, 0.2)))


@pytest.mark.parametrize("call", [
    lambda: generate_dataset(vacuum_state(4), 2.5),
    lambda: generate_dataset(vacuum_state(4), True),
    lambda: reconstruct_state(generate_dataset(vacuum_state(4), 8), 2.5),
    lambda: QuadratureDataset(True, (-8.0, 8.0, 0.01), generate_dataset(vacuum_state(4), 1).values),
], ids=["angles-float", "angles-bool", "dim-float", "dataset-angles-bool"])
def test_counts_must_be_integers(call):
    with pytest.raises(DomainError, match="not an integer"):
        call()


def test_dataset_roundtrip_through_file(tmp_path):
    data = generate_dataset(coherent_state(0.9 + 0.4j, 25), 8)
    path = tmp_path / "set.txt"
    save_dataset(data, path)
    back = load_dataset(path)
    assert back.angles == 8
    assert back.x_axis == data.x_axis
    np.testing.assert_allclose(back.values, data.values, atol=1e-13)


def test_save_dataset_matches_per_value_format(tmp_path):
    path = tmp_path / "set.txt"
    save_dataset(generate_dataset(number_state(1, 4), 4, (-8.0, 8.0, 0.5)), path)
    data = load_dataset(path)                 # values that survive %.12e exactly
    values = data.values.copy()
    values[0, 0], values[1, -1] = -0.0, 5e-324
    data = QuadratureDataset(4, data.x_axis, values)
    buf = io.StringIO()
    save_dataset(data, buf)
    lo, hi, step = data.x_axis
    lines = [f"# 4 {lo:.12e} {hi:.12e} {step:.12e}"]
    lines.extend(" ".join(f"{v:.12e}" for v in row) for row in values)
    assert buf.getvalue() == "\n".join(lines) + "\n"
    save_dataset(data, path)
    back = load_dataset(path)
    assert back.values.tobytes() == values.tobytes()    # keeps -0.0 and the subnormal
    assert (back.angles, back.x_axis) == (4, data.x_axis)


def test_load_dataset_refuses_nan_sample(tmp_path):
    # NaN passes both the negativity and the mass check unless tested for
    data = generate_dataset(number_state(1, 4), 4, (-8.0, 8.0, 0.01))
    path = tmp_path / "set.txt"
    save_dataset(data, path)
    lines = path.read_text().splitlines()
    row = lines[2].split()
    row[100] = "nan"
    lines[2] = " ".join(row)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(DomainError, match="finite"):
        load_dataset(path)


def test_malformed_dataset_file_raises_domain_error(malformed_dataset):
    with pytest.raises(DomainError, match=malformed_dataset.name):
        load_dataset(malformed_dataset)


def test_dataset_header_check(tmp_path):
    path = tmp_path / "junk.txt"
    path.write_text("1.0 2.0\n")
    with pytest.raises(DomainError):
        load_dataset(path)


def test_reconstruction_roundtrip_pure(rng, random_pure):
    for _ in range(3):
        st = random_pure(rng, 4, 6)
        rec = reconstruct_state(generate_dataset(st, 16), 6)
        assert np.linalg.norm(rec.matrix - st.matrix) < 1e-8
        assert "clipped_mass" in rec.meta and "fit_residual" in rec.meta


def test_reconstruction_roundtrip_mixed(rng, random_mixed):
    st = random_mixed(rng, 5)
    rec = reconstruct_state(generate_dataset(st, 16), 5)
    assert np.linalg.norm(rec.matrix - st.matrix) < 1e-8


def test_reconstruction_output_is_state(rng, random_mixed):
    rec = reconstruct_state(generate_dataset(random_mixed(rng, 4), 16), 4)
    evals = np.linalg.eigvalsh(rec.matrix)
    assert evals.min() >= -1e-12
    assert abs(np.trace(rec.matrix).real - 1.0) < 1e-12


def test_reconstruction_needs_enough_angles():
    data = generate_dataset(vacuum_state(6), 8)
    with pytest.raises(DomainError):
        reconstruct_state(data, 6)              # needs 2*6 - 1 = 11


def test_reconstruction_conditioning_guard(monkeypatch):
    data = generate_dataset(vacuum_state(4), 16)
    monkeypatch.setattr(tomography, "CONDITION_LIMIT", 1.0 + 1e-12)
    with pytest.raises(ConditioningError):
        reconstruct_state(data, 4)


def test_probability_whole_space_is_one(rng, random_pure):
    st = random_pure(rng, 5, 10)
    full = tomography_probability(
        st, IntervalSet.of((0.0, 2.0 * math.pi)), IntervalSet.full_line()
    )
    assert abs(full - 1.0) < 1e-12


def test_probability_vacuum_factorizes():
    st = vacuum_state(8)
    val = tomography_probability(
        st, IntervalSet.of((0.0, math.pi)), IntervalSet.of((0.0, math.inf))
    )
    assert abs(val - 0.25) < 1e-12


def test_probability_against_quadrature_oracle():
    # (1/2pi) int_0^{pi/3} int_0^inf quadrature density, tabulated once
    # with an adaptive integrator to 0.16138412106624636
    st = coherent_state(1.2, 30)
    val = tomography_probability(
        st, IntervalSet.of((0.0, math.pi / 3.0)), IntervalSet.of((0.0, math.inf))
    )
    assert abs(val - 0.16138412106624636) < 1e-6


def test_probability_angle_window_validated():
    with pytest.raises(DomainError):
        tomography_probability(
            vacuum_state(4), IntervalSet.of((-0.5, 1.0)), IntervalSet.full_line()
        )


def test_gk_from_data_matches_direct(rng, random_pure):
    st = random_pure(rng, 4, 30)
    data = generate_dataset(st, 48)
    kernel = number_state(0, 30)
    for pt in [(0.0, 0.0), (1.0, -0.5), (-1.2, 0.7)]:
        est = gk_from_quadrature_data(data, 0, pt)
        assert abs(est - gk_density(st, kernel, pt)) < 1e-6


@pytest.mark.parametrize("pt", [(math.nan, 0.0), (0.0, math.inf), (-math.inf, math.nan)])
def test_gk_from_data_rejects_non_finite_point(pt):
    data = generate_dataset(vacuum_state(4), 32, (-8.0, 8.0, 0.02))
    with pytest.raises(DomainError, match="point must be finite"):
        gk_from_quadrature_data(data, 0, pt)


@pytest.mark.parametrize("angles,rows", [(33, 33), (34, 17)])
def test_gk_from_data_folds_opposite_angles_only_when_it_can(angles, rows, rng, random_pure):
    # an even J keeps J/2 rows folded onto the opposite angle, an odd J all rows
    state = random_pure(rng, 5, 10)
    data = generate_dataset(state, angles)
    for n, pt in [(0, (0.4, -0.9)), (3, (-1.1, 0.2))]:
        want = float(gk_density(state, number_state(n, 10), pt))
        assert abs(gk_from_quadrature_data(data, n, pt) - want) <= 1e-12
    assert [len(spectra) for _, _, spectra in data._spectra.values()] == [rows]


def test_kept_row_spectra_are_read_only():
    data = generate_dataset(vacuum_state(4), 32, (-8.0, 8.0, 0.02))
    sigma, weights, spectra = tomography._row_spectra(data, 96)
    assert tomography._row_spectra(data, 96)[2] is spectra
    for part in (sigma, weights, spectra):
        assert not part.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        spectra[0, 0] = 0.0


@pytest.mark.parametrize("pt", [(6.0, 6.0), (0.0, -8.5), (-20.0, 1.0)])
def test_gk_from_data_refuses_points_beyond_the_data_axis(pt):
    # past max|x| the data window cuts off the kernel's 1/t^2 tail
    data = generate_dataset(vacuum_state(4), 32, (-8.0, 8.0, 0.02))
    with pytest.raises(DomainError, match="radius"):
        gk_from_quadrature_data(data, 0, pt)
    assert math.isfinite(gk_from_quadrature_data(data, 0, (8.0, 0.0)))


@pytest.mark.parametrize("n", [-1, 7, 30])
def test_gk_from_data_rejects_kernel_index_out_of_range(n):
    # unchecked, n = 30 gave 3.5e-4 for the vacuum at the origin, where gk is 0
    data = generate_dataset(vacuum_state(40), 32, (-8.0, 8.0, 0.02))
    with pytest.raises(DomainError, match="kernel index"):
        gk_from_quadrature_data(data, n, (0.0, 0.0))


@pytest.mark.parametrize("n", [1.5, 2.0, "1", None, True])
def test_non_integer_kernel_index_raises_domain_error(n):
    with pytest.raises(DomainError, match="kernel index"):
        markov_kernel_number(n, (0.0, 0.0), 0.0, np.array([0.1, 0.2]))
    data = generate_dataset(vacuum_state(4), 32, (-8.0, 8.0, 0.02))
    with pytest.raises(DomainError, match="kernel index"):
        gk_from_quadrature_data(data, n, (0.0, 0.0))


def test_kernel_index_accepts_numpy_integers():
    x = np.array([0.1, 0.2])
    assert np.array_equal(markov_kernel_number(np.int64(2), (0.3, 0.1), 0.4, x),
                          markov_kernel_number(2, (0.3, 0.1), 0.4, x))


def test_gk_from_data_guards():
    data = generate_dataset(vacuum_state(6), 8)
    with pytest.raises(DomainError):
        gk_from_quadrature_data(data, 0, (0.0, 0.0))    # too few angles
    coarse = generate_dataset(vacuum_state(6), 32, (-8.0, 8.0, 0.05))
    with pytest.raises(DomainError):
        gk_from_quadrature_data(coarse, 0, (0.0, 0.0))  # step too wide


# ---------------------------------------------------------------------------
# the batched paths against the per-angle and per-band forms they replace


def _axis(dim):
    return (-8.0, 8.0, 0.01) if dim <= 16 else (-13.0, 13.0, 0.01)


def _mixed(dim, rank):
    """A seeded random mixed state of the given rank on dim levels."""
    rng = np.random.default_rng(dim)
    a = rng.normal(size=(dim, rank)) + 1j * rng.normal(size=(dim, rank))
    rho = a @ a.conj().T
    return state_from_matrix(rho / np.trace(rho).real)


@pytest.mark.parametrize("dim,angles", [(6, 16), (12, 32), (16, 33), (40, 80)])
def test_dataset_rows_match_per_angle_density(dim, angles, rng, random_pure):
    for state in (_mixed(dim, dim), random_pure(rng, 4, dim)):
        data = generate_dataset(state, angles, _axis(dim))
        for theta, row in zip(data.thetas, data.values):
            assert np.max(np.abs(row - quadrature_density(state, theta, data.xs))) <= 1e-15


def test_dataset_rows_match_long_double_sum(rng, random_pure):
    # With amplitude on all 40 levels the per-angle quadrature_density rounds
    # by 1.5e-15 on this state, so the band form is checked against the same
    # sum done in long double over the same Hermite table instead.
    if np.finfo(np.longdouble).eps > 1e-18:
        pytest.skip("long double is no wider than double here")
    state = random_pure(rng, 40, 40)
    data = generate_dataset(state, 5, _axis(40))
    h = hermite_basis(39, data.xs).astype(np.longdouble)
    d = np.subtract.outer(np.arange(40), np.arange(40)).astype(np.longdouble)
    re, im = (part.astype(np.longdouble) for part in (state.matrix.real, state.matrix.imag))
    for theta, row in zip(data.thetas, data.values):
        phase = d * np.longdouble(theta)
        want = np.einsum("ni,ni->i", (re * np.cos(phase) + im * np.sin(phase)) @ h, h)
        assert float(np.max(np.abs(row - want))) <= 1e-15


@pytest.mark.parametrize("dim,angles", [(6, 16), (12, 32), (16, 33)])
def test_reconstruction_matches_per_band_complex_fit(dim, angles, per_band_fit):
    data = generate_dataset(_mixed(dim, 3), angles, _axis(dim))
    want = per_band_fit(data, dim)
    assert np.max(np.abs(reconstruct_state(data, dim).matrix - want)) <= 1e-15


def test_reconstruction_plan_gives_the_cold_call_bit_for_bit(monkeypatch):
    data = generate_dataset(_mixed(16, 5), 33)
    tomography._band_plan.cache_clear()
    cold = reconstruct_state(data, 16)
    warm = reconstruct_state(data, 16)
    assert tomography._band_plan.cache_info().hits == 1
    monkeypatch.setattr(tomography, "_KEPT_BANDS", 0)          # the same factors, streamed
    streamed = reconstruct_state(data, 16)
    for other in (warm, streamed):
        assert other.matrix.tobytes() == cold.matrix.tobytes()
        assert other.meta == cold.meta


def test_sigma_rule_is_kept_read_only():
    sigma, weights = tomography._sigma_rule(96)
    assert tomography._sigma_rule(96)[0] is sigma
    fresh = tomography._sigma_rule.__wrapped__(96)
    assert sigma.tobytes() == fresh[0].tobytes() and weights.tobytes() == fresh[1].tobytes()
    assert not sigma.flags.writeable and not weights.flags.writeable


def test_reconstruction_plan_is_read_only():
    plan = tomography._band_plan((-8.0, 8.0, 0.5), 6)
    assert len(plan) == 6
    for qr, tau, svals, r_inverse in plan:
        for part in (qr, tau, svals, r_inverse):
            assert not part.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        plan[0][0][0, 0] = 0.0


def test_reconstruction_beyond_the_plan_budget_is_streamed(per_band_fit):
    # 1601 points keep a plan up to dim 17; dim 20 on 2601 points streams
    tomography._band_plan.cache_clear()
    data = generate_dataset(_mixed(20, 3), 40, _axis(20))
    rebuilt = reconstruct_state(data, 20)
    assert tomography._band_plan.cache_info().currsize == 0
    assert np.max(np.abs(rebuilt.matrix - per_band_fit(data, 20))) <= 1e-15
    reconstruct_state(generate_dataset(_mixed(17, 3), 33), 17)
    assert tomography._band_plan.cache_info().currsize == 1


def test_reconstruction_reports_the_worst_band_condition():
    data = generate_dataset(_mixed(8, 3), 16, (-6.0, 6.0, 0.02))
    basis = hermite_basis(7, data.xs)
    want = max(np.linalg.cond((basis[d:] * basis[: 8 - d]).T) for d in range(8))
    got = reconstruct_state(data, 8).meta["band_condition"]
    assert isinstance(got, float)
    assert got == pytest.approx(want, rel=1e-12)


def test_reconstruction_refuses_an_axis_with_fewer_points_than_columns():
    # 33 points for the 40 columns of band 0: the design has no full rank
    data = generate_dataset(vacuum_state(40), 79, (-8.0, 8.0, 0.5))
    with pytest.raises(ConditioningError, match="band 0"):
        reconstruct_state(data, 40)


@pytest.mark.parametrize("angles,axis", [(64, (-8.0, 8.0, 0.01)), (50, (-8.0, 8.0, 0.02))])
def test_gk_from_data_matches_per_angle_loop(angles, axis):
    # the frequency-domain functional is the trapezoid sum of the kernel
    # against each row, averaged over the angles; 64 angles fold their
    # rows onto the opposite angle, 50 keep them all
    data = generate_dataset(pure_state(np.array([0.6, 0.3 - 0.5j, 0.2j, 0.4]), 8), angles, axis)
    for n in range(3):
        for pt in [(0.0, 0.0), (0.8, -0.4), (-1.1, 0.3)]:
            shifts = pt[0] * np.cos(data.thetas) + pt[1] * np.sin(data.thetas)
            total = 0.0
            for shift, row in zip(shifts, data.values):
                kernel = markov_kernel_number(n, (0.0, 0.0), 0.0, data.xs - shift)
                total += float(np.trapezoid(kernel * row, dx=axis[2]))
            assert abs(gk_from_quadrature_data(data, n, pt) - total / angles) <= 1e-15
