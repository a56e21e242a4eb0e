"""Self-test of the benchmark harness, kept out of the library's test suite.

    python3 -m pytest -q benchmarks/test_harness.py

It checks the self-time and quartile arithmetic, the tracer's wrapping and
unwrapping, and the independent oracles at a tiny size against quadrature
done here by brute force.
"""

import math
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import oracles  # noqa: E402
import spread  # noqa: E402
import tracing  # noqa: E402


# ---------------------------------------------------------------------------
# arithmetic


def test_covered_length_merges_and_clips():
    assert tracing.covered_length([], 0.0, 1.0) == 0.0
    assert tracing.covered_length([(0.2, 0.4), (0.3, 0.5)], 0.0, 1.0) == pytest.approx(0.3)
    assert tracing.covered_length([(-1.0, 0.1), (0.9, 2.0)], 0.0, 1.0) == pytest.approx(0.2)
    assert tracing.covered_length([(0.6, 0.7), (0.1, 0.2)], 0.0, 1.0) == pytest.approx(0.2)


def test_self_times_subtract_direct_children_only():
    spans = [
        [0, -1, "outer", 0.0, 10.0, None],
        [1, 0, "child", 1.0, 4.0, None],
        [2, 1, "grandchild", 2.0, 3.0, None],
        [3, 0, "child", 5.0, 6.0, {"points": 7}],
        [4, -1, "outer", 20.0, 21.0, None],
    ]
    own = tracing.self_times(spans)
    assert own == pytest.approx({0: 6.0, 1: 2.0, 2: 1.0, 3: 1.0, 4: 1.0})


def test_layer_metrics_report_every_name_with_zero_default():
    spans = [
        [0, -1, "wigner_radon.radon", 0.0, 2.0, {"points": 5}],
        [1, 0, "fock.TruncatedState", 0.5, 1.0, None],
        [2, -1, "wigner_radon.radon", 3.0, 4.0, {"points": 6}],
    ]
    metrics = tracing.layer_metrics(spans)
    assert [k for k in metrics] == [f"{n}.{f}" for n, f in tracing.REPORTED]
    assert metrics["wigner_radon.radon.self_s"]["value"] == pytest.approx(2.5)
    assert metrics["wigner_radon.radon.points"] == {"value": 11, "unit": "count"}
    assert metrics["fock.TruncatedState.calls"]["value"] == 1
    assert metrics["cli.main.bytes_out"]["value"] == 0


def test_quartile_spread_matches_statistics_quantiles():
    q1, med, q3, share = spread.quartile_spread([1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0])
    assert (q1, med, q3) == pytest.approx((2.75, 5.5, 8.25))
    assert share == pytest.approx(5.5 / 5.5)


# ---------------------------------------------------------------------------
# tracer


def test_tracer_wraps_every_binding_and_restores_them():
    import quadsuite
    import quadsuite.phase_space
    import quadsuite.quadrature
    import quadsuite.wigner_radon  # noqa: F401

    originals = (quadsuite.quadrature.quadrature_density,
                 quadsuite.phase_space.quadrature_density,
                 quadsuite.fock.TruncatedState.__init__)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert quadsuite.phase_space.quadrature_density is not originals[0]
        assert quadsuite.quadrature_density is quadsuite.phase_space.quadrature_density
        vac = quadsuite.vacuum_state(4)
        quadsuite.rotated_marginal_density(vac, vac, 0.3, np.array([0.0, 0.5]))
    finally:
        tracer.uninstall()
    assert (quadsuite.quadrature.quadrature_density, quadsuite.phase_space.quadrature_density,
            quadsuite.fock.TruncatedState.__init__) == originals
    assert quadsuite.quadrature_density is originals[0]
    names = [s[2] for s in tracer.spans]
    assert "fock.TruncatedState" in names          # vacuum_state and the rotated kernel
    marginal = names.index("phase_space.rotated_marginal_density")
    children = [s for s in tracer.spans if s[1] == marginal]
    assert {s[2] for s in children} >= {"quadrature.quadrature_density", "fock.rotate_state"}
    metrics = tracing.layer_metrics(tracer.spans)
    assert metrics["phase_space.rotated_marginal_density.points"]["value"] == 2


# ---------------------------------------------------------------------------
# oracles at a tiny size


def test_hermite_functions_are_orthonormal():
    x = np.linspace(-12.0, 12.0, 4801)
    h = oracles.hermite_functions(6, x)
    gram = np.trapezoid(h[:, None, :] * h[None, :, :], x, axis=2)
    assert np.max(np.abs(gram - np.eye(7))) < 1e-12


def test_quadrature_density_of_rotated_coherent_state():
    beta = 0.7 + 0.4j
    vec = oracles.coherent_amplitudes(beta, 30)
    rho = np.outer(vec, vec.conj())
    x = np.linspace(-3.0, 3.0, 7)
    for theta in (0.0, 0.9):
        mean = math.sqrt(2.0) * (beta * np.exp(-1j * theta)).real
        want = np.exp(-(x - mean) ** 2) / math.sqrt(math.pi)
        assert np.max(np.abs(oracles.quadrature_density(rho, theta, x) - want)) < 1e-12


def test_quadrature_moments_of_number_state():
    rho = np.diag([0.0, 1.0, 0.0]).astype(complex)
    got = oracles.quadrature_moments(rho, 0.4, 6)
    assert got == pytest.approx(oracles.number_state_even_moments(1, 6), abs=1e-12)


def test_gk_closed_forms_against_displacements():
    for n in (0, 1):
        for k in (0, 1):
            rho = np.zeros((4, 4), dtype=complex)
            rho[n, n] = 1.0
            for q, p in ((0.0, 0.0), (0.8, -0.3), (1.5, 1.1)):
                want = float(oracles.gk_number_pair(n, k, q, p))
                assert oracles.gk_number_kernel(rho, k, q, p) == pytest.approx(want, abs=1e-13)


def test_gk_radon_closed_forms_by_quadrature():
    s = np.linspace(-14.0, 14.0, 5601)
    for pair in ((0, 0), (0, 1), (1, 1)):
        for t in (0.0, 0.7, 2.3):
            line = oracles.gk_number_pair(*pair, t, s)
            assert np.trapezoid(line, s) == pytest.approx(
                float(oracles.gk_number_pair_radon(*pair, t)), abs=1e-12)


def test_squeezed_wigner_has_unit_mass_and_the_squeezed_variance():
    ax = np.linspace(-10.0, 10.0, 1001)
    q, p = np.meshgrid(ax, ax, indexing="ij")
    w = oracles.squeezed_wigner(0.6, 0.0, q, p)
    h = ax[1] - ax[0]
    assert w.sum() * h * h == pytest.approx(1.0, abs=1e-10)
    assert (w * q * q).sum() * h * h == pytest.approx(math.exp(-1.2) / 2.0, abs=1e-10)
    assert oracles.squeezed_tail(0.6, 60) < 1e-8 < oracles.squeezed_tail(0.6, 10)


def test_strip_oracle_for_vacuum_pair_is_normal():
    vac = np.zeros((3, 3), dtype=complex)
    vac[0, 0] = 1.0
    got = oracles.strip_probability(vac, vac, 0.4, -0.5, 1.0)
    assert got == pytest.approx(oracles.normal_cdf(1.0) - oracles.normal_cdf(-0.5), abs=1e-12)


def test_marginal_moments_of_a_shifted_pair():
    beta = 0.5 - 0.2j
    vec = oracles.coherent_amplitudes(beta, 30)
    rho = np.outer(vec, vec.conj())
    vac = np.zeros((30, 30), dtype=complex)
    vac[0, 0] = 1.0
    mean, var = oracles.marginal_moments(vac, rho, 0.0)
    assert mean == pytest.approx(-math.sqrt(2.0) * beta.real, abs=1e-12)
    assert var == pytest.approx(1.0, abs=1e-12)


def test_markov_kernel_origin_and_series():
    assert oracles.markov_kernel(0, 0.0) == 2.0
    t = np.linspace(-3.0, 3.0, 13)
    # K_0 = 2 F' = 2 (1 - 2 t F), differentiated by hand for n = 1: 2 F' + F'''
    from scipy.special import dawsn

    f = dawsn(t)
    f1 = 1 - 2 * t * f
    f2 = -2 * f - 2 * t * f1
    f3 = -4 * f1 - 2 * t * f2
    assert np.max(np.abs(oracles.markov_kernel(1, t) - (2 * f1 + f3))) < 1e-14


def test_interval_trace_against_trapezoid_overlaps():
    x = np.linspace(0.0, 1.0, 20001)
    h = oracles.hermite_functions(11, x)
    o = np.trapezoid(h[:, None, :] * h[None, :, :], x, axis=2)
    ph = np.exp(1j * 1.2 * np.arange(12))
    want = float(np.sum(ph.conj()[:, None] * o * ph[None, :] * o.T).real)
    assert oracles.interval_trace(1.2, 12) == pytest.approx(want, abs=1e-9)
