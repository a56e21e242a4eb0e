"""The four workloads: their inputs, their rounds and the checks on their outputs.

A workload is built from its seed alone.  Building it imports quadsuite and
makes the inputs with the library's constructors; that, with the warm-up
calls, is the set-up the benchmark times as ``setup_s``.  A round calls
every operation of the workload once, in a fixed order.  Each operation
has a check, run after the timed rounds, that compares its output with a
computation from :mod:`oracles` or with a property the method must have.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import io
import json
import math
import shutil
import sys
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import oracles

# Seconds one round takes on the reference machine (see README.md).  The
# number of rounds in a run is --seconds divided by this, at least one, so
# it depends on the arguments only and never on how fast a run goes.
NOMINAL_ROUND_S = {
    "phase-space-grids": 5.5,
    "smeared-marginals": 8.5,
    "tomography-roundtrip": 1.1,
    "cli-readme": 25.0,
}


@dataclass
class Op:
    """One library or CLI call of a round.

    ``run(r)`` makes the call for round r and returns its output.
    ``check(out, outs)`` returns None when the output holds, else a reason;
    ``outs`` maps every op name to its output in the same round.
    """

    name: str
    run: Callable[[int], object]
    check: Callable[[object, dict], str | None]


@dataclass
class Workload:
    ops: list[Op]
    warmups: list[Callable[[], object]]
    cleanup: Callable[[], None] = field(default=lambda: None)


def rounds_for(name: str, seconds: float) -> int:
    return max(1, round(seconds / NOMINAL_ROUND_S[name]))


def _gap(got, want) -> float:
    return float(np.max(np.abs(np.asarray(got, float) - np.asarray(want, float))))


def _within(label: str, gap: float, tol: float) -> str | None:
    return None if gap <= tol else f"{label}: {gap:.3e} > {tol:.0e}"


def _first_failure(*reasons) -> str | None:
    return next((r for r in reasons if r), None)


def _random_vector(rng, support: int) -> np.ndarray:
    c = rng.standard_normal(support) + 1j * rng.standard_normal(support)
    return c / np.linalg.norm(c)


def _random_density(rng, dim: int) -> np.ndarray:
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    m = a @ a.conj().T
    return m / np.trace(m).real


def _padded_projector(vec: np.ndarray, dim: int) -> np.ndarray:
    full = np.zeros(dim, dtype=complex)
    full[: vec.size] = vec
    return np.outer(full, full.conj())


def _import_quadsuite():
    """Import the package and every module the workloads reach."""
    import quadsuite
    import quadsuite.cli
    import quadsuite.moments
    import quadsuite.tomography
    import quadsuite.wigner_radon  # noqa: F401  (pulls fock, quadrature, phase_space)

    return quadsuite


# ---------------------------------------------------------------------------
# phase-space-grids


def phase_space_grids(seed: int, scratch: Path) -> Workload:
    """Wigner and covariant grids on 801 x 801 points at dim 12, with Radon
    slices, covariant values at scattered points, and one displacement at
    the documented extreme (dim 400, q^2 + p^2 = 98)."""
    qs = _import_quadsuite()
    rng = np.random.default_rng(seed)
    psi = _random_vector(rng, 10)
    wig_state = qs.pure_state(psi, 12)
    rho_psi = _padded_projector(psi, 12)
    n, k = (int(v) for v in rng.integers(0, 2, size=2))
    state, kernel = qs.number_state(n, 12), qs.number_state(k, 12)
    w_angles = [float(a) for a in rng.uniform(0.0, math.pi, 3)]
    g_angles = [float(a) for a in rng.uniform(0.0, math.pi, 2)]
    scatter = rng.uniform(-6.0, 6.0, size=(2, 100_000))
    xs = qs.uniform_axis(-6.0, 6.0, 0.02)
    extreme = (7.0, 7.0)      # fixed, not drawn: fails today on every seed
    grids: dict[str, object] = {}

    def wigner_grid(r):
        grids["wigner"] = qs.wigner_grid(wig_state)
        return grids["wigner"]

    def gk_grid(r):
        grids["gk"] = qs.gk_grid(state, kernel, 9.0, 0.0225)
        return grids["gk"]

    def check_wigner(grid, outs):
        step = grid.axes[0][2]
        return _first_failure(
            _within("|W| above 1/pi", float(np.max(np.abs(grid.values))) - 1.0 / math.pi, 1e-12),
            _within("Wigner mass", abs(float(grid.values.sum()) * step * step - 1.0), 1e-6),
        )

    def check_gk(grid, outs):
        q = grid.axis_points(0)[:, None]
        p = grid.axis_points(1)[None, :]
        step = grid.axes[0][2]
        return _first_failure(
            _within("gk closed form", _gap(grid.values, oracles.gk_number_pair(n, k, q, p)), 1e-12),
            _within("gk mass / 2 pi",
                    abs(float(grid.values.sum()) * step * step / (2 * math.pi) - 1.0), 1e-6),
        )

    ops = [Op("wigner-grid", wigner_grid, check_wigner)]
    for i, theta in enumerate(w_angles):
        want = functools.cache(lambda theta=theta: oracles.quadrature_density(rho_psi, theta, xs))
        ops.append(Op(
            f"wigner-radon-{i}",
            lambda r, theta=theta: qs.radon(grids["wigner"], theta, xs),
            lambda out, outs, want=want: _within("Radon slice - density", _gap(out, want()), 1e-6),
        ))
    ops.append(Op("gk-grid", gk_grid, check_gk))
    for i, theta in enumerate(g_angles):
        ops.append(Op(
            f"gk-radon-{i}",
            lambda r, theta=theta: qs.radon(grids["gk"], theta, xs),
            lambda out, outs: _within(
                "gk Radon slice", _gap(out, oracles.gk_number_pair_radon(n, k, xs)), 1e-5),
        ))
    ops.append(Op(
        "gk-scatter",
        lambda r: qs.gk_density(state, kernel, (scatter[0], scatter[1])),
        lambda out, outs: _within(
            "gk closed form", _gap(out, oracles.gk_number_pair(n, k, scatter[0], scatter[1])), 1e-12),
    ))
    alpha = complex(*extreme) / math.sqrt(2.0)
    ops.append(Op(
        "displacement-extreme",
        lambda r: qs.displacement_matrix(extreme, 400),
        lambda out, outs: _within(
            "D|0> vs coherent amplitudes",
            float(np.max(np.abs(out[:, 0] - oracles.coherent_amplitudes(alpha, 400)))), 1e-10),
    ))
    warmups = [
        lambda: qs.radon(qs.wigner_grid(wig_state, 8.0, 4.0), 0.3, xs[:5]),
        lambda: qs.radon(qs.gk_grid(state, kernel, 9.0, 4.5), 0.3, xs[:5]),
        lambda: qs.gk_density(state, kernel, (0.1, 0.2)),
        lambda: qs.displacement_matrix((0.5, 0.5), 400),
    ]
    return Workload(ops, warmups)


# ---------------------------------------------------------------------------
# smeared-marginals


def smeared_marginals(seed: int, scratch: Path) -> Workload:
    """Rotated (smeared) marginals on 601 points at dim 12 and dim 40, and
    strip probabilities over a unit interval and over a partition of the line."""
    qs = _import_quadsuite()
    rng = np.random.default_rng(seed)
    mats = {}
    states = {}
    for label, dim, support in (("d12", 12, 12), ("d40", 40, 40)):
        for role, sup in (("state", support), ("kernel", 3)):
            vec = _random_vector(rng, sup)
            mats[label, role] = _padded_projector(vec, dim)
            states[label, role] = qs.pure_state(vec, dim)
    vac = qs.vacuum_state(12)
    ts = qs.uniform_axis(-18.0, 18.0, 0.06)
    thetas = {"d12-a": float(rng.uniform(0, math.pi)), "d12-b": float(rng.uniform(0, math.pi)),
              "d40": float(rng.uniform(0, math.pi)), "vacuum": float(rng.uniform(0, math.pi))}
    lows = {"d12": round(float(rng.uniform(-1.5, 0.5)), 2),
            "d40": round(float(rng.uniform(-1.5, 0.5)), 2)}
    cut = round(float(rng.uniform(-1.0, 1.0)), 2)

    def check_marginal(label, theta):
        rho, kern = mats[label, "state"], mats[label, "kernel"]

        def check(out, outs):
            mass = float(np.trapezoid(out, ts))
            mean = float(np.trapezoid(ts * out, ts))
            var = float(np.trapezoid(ts * ts * out, ts)) - mean * mean
            want_mean, want_var = oracles.marginal_moments(rho, kern, theta)
            return _first_failure(
                _within("negative density", -float(np.min(out)), 1e-12),
                _within("marginal mass", abs(mass - 1.0), 1e-8),
                _within("mean of X - Y", abs(mean - want_mean), 1e-8),
                _within("variance of X - Y", abs(var - want_var), 1e-8),
            )

        return check

    ops = []
    for key, label in (("d12-a", "d12"), ("d12-b", "d12"), ("d40", "d40")):
        theta = thetas[key]
        ops.append(Op(
            f"marginal-{key}",
            lambda r, label=label, theta=theta: qs.rotated_marginal_density(
                states[label, "state"], states[label, "kernel"], theta, ts),
            check_marginal(label, theta),
        ))
    ops.append(Op(
        "marginal-vacuum",
        lambda r: qs.rotated_marginal_density(vac, vac, thetas["vacuum"], ts),
        lambda out, outs: _within("vacuum marginal - N(0,1)", _gap(out, oracles.normal_pdf(ts)), 1e-8),
    ))
    for label, key in (("d12", "d12-a"), ("d40", "d40")):
        lo = lows[label]
        want = functools.cache(lambda label=label, key=key, lo=lo: oracles.strip_probability(
            mats[label, "state"], mats[label, "kernel"], thetas[key], lo, lo + 1.0))
        ops.append(Op(
            f"strip-{label}",
            lambda r, label=label, key=key, lo=lo: qs.strip_probability(
                states[label, "state"], states[label, "kernel"], thetas[key],
                qs.IntervalSet.of((lo, lo + 1.0))),
            lambda out, outs, want=want: _within("strip mass", abs(out - want()), 1e-8),
        ))
    ops.append(Op(
        "strip-vacuum-below",
        lambda r: qs.strip_probability(vac, vac, thetas["vacuum"], qs.IntervalSet.of((-math.inf, cut))),
        lambda out, outs: _within("strip vs Phi", abs(out - oracles.normal_cdf(cut)), 1e-8),
    ))
    ops.append(Op(
        "strip-vacuum-above",
        lambda r: qs.strip_probability(vac, vac, thetas["vacuum"], qs.IntervalSet.of((cut, math.inf))),
        lambda out, outs: _within(
            "partition masses summed - 1", abs(out + outs["strip-vacuum-below"] - 1.0), 1e-8),
    ))
    warmups = [
        lambda: qs.rotated_marginal_density(states["d12", "state"], states["d12", "kernel"], 0.3, ts[:3]),
        lambda: qs.rotated_marginal_density(states["d40", "state"], states["d40", "kernel"], 0.3, ts[:3]),
        lambda: qs.strip_probability(vac, vac, 0.3, qs.IntervalSet.of((0.0, 0.25))),
    ]
    return Workload(ops, warmups)


# ---------------------------------------------------------------------------
# tomography-roundtrip


# Independent seeded cases in one tomography round.  A case takes about
# 0.14 s; eight make a round long enough that a round's time is an average
# over the host's speed, not one sample of it, so the round median follows
# the run instead of jumping between a fast and a slow mode.
TOMOGRAPHY_CASES = 8


def tomography_roundtrip(seed: int, scratch: Path) -> Workload:
    """Many small calls at dims 6-16: dataset generation and reconstruction
    of pure and mixed states, covariant densities rebuilt from data for
    kernels n = 0..2, both Markov-kernel forms, and the sequential demo."""
    qs = _import_quadsuite()
    rng = np.random.default_rng(seed)
    ops = []
    for case in range(TOMOGRAPHY_CASES):
        ops += _tomography_case(qs, rng, f"c{case}")
    source = qs.pure_state(_random_vector(rng, 3), 8)
    xs = qs.uniform_axis(-4.0, 4.0, 0.01)
    warmups = [
        lambda: qs.reconstruct_state(qs.generate_dataset(qs.vacuum_state(6), 16, (-8.0, 8.0, 0.5)), 6),
        lambda: qs.gk_from_quadrature_data(qs.generate_dataset(source, 32, (-8.0, 8.0, 0.02)), 0, (0.0, 0.0)),
        lambda: qs.markov_kernel_number(1, (0.0, 0.0), 0.0, xs[:3], form="series"),
        lambda: qs.sequential_demo(qs.vacuum_state(6), 0.5, 0.1, 0.1, 4),
    ]
    return Workload(ops, warmups)


def _tomography_case(qs, rng, tag: str) -> list[Op]:
    """The 27 calls of one tomography case, named with the suffix ``tag``."""
    ops = []
    datasets: dict[str, object] = {}
    for label, dim, angles, mixed in (("pure6", 6, 16, False), ("mixed6", 6, 16, True),
                                      ("pure12", 12, 32, False), ("mixed16", 16, 32, True)):
        if mixed:
            rho = _random_density(rng, dim)
            state = qs.state_from_matrix(rho)
        else:
            vec = _random_vector(rng, dim)
            rho = _padded_projector(vec, dim)
            state = qs.pure_state(vec, dim)

        def generate(r, label=label, state=state, angles=angles):
            datasets[label] = qs.generate_dataset(state, angles)
            return datasets[label]

        def check_rows(data, outs, rho=rho):
            worst = max(_gap(row, oracles.quadrature_density(rho, th, data.xs))
                        for th, row in zip(data.thetas[:4], data.values[:4]))
            return _within("dataset rows vs density", worst, 1e-12)

        ops.append(Op(f"generate-{label}", generate, check_rows))
        ops.append(Op(
            f"reconstruct-{label}",
            lambda r, label=label, dim=dim: qs.reconstruct_state(datasets[label], dim),
            lambda out, outs, rho=rho: _within(
                "Frobenius round trip", float(np.linalg.norm(out.matrix - rho)), 1e-6),
        ))

    vec8 = _random_vector(rng, 3)
    rho8 = _padded_projector(vec8, 8)
    source8 = qs.pure_state(vec8, 8)

    def generate64(r):
        datasets["data64"] = qs.generate_dataset(source8, 64)
        return datasets["data64"]

    ops.append(Op(
        "generate-data64", generate64,
        lambda out, outs: _within("dataset rows vs density", _gap(
            out.values[5], oracles.quadrature_density(rho8, out.thetas[5], out.xs)), 1e-12),
    ))
    phase_points = [(float(q), float(p)) for q, p in rng.uniform(-1.2, 1.2, size=(3, 2))]
    for n in range(3):
        for j, pt in enumerate(phase_points):
            want = functools.cache(lambda n=n, pt=pt: oracles.gk_number_kernel(rho8, n, *pt))
            ops.append(Op(
                f"gk-from-data-n{n}-{j}",
                lambda r, n=n, pt=pt: qs.gk_from_quadrature_data(datasets["data64"], n, pt),
                lambda out, outs, want=want: _within("data functional vs gk", abs(out - want()), 1e-4),
            ))

    kernel_pt = tuple(float(v) for v in rng.uniform(-1.0, 1.0, 2))
    kernel_theta = float(rng.uniform(0.0, math.pi))
    xs = qs.uniform_axis(-4.0, 4.0, 0.01)
    shift = kernel_pt[0] * math.cos(kernel_theta) + kernel_pt[1] * math.sin(kernel_theta)
    for n in range(3):
        want = functools.cache(lambda n=n: oracles.markov_kernel(n, xs - shift))
        for form, tol in (("derivative", 1e-10), ("series", 1e-6)):
            ops.append(Op(
                f"markov-{form}-n{n}",
                lambda r, n=n, form=form: qs.markov_kernel_number(n, kernel_pt, kernel_theta, xs, form=form),
                lambda out, outs, want=want, tol=tol: _within("kernel vs Dawson form", _gap(out, want()), tol),
            ))
    ops.append(Op(
        "markov-origin",
        lambda r: qs.markov_kernel_number(0, (0.0, 0.0), 0.0, 0.0),
        lambda out, outs: _within("K_0 at the origin - 2", abs(out - 2.0), 1e-10),
    ))

    for label, rho in (("pure10", _padded_projector(_random_vector(rng, 4), 10)),
                       ("mixed8", _random_density(rng, 8))):
        state = qs.state_from_matrix(rho)
        theta = float(rng.uniform(0.1, math.pi - 0.1))
        mu_var, nu_var = (float(v) for v in rng.uniform(0.05, 0.3, 2))

        def check_demo(report, outs, rho=rho, theta=theta, mu_var=mu_var, nu_var=nu_var):
            reasons = [_within("demo max_rel_error", report["max_rel_error"], 1e-9)]
            for key, angle, var in (("q", 0.0, mu_var), ("q_theta", theta, nu_var)):
                channel = report["channels"][key]
                truth = oracles.quadrature_moments(rho, angle, report["k_max"])
                smeared = oracles.convolved_moments(oracles.gaussian_moments(var, report["k_max"]), truth)
                scale = [max(1.0, abs(t)) for t in truth]
                reasons.append(_within(f"{key} moments", max(
                    abs(a - b) / s for a, b, s in zip(channel["ground_truth"], truth, scale)), 1e-9))
                reasons.append(_within(f"{key} smeared moments", max(
                    abs(a - b) / max(1.0, abs(b)) for a, b in zip(channel["smeared"], smeared)), 1e-9))
            return _first_failure(*reasons)

        ops.append(Op(
            f"sequential-demo-{label}",
            lambda r, state=state, theta=theta, mu_var=mu_var, nu_var=nu_var:
                qs.sequential_demo(state, theta, mu_var, nu_var),
            check_demo,
        ))

    return [Op(f"{op.name}-{tag}", op.run, op.check) for op in ops]


# ---------------------------------------------------------------------------
# cli-readme

README_COMMANDS = {
    "quad-density": ["quad-density", "--state", "vacuum", "--dim", "32", "--theta", "0",
                     "--grid=-4:4:0.01"],
    "wigner": ["wigner", "--state", "squeezed:0.6,0.3", "--dim", "60", "--grid=-5:5:0.05"],
    "radon": ["radon", "--state", "number:2", "--dim", "24", "--theta", "0.785",
              "--grid=-6:6:0.05"],
    "gk-density": ["gk-density", "--state", "coherent:1.0,0.5", "--kernel", "number:1",
                   "--dim", "32", "--grid=-6:6:0.1"],
    "strip-prob": ["strip-prob", "--state", "vacuum", "--kernel", "vacuum", "--dim", "16",
                   "--theta", "1.0", "--intervals", "0,1"],
    "tomo-generate": ["tomo-generate", "--state", "number:1", "--dim", "6", "--angles", "16"],
    "tomo-reconstruct": ["tomo-reconstruct", "--dim", "6", "--reference", "number:1"],
    "markov-kernel": ["markov-kernel", "--index", "1", "--theta", "0", "--point", "0,0",
                      "--grid=-4:4:0.1", "--form", "series"],
    "moments-demo": ["moments-demo", "--state", "number:1", "--dim", "16", "--mu-var", "0.4",
                     "--nu-var", "0.2"],
    "complementarity-report": ["complementarity-report", "--dim", "200", "--theta", "1.5707963",
                               "--format", "json"],
}

# Small calls of every subcommand, at the README dimensions where a cache
# depends on the dimension.
WARMUP_COMMANDS = {
    "quad-density": ["quad-density", "--state", "vacuum", "--dim", "32", "--grid=-1:1:1"],
    "wigner": ["wigner", "--state", "squeezed:0.6,0.3", "--dim", "60", "--grid=-1:1:1"],
    "radon": ["radon", "--state", "number:2", "--dim", "24", "--grid=-1:1:1",
              "--extent", "8", "--step", "2"],
    "gk-density": ["gk-density", "--state", "coherent:1.0,0.5", "--kernel", "number:1",
                   "--dim", "32", "--grid=-1:1:1"],
    "strip-prob": ["strip-prob", "--state", "vacuum", "--kernel", "vacuum", "--dim", "16",
                   "--intervals", "0,0.25"],
    "tomo-generate": ["tomo-generate", "--state", "number:1", "--dim", "6", "--angles", "16",
                      "--grid=-8:8:0.5"],
    "tomo-reconstruct": ["tomo-reconstruct", "--dim", "6", "--reference", "number:1"],
    "markov-kernel": ["markov-kernel", "--index", "1", "--grid=-1:1:1", "--form", "series"],
    "moments-demo": ["moments-demo", "--state", "number:1", "--dim", "4", "--k-max", "4"],
    "complementarity-report": ["complementarity-report", "--dim", "8", "--format", "json"],
}


def run_cli(argv: list[str]) -> int:
    """quadsuite.cli.main(argv) in-process, looked up at call time so a
    traced run sees its wrapper; a non-zero exit is raised as a failure."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = sys.modules["quadsuite.cli"].main(argv)
    if code != 0:
        raise RuntimeError(f"quadsuite {argv[0]} exited {code}: {err.getvalue().strip()}")
    return code


def _read_csv(path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _column(rows, key) -> np.ndarray:
    return np.array([float(row[key]) for row in rows])


def _check_cli_file(command: str, path: Path) -> str | None:
    """Parse a README command's output file back and hold it to its properties."""
    if command == "quad-density":
        rows = _read_csv(path)
        x = _column(rows, "x")
        return _within("vacuum density", _gap(_column(rows, "density"),
                                              np.exp(-x * x) / math.sqrt(math.pi)), 1e-12)
    if command == "wigner":
        rows = _read_csv(path)
        w = _column(rows, "value")
        want = oracles.squeezed_wigner(0.6, 0.3, _column(rows, "q"), _column(rows, "p"))
        # The closed form is for the untruncated state.  W = <psi|U|psi>/pi with U
        # unitary, so cutting psi at dim 60 moves W by at most 4 |tail| / pi.
        tol = 4.0 * oracles.squeezed_tail(0.6, 60) / math.pi + 1e-12
        return _first_failure(
            _within("|W| above 1/pi", float(np.max(np.abs(w))) - 1.0 / math.pi, 1e-12),
            _within("squeezed Wigner closed form", _gap(w, want), tol),
        )
    if command == "radon":
        rows = _read_csv(path)
        x = _column(rows, "x")
        want = oracles.hermite_functions(2, x)[2] ** 2
        radon, quad = _column(rows, "radon"), _column(rows, "quadrature")
        return _first_failure(
            _within("quadrature column vs h_2^2", _gap(quad, want), 1e-12),
            _within("Radon column vs h_2^2", _gap(radon, want), 1e-6),
            _within("difference column", _gap(_column(rows, "difference"), radon - quad), 1e-12),
        )
    if command == "gk-density":
        rows = _read_csv(path)
        want = oracles.coherent_number1_gk(1.0 + 0.5j, _column(rows, "q"), _column(rows, "p"))
        return _within("coherent/number-1 closed form", _gap(_column(rows, "value"), want), 1e-10)
    if command == "strip-prob":
        prob = float(_read_csv(path)[0]["probability"])
        return _within("strip vs Phi(1) - Phi(0)",
                       abs(prob - (oracles.normal_cdf(1.0) - oracles.normal_cdf(0.0))), 1e-8)
    if command == "tomo-generate":
        with open(path) as fh:
            header = fh.readline().split()
            values = np.loadtxt(fh, ndmin=2)
        angles, lo, hi, step = int(header[1]), *(float(v) for v in header[2:])
        x = lo + step * np.arange(values.shape[1])
        want = oracles.hermite_functions(1, x)[1] ** 2
        return _first_failure(
            _within("dataset shape", abs(values.shape[0] - angles) + abs(x[-1] - hi), 1e-9),
            _within("dataset rows vs h_1^2", _gap(values, want[None, :]), 1e-12),
        )
    if command == "tomo-reconstruct":
        row = _read_csv(path)[0]
        return _first_failure(
            _within("Frobenius error", float(row["frobenius_error"]), 1e-6),
            _within("clipped mass", abs(float(row["clipped_mass"])), 1e-6),
        )
    if command == "markov-kernel":
        rows = _read_csv(path)
        return _within("series vs Dawson form",
                       _gap(_column(rows, "value"), oracles.markov_kernel(1, _column(rows, "x"))), 1e-6)
    if command == "moments-demo":
        rows = _read_csv(path)
        truth = oracles.number_state_even_moments(1, 12)
        reasons = []
        for channel, var in (("q", 0.4), ("q_theta", 0.2)):
            part = [r for r in rows if r["channel"] == channel]
            smeared = oracles.convolved_moments(oracles.gaussian_moments(var, 12), truth)
            for r in part:
                k = int(r["k"])
                scale = max(1.0, abs(truth[k]))
                reasons.append(_within(f"{channel} truth k={k}",
                                       abs(float(r["ground_truth"]) - truth[k]) / scale, 1e-10))
                reasons.append(_within(f"{channel} smeared k={k}",
                                       abs(float(r["smeared"]) - smeared[k]) / max(1.0, abs(smeared[k])),
                                       1e-10))
                reasons.append(_within(f"{channel} recovered k={k}",
                                       abs(float(r["recovered"]) - truth[k]) / scale, 1e-9))
        reasons.append(_within("moment rows", abs(len(rows) - 26), 0))
        return _first_failure(*reasons)
    if command == "complementarity-report":
        with open(path) as fh:
            report = json.load(fh)
        theta = 1.5707963
        limit = 1.0 / (2.0 * math.pi * abs(math.sin(theta)))
        bound = math.sin(theta) ** 2 / 4.0
        return _first_failure(
            _within("trace limit", abs(report["trace_limit"] / limit - 1.0), 1e-12),
            _within("trace vs independent sum",
                    abs(report["trace_estimate"] / oracles.interval_trace(theta, 200) - 1.0), 1e-9),
            _within("trace relative error", report["trace_rel_error"], 0.02),
            _within("commutator deviation", report["commutator_deviation"], 1e-10),
            _within("Weyl deviation", report["weyl_deviation"], 1e-6),
            _within("uncertainty bound", abs(report["uncertainty_bound"] / bound - 1.0), 1e-12),
            _within("uncertainty attained / bound", abs(report["uncertainty_attained"] / bound - 1.0), 0.01),
        )
    raise ValueError(f"no check for {command}")


def cli_readme(seed: int, scratch: Path) -> Workload:
    """The ten README commands at the README arguments, in-process, each
    writing its output into a temporary directory."""
    _import_quadsuite()   # part of the set-up; the calls go through cli.main
    tmp = Path(tempfile.mkdtemp(prefix="cli-", dir=scratch))
    rng = np.random.default_rng(seed)
    # The seed orders the commands; the dataset is written before it is read.
    order = [str(c) for c in rng.permutation([c for c in README_COMMANDS if c != "tomo-reconstruct"])]
    order.insert(order.index("tomo-generate") + 1, "tomo-reconstruct")

    def call(command, table, folder):
        folder.mkdir(exist_ok=True)
        output = folder / f"{command}.out"
        argv = list(table[command]) + ["--output", str(output)]
        if command == "tomo-reconstruct":
            argv += ["--input", str(folder / "tomo-generate.out")]
        run_cli(argv)
        return output

    ops = [Op(command,
              lambda r, command=command: call(command, README_COMMANDS, tmp / f"round{r}"),
              lambda out, outs, command=command: _check_cli_file(command, out))
           for command in order]
    warmups = [lambda c=c: call(c, WARMUP_COMMANDS, tmp / "warmup") for c in order]
    return Workload(ops, warmups, cleanup=lambda: shutil.rmtree(tmp, ignore_errors=True))


BUILDERS = {
    "phase-space-grids": phase_space_grids,
    "smeared-marginals": smeared_marginals,
    "tomography-roundtrip": tomography_roundtrip,
    "cli-readme": cli_readme,
}
