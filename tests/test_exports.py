import importlib
import inspect
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import quadsuite
from quadsuite import DomainError, QuadsuiteError


def test_every_export_resolves():
    for name in quadsuite.__all__:
        assert getattr(quadsuite, name) is not None, name


def test_export_table_matches_module_all():
    # the package table and each module's __all__ must list the same names
    for module, names in quadsuite._EXPORTS.items():
        mod = importlib.import_module(f"quadsuite.{module}")
        assert names == getattr(mod, "__all__", names), module


def _fresh_python(code):
    """Standard output of code run in a new interpreter that imports quadsuite from this tree."""
    src = str(Path(quadsuite.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_radon_and_cli_leave_scipy_ndimage_unloaded():
    # Radon slices take their spline from one tridiagonal solve, not from scipy.ndimage
    code = ("import sys\n"
            "import quadsuite, quadsuite.wigner_radon, quadsuite.cli\n"
            "quadsuite.radon(quadsuite.wigner_grid(quadsuite.vacuum_state(2), 6.0, 0.5), 0.3, 0.0)\n"
            "print('scipy.ndimage' in sys.modules)\n")
    assert _fresh_python(code).strip() == "False"


def test_cli_commands_that_need_no_scipy_load_none(tmp_path):
    # scipy.linalg is imported inside the calls that use it, so these five
    # README commands load no scipy module at all
    commands = [
        ["quad-density", "--state", "vacuum", "--dim", "32", "--theta", "0", "--grid=-4:4:0.01"],
        ["wigner", "--state", "squeezed:0.6,0.3", "--dim", "60", "--grid=-5:5:0.05"],
        ["gk-density", "--state", "coherent:1.0,0.5", "--kernel", "number:1", "--dim", "32", "--grid=-6:6:0.1"],
        ["strip-prob", "--state", "vacuum", "--kernel", "vacuum", "--dim", "16", "--theta", "1.0",
         "--intervals", "0,1"],
        ["moments-demo", "--state", "number:1", "--dim", "16", "--mu-var", "0.4", "--nu-var", "0.2"],
    ]
    argvs = [argv + ["--output", str(tmp_path / f"{argv[0]}.out")] for argv in commands]
    code = ("import sys\n"
            "import quadsuite.cli\n"
            f"print([quadsuite.cli.main(argv) for argv in {argvs!r}])\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n")
    out = _fresh_python(code)
    assert out.split("\n")[:2] == ["[0, 0, 0, 0, 0]", "[]"], out
    assert all((tmp_path / f"{argv[0]}.out").stat().st_size > 0 for argv in commands)


def test_cli_parser_loads_no_numpy():
    # --threads sets the BLAS thread caps after parsing, so numpy must not load before
    code = ("import sys\n"
            "import quadsuite.cli\n"
            "quadsuite.cli._build_parser().parse_args(['quad-density', '--state', 'vacuum'])\n"
            "print('numpy' in sys.modules)\n")
    assert _fresh_python(code).strip() == "False"


# ---------------------------------------------------------------------------
# the argument contract: every count, real scalar and phase point of the public
# surface is refused with a QuadsuiteError, and with no warning, when malformed

NOT_INTEGERS = [2.5, 2.0, True, np.True_, "x", "3", math.nan, math.inf]


def count(label, lo=0, hi=None):
    """(kind, [(bad value, words of its message)]) for a count in [lo, hi]; lo + 0.5 is
    a non-integer inside the range."""
    below = "is negative" if lo == 0 else f"is below {lo}"
    fractional = [] if lo + 0.5 in NOT_INTEGERS else [lo + 0.5]
    bad = [(v, f"{label} {v!r} is not an integer") for v in NOT_INTEGERS + fractional]
    bad += [(v, f"{label} {v} {below}") for v in sorted({-1, lo - 1})]
    return "count", bad + ([(hi + 1, f"{label} {hi + 1} exceeds {hi}")] if hi is not None else [])


def real(*beyond, infinite=False):
    """(kind, bad values) for a real: a non-number, NaN, inf unless allowed,
    and the values beyond its documented limits.  A bool is the number 0 or 1 here."""
    return "real", [(v, None) for v in ("x", "3", math.nan, *([] if infinite else [math.inf]), *beyond)]


def point(*beyond):
    """(kind, bad values) for a phase point (q, p)."""
    return "point", [(v, None) for v in ((1.0, 2.0, 3.0), ("x", 0.0), ("3", 0.0), (math.nan, 0.0), (0.0, math.inf),
                                         *beyond)]


S4, N1 = quadsuite.vacuum_state(4), quadsuite.number_state(1, 4)
UNIT = quadsuite.IntervalSet.of((0.0, 1.0))
M20 = quadsuite.gaussian_moments(0.0, 0.5, 20)
COARSE = quadsuite.generate_dataset(S4, 8, (-8.0, 8.0, 0.5))
FINE = quadsuite.generate_dataset(S4, 32, (-8.0, 8.0, 0.02))
W_GRID, GK_GRID = quadsuite.wigner_grid(S4, 6.0, 0.1), quadsuite.gk_grid(S4, N1, 9.0, 0.1)
STATE_DIM = count("dim", 1, 2001)     # MAX_FUNCTION_DEGREE + 1 levels: no Hermite table holds more

# name -> (a call whose keyword defaults are a valid base call, {keyword: (kind, bad values)})
CONTRACT = {
    "IntervalSet": (lambda lo=0.0, hi=1.0: quadsuite.IntervalSet(((lo, hi),)),
                    {"lo": real(infinite=True), "hi": real(infinite=True)}),
    "GridFunction": (lambda lo=-1.0, step=0.5: quadsuite.GridFunction(((lo, 1.0, step), (-1.0, 1.0, 0.5)),
                                                                       np.zeros((5, 5))),
                     {"lo": real(), "step": real(-1.0)}),
    "uniform_axis": (lambda lo=-1.0, hi=1.0, step=0.5: quadsuite.uniform_axis(lo, hi, step),
                     {"lo": real(), "hi": real(-2.0), "step": real(-1.0)}),
    "hermite_basis": (lambda n_max=3, x=0.3: quadsuite.hermite_basis(n_max, x),
                      {"n_max": count("degree", hi=2000), "x": real()}),
    "hermite_function": (lambda n=3, x=0.3: quadsuite.hermite_function(n, x), {"n": count("degree", hi=2000), "x": real()}),
    "overlap": (lambda n=1, m=2: quadsuite.overlap(UNIT, n, m), {"n": count("Fock index", hi=2000), "m": count("Fock index", hi=2000)}),
    "overlap_matrix": (lambda dim=3: quadsuite.overlap_matrix(UNIT, dim), {"dim": STATE_DIM}),
    "TruncatedState": (lambda dim=1, leakage=0.0: quadsuite.TruncatedState(dim, [[1.0]], leakage),
                       {"dim": STATE_DIM, "leakage": real()}),
    "make_state": (lambda dim=4: quadsuite.make_state("vacuum", dim), {"dim": STATE_DIM}),
    "vacuum_state": (lambda dim=4: quadsuite.vacuum_state(dim), {"dim": STATE_DIM}),
    "number_state": (lambda n=1, dim=4: quadsuite.number_state(n, dim), {"n": count("Fock index", hi=3), "dim": STATE_DIM}),
    "coherent_state": (lambda alpha=0.5, dim=16: quadsuite.coherent_state(alpha, dim),
                       {"alpha": real(), "dim": STATE_DIM}),
    "squeezed_state": (lambda r=0.3, phi=0.1, dim=16: quadsuite.squeezed_state(r, phi, dim),
                       {"r": real(), "phi": real(), "dim": STATE_DIM}),
    "pure_state": (lambda dim=4: quadsuite.pure_state([1.0, 0.5], dim), {"dim": STATE_DIM}),
    "gaussian_pure_state": (lambda var_q=0.5, cov_qp=0.0, dim=4: quadsuite.gaussian_pure_state(var_q, cov_qp, dim),
                            {"var_q": real(-1.0), "cov_qp": real(), "dim": STATE_DIM}),
    "rotate_state": (lambda theta=0.3: quadsuite.rotate_state(N1, theta), {"theta": real()}),
    "quadrature_matrix": (lambda theta=0.3, dim=4: quadsuite.quadrature_matrix(theta, dim),
                          {"theta": real(), "dim": STATE_DIM}),
    "quadrature_density": (lambda theta=0.3, x=0.5: quadsuite.quadrature_density(N1, theta, x),
                           {"theta": real(), "x": real()}),
    "quadrature_probability": (lambda theta=0.3: quadsuite.quadrature_probability(N1, theta, UNIT), {"theta": real()}),
    "quadrature_moment": (lambda theta=0.3, k=2: quadsuite.quadrature_moment(N1, theta, k),
                          {"theta": real(), "k": count("moment order", hi=200)}),
    "commutator_block": (lambda theta=0.3, dim=4: quadsuite.commutator_block(theta, dim),
                         {"theta": real(), "dim": count("dim", 3, 2001)}),
    "uncertainty_product": (lambda theta=0.3: quadsuite.uncertainty_product(N1, theta), {"theta": real()}),
    "trace_pair": (lambda theta=0.3, dim=8: quadsuite.trace_pair(UNIT, UNIT, theta, dim),
                   {"theta": real(0.0), "dim": count("dim", 1, 400)}),
    "weyl_relation_deviation": (lambda q=0.5, p=0.5, dim=8: quadsuite.weyl_relation_deviation(q, p, dim),
                                {"q": real(), "p": real(), "dim": count("dim", 2, 2001)}),
    "complementarity_summary": (lambda dim=8, theta=math.pi / 2: quadsuite.complementarity_summary(dim, theta),
                                {"dim": count("dim", 3, 400), "theta": real(0.0)}),
    "displacement_matrix": (lambda pt=(0.5, 0.5), dim=4: quadsuite.displacement_matrix(pt, dim),
                            {"pt": point((15.0, 0.0)), "dim": count("dim", 1, 400)}),
    "gk_density": (lambda pt=(0.1, 0.2): quadsuite.gk_density(S4, N1, pt), {"pt": point()}),
    "rotated_marginal_density": (lambda theta=0.3, t=0.5: quadsuite.rotated_marginal_density(S4, N1, theta, t),
                                 {"theta": real(), "t": real()}),
    "cartesian_marginal_density": (lambda t=0.5: quadsuite.cartesian_marginal_density(S4, N1, "q", t),
                                   {"t": real()}),
    "strip_probability": (lambda theta=0.3: quadsuite.strip_probability(S4, N1, theta, UNIT), {"theta": real()}),
    "wigner": (lambda pt=(0.1, 0.2): quadsuite.wigner(S4, pt), {"pt": point()}),
    "wigner_grid": (lambda extent=4.0, step=0.5: quadsuite.wigner_grid(S4, extent, step),
                    {"extent": real(-1.0), "step": real(-1.0)}),
    "gk_grid": (lambda extent=4.0, step=0.5: quadsuite.gk_grid(S4, N1, extent, step),
                {"extent": real(-1.0), "step": real(-1.0)}),
    "radon": (lambda theta=0.3, t=0.5: quadsuite.radon(W_GRID, theta, t), {"theta": real(), "t": real()}),
    "verify_wigner_radon": (lambda theta=0.3: quadsuite.verify_wigner_radon(S4, theta, grid=W_GRID),
                            {"theta": real()}),
    "verify_gk_radon": (lambda theta=0.3: quadsuite.verify_gk_radon(S4, N1, theta, grid=GK_GRID), {"theta": real()}),
    "dawson": (lambda t=0.5: quadsuite.dawson(t), {"t": real()}),
    "dawson_derivatives": (lambda t=0.5, order=3: quadsuite.dawson_derivatives(t, order),
                           {"t": real(), "order": count("derivative order", hi=13)}),
    "markov_kernel_number": (lambda n=1, pt=(0.1, 0.2), theta=0.3, x=0.5:
                             quadsuite.markov_kernel_number(n, pt, theta, x),
                             {"n": count("kernel index", hi=6), "pt": point(), "theta": real(), "x": real()}),
    "QuadratureDataset": (lambda angles=8, step=0.5: quadsuite.QuadratureDataset(angles, (-8.0, 8.0, step),
                                                                                  COARSE.values),
                          {"angles": count("angle count", 1), "step": real(-1.0)}),
    "generate_dataset": (lambda angles=8, step=0.5: quadsuite.generate_dataset(S4, angles, (-8.0, 8.0, step)),
                         {"angles": count("angle count", 1), "step": real(-1.0)}),
    "reconstruct_state": (lambda dim=4: quadsuite.reconstruct_state(COARSE, dim), {"dim": STATE_DIM}),
    "gk_from_quadrature_data": (lambda n=0, pt=(0.1, 0.2): quadsuite.gk_from_quadrature_data(FINE, n, pt),
                                {"n": count("kernel index", hi=6), "pt": point((9.0, 0.0))}),
    "MomentSequence": (lambda m2=0.5: quadsuite.MomentSequence((1.0, 0.0, m2)), {"m2": real()}),
    "convolved_moments": (lambda k_max=4: quadsuite.convolved_moments(M20, M20, k_max), {"k_max": count("k_max", hi=20)}),
    "gaussian_moments": (lambda mean=0.0, var=1.0, k_max=4: quadsuite.gaussian_moments(mean, var, k_max),
                         {"mean": real(), "var": real(-1.0), "k_max": count("k_max", hi=200)}),
    "quadrature_moment_sequence": (lambda theta=0.3, k_max=4: quadsuite.quadrature_moment_sequence(N1, theta, k_max),
                                   {"theta": real(), "k_max": count("k_max", hi=200)}),
    "fit_gaussian_polynomial_density": (lambda degree=2: quadsuite.fit_gaussian_polynomial_density(M20, degree),
                                        {"degree": count("degree", hi=16)}),
    "sequential_demo": (lambda theta=0.5, mu_var=0.1, nu_var=0.1, k_max=4:
                        quadsuite.sequential_demo(S4, theta, mu_var, nu_var, k_max),
                        {"theta": real(), "mu_var": real(-1.0), "nu_var": real(-1.0), "k_max": count("k_max", hi=16)}),
}

# the exports that take no count, real scalar or phase point
TAKES_NONE = {
    "QuadsuiteError", "StateValidationError", "DomainError", "CoverageError", "ConvergenceError",
    "ConditioningError", "state_from_matrix", "parity_conjugate", "load_state", "save_state",
    "tomography_probability", "load_dataset", "save_dataset", "invert_moments",
}

BAD_CALLS = [(name, arg, value, words) for name, (_, args) in CONTRACT.items()
             for arg, (_, bad) in args.items() for value, words in bad]


def test_contract_covers_every_callable_export():
    exports = {name for name in quadsuite.__all__ if callable(getattr(quadsuite, name))}
    assert exports - CONTRACT.keys() - TAKES_NONE == set(), "an export has no contract row"
    assert CONTRACT.keys() | TAKES_NONE <= exports
    assert not CONTRACT.keys() & TAKES_NONE


@pytest.mark.parametrize("name", CONTRACT)
def test_contract_base_call_and_numpy_scalars_pass(name):
    call, args = CONTRACT[name]
    defaults = inspect.signature(call).parameters
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        call()
        for arg, (kind, _) in args.items():
            if kind == "count":
                call(**{arg: np.int64(defaults[arg].default)})
            elif kind == "real":
                call(**{arg: np.float64(defaults[arg].default)})


@pytest.mark.parametrize("name, arg, value, words", BAD_CALLS,
                         ids=[f"{name}-{arg}-{value!r}" for name, arg, value, _ in BAD_CALLS])
def test_contract_refuses_malformed_argument(name, arg, value, words):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(QuadsuiteError) as caught:
            CONTRACT[name][0](**{arg: value})
    if words:                                   # a count: the rule's own message
        assert isinstance(caught.value, DomainError) and words in str(caught.value), caught.value
