"""Numerics for rotated quadrature observables, covariant phase-space
observables, and the identities that tie their statistics together.

Submodules are imported lazily so that process-level knobs (thread caps
set by the command-line front end) take effect before numpy loads.
"""

__version__ = "0.1.0"

# The string grammar of make_state specs, kept here, away from numpy, so the
# command line can print it before its thread caps take effect.
STATE_GRAMMAR = "vacuum | number:<n> | coherent:<re>,<im> | squeezed:<r>,<phi> | file:<path>"

_EXPORTS = {
    "errors": [
        "QuadsuiteError",
        "StateValidationError",
        "DomainError",
        "CoverageError",
        "ConvergenceError",
        "ConditioningError",
    ],
    "domains": [
        "IntervalSet",
        "GridFunction",
        "uniform_axis",
    ],
    "fock": [
        "hermite_function",
        "hermite_basis",
        "overlap",
        "overlap_matrix",
        "TruncatedState",
        "make_state",
        "vacuum_state",
        "number_state",
        "coherent_state",
        "squeezed_state",
        "pure_state",
        "state_from_matrix",
        "gaussian_pure_state",
        "rotate_state",
        "parity_conjugate",
        "load_state",
        "save_state",
    ],
    "quadrature": [
        "quadrature_matrix",
        "quadrature_density",
        "quadrature_probability",
        "quadrature_moment",
        "commutator_block",
        "uncertainty_product",
        "trace_pair",
        "weyl_relation_deviation",
        "complementarity_summary",
    ],
    "phase_space": [
        "displacement_matrix",
        "gk_density",
        "rotated_marginal_density",
        "cartesian_marginal_density",
        "strip_probability",
    ],
    "wigner_radon": [
        "wigner",
        "wigner_grid",
        "gk_grid",
        "radon",
        "verify_wigner_radon",
        "verify_gk_radon",
    ],
    "tomography": [
        "dawson",
        "dawson_derivatives",
        "markov_kernel_number",
        "tomography_probability",
        "QuadratureDataset",
        "generate_dataset",
        "load_dataset",
        "save_dataset",
        "reconstruct_state",
        "gk_from_quadrature_data",
    ],
    "moments": [
        "MomentSequence",
        "convolved_moments",
        "invert_moments",
        "gaussian_moments",
        "quadrature_moment_sequence",
        "fit_gaussian_polynomial_density",
        "sequential_demo",
    ],
}

_NAME_TO_MODULE = {
    name: module for module, names in _EXPORTS.items() for name in names
}

__all__ = sorted(_NAME_TO_MODULE)


def __getattr__(name):
    module = _NAME_TO_MODULE.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
