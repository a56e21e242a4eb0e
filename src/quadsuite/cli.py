"""Command-line front door.

Every subcommand is a thin adapter over the library, declared in one
place: a ``_command`` registration gives its help text, the state specs
it reads (--state, --kernel), its --dim default and its own arguments,
and the run function below it calls one or two library functions.  A run
returns named columns (1D arrays or lists), columns with a JSON report
that replaces the rows under --format json, or text written as it is.
One %-format renders columns as CSV (floats as %.12e, text csv-quoted).
Output is deterministic (fixed float formatting, no timestamps), CSV by
default, JSON built from the same columns on request.

Heavy imports happen after the thread cap is applied, so --threads (or
the QUADSUITE_THREADS environment variable) can bound BLAS parallelism.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import os
import sys

from . import STATE_GRAMMAR

_THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def _grid_spec(text: str):
    try:
        lo, hi, step = (float(tok) for tok in text.split(":"))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"grid must look like min:max:step, got {text!r}"
        )
    if step <= 0 or hi <= lo:
        raise argparse.ArgumentTypeError(f"degenerate grid {text!r}")
    return lo, hi, step


def _point_spec(text: str):
    try:
        q, p = (float(tok) for tok in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"point must look like q,p, got {text!r}")
    return q, p


def _intervals_spec(text: str):
    pairs = []
    try:
        for chunk in text.split(";"):
            a, b = (float(tok) for tok in chunk.split(","))
            pairs.append((a, b))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"intervals must look like a,b[;c,d...], got {text!r}"
        )
    return pairs


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return value


class _ConfigError(Exception):
    pass


def _arg(*flags, **options):
    """The arguments of one add_argument call."""
    return flags, options


_THETA = _arg("--theta", type=float, default=0.0)
_SQUARE_HELP = "symmetric square grid min:max:step with min = -max"

# name -> (help text, state flags, --dim default or None, own arguments, run)
_COMMANDS = {}


def _command(name, summary, *arguments, states=("state",), dim=64):
    """Register the decorated run(lib, args, *states) as subcommand name.
    Each of ``states`` is a required flag whose spec is made into a state
    of dimension --dim before run is called, in that order."""
    def register(run):
        _COMMANDS[name] = (summary, states, dim, arguments, run)
        return run
    return register


def _square_grid(make, spec, *states) -> dict:
    """Columns q, p, value of make(*states, extent=, step=) on the
    symmetric square grid spec (lo, hi, step) with lo = -hi."""
    lo, hi, step = spec
    if abs(lo + hi) > 1e-12:
        raise _ConfigError(f"square grids need min = -max, got {lo}:{hi}")
    import numpy as np

    grid = make(*states, extent=hi, step=step)
    q, p = np.meshgrid(grid.axis_points(0), grid.axis_points(1), indexing="ij")
    return {"q": q.ravel(), "p": p.ravel(), "value": grid.values.ravel()}


@_command("quad-density", "quadrature density on a grid",
          _THETA, _arg("--grid", type=_grid_spec, default=(-6.0, 6.0, 0.01)))
def _quad_density(lib, args, state):
    xs = lib.uniform_axis(*args.grid)
    return {"x": xs, "density": lib.quadrature_density(state, args.theta, xs)}


@_command("wigner", "Wigner function on a square grid",
          _arg("--grid", type=_grid_spec, default=(-8.0, 8.0, 0.02), help=_SQUARE_HELP))
def _wigner(lib, args, state):
    return _square_grid(lib.wigner_grid, args.grid, state)


@_command("radon", "Radon slice of the Wigner function next to the quadrature density",
          _THETA, _arg("--grid", type=_grid_spec, default=(-6.0, 6.0, 0.05)),
          _arg("--extent", type=float, default=8.0,
               help="half-width of the underlying Wigner grid"),
          _arg("--step", type=float, default=0.02,
               help="step of the underlying Wigner grid"))
def _radon(lib, args, state):
    grid = lib.wigner_grid(state, extent=args.extent, step=args.step)
    xs = lib.uniform_axis(*args.grid)
    slice_vals = lib.radon(grid, args.theta, xs)
    dens = lib.quadrature_density(state, args.theta, xs)
    return {"x": xs, "radon": slice_vals, "quadrature": dens, "difference": slice_vals - dens}


@_command("gk-density", "covariant observable density on a grid",
          _arg("--grid", type=_grid_spec, default=(-6.0, 6.0, 0.05), help=_SQUARE_HELP),
          states=("state", "kernel"))
def _gk_density(lib, args, state, kernel):
    return _square_grid(lib.gk_grid, args.grid, state, kernel)


@_command("strip-prob", "probability of a rotated strip",
          _THETA, _arg("--intervals", type=_intervals_spec, required=True,
                       help="a,b[;c,d...] (inf allowed)"),
          states=("state", "kernel"))
def _strip_prob(lib, args, state, kernel):
    window = lib.IntervalSet.of(*args.intervals)
    prob = lib.strip_probability(state, kernel, args.theta, window)
    text = ";".join(f"{a:g},{b:g}" for a, b in args.intervals)
    return {"theta": [args.theta], "intervals": [text], "probability": [prob]}


@_command("tomo-generate",
          "tabulate quadrature densities at uniform angles (always the dataset text format)",
          _arg("--angles", type=_positive_int, required=True),
          _arg("--grid", type=_grid_spec, default=(-8.0, 8.0, 0.01)))
def _tomo_generate(lib, args, state):
    buf = io.StringIO()
    lib.save_dataset(lib.generate_dataset(state, args.angles, args.grid), buf)
    return buf.getvalue()


@_command("tomo-reconstruct", "reconstruct a state from a dataset",
          _arg("--input", required=True, help="dataset file"),
          _arg("--reference", default=None,
               help=f"optional reference state ({STATE_GRAMMAR}) for a Frobenius error column"),
          _arg("--state-output", default=None,
               help="also save the reconstructed state as JSON here"),
          states=(), dim=6)
def _tomo_reconstruct(lib, args):
    data = lib.load_dataset(args.input)
    rec = lib.reconstruct_state(data, args.dim)
    if args.state_output:
        lib.save_state(rec, args.state_output)
    columns = {
        "dim": [args.dim],
        "angles": [data.angles],
        "clipped_mass": [rec.meta["clipped_mass"]],
        "fit_residual": [rec.meta["fit_residual"]],
    }
    if args.reference:
        ref = lib.make_state(args.reference, args.dim)
        import numpy as np

        columns["frobenius_error"] = [float(np.linalg.norm(rec.matrix - ref.matrix))]
    return columns


@_command("markov-kernel", "generalized Markov kernel values",
          _arg("--index", type=int, default=0, help="number-state kernel index"),
          _THETA, _arg("--point", type=_point_spec, default=(0.0, 0.0)),
          _arg("--grid", type=_grid_spec, default=(-4.0, 4.0, 0.01)),
          _arg("--form", choices=("derivative", "series"), default="derivative"),
          states=(), dim=None)
def _markov_kernel(lib, args):
    xs = lib.uniform_axis(*args.grid)
    vals = lib.markov_kernel_number(args.index, args.point, args.theta, xs, form=args.form)
    return {"x": xs, "value": vals}


@_command("moments-demo", "sequential-measurement moment recovery",
          _arg("--theta", type=float, default=math.pi / 3.0),
          _arg("--mu-var", type=float, default=0.5),
          _arg("--nu-var", type=float, default=0.5),
          _arg("--k-max", type=_positive_int, default=12))
def _moments_demo(lib, args, state):
    report = lib.sequential_demo(state, args.theta, args.mu_var, args.nu_var, args.k_max)
    channels, ks = report["channels"], range(args.k_max + 1)
    columns = {"channel": [c for c in channels for _ in ks],
               "k": [k for _ in channels for k in ks]}
    for key in ("ground_truth", "smeared", "recovered"):
        columns[key] = [v for channel in channels.values() for v in channel[key]]
    columns["rel_error"] = [abs(r - t) / max(1.0, abs(t)) for r, t in
                            zip(columns["recovered"], columns["ground_truth"])]
    return columns, report


@_command("complementarity-report", "trace formula, commutator, Weyl, and uncertainty checks",
          _arg("--theta", type=float, default=math.pi / 2.0),
          states=(), dim=200)
def _complementarity_report(lib, args):
    summary = lib.complementarity_summary(args.dim, args.theta)
    # the one column that mixes an int (dim) with floats
    values = [v if isinstance(v, int) else "%.12e" % v for v in summary.values()]
    return {"quantity": list(summary), "value": values}, summary


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quadsuite", description="Quadrature, phase-space, and tomography numerics.")
    parser.add_argument("--threads", type=_positive_int, default=None,
                        help="cap BLAS threads (falls back to QUADSUITE_THREADS)")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (summary, states, dim, arguments, _) in _COMMANDS.items():
        p = sub.add_parser(name, help=summary)
        for state in states:
            p.add_argument(f"--{state}", required=True, help=STATE_GRAMMAR)
        if dim is not None:
            p.add_argument("--dim", type=_positive_int, default=dim,
                           help="truncation dimension")
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        p.add_argument("--output", default=None, help="write here instead of stdout")
        for flags, options in arguments:
            p.add_argument(*flags, **options)
    return parser


def _run(args):
    """Make the command's states from their specs, then run it."""
    import quadsuite as lib

    _, states, _, _, run = _COMMANDS[args.command]
    return run(lib, args, *[lib.make_state(getattr(args, s), args.dim) for s in states])


def _csv_field(value) -> str:
    """str(value), quoted when it holds a comma, a quote or a line break."""
    text = str(value)
    if any(c in text for c in ',"\r\n'):
        text = '"' + text.replace('"', '""') + '"'
    return text


def _render(fmt, result) -> str:
    """Text as it is; columns as CSV through one %-format for the whole
    table (%.12e for a column of floats, %s for ints and csv-quoted text),
    or as JSON of the run's report if it gave one, else of the rows."""
    if isinstance(result, str):
        return result
    columns, payload = result if isinstance(result, tuple) else (result, None)
    names = list(columns)
    cells = [col.tolist() if hasattr(col, "tolist") else col for col in columns.values()]
    if fmt == "json":
        if payload is None:
            payload = [dict(zip(names, row)) for row in zip(*cells)]
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"
    # a float array needs no scan of its entries
    floats = [getattr(col, "dtype", None) == float or all(isinstance(v, float) for v in col)
              for col in columns.values()]
    cells = [col if is_float else [_csv_field(v) for v in col]
             for col, is_float in zip(cells, floats)]
    row_format = ",".join("%.12e" if is_float else "%s" for is_float in floats) + "\n"
    flat = [v for row in zip(*cells) for v in row]
    return ",".join(names) + "\n" + (row_format * len(cells[0])) % tuple(flat)


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    threads = args.threads or os.environ.get("QUADSUITE_THREADS")
    if threads:
        for var in _THREAD_VARS:
            os.environ[var] = str(threads)

    from .errors import (
        ConditioningError,
        ConvergenceError,
        CoverageError,
        DomainError,
        StateValidationError,
    )

    try:
        text = _render(args.format, _run(args))
    except StateValidationError as exc:
        print(f"quadsuite: invalid state: {exc}", file=sys.stderr)
        return 3
    except (CoverageError, ConvergenceError, ConditioningError) as exc:
        print(f"quadsuite: numerical contract failed: {exc}", file=sys.stderr)
        return 4
    except (_ConfigError, DomainError, OSError) as exc:
        print(f"quadsuite: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"quadsuite: {args.command} needs more memory than is available: {exc}",
              file=sys.stderr)
        return 2

    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
