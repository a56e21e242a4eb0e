"""Command-line front door.

Every subcommand is a thin adapter over the library: parse flags, call
one or two library functions, and return the result as named columns,
which one %-format renders as CSV (floats as %.12e, text csv-quoted).
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

_THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)

# help text only: quadsuite.make_state parses the specs
STATE_GRAMMAR = "vacuum | number:<n> | coherent:<re>,<im> | squeezed:<r>,<phi> | file:<path>"


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


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quadsuite",
        description="Quadrature, phase-space, and tomography numerics.",
    )
    parser.add_argument(
        "--threads",
        type=_positive_int,
        default=None,
        help="cap BLAS threads (falls back to QUADSUITE_THREADS)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, state=True, kernel=False, dim_default=64):
        if state:
            p.add_argument("--state", required=True, help=STATE_GRAMMAR)
        if kernel:
            p.add_argument("--kernel", required=True, help=STATE_GRAMMAR)
        p.add_argument("--dim", type=_positive_int, default=dim_default,
                       help="truncation dimension")
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        p.add_argument("--output", default=None, help="write here instead of stdout")

    p = sub.add_parser("quad-density", help="quadrature density on a grid")
    common(p)
    p.add_argument("--theta", type=float, default=0.0)
    p.add_argument("--grid", type=_grid_spec, default=(-6.0, 6.0, 0.01))

    p = sub.add_parser("wigner", help="Wigner function on a square grid")
    common(p)
    p.add_argument("--grid", type=_grid_spec, default=(-8.0, 8.0, 0.02),
                   help="symmetric square grid min:max:step with min = -max")

    p = sub.add_parser("radon", help="Radon slice of the Wigner function "
                                     "next to the quadrature density")
    common(p)
    p.add_argument("--theta", type=float, default=0.0)
    p.add_argument("--grid", type=_grid_spec, default=(-6.0, 6.0, 0.05))
    p.add_argument("--extent", type=float, default=8.0,
                   help="half-width of the underlying Wigner grid")
    p.add_argument("--step", type=float, default=0.02,
                   help="step of the underlying Wigner grid")

    p = sub.add_parser("gk-density", help="covariant observable density on a grid")
    common(p, kernel=True)
    p.add_argument("--grid", type=_grid_spec, default=(-6.0, 6.0, 0.05),
                   help="symmetric square grid min:max:step with min = -max")

    p = sub.add_parser("strip-prob", help="probability of a rotated strip")
    common(p, kernel=True)
    p.add_argument("--theta", type=float, default=0.0)
    p.add_argument("--intervals", type=_intervals_spec, required=True,
                   help="a,b[;c,d...] (inf allowed)")

    p = sub.add_parser("tomo-generate",
                       help="tabulate quadrature densities at uniform angles "
                            "(always the dataset text format)")
    common(p)
    p.add_argument("--angles", type=_positive_int, required=True)
    p.add_argument("--grid", type=_grid_spec, default=(-8.0, 8.0, 0.01))

    p = sub.add_parser("tomo-reconstruct", help="reconstruct a state from a dataset")
    common(p, state=False, dim_default=6)
    p.add_argument("--input", required=True, help="dataset file")
    p.add_argument("--reference", default=None,
                   help=f"optional reference state ({STATE_GRAMMAR}) "
                        "for a Frobenius error column")
    p.add_argument("--state-output", default=None,
                   help="also save the reconstructed state as JSON here")

    p = sub.add_parser("markov-kernel", help="generalized Markov kernel values")
    p.add_argument("--index", type=int, default=0, help="number-state kernel index")
    p.add_argument("--theta", type=float, default=0.0)
    p.add_argument("--point", type=_point_spec, default=(0.0, 0.0))
    p.add_argument("--grid", type=_grid_spec, default=(-4.0, 4.0, 0.01))
    p.add_argument("--form", choices=("derivative", "series"), default="derivative")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--output", default=None)

    p = sub.add_parser("moments-demo", help="sequential-measurement moment recovery")
    common(p)
    p.add_argument("--theta", type=float, default=math.pi / 3.0)
    p.add_argument("--mu-var", type=float, default=0.5)
    p.add_argument("--nu-var", type=float, default=0.5)
    p.add_argument("--k-max", type=_positive_int, default=12)

    p = sub.add_parser("complementarity-report",
                       help="trace formula, commutator, Weyl, and uncertainty checks")
    p.add_argument("--dim", type=_positive_int, default=200)
    p.add_argument("--theta", type=float, default=math.pi / 2.0)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--output", default=None)

    return parser


class _ConfigError(Exception):
    pass


def _square_extent(grid) -> tuple[float, float]:
    lo, hi, step = grid
    if abs(lo + hi) > 1e-12:
        raise _ConfigError(f"square grids need min = -max, got {lo}:{hi}")
    return hi, step


def _grid_columns(grid) -> dict:
    import numpy as np

    q, p = np.meshgrid(grid.axis_points(0), grid.axis_points(1), indexing="ij")
    return {"q": q.ravel(), "p": p.ravel(), "value": grid.values.ravel()}


def _run(args) -> tuple[dict, object]:
    """Execute one subcommand; returns (columns, json_payload): each named
    column is a 1D array or list, and a None payload means JSON of the columns."""
    import quadsuite as lib

    if args.command == "quad-density":
        state = lib.make_state(args.state, args.dim)
        xs = lib.uniform_axis(*args.grid)
        return {"x": xs, "density": lib.quadrature_density(state, args.theta, xs)}, None

    if args.command == "wigner":
        state = lib.make_state(args.state, args.dim)
        extent, step = _square_extent(args.grid)
        return _grid_columns(lib.wigner_grid(state, extent=extent, step=step)), None

    if args.command == "radon":
        state = lib.make_state(args.state, args.dim)
        grid = lib.wigner_grid(state, extent=args.extent, step=args.step)
        xs = lib.uniform_axis(*args.grid)
        slice_vals = lib.radon(grid, args.theta, xs)
        dens = lib.quadrature_density(state, args.theta, xs)
        return {"x": xs, "radon": slice_vals, "quadrature": dens,
                "difference": slice_vals - dens}, None

    if args.command == "gk-density":
        state = lib.make_state(args.state, args.dim)
        kernel = lib.make_state(args.kernel, args.dim)
        extent, step = _square_extent(args.grid)
        return _grid_columns(lib.gk_grid(state, kernel, extent=extent, step=step)), None

    if args.command == "strip-prob":
        state = lib.make_state(args.state, args.dim)
        kernel = lib.make_state(args.kernel, args.dim)
        window = lib.IntervalSet.of(*args.intervals)
        prob = lib.strip_probability(state, kernel, args.theta, window)
        text = ";".join(f"{a:g},{b:g}" for a, b in args.intervals)
        return {"theta": [args.theta], "intervals": [text], "probability": [prob]}, None

    if args.command == "tomo-generate":
        state = lib.make_state(args.state, args.dim)
        data = lib.generate_dataset(state, args.angles, args.grid)
        buf = io.StringIO()
        lib.save_dataset(data, buf)
        return {}, buf.getvalue()

    if args.command == "tomo-reconstruct":
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
        return columns, None

    if args.command == "markov-kernel":
        xs = lib.uniform_axis(*args.grid)
        vals = lib.markov_kernel_number(
            args.index, args.point, args.theta, xs, form=args.form
        )
        return {"x": xs, "value": vals}, None

    if args.command == "moments-demo":
        state = lib.make_state(args.state, args.dim)
        report = lib.sequential_demo(
            state, args.theta, args.mu_var, args.nu_var, args.k_max
        )
        channels, ks = report["channels"], range(args.k_max + 1)
        columns = {"channel": [c for c in channels for _ in ks],
                   "k": [k for _ in channels for k in ks]}
        for key in ("ground_truth", "smeared", "recovered"):
            columns[key] = [v for channel in channels.values() for v in channel[key]]
        columns["rel_error"] = [abs(r - t) / max(1.0, abs(t)) for r, t in
                                zip(columns["recovered"], columns["ground_truth"])]
        return columns, report

    if args.command == "complementarity-report":
        summary = lib.complementarity_summary(args.dim, args.theta)
        # the one column that mixes an int (dim) with floats
        values = [v if isinstance(v, int) else "%.12e" % v for v in summary.values()]
        return {"quantity": list(summary), "value": values}, summary

    raise _ConfigError(f"unknown command {args.command!r}")


def _csv_field(value) -> str:
    """str(value), quoted when it holds a comma, a quote or a line break."""
    text = str(value)
    if any(c in text for c in ',"\r\n'):
        text = '"' + text.replace('"', '""') + '"'
    return text


def _render(args, columns, payload) -> str:
    """CSV through one %-format for the whole table (%.12e for a column of
    floats, %s for ints and csv-quoted text), or JSON of the same columns."""
    if args.command == "tomo-generate":
        return payload
    names = list(columns)
    cells = [col.tolist() if hasattr(col, "tolist") else col for col in columns.values()]
    if args.format == "json":
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
        columns, payload = _run(args)
        text = _render(args, columns, payload)
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
