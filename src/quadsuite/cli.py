"""Command-line front door.

Every subcommand is a thin adapter over the library: parse flags, call
one or two library functions, format rows.  Output is deterministic
(fixed float formatting, no timestamps), CSV by default, JSON on request.

Heavy imports happen after the thread cap is applied, so --threads (or
the QUADSUITE_THREADS environment variable) can bound BLAS parallelism.
"""

from __future__ import annotations

import argparse
import csv
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


def _grid_rows(grid_fn):
    from . import domains

    qs = domains.uniform_axis(*grid_fn.axes[0])
    ps = domains.uniform_axis(*grid_fn.axes[1])
    for i, q in enumerate(qs):
        for j, p in enumerate(ps):
            yield {"q": q, "p": p, "value": grid_fn.values[i, j]}


def _run(args) -> tuple[list[dict], object]:
    """Execute one subcommand; returns (rows, json_payload)."""
    import quadsuite as lib

    if args.command == "quad-density":
        state = lib.make_state(args.state, args.dim)
        xs = lib.uniform_axis(*args.grid)
        dens = lib.quadrature_density(state, args.theta, xs)
        rows = [{"x": x, "density": d} for x, d in zip(xs, dens)]
        return rows, rows

    if args.command == "wigner":
        state = lib.make_state(args.state, args.dim)
        extent, step = _square_extent(args.grid)
        grid = lib.wigner_grid(state, extent=extent, step=step)
        rows = list(_grid_rows(grid))
        return rows, rows

    if args.command == "radon":
        state = lib.make_state(args.state, args.dim)
        grid = lib.wigner_grid(state, extent=args.extent, step=args.step)
        xs = lib.uniform_axis(*args.grid)
        slice_vals = lib.radon(grid, args.theta, xs)
        dens = lib.quadrature_density(state, args.theta, xs)
        rows = [
            {"x": x, "radon": r, "quadrature": d, "difference": r - d}
            for x, r, d in zip(xs, slice_vals, dens)
        ]
        return rows, rows

    if args.command == "gk-density":
        state = lib.make_state(args.state, args.dim)
        kernel = lib.make_state(args.kernel, args.dim)
        extent, step = _square_extent(args.grid)
        grid = lib.gk_grid(state, kernel, extent=extent, step=step)
        rows = list(_grid_rows(grid))
        return rows, rows

    if args.command == "strip-prob":
        state = lib.make_state(args.state, args.dim)
        kernel = lib.make_state(args.kernel, args.dim)
        window = lib.IntervalSet.of(*args.intervals)
        prob = lib.strip_probability(state, kernel, args.theta, window)
        text = ";".join(f"{a:g},{b:g}" for a, b in args.intervals)
        rows = [{"theta": args.theta, "intervals": text, "probability": prob}]
        return rows, rows

    if args.command == "tomo-generate":
        state = lib.make_state(args.state, args.dim)
        data = lib.generate_dataset(state, args.angles, args.grid)
        buf = io.StringIO()
        lib.save_dataset(data, buf)
        return [], buf.getvalue()

    if args.command == "tomo-reconstruct":
        data = lib.load_dataset(args.input)
        rec = lib.reconstruct_state(data, args.dim)
        if args.state_output:
            lib.save_state(rec, args.state_output)
        row = {
            "dim": args.dim,
            "angles": data.angles,
            "clipped_mass": rec.meta["clipped_mass"],
            "fit_residual": rec.meta["fit_residual"],
        }
        if args.reference:
            ref = lib.make_state(args.reference, args.dim)
            import numpy as np

            row["frobenius_error"] = float(
                np.linalg.norm(rec.matrix - ref.matrix)
            )
        return [row], [row]

    if args.command == "markov-kernel":
        xs = lib.uniform_axis(*args.grid)
        vals = lib.markov_kernel_number(
            args.index, args.point, args.theta, xs, form=args.form
        )
        rows = [{"x": x, "value": v} for x, v in zip(xs, vals)]
        return rows, rows

    if args.command == "moments-demo":
        state = lib.make_state(args.state, args.dim)
        report = lib.sequential_demo(
            state, args.theta, args.mu_var, args.nu_var, args.k_max
        )
        rows = []
        for label, channel in report["channels"].items():
            for k in range(args.k_max + 1):
                truth = channel["ground_truth"][k]
                rec = channel["recovered"][k]
                rows.append({
                    "channel": label,
                    "k": k,
                    "ground_truth": truth,
                    "smeared": channel["smeared"][k],
                    "recovered": rec,
                    "rel_error": abs(rec - truth) / max(1.0, abs(truth)),
                })
        return rows, report

    if args.command == "complementarity-report":
        summary = lib.complementarity_summary(args.dim, args.theta)
        rows = [{"quantity": k, "value": v} for k, v in summary.items()]
        return rows, summary

    raise _ConfigError(f"unknown command {args.command!r}")


def _format_cell(value) -> str:
    if isinstance(value, float):
        return f"{value:.12e}"
    return str(value)


def _render(args, rows, payload) -> str:
    if args.command == "tomo-generate":
        return payload
    if args.format == "json":
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    if rows:
        writer.writerow(rows[0].keys())
        for row in rows:
            writer.writerow(_format_cell(v) for v in row.values())
    return buf.getvalue()


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
        rows, payload = _run(args)
        text = _render(args, rows, payload)
    except _ConfigError as exc:
        print(f"quadsuite: {exc}", file=sys.stderr)
        return 2
    except StateValidationError as exc:
        print(f"quadsuite: invalid state: {exc}", file=sys.stderr)
        return 3
    except (CoverageError, ConvergenceError, ConditioningError) as exc:
        print(f"quadsuite: numerical contract failed: {exc}", file=sys.stderr)
        return 4
    except DomainError as exc:
        print(f"quadsuite: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"quadsuite: {exc}", file=sys.stderr)
        return 2

    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
