"""Benchmark of quadsuite: one named workload per process.

    python3 benchmarks/run.py --workload phase-space-grids --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout; quadsuite is imported from ``src``.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are the end-to-end ones (setup_s, wall_s, round_p50_s,
peak_rss_mb); with ``--trace 1`` the run times the same rounds again under
the span tracer and reports the per-layer metrics and trace.overhead_s.
The line before it describes the machine and the run.  See README.md.
"""

import os
import sys

# One BLAS/OpenMP thread, fixed before numpy loads: the single-threaded
# baseline, and the setting under which repeated runs agree.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

# A fixed string-hash seed, which only takes effect at interpreter start:
# with a random one, the peak memory of smeared-marginals is 397 MB or
# 430 MB from one identical run to the next, decided by the hash seed alone.
if os.environ.get("PYTHONHASHSEED") != "0":
    os.environ["PYTHONHASHSEED"] = "0"
    os.execv(sys.executable, [sys.executable, *sys.argv])

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
# The scipy modules quadsuite loads are the harness's imports too: loading
# their compiled code took 0.4-0.6 s with a spread of a third between
# identical processes, and would swamp the set-up that quadsuite adds.
import scipy.linalg  # noqa: E402, F401
import scipy.ndimage  # noqa: E402, F401
import scipy.special  # noqa: E402, F401

import tracing  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

# Fresh processes that repeat the set-up only; with the run's own set-up
# they give the nine samples whose median is setup_s.
SETUP_REPEATS = 8


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.BUILDERS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="time the set-up, print it as JSON and stop")
    return parser.parse_args(argv)


def _set_up(args):
    """Import quadsuite, build the workload's inputs and warm every op kind up."""
    sys.path.insert(0, str(SRC))
    started = time.perf_counter()
    rounds = workloads.rounds_for(args.workload, args.seconds)
    workload = workloads.BUILDERS[args.workload](args.seed, OUT)
    for warm in workload.warmups:
        warm()
    setup_s = time.perf_counter() - started
    import quadsuite

    if Path(quadsuite.__file__).resolve().parent.parent != SRC:
        raise RuntimeError(f"quadsuite was imported from {quadsuite.__file__}, not from {SRC}")
    return workload, rounds, setup_s


def _timed_rounds(workload, rounds):
    """Run the rounds; return (outputs per round, seconds per round, wall seconds)."""
    outputs, times = [], []
    started = time.perf_counter()
    for r in range(rounds):
        t0 = time.perf_counter()
        outs = {}
        for op in workload.ops:
            try:
                outs[op.name] = op.run(r)
            except Exception as exc:  # an op that raises counts as failed; the run goes on
                outs[op.name] = exc
        times.append(time.perf_counter() - t0)
        outputs.append(outs)
    return outputs, times, time.perf_counter() - started


def _check(workload, outputs):
    """Hold every output to its check; return (failed, correct)."""
    failed, correct, reported = 0, True, set()
    for outs in outputs:
        for op in workload.ops:
            out = outs[op.name]
            if isinstance(out, Exception):
                failed += 1
                reason = "".join(traceback.format_exception_only(type(out), out)).strip()
            else:
                try:
                    reason = op.check(out, outs)
                except Exception as exc:  # an output the check cannot read fails it
                    reason = f"check raised {exc!r}"
                if reason:
                    failed += 1
                    correct = False
            if reason and op.name not in reported:
                reported.add(op.name)
                print(f"{op.name}: {reason}", file=sys.stderr)
    return failed, correct


def _repeat_setups(args) -> list[float]:
    command = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--setup-only"]
    samples = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=120)
        if done.returncode != 0:
            raise RuntimeError(f"set-up repeat failed:\n{done.stderr}")
        samples.append(json.loads(done.stdout.strip().splitlines()[-1])["setup_s"])
    return samples


def _machine() -> dict:
    config = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": os.cpu_count(), "numpy": np.__version__, "scipy": scipy.__version__,
            "blas": f"{config.get('name')} {config.get('version')}",
            "blas_threads": os.environ["OPENBLAS_NUM_THREADS"]}


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "quadsuite" / "__init__.py").is_file():
        print(f"run.py: no quadsuite sources under {SRC}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    workload, rounds, setup_s = _set_up(args)
    try:
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        outputs, times, wall_s = _timed_rounds(workload, rounds)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        failed, correct = _check(workload, outputs)
        del outputs
        attempted = rounds * len(workload.ops)
        if args.trace:
            # The first pass also paid for first-touch memory, so the traced
            # pass is compared with a third, untraced pass made after it.
            tracer = tracing.Tracer()
            tracer.install()
            try:
                _, _, traced_wall_s = _timed_rounds(workload, rounds)
            finally:
                tracer.uninstall()
            _, _, warm_wall_s = _timed_rounds(workload, rounds)
            tracer.write(OUT / f"spans-{args.workload}-seed{args.seed}.json")
            metrics = tracing.layer_metrics(tracer.spans)
            metrics["trace.overhead_s"] = {"value": traced_wall_s - warm_wall_s, "unit": "s"}
        else:
            setups = [setup_s] + _repeat_setups(args)
            metrics = {
                "setup_s": {"value": statistics.median(setups), "unit": "s"},
                "wall_s": {"value": wall_s, "unit": "s"},
                "round_p50_s": {"value": statistics.median(times), "unit": "s"},
                "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
            }
    finally:
        workload.cleanup()
    print(json.dumps({"machine": _machine(), "workload": args.workload, "seed": args.seed,
                      "rounds": rounds, "ops_per_round": len(workload.ops),
                      "round_s": times}))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
