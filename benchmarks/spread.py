"""Run one workload once per seed and report each metric's median and spread.

    python3 benchmarks/spread.py --workload cli-readme --seeds 1-10 --seconds 10

The spread is the distance between the first and third quartiles
(``statistics.quantiles(values, n=4)``) as a share of the median, the
figure BENCHMARK.json's bounds are set against.  Runs go one after the
other; each result line is also appended to benchmarks/out/runs.jsonl.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def quartile_spread(values) -> tuple[float, float, float, float]:
    """(first quartile, median, third quartile, (q3 - q1) / median)."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return q1, median, q3, (q3 - q1) / median


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=_seeds, default=_seeds("1-10"), help="first-last")
    parser.add_argument("--seconds", default="10")
    args = parser.parse_args(argv)

    values: dict[str, list[float]] = {}
    shares = set()
    (HERE / "out").mkdir(exist_ok=True)
    for seed in args.seeds:
        done = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload, "--seed", str(seed),
             "--seconds", args.seconds, "--trace", "0"],
            cwd=HERE.parent, capture_output=True, text=True, timeout=900)
        if done.returncode != 0:
            print(done.stderr, file=sys.stderr)
            return 1
        result = json.loads(done.stdout.strip().splitlines()[-1])
        with open(HERE / "out" / "runs.jsonl", "a") as fh:
            fh.write(json.dumps({"workload": args.workload, "seed": seed, **result}) + "\n")
        shares.add((result["failed"], result["attempted"], result["correct"]))
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        print(seed, {k: round(v["value"], 4) for k, v in result["metrics"].items()}, flush=True)
    print(f"failed/attempted/correct over the runs: {sorted(shares)}")
    for name, vals in values.items():
        if len(vals) >= 2 and statistics.median(vals):
            q1, med, q3, spread = quartile_spread(vals)
            print(f"{name:45s} median {med:10.4f}  q1 {q1:10.4f}  q3 {q3:10.4f}  spread {spread:6.2%}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
