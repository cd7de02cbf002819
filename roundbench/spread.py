"""Run one workload over several seeds and report each metric's spread.

Usage, from the root of a checkout::

    python3 roundbench/spread.py --workload star-10k --seeds 101-110 --seconds 10

Each run is a fresh ``roundbench/run.py`` process.  For every metric the
script prints the median of the runs and the spread: the distance between
the first and third quartile (``statistics.quantiles(values, n=4)``) as a
share of the median, next to the metric's bound from ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seeds_of(text: str) -> list[int]:
    if "-" in text:
        low, high = (int(part) for part in text.split("-"))
        return list(range(low, high + 1))
    return [int(part) for part in text.split(",")]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", required=True, help="e.g. 1-10 or 3,5,8")
    parser.add_argument("--seconds", type=float, required=True)
    args = parser.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    values: dict[str, list[float]] = {}
    for seed in seeds_of(args.seeds):
        start = time.perf_counter()
        completed = subprocess.run(
            [sys.executable, str(ROOT / "roundbench" / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, check=False,
        )
        if completed.returncode != 0:
            print(completed.stderr, file=sys.stderr)
            return completed.returncode
        result = json.loads(completed.stdout.strip().splitlines()[-1])
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']} took={time.perf_counter() - start:.1f}s", flush=True)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
    print(f"{'metric':42s} {'median':>14s} {'spread':>8s} {'bound':>6s}")
    for name, series in values.items():
        median = statistics.median(series)
        q1, _q2, q3 = statistics.quantiles(series, n=4)
        spread = (q3 - q1) / median if median else float("nan")
        bound = bounds.get(name)
        print(f"{name:42s} {median:14.6f} {spread:8.4f} "
              f"{'' if bound is None else bound:>6}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
