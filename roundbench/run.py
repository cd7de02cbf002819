"""Run one workload of the round benchmark and print its metrics.

Usage, from the root of a checkout::

    python3 roundbench/run.py --workload star-10k --seed 1 --seconds 10 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.  The
full record (environment, per-operation timings and digests, detail that is
not a gated metric) is written to ``roundbench/out/``, and a traced run also
writes its spans there as JSON lines.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"


def _parse(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = _parse(sys.argv[1:] if argv is None else argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"roundbench: no program sources under {ROOT / 'src'}; run it from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    # Scratch files of the program (TCP worker logs) stay inside the checkout.
    scratch = OUT_DIR / "tmp"
    scratch.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(scratch)
    tempfile.tempdir = str(scratch)

    from roundbench.runner import run
    from roundbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"roundbench: unknown workload {args.workload!r}; "
              f"expected one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    record = run(args.workload, args.seed, args.seconds, bool(args.trace), out_dir=OUT_DIR)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT_DIR / name).write_text(json.dumps(record, indent=1, default=str) + "\n")

    print(f"{args.workload} seed={args.seed} trace={args.trace} "
          f"attempted={record['attempted']} failed={record['failed']}")
    for line in record["detail"].pop("layer_table", []):
        print(line)
    for key, (value, unit) in record["metrics"].items():
        print(f"  {key:42s} {value:16.6f} {unit}")
    for key, value in record["detail"].items():
        print(f"  {key:42s} {value}")
    for note in record["notes"]:
        print(f"  note: {note}", file=sys.stderr)
    result = {
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in record["metrics"].items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
