"""ringdisperse benchmark: one workload per process, seeded, time-boxed.

Run from the repository root:

    python3 perfbench/run.py --workload search-647 --seed 1 --seconds 20 --trace 0

With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics; with ``--trace 1`` it carries the per-layer
metrics of a traced pass.  The line before it holds the simulated
statistics, the digest and the provenance of the result.  The exit code
is 1 when any output fails its correctness check and 2 when the package
source is missing.  See perfbench/README.md for the workloads.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

WORKLOADS = ("search-647", "sweep-k", "ring-large")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "ringdisperse" / "__init__.py").is_file():
        print(f"error: package source not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from harness import run_benchmark

    return run_benchmark(args.workload, args.seed, args.seconds, bool(args.trace), ROOT)


if __name__ == "__main__":
    sys.exit(main())
