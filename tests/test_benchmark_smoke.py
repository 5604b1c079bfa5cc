"""Smoke test of the benchmark: each workload runs one traced second.

The traced pass wraps ``engine.step``, ``engine.observe``,
``Placement.apply_moves``, ``Placement.occupancy_vector`` and
``Engine.snapshot_key``, and the workloads call ``evaluate_many`` with
validation and invariants on, so a change that renames or drops one of
them fails here as well as in the benchmark.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("workload", ["search-647", "sweep-k", "ring-large"])
def test_benchmark_workload_runs_correctly(workload):
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "1", "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr[-2000:]
    last = json.loads(done.stdout.splitlines()[-1])
    assert last["correct"] is True, done.stdout[-2000:]
