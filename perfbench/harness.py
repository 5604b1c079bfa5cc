"""Measurement loop, correctness gate and result lines of the benchmark.

An untraced run times the set-up ``SETUP_REPEATS`` times, then repeats the
workload's unit until the time box is spent and reports medians over the
units.  A traced run repeats an untraced and a traced pass of the same
unit and reports the traced pass's per-layer numbers.  Both print the
simulated statistics and provenance on one line and the result object on
the last line.

Every reported time is scaled to a reference host speed.  The benchmark
runs on shared 2-core machines whose speed drifts by a third within
minutes, in stretches longer than a run, so medians of raw wall time
differ by 15-25% between runs of the same input.  A fixed loop (the
probe) therefore runs every ``PROBE_EVERY_S`` of wall time while a unit
runs, and the unit's wall time, minus the probes, is multiplied by the
mean of ``PROBE_REF_S`` over each probe time, the host's mean speed
relative to the reference.  The raw host times are printed on the
statistics line.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy

from tracing import Tracer
from workloads import RingLarge, Search647, SweepK, UnitResult

SETUP_REPEATS = 3
PROBE_REF_S = 0.003   # probe time at the reference speed
PROBE_EVERY_S = 0.05  # wall time between two probes
IMPORT_SNIPPET = (
    "import time; t = time.process_time(); "
    "import ringdisperse, ringdisperse.cli, ringdisperse.sweep, ringdisperse.verify; "
    "print(time.process_time() - t)"
)

END_TO_END_UNITS = {
    "setup_s": "s",
    "runs_per_s": "1/s",
    "us_per_robot_round": "us",
    "peak_rss_mb": "MB",
    "dispersed_share": "share",
    "error_share": "share",
    "unexplained_share": "share",
}
# error_share is 0 in every correct run and unexplained_share should reach
# 0 (ROADMAP item 2), so neither can carry a bound relative to the
# parent's median; both are printed on the statistics line only
ZERO_TARGET_METRICS = ("error_share", "unexplained_share")

LAYER_UNITS = {
    "engine.budget_round_share": "share",
    "verify.minimize_scenario.runs_per_finding": "runs/finding",
    "verify.evaluate_many.speedup_2w": "ratio",
    "cli.trace_bytes": "bytes",
    "trace.overhead_share": "share",
}


def run_benchmark(name: str, seed: int, seconds: float, trace: bool, root: Path) -> int:
    """Run one workload, print the two result lines, return the exit code."""
    workdir = root / ".perfbench-work"
    workload = {
        "search-647": Search647,
        "sweep-k": SweepK,
        "ring-large": lambda: RingLarge(workdir),
    }[name]()
    nproc = len(os.sched_getaffinity(0))
    workers = min(2, nproc) if workload.uses_workers else 1
    try:
        measure = _traced if trace else _untraced
        metrics, stats, units = measure(workload, seed, seconds, workers, root)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(unit.runs for unit in units)
    failed = sum(unit.failed for unit in units)
    problems = [problem for unit in units for problem in unit.problems]
    digests = sorted({unit.digest for unit in units})
    if len(digests) != 1:
        failed += 1
        problems.append("simulated outputs differ between passes")
    first = units[0]
    stats.update({
        "workload": name,
        "workers": workers,
        "units": len(units),
        "tallies": {rs: dict(sorted(c.items())) for rs, c in first.tallies.items()},
        "robot_rounds": first.robot_rounds,
        "digests": digests,
        "problems": problems[:10],
        "provenance": _provenance(seed, nproc, root),
    })
    print(json.dumps({"stats": stats}, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": max(attempted, 1),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if failed == 0 else 1


def _probe_loop() -> int:
    """Tuple building and dict updates, the simulator's staple operations.

    Of the loops tried (integer arithmetic, tuple-keyed dict updates,
    list building, strided reads of a large list), this one tracked the
    sweep unit's slowdowns most closely.  Collection is off so that the
    probe never runs a collection the package would otherwise pay for.
    """
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        counts: dict = {}
        for i in range(16_000):
            key = (i % 97, i & 15)
            counts[key] = counts.get(key, 0) + 1
        return len(counts)
    finally:
        if gc_was_enabled:
            gc.enable()


class SpeedProbe:
    """Samples the host's speed while a measurement runs.

    Inside the ``with`` block an interval timer raises SIGALRM every
    ``PROBE_EVERY_S``; the handler runs the probe loop in the main thread,
    between two bytecodes of whatever is running.  Child processes do not
    inherit the timer.
    """

    def __enter__(self) -> "SpeedProbe":
        self.times: list[float] = []
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def _sample(self, *_) -> None:
        # CPU time, so that time slices lost to this run's own pool workers
        # neither count as a slower host nor as unit time
        start = time.thread_time()
        _probe_loop()
        self.times.append(time.thread_time() - start)

    def timed(self, fn, *args):
        """(host seconds without the probes, result) of one call."""
        before = sum(self.times)
        elapsed, result = _timed(fn, *args)
        return elapsed - (sum(self.times) - before), result

    def scale(self) -> float:
        """Mean host speed over the reference speed while the probe ran.

        Host seconds times this factor are reference-speed seconds.
        """
        if not self.times:
            self._sample()
        return statistics.fmean(PROBE_REF_S / t for t in self.times)


def _timed(fn, *args):
    start = time.perf_counter()
    result = fn(*args)
    return time.perf_counter() - start, result


def _run_unit(workload, inputs, workers):
    """(scaled seconds, host seconds, UnitResult) of one unit.

    A crash is a failed unit with no time.
    """
    try:
        with SpeedProbe() as probe:
            host, unit = probe.timed(workload.unit, inputs, workers)
    except Exception:  # noqa: BLE001 - any crash counts as a failed operation
        traceback.print_exc(file=sys.stderr)
        crashed = UnitResult(runs=1)
        crashed.fail(traceback.format_exc().strip().splitlines()[-1])
        return 0.0, 0.0, crashed
    return host * probe.scale(), host, unit


def _untraced(workload, seed, seconds, workers, root):
    import_times, generate_times = [], []
    with SpeedProbe() as probe:
        for _ in range(SETUP_REPEATS):
            import_times.append(_import_seconds(root))
        for _ in range(SETUP_REPEATS):
            elapsed, inputs = probe.timed(workload.generate, seed)
            generate_times.append(elapsed)
    setup_host = statistics.median(import_times) + statistics.median(generate_times)

    walls, host_walls, units = [], [], []
    started = time.perf_counter()
    while True:
        wall, host, unit = _run_unit(workload, inputs, workers)
        walls.append(wall)
        host_walls.append(host)
        units.append(unit)
        if unit.failed or time.perf_counter() - started >= seconds:
            break

    timed_units = [(wall, unit) for wall, unit in zip(walls, units) if unit.robot_rounds]
    first = units[0]
    values = {
        "setup_s": setup_host * probe.scale(),
        "runs_per_s": _median(unit.runs / wall for wall, unit in timed_units),
        "us_per_robot_round": _median(
            wall * 1e6 / unit.robot_rounds for wall, unit in timed_units),
        "peak_rss_mb": _peak_rss_mb(),
        "dispersed_share": first.repaired_dispersed / max(first.repaired_runs, 1),
        "error_share": sum(u.failed for u in units) / max(sum(u.runs for u in units), 1),
        "unexplained_share": first.repaired_unexplained / max(first.repaired_runs, 1),
    }
    end_to_end = {name: {"value": values[name], "unit": unit}
                  for name, unit in END_TO_END_UNITS.items()}
    metrics = {name: value for name, value in end_to_end.items()
               if name not in ZERO_TARGET_METRICS}
    stats = {"end_to_end": end_to_end, "unit_scaled_s": walls, "unit_host_s": host_walls,
             "setup_host_s": setup_host, "import_host_s": import_times,
             "generate_host_s": generate_times}
    return metrics, stats, units


def _traced(workload, seed, seconds, workers, root):
    _, inputs = _timed(workload.generate, seed)
    units, passes = [], []
    started = time.perf_counter()
    while True:
        wall_2w = None
        if workload.uses_workers:
            wall_2w, _, unit = _run_unit(workload, inputs, workers)
            units.append(unit)
        # spans are recorded in this process, so the compared passes use one worker
        wall_1w, _, unit = _run_unit(workload, inputs, 1)
        units.append(unit)
        tracer = Tracer()
        with tracer.installed():
            _, traced_inputs = _timed(workload.generate, seed)
            wall_traced, host_traced, traced = _run_unit(workload, traced_inputs, 1)
        units.append(traced)
        layers = tracer.layer_metrics()
        scale = wall_traced / host_traced if host_traced else 1.0
        for name in layers:
            if name.endswith(".self_s"):
                layers[name] *= scale
        layers["verify.evaluate_many.speedup_2w"] = wall_1w / wall_2w if wall_2w else 0.0
        layers["cli.trace_bytes"] = traced.trace_bytes
        layers["trace.overhead_share"] = wall_traced / wall_1w - 1 if wall_1w else 0.0
        passes.append(layers)
        if any(u.failed for u in units) or time.perf_counter() - started >= seconds:
            break

    metrics = {}
    for name in passes[0]:
        unit = "s" if name.endswith(".self_s") else LAYER_UNITS.get(name, "count")
        metrics[name] = {"value": statistics.median(p[name] for p in passes), "unit": unit}
    stats = {"traced_passes": len(passes)}
    return metrics, stats, units


def _median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def _import_seconds(root: Path) -> float:
    """CPU time of importing the package in a fresh interpreter."""
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", IMPORT_SNIPPET], env=env, cwd=root,
                          capture_output=True, text=True, timeout=120, check=True)
    return float(done.stdout.split()[-1])


def _peak_rss_mb() -> float:
    """Peak RSS of this process plus that of its largest finished child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024


def _provenance(seed: int, nproc: int, root: Path) -> dict:
    """The keys that make results from different commits comparable."""
    commit = None
    if (root / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                                    capture_output=True, text=True, timeout=30,
                                    check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            commit = None
    source = hashlib.sha256()
    for path in sorted((root / "src" / "ringdisperse").glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "seed": seed,
        "nproc": nproc,
        "commit": commit,
        "source_sha256": source.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }
