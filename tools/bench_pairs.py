"""Run the benchmark on two commits in alternating pairs and write BENCH_<pr>.json.

Run from the repository root:

    python3 tools/bench_pairs.py --parent HEAD~1 --change HEAD --pr 22 --seeds 21-30

Both commits are exported with ``git archive`` into a temporary directory,
so each side runs ``perfbench/run.py`` from the committed files only, and
nothing in the working tree is read or written apart from the output
file.  For every workload and seed the two sides run one after the other
with ``--trace 0``, the parent first on odd seeds and the change first on
even ones.  Then one ``--trace 1`` pair per workload, on ``--layer-seed``,
gives the per-layer numbers.  The output has the keys of the earlier
``BENCH_<pr>.json`` files: per workload and end-to-end metric each side's
median, inclusive quartiles and runs, the pairs the change wins (ties count
for neither) and the change over the parent; and whether the digests,
tallies and robot-rounds of the two sides are equal on every seed.  Next
to the metrics, ``unit_host_s`` summarizes each run's median unit time on
this host, unscaled by the probe, in the same way: the probe runs in the
benchmark process, so a change that moves work into or out of that
process's share of the cores changes what the probe samples, and the
host time shows whether a gain holds without the scaling.  The
file is rewritten after each workload, so an interrupted run keeps what it
finished.  A progress line per run goes to standard error.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COMMAND = "python3 perfbench/run.py --workload W --seed S --seconds {seconds} --trace {trace}"


def parse_seeds(text: str) -> list[int]:
    """``"21-30"`` or ``"1,3,5"`` as a list of seeds."""
    seeds: list[int] = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds.extend(range(int(low), int(high or low) + 1))
    if not seeds:
        raise argparse.ArgumentTypeError(f"no seeds in {text!r}")
    return seeds


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="git revision of the parent")
    parser.add_argument("--change", required=True, help="git revision of the change")
    parser.add_argument("--pr", type=int, required=True, help="number in the output name")
    parser.add_argument("--seeds", type=parse_seeds, required=True,
                        help="seeds of the --trace 0 pairs, as 21-30 or 1,3,5")
    parser.add_argument("--workloads", nargs="+",
                        help="workloads to run (default: every one in BENCHMARK.json)")
    parser.add_argument("--seconds", type=float,
                        help="time box of each run (default: BENCHMARK.json's run_seconds)")
    parser.add_argument("--layer-seed", type=int, default=1,
                        help="seed of the --trace 1 pair of each workload")
    return parser.parse_args(argv)


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True,
                          check=True).stdout.strip()


def export(commit: str, into: Path) -> Path:
    """The committed files of ``commit``, unpacked under ``into``."""
    archive = into.with_suffix(".tar")
    git("archive", "--format=tar", f"--output={archive}", commit)
    with tarfile.open(archive) as tar:
        tar.extractall(into, filter="data")
    archive.unlink()
    return into


def run_once(tree: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One benchmark process: its exit code and its two result lines."""
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=tree, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    try:
        stats, result = json.loads(lines[-2])["stats"], json.loads(lines[-1])
    except (IndexError, ValueError, KeyError):
        sys.stderr.write(done.stderr)
        raise SystemExit(f"{tree.name} {workload} seed {seed}: no result lines "
                         f"(exit {done.returncode})") from None
    host = stats.get("unit_host_s")  # --trace 1 runs have none
    return {
        "exit": done.returncode,
        "unit_host_s": statistics.median(host) if host else None,
        "correct": result["correct"] and result["failed"] == 0 and done.returncode == 0,
        "metrics": {name: entry["value"] for name, entry in result["metrics"].items()},
        "simulated": (stats["digests"], stats["tallies"], stats["robot_rounds"]),
    }


def run_pair(trees: dict, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """Both sides on one seed, the parent first on odd seeds."""
    order = ("parent", "change") if seed % 2 else ("change", "parent")
    runs = {}
    for side in order:
        runs[side] = run_once(trees[side], workload, seed, seconds, trace)
        print(f"{workload} seed {seed} trace {trace} {side}: exit {runs[side]['exit']}",
              file=sys.stderr, flush=True)
    return runs


def summary(parent: list[float], change: list[float], better: str) -> dict:
    def quartiles(values):
        if len(values) < 2:
            return [round(values[0], 4)] * 2
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
        return [round(q1, 4), round(q3, 4)]

    sign = 1 if better == "higher" else -1
    parent_median, change_median = statistics.median(parent), statistics.median(change)
    return {
        "better": better,
        "parent_median": round(parent_median, 4),
        "change_median": round(change_median, 4),
        "parent_quartiles": quartiles(parent),
        "change_quartiles": quartiles(change),
        "change_wins": sum(sign * (c - p) > 0 for p, c in zip(parent, change)),
        "change_vs_parent": round(change_median / parent_median - 1, 4) if parent_median else 0.0,
        "parent_runs": [round(v, 4) for v in parent],
        "change_runs": [round(v, 4) for v in change],
    }


def describe(result: dict) -> str:
    parts = []
    for workload, entry in result["end_to_end"].items():
        rate = entry["metrics"].get("runs_per_s")
        host = entry["unit_host_s"]
        if rate:
            parts.append(f"{workload} runs_per_s {rate['parent_median']} -> "
                         f"{rate['change_median']} ({rate['change_vs_parent']:+.1%}, the change "
                         f"faster in {rate['change_wins']} of {entry['pairs']} pairs; the "
                         f"parent's interquartile range is "
                         f"{rate['parent_quartiles'][1] - rate['parent_quartiles'][0]:.1f}), "
                         f"unscaled unit host time {host['parent_median']} -> "
                         f"{host['change_median']} s ({host['change_vs_parent']:+.1%}, the change "
                         f"faster in {host['change_wins']} of {entry['pairs']})")
    return ("Medians and inclusive quartiles of alternating parent/change pairs, both sides "
            "run from git archive exports of their commits. " + "; ".join(parts) + ".")


def main(argv=None) -> int:
    args = parse_args(argv)
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = args.workloads or [w["name"] for w in benchmark["workloads"]]
    seconds = args.seconds or benchmark["run_seconds"]
    metrics = [(m["name"], m["better"]) for m in benchmark["end_to_end"]]
    commits = {"parent": git("rev-parse", args.parent), "change": git("rev-parse", args.change)}
    nproc = len(os.sched_getaffinity(0))
    memory_gb = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") / 2**30
    result = {
        "description": "",
        "parent_commit": commits["parent"],
        "change_commit": commits["change"],
        "nproc": nproc,
        "host": f"{nproc} cores, {memory_gb:.0f} GB RAM; timings scaled to the reference "
                f"host speed by the benchmark's probe",
        "command": COMMAND.format(seconds=f"{seconds:g}", trace=0),
        "end_to_end": {},
        "per_layer": {},
    }
    out = ROOT / f"BENCH_{args.pr}.json"
    work = Path(tempfile.mkdtemp(prefix="bench-pairs-"))
    try:
        trees = {side: export(commit, work / side) for side, commit in commits.items()}
        for workload in workloads:
            pairs = [run_pair(trees, workload, seed, seconds, 0) for seed in args.seeds]
            result["end_to_end"][workload] = {
                "seeds": args.seeds,
                "pairs": len(pairs),
                "seconds": seconds,
                "trace": 0,
                "digests_equal": all(p["parent"]["simulated"] == p["change"]["simulated"]
                                     for p in pairs),
                "all_correct": all(p[side]["correct"] for p in pairs for side in p),
                "metrics": {
                    name: summary([p["parent"]["metrics"][name] for p in pairs],
                                  [p["change"]["metrics"][name] for p in pairs], better)
                    for name, better in metrics
                },
                "unit_host_s": summary([p["parent"]["unit_host_s"] for p in pairs],
                                       [p["change"]["unit_host_s"] for p in pairs], "lower"),
            }
            layers = run_pair(trees, workload, args.layer_seed, seconds, 1)
            result["per_layer"][workload] = {
                "seed": args.layer_seed,
                "seconds": seconds,
                "digests_equal": layers["parent"]["simulated"] == layers["change"]["simulated"],
                "parent": layers["parent"]["metrics"],
                "change": layers["change"]["metrics"],
            }
            result["description"] = describe(result)
            out.write_text(json.dumps(result, indent=2) + "\n")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
