"""Hash the outputs a refactor must keep byte for byte, at two commits, and compare them.

Run from the repository root:

    python3 tools/output_digests.py --parent HEAD~1 --change HEAD

Both commits are exported with ``git archive`` (``bench_pairs.export``), and
each side computes its digests in a fresh interpreter from its own
``src``.  The outputs, each under both rulesets:

- the rendered ``exhaustive_search`` report of the (n <= 6, k <= 4, L = 7)
  space, minimized failures included, on two workers, and of the
  (n <= 5, k <= 3, L = 7) space on one worker, the serial path of the fold
- every ``ScenarioOutcome`` of the (6,4,7) space from ``evaluate_many``,
  with checks and without
- the minimized scenarios of that space as the search-647 benchmark loop
  makes them: each failure minimized with ``minimize_scenario`` in the
  calling process while the iteration over ``evaluate_many`` is still
  open, so the pool judges later chunks meanwhile
- every ``ScenarioOutcome``, with checks, of the scenarios on the k axis
  of acceptance criterion 4 (``gen_single_source(26, k, 1023, seed)``,
  k = 2..24, seeds 0..19), whose larger groups reach the wait, jump and
  passive rules that k <= 4 hardly does
- the unrecorded ``engine.run`` outcome, as (result, rounds used, phases
  used, livelock cycle, final placement), of every scenario of the
  (6,4,7) space and of that k axis: the path ``sweep`` and minimization's
  reproduce runs take, and the only output that holds ``RunOutcome.cycle``
- the ``write_trace`` bytes, plain and ``--verbose``, of the chain of
  acceptance criterion 8 (ring 7, robots 1@0 2@0 3@1 4@1) and of
  ``gen_single_source(10**4, 8, 1023, seed=7)``
- the ``validate_trace`` lists and the ``check_invariants`` lists of those
  two runs, clean and with each of a fixed set of tampers (a move target,
  an observation bit, an occupancy cell, a dropped record, a phase number
  and a forged move), one record rewritten per tamper
- ``read_trace`` of their ``--verbose`` files and what ``verify_trace_file``
  makes of it
- ``pickle.dumps`` of the ruleset member, which a pool task carries

and ``rows_to_csv`` of the k axis of acceptance criterion 4 (n = 26,
L = 1023, k = 2..24, 20 seeds, repaired).  One line per output gives its
sha256 on each side; the exit status is 1 if any output differs.  The
pools use two workers, and a side takes a few minutes on two cores.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

from bench_pairs import export, git

# run in each exported tree; prints {output name: sha256} as one JSON line
DIGESTS = r'''
import dataclasses, hashlib, json, os, pickle, tempfile
from ringdisperse.cli import read_trace, verify_trace_file, write_trace
from ringdisperse.engine import run
from ringdisperse.perception import Observation
from ringdisperse.protocol import Ruleset
from ringdisperse.scenario import gen_single_source, make_scenario
from ringdisperse.sweep import SweepSpec, rows_to_csv, run_sweep
from ringdisperse.verify import (check_invariants, enumerate_scenarios, evaluate_many,
                                 exhaustive_search, minimize_scenario, validate_trace)

def sha(data):
    return hashlib.sha256(data if isinstance(data, bytes) else data.encode()).hexdigest()

def tampers(scenario, records):
    """(name, records) for the clean records and for each fixed tamper, one
    record rewritten as a copy; observation dicts are shared, so copied."""
    yield "clean", records
    n, label = scenario.n, min(scenario.labels())
    def rewrite(index, **fields):
        tampered = list(records)
        tampered[index] = dataclasses.replace(records[index], **fields)
        return tampered
    moved = next(i for i, r in enumerate(records) if r.moves)
    mover, frm, to, port = records[moved].moves[0]
    yield "move-target", rewrite(moved, moves=((mover, frm, (to + 1) % n, port),)
                                 + records[moved].moves[1:])
    seen = records[0].observations[label]
    yield "observation-bit", rewrite(0, observations={
        **records[0].observations, label: Observation(not seen.alone, *seen[1:])})
    middle = len(records) // 2
    (node, count), *rest = records[middle].occupancy
    yield "occupancy-cell", rewrite(middle, occupancy=((node, count + 1), *rest))
    yield "dropped-record", records[:len(records) // 3] + records[len(records) // 3 + 1:]
    yield "phase-number", rewrite(3, phase=99)
    forged = 19 + 6  # round 7 of phase 2
    at = dict(scenario.robots)[label]
    for record in records[:forged]:
        at = next((to for who, _, to, _ in record.moves if who == label), at)
    yield "forged-move", rewrite(forged, moves=tuple(sorted(
        records[forged].moves + ((label, at, (at + 1) % n, 1),))))

space = list(enumerate_scenarios(6, 4, 7))
k_axis = [gen_single_source(26, k, 2**10 - 1, seed) for k in range(2, 25) for seed in range(20)]
traced = {
    "chain": make_scenario(7, 7, [(1, 0), (2, 0), (3, 1), (4, 1)]),
    "ring-10^4": gen_single_source(10**4, 8, 1023, seed=7),
}
digests = {}
with tempfile.TemporaryDirectory() as tmp:
    path = os.path.join(tmp, "trace.jsonl")
    for ruleset in Ruleset:
        name = ruleset.value
        digests[f"search-647-{name}"] = sha(exhaustive_search(6, 4, 7, ruleset, workers=2).render())
        digests[f"search-537-serial-{name}"] = sha(
            exhaustive_search(5, 3, 7, ruleset, workers=1).render())
        digests[f"pickle-{name}"] = sha(pickle.dumps(ruleset))
        for checked in (True, False):
            outcomes = list(evaluate_many(space, ruleset, validate=checked, invariants=checked,
                                          workers=2))
            kind = "checked" if checked else "unchecked"
            digests[f"outcomes-647-{kind}-{name}"] = sha(repr(outcomes))
        minimized = [minimize_scenario(outcome.scenario, ruleset, outcome.result)
                     for outcome in evaluate_many(space, ruleset, workers=2) if not outcome.ok]
        digests[f"minimized-647-streamed-{name}"] = sha(repr(minimized))
        digests[f"outcomes-k-axis-checked-{name}"] = sha(repr(list(evaluate_many(
            k_axis, ruleset, workers=2))))
        digests[f"unrecorded-runs-647-and-k-axis-{name}"] = sha(repr([
            (outcome.result, outcome.rounds_used, outcome.phases_used, outcome.cycle,
             outcome.final_placement)
            for outcome in (run(scenario, ruleset, record_rounds=False)
                            for scenario in space + k_axis)]))
        replay, lemmas, files = [], [], []
        for label, scenario in traced.items():
            outcome = run(scenario, ruleset)
            for verbose in (False, True):
                write_trace(outcome, path, verbose=verbose)
                with open(path, "rb") as fh:
                    form = "verbose" if verbose else "plain"
                    digests[f"trace-{label}-{form}-{name}"] = sha(fh.read())
            header, records = read_trace(path)  # the verbose file
            files.append((label, header, records, verify_trace_file(header, records, scenario)))
            for tamper, records in tampers(scenario, outcome.trace.records):
                trace = dataclasses.replace(outcome.trace, records=records)
                replay.append((label, tamper, validate_trace(trace, scenario)))
                lemmas.append((label, tamper, check_invariants(trace)))
        digests[f"validate-trace-traced-{name}"] = sha(repr(replay))
        digests[f"check-invariants-traced-{name}"] = sha(repr(lemmas))
        digests[f"verify-trace-file-traced-{name}"] = sha(repr(files))
spec = SweepSpec(vary="k", points=tuple(range(2, 25)), n=26, k=0, max_label=2**10 - 1,
                 seeds=20, ruleset=Ruleset.REPAIRED)
digests["sweep-k-axis-repaired"] = sha(rows_to_csv(run_sweep(spec, workers=2)))
print(json.dumps(digests))
'''


def digests(tree: Path) -> dict[str, str]:
    """The output digests of the exported tree at ``tree``."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    done = subprocess.run([sys.executable, "-c", DIGESTS], cwd=tree, env=env,
                          capture_output=True, text=True)
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise SystemExit(f"{tree.name}: digest run failed (exit {done.returncode})")
    return json.loads(done.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="git revision of the parent")
    parser.add_argument("--change", required=True, help="git revision of the change")
    args = parser.parse_args(argv)
    commits = {"parent": git("rev-parse", args.parent), "change": git("rev-parse", args.change)}
    work = Path(tempfile.mkdtemp(prefix="output-digests-"))
    try:
        sides = {}
        for side, commit in commits.items():
            print(f"{side} {commit[:12]}: computing", file=sys.stderr, flush=True)
            sides[side] = digests(export(commit, work / side))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    parent, change = sides["parent"], sides["change"]
    differ = 0
    for name in sorted(parent.keys() | change.keys()):
        left, right = parent.get(name, "-"), change.get(name, "-")
        differ += left != right
        print(f"{name}: parent {left} change {right} "
              f"{'equal' if left == right else 'DIFFERENT'}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
