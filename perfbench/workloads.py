"""The three benchmark workloads.

Each workload has a seeded ``generate`` (the set-up: scenario generation
or enumeration and sampling) and a ``unit`` that judges the generated
scenarios once through the package's public calls and returns a
``UnitResult``.  A unit is deterministic: its digest must repeat exactly.
"""

from __future__ import annotations

import hashlib
import random
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

from ringdisperse import cli, engine, sweep, verify
from ringdisperse.protocol import Ruleset
from ringdisperse.scenario import gen_single_source

# search-647: the (n <= 6, k <= 4, L = 7) space of acceptance criterion 1
SEARCH_N_MAX, SEARCH_K_MAX, SEARCH_L_MAX = 6, 4, 7
# one scenario in SEARCH_STEP: 128 or 129, which evaluate_many splits into
# two full pool chunks of 64, one per worker
SEARCH_STEP = 224

# sweep-k: n = 26, L = 1023, one k from each pair of 2..24, three seeds each
SWEEP_N, SWEEP_L, SWEEP_SEEDS = 26, 1023, 3
SWEEP_K_STRATA = tuple((k, k + 1) if k < 24 else (k,) for k in range(2, 25, 2))

# ring-large: single source, k = 8, L = 1023 on 10^4 nodes, three label draws
RING_N, RING_K, RING_L, RING_SCENARIOS = 10_000, 8, 1023, 3


@dataclass
class UnitResult:
    """What one pass over a workload's scenarios produced."""

    runs: int = 0                  # scenario evaluations completed
    failed: int = 0                # evaluations with a correctness failure
    robot_rounds: int = 0          # simulated sum of k * rounds_used
    repaired_runs: int = 0
    repaired_dispersed: int = 0
    repaired_unexplained: int = 0  # not dispersed and no invariant finding
    tallies: dict = field(default_factory=dict)  # ruleset -> verdict -> count
    problems: list = field(default_factory=list)  # first few failure messages
    trace_bytes: int = 0
    _sha: object = field(default_factory=hashlib.sha256)

    @property
    def digest(self) -> str:
        return self._sha.hexdigest()

    def fold(self, value) -> None:
        """Fold a deterministic output into the digest."""
        self._sha.update(repr(value).encode())

    def record(self, ruleset: str, scenario, verdict: str, rounds, placement) -> None:
        """Count one judged scenario and fold it into the digest."""
        self.runs += 1
        self.tallies.setdefault(ruleset, Counter())[verdict] += 1
        self.fold((ruleset, scenario, verdict, rounds, placement))

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.problems) < 5:
            self.problems.append(message)


def _scenario_key(scenario) -> tuple:
    return (scenario.n, scenario.max_label, scenario.robots)


def _chain_shape(scenario) -> tuple:
    """Ring size and the group sizes along each initial chain."""
    counts = Counter(node for _, node in scenario.robots)
    chains = verify.initial_chains(scenario)
    return (scenario.n, tuple(sorted(tuple(counts[node] for node in chain) for chain in chains)))


class Search647:
    """Judge a seeded sample of the small space as ``search`` does."""

    name = "search-647"
    uses_workers = True

    def generate(self, seed: int) -> list:
        """Every scenario is drawn with probability 1/SEARCH_STEP.

        The space is grouped by ring size and initial chain shape, shuffled
        within each group, and sampled systematically, so each group is
        represented in proportion to its size.  Failures cluster by chain
        shape; without the grouping the dispersed share and the simulated
        work of a sample swing far more from seed to seed.
        """
        rng = random.Random(seed)
        space = list(verify.enumerate_scenarios(SEARCH_N_MAX, SEARCH_K_MAX, SEARCH_L_MAX))
        strata: dict[tuple, list] = {}
        for scenario in space:
            strata.setdefault(_chain_shape(scenario), []).append(scenario)
        ordered = []
        for key in sorted(strata):
            group = strata[key]
            rng.shuffle(group)
            ordered.extend(group)
        return ordered[rng.randrange(SEARCH_STEP)::SEARCH_STEP]

    def unit(self, scenarios: list, workers: int) -> UnitResult:
        out = UnitResult()
        for ruleset in (Ruleset.REPAIRED, Ruleset.LITERAL):
            outcomes = verify.evaluate_many(
                scenarios, ruleset, validate=True, invariants=True, workers=workers)
            for outcome in outcomes:
                verdict = outcome.result.value
                out.record(ruleset.value, _scenario_key(outcome.scenario), verdict,
                           outcome.rounds_used, outcome.final_positions)
                out.robot_rounds += outcome.scenario.k * outcome.rounds_used
                if ruleset is Ruleset.REPAIRED:
                    out.repaired_runs += 1
                    out.repaired_dispersed += outcome.ok
                    out.repaired_unexplained += not outcome.ok and not outcome.finding_kinds
                if outcome.validation_count:
                    out.fail(f"{ruleset.value} {outcome.scenario}: "
                             f"{outcome.validation_count} validate_trace violations")
                    continue
                if outcome.ok:
                    continue
                # minimize_scenario raises when its result fails to reproduce
                try:
                    minimized = verify.minimize_scenario(
                        outcome.scenario, ruleset, outcome.result)
                except AssertionError as exc:
                    out.fail(f"{ruleset.value} {outcome.scenario}: {exc}")
                    continue
                if minimized.k > outcome.scenario.k or minimized.n > outcome.scenario.n:
                    out.fail(f"{ruleset.value} {outcome.scenario}: minimization grew "
                             f"the scenario to {minimized}")
        return out


class SweepK:
    """Long unrecorded runs through ``run_sweep`` and the scaling fit."""

    name = "sweep-k"
    uses_workers = False

    def generate(self, seed: int):
        rng = random.Random(seed)
        points = tuple(rng.choice(stratum) for stratum in SWEEP_K_STRATA)
        return sweep.SweepSpec(vary="k", points=points, n=SWEEP_N, k=points[0],
                               max_label=SWEEP_L, seeds=SWEEP_SEEDS,
                               ruleset=Ruleset.REPAIRED)

    def unit(self, spec, workers: int) -> UnitResult:
        out = UnitResult()
        rows = sweep.run_sweep(spec, workers=1)
        for row in rows:
            # sweep rows carry no final placement; the row itself is hashed
            out.record(row.ruleset, (row.n, row.k, row.max_label, row.seed),
                       row.outcome, row.rounds, row.phases)
            out.robot_rounds += row.k * int(row.rounds)
            out.repaired_runs += 1
            out.repaired_dispersed += row.outcome == "dispersed"
            if row.outcome.startswith("error"):
                out.fail(f"sweep error row k={row.k} seed={row.seed}: {row.outcome}")
            elif row.outcome == "dispersed" and row.rounds < -(-(row.k - 1) // 2):
                out.fail(f"k={row.k} seed={row.seed} dispersed in {row.rounds} rounds, "
                         f"below the pigeonhole bound")
        expected = len(spec.points) * spec.seeds
        if len(rows) != expected:
            out.fail(f"run_sweep returned {len(rows)} rows, expected {expected}")
        fit = sweep.fit_rounds(rows)
        # rounded so that the digest does not depend on the last float bits
        out.fold(tuple(round(c, 6) for c in fit.coefficients))
        return out


class RingLarge:
    """Recorded runs on a large ring, verified in memory and from a file."""

    name = "ring-large"
    uses_workers = False

    def __init__(self, workdir: Path) -> None:
        self.workdir = workdir

    def generate(self, seed: int) -> list:
        rng = random.Random(seed)
        return [gen_single_source(RING_N, RING_K, RING_L, rng.randrange(2**32))
                for _ in range(RING_SCENARIOS)]

    def unit(self, scenarios: list, workers: int) -> UnitResult:
        out = UnitResult()
        self.workdir.mkdir(parents=True, exist_ok=True)
        path = self.workdir / "ring-large.trace"
        for scenario in scenarios:
            outcome = engine.run(scenario, Ruleset.REPAIRED)
            placement = tuple(sorted(outcome.final_placement.by_robot.items()))
            out.record(Ruleset.REPAIRED.value, _scenario_key(scenario),
                       outcome.result.value, outcome.rounds_used, placement)
            out.robot_rounds += scenario.k * outcome.rounds_used
            out.repaired_runs += 1
            out.repaired_dispersed += outcome.dispersed
            violations = verify.validate_trace(outcome.trace, scenario)
            findings = verify.check_invariants(outcome.trace)
            out.repaired_unexplained += not outcome.dispersed and not findings
            try:
                cli.write_trace(outcome, path, verbose=True)
                out.trace_bytes += path.stat().st_size
                header, rows = cli.read_trace(path)
            finally:
                path.unlink(missing_ok=True)
            del outcome
            file_problems = cli.verify_trace_file(header, rows, scenario)
            distinct = len({node for _, node in placement}) == scenario.k
            if violations or file_problems or not distinct:
                out.fail(f"{scenario}: {len(violations)} validate_trace violations, "
                         f"{len(file_problems)} verify_trace_file problems, "
                         f"final placement {'distinct' if distinct else 'not distinct'}")
        return out
