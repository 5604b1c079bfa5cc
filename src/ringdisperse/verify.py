"""Trace validation, lemma-derived invariant checks, and exhaustive search.

The invariant suite is scoped tightly to each lemma's premise so that a
reported violation points at a genuine protocol gap rather than an
over-broad assertion.  Violations found by the search are findings, not
crashes: the harness exists to surface them.
"""

from __future__ import annotations

import itertools
import math
import os
from dataclasses import dataclass, field
from multiprocessing import Pool

from .engine import ROUNDS_PER_PHASE, RunOutcome, RunResult, Trace, phase_budget, run  # noqa: F401
from .perception import observe
from .protocol import EFFECTIVE_PARTICIPATION, LEADER_ROUNDS
from .ring import PORT_ONE, PORT_ZERO, move_target, occupancy_cells, ring_distance, succ
from .robots import LEGAL_TRANSITIONS, Status, max_label_bits
from .scenario import Scenario, make_scenario

_POST_MERGE = {Status.ACTIVE_DISPERSE, Status.PASSIVE, Status.WAIT, Status.JUMP}
_ACTIVE_SIDE = {Status.ACTIVE_DISPERSE, Status.WAIT, Status.JUMP}

ENUMERATION_GUARD = 10**7


@dataclass
class Violation:
    kind: str
    phase: int | None = None
    global_round: int | None = None
    robots: tuple[int, ...] = ()
    nodes: tuple[int, ...] = ()
    detail: str = ""

    def __str__(self) -> str:
        where = f"phase {self.phase}" if self.phase is not None else ""
        if self.global_round is not None:
            where += f" round {self.global_round}"
        return f"[{self.kind}] {where.strip()}: {self.detail}"


def initial_chains(scenario: Scenario) -> list[list[int]]:
    """Maximal runs of consecutive occupied nodes, back node first.

    k < n guarantees at least one empty node, so every chain has a back
    node whose predecessor is empty.
    """
    n = scenario.n
    occ = {node for _, node in scenario.robots}
    chains = []
    for back in sorted(node for node in occ if (node - 1) % n not in occ):
        chain = [back]
        cur = back
        while succ(n, cur) in occ:
            cur = succ(n, cur)
            chain.append(cur)
        chains.append(chain)
    return chains


def chain_of_robots(scenario: Scenario) -> dict[int, int]:
    chains = initial_chains(scenario)
    node_to_chain = {node: idx for idx, chain in enumerate(chains) for node in chain}
    return {label: node_to_chain[node] for label, node in scenario.robots}


def replay_violations(records, scenario: Scenario) -> list[Violation]:
    """Replay an iterable of RoundRecords against the model.

    Checks the round counter (contiguous from round 0, matching phase and
    round-in-phase), move legality, the perception flags of each record
    whose ``observations`` is not None, and the post-round occupancy.  An
    illegal move is reported and not applied, so the replay stays on the
    ring.  The occupancy is compared as a sequence of ``occupancy_cells``,
    so a zero count, a repeated node or an unsorted cell is a mismatch.
    This is the only replay of moves in the package.
    """
    violations: list[Violation] = []
    n = scenario.n
    position = dict(scenario.robots)
    node_counts = dict(occupancy_cells(position.values()))
    prev_counts = {label: node_counts[node] for label, node in position.items()}
    moved_last: set[int] = set()
    expected_round = 0

    for record in records:
        phase, rip = divmod(expected_round, ROUNDS_PER_PHASE)
        if (record.global_round, record.phase, record.round_in_phase) != (
                expected_round, phase + 1, rip + 1):
            violations.append(
                Violation(
                    "round-counter", record.phase, record.global_round,
                    detail=f"round-in-phase {record.round_in_phase}; expected round "
                           f"{expected_round}, phase {phase + 1}, round-in-phase {rip + 1}",
                )
            )
        expected_round = record.global_round + 1

        # perception replay against the placement entering this round
        counts_now = {label: node_counts[node] for label, node in position.items()}
        if record.observations is not None:
            for label in position:
                expected_obs = observe(counts_now[label], prev_counts[label], label in moved_last)
                got = record.observations.get(label)
                if got != expected_obs:
                    violations.append(
                        Violation(
                            "perception-replay", record.phase, record.global_round,
                            robots=(label,),
                            detail=f"recorded {got}, recomputed {expected_obs}",
                        )
                    )
            for label in record.observations.keys() - position.keys():
                violations.append(
                    Violation("perception-replay", record.phase, record.global_round,
                              robots=(label,), detail="observation of an unknown robot")
                )

        moving = set()
        for label, frm, to, port in record.moves:
            if label in moving:
                violations.append(
                    Violation("move-legality", record.phase, record.global_round,
                              robots=(label,), detail="duplicate move entry")
                )
            moving.add(label)
            if frm != position.get(label):
                violations.append(
                    Violation("move-legality", record.phase, record.global_round,
                              robots=(label,),
                              detail=f"claims from {frm}, actually at {position.get(label)}")
                )
            elif port not in (PORT_ZERO, PORT_ONE) or to != move_target(n, frm, port):
                violations.append(
                    Violation("move-legality", record.phase, record.global_round,
                              robots=(label,),
                              detail=f"port {port} from {frm} cannot reach {to}")
                )
            else:
                position[label] = to

        occupancy = occupancy_cells(position.values())
        node_counts = dict(occupancy)
        if tuple(record.occupancy) != occupancy:
            recorded: dict[int, int] = {}
            for node, count in record.occupancy:
                recorded[node] = recorded.get(node, 0) + count
            diff = [(node, recorded.get(node, 0), node_counts.get(node, 0))
                    for node in sorted(recorded.keys() | node_counts.keys())
                    if recorded.get(node, 0) != node_counts.get(node, 0)]
            detail = (f"(node, recorded, replayed): {diff}" if diff else
                      f"cells {list(record.occupancy)} are not sorted, distinct "
                      f"and positive")
            violations.append(
                Violation("occupancy", record.phase, record.global_round,
                          nodes=tuple(node for node, _, _ in diff),
                          detail=detail)
            )
        prev_counts = counts_now
        moved_last = moving
    return violations


def validate_trace(trace: Trace, scenario: Scenario) -> list[Violation]:
    """Check a trace against the model itself: ``replay_violations``,
    plus participation gating and idle immobility against the phase-start
    states, which only an in-memory trace carries.  The trace must hold
    the 19 rounds of every phase it snapshots, so a record dropped from
    the end is a round-counter violation too.
    """
    violations = replay_violations(trace.records, scenario)
    expected_rounds = ROUNDS_PER_PHASE * (len(trace.phase_snapshots) - 1)
    if len(trace.records) != expected_rounds:
        violations.append(
            Violation("round-counter",
                      detail=f"{len(trace.records)} records for "
                             f"{len(trace.phase_snapshots)} phase snapshots; "
                             f"expected {expected_rounds}")
        )
    states_by_phase = {snap.phase: snap.states for snap in trace.phase_snapshots}
    for record in trace.records:
        states = states_by_phase.get(record.phase)
        if states is None:
            continue  # no such phase: reported by the replay
        for label, *_ in record.moves:
            if label not in states:
                continue  # reported by the replay
            status = states[label].status
            is_leader = states[label].leader
            if status is Status.IDLE:
                violations.append(
                    Violation("idle-moved", record.phase, record.global_round,
                              robots=(label,), detail="idle robot moved")
                )
            elif is_leader and record.round_in_phase not in LEADER_ROUNDS:
                violations.append(
                    Violation("participation", record.phase, record.global_round,
                              robots=(label,),
                              detail=f"leader moved in round {record.round_in_phase}")
                )
            elif not is_leader and record.round_in_phase not in EFFECTIVE_PARTICIPATION[status]:
                violations.append(
                    Violation("participation", record.phase, record.global_round,
                              robots=(label,),
                              detail=f"{status.value} moved in round {record.round_in_phase}")
                )
    return violations


def check_invariants(trace: Trace) -> list[Violation]:
    """Evaluate the lemma-derived invariants over a validated trace."""
    violations: list[Violation] = []
    scenario = trace.scenario
    n = scenario.n
    k = scenario.k
    max_size = max_label_bits(scenario.max_label)
    labels = trace.labels
    chains = initial_chains(scenario)
    chain_of = chain_of_robots(scenario)
    snaps = trace.phase_snapshots

    def status_of(snap, label):
        return snap.states[label].status

    def is_leader(snap, label):
        return snap.states[label].leader

    def groups_at(snap, include_leaders=True):
        at_node: dict[int, list[int]] = {}
        for label in labels:
            if not include_leaders and is_leader(snap, label):
                continue
            at_node.setdefault(snap.nodes[label], []).append(label)
        return at_node

    # (a) unique leader per chain whose back group started with >1 robot
    if len(snaps) > max_size:
        snap = snaps[max_size]  # start of phase max_size + 1
        for idx, chain in enumerate(chains):
            back_group = [label for label, node in scenario.robots if node == chain[0]]
            if len(back_group) <= 1:
                continue
            members = [label for label in labels if chain_of[label] == idx]
            leaders = [label for label in members if is_leader(snap, label)]
            if len(leaders) != 1:
                violations.append(
                    Violation("unique-leader", phase=snap.phase,
                              robots=tuple(leaders),
                              detail=f"chain {idx} has {len(leaders)} leaders after "
                                     f"{max_size} election phases")
                )

    # (b) no cross-chain co-location while electing or merging (per round)
    position = {label: node for label, node in scenario.robots}
    for record in trace.records:
        for label, _, to, _ in record.moves:
            position[label] = to
        snap = trace.snapshot_for(record.phase)
        at_node: dict[int, list[int]] = {}
        for label in labels:
            if status_of(snap, label) in (Status.LEADER_ELECTION, Status.ACTIVE_MERGE):
                at_node.setdefault(position[label], []).append(label)
        for node, group in at_node.items():
            chains_here = {chain_of[label] for label in group}
            if len(chains_here) > 1:
                violations.append(
                    Violation("cross-chain-colocation", record.phase, record.global_round,
                              robots=tuple(group), nodes=(node,),
                              detail="robots from different chains share a node "
                                     "during election/merge")
                )

    # (c) robots from different chains on adjacent nodes are never merging
    for snap in snaps:
        at_node = groups_at(snap)
        for node, group in at_node.items():
            other = at_node.get(succ(n, node))
            if not other:
                continue
            for r1 in group:
                for r2 in other:
                    if chain_of[r1] == chain_of[r2]:
                        continue
                    for r in (r1, r2):
                        if status_of(snap, r) is Status.ACTIVE_MERGE:
                            violations.append(
                                Violation("cross-chain-activemerge-adjacency",
                                          phase=snap.phase, robots=(r1, r2),
                                          nodes=(node, succ(n, node)),
                                          detail="merging robot adjacent to a foreign chain")
                            )

    # merge completion per chain: first phase with everyone on one node,
    # all active-disperse; used by (d) scoping and checked by (h)
    merged_at: dict[int, int | None] = {}
    for idx in range(len(chains)):
        members = [label for label in labels if chain_of[label] == idx]
        merged_at[idx] = None
        for snap in snaps:
            nodes_used = {snap.nodes[label] for label in members}
            if len(nodes_used) == 1 and all(
                status_of(snap, label) is Status.ACTIVE_DISPERSE for label in members
            ):
                merged_at[idx] = snap.phase
                break

    # (d) post-merge alternation: one side of an adjacent occupied pair is
    # all passive, the other all active/wait/jump.  Guaranteed only under
    # the repaired rules, but evaluated for both so literal traces show
    # their breakage.  Leader-only nodes are the leader's scout post, not
    # part of the chain.
    for snap in snaps:
        at_node = groups_at(snap, include_leaders=False)
        for node, group in at_node.items():
            nxt = succ(n, node)
            other = at_node.get(nxt)
            if not other:
                continue
            involved = group + other
            if not all(
                merged_at.get(chain_of[label]) is not None
                and merged_at[chain_of[label]] <= snap.phase
                for label in involved
            ):
                continue
            s1 = {status_of(snap, label) for label in group}
            s2 = {status_of(snap, label) for label in other}
            if not (s1 | s2) <= _POST_MERGE:
                continue
            first = s1 <= _ACTIVE_SIDE and s2 == {Status.PASSIVE}
            second = s2 <= _ACTIVE_SIDE and s1 == {Status.PASSIVE}
            if first == second:
                violations.append(
                    Violation("alternation", phase=snap.phase,
                              nodes=(node, nxt),
                              robots=tuple(sorted(involved)),
                              detail=f"adjacent occupied nodes hold "
                                     f"{sorted(s.value for s in s1)} / "
                                     f"{sorted(s.value for s in s2)}")
                )

    # (e) distinguishedness is monotone once both robots are post-merge
    # (non-leader pairs: the leader revisits nodes by design)
    plain = [label for label in labels if not any(is_leader(s, label) for s in snaps)]
    for r1, r2 in itertools.combinations(plain, 2):
        tracking = False
        was_distinguished = False
        for snap in snaps:
            st1, st2 = status_of(snap, r1), status_of(snap, r2)
            if not tracking:
                post = _POST_MERGE | {Status.IDLE}
                if st1 in post and st2 in post:
                    tracking = True
                else:
                    continue
            distinguished = snap.nodes[r1] != snap.nodes[r2] or st1 is not st2
            if was_distinguished and not distinguished:
                violations.append(
                    Violation("distinguished-pair", phase=snap.phase,
                              robots=(r1, r2), nodes=(snap.nodes[r1],),
                              detail="previously distinguished robots share node "
                                     "and status again")
                )
                break
            was_distinguished = was_distinguished or distinguished

    # (f) per-robot phase budgets after the first active-disperse phase
    for label in labels:
        first_ad = None
        wait_count = jump_count = passive_count = 0
        for snap in snaps:
            st = status_of(snap, label)
            if first_ad is None:
                if st is Status.ACTIVE_DISPERSE:
                    first_ad = snap.phase
                continue
            if st is Status.WAIT:
                wait_count += 1
            elif st is Status.JUMP:
                jump_count += 1
            elif st is Status.PASSIVE:
                passive_count += 1
        for count, bound, kind in (
            (wait_count, k, "wait-budget"),
            (jump_count, 2 * k, "jump-budget"),
            (passive_count, max_size + 2 * k, "passive-budget"),
        ):
            if count > bound:
                violations.append(
                    Violation(kind, robots=(label,),
                              detail=f"{count} phases exceeds the {bound}-phase bound")
                )

    # (g) the status graph has no back edges
    for label in labels:
        for prev_snap, snap in zip(snaps, snaps[1:]):
            before = status_of(prev_snap, label)
            after = status_of(snap, label)
            if before is not after and (before, after) not in LEGAL_TRANSITIONS:
                violations.append(
                    Violation("status-backedge", phase=snap.phase, robots=(label,),
                              detail=f"{before.value} -> {after.value}")
                )

    # (h) every chain merges to one node within p + 2 phases after election
    for idx, chain in enumerate(chains):
        deadline = max_size + len(chain) + 2
        if merged_at[idx] is not None and merged_at[idx] <= deadline + 1:
            continue
        if merged_at[idx] is None and snaps[-1].phase <= deadline + 1:
            # a detected cycle never merges; anything else that ended this
            # early (a dispersal) makes the deadline vacuous
            if trace.result is not RunResult.LIVELOCK:
                continue
        violations.append(
            Violation("merge-deadline", phase=deadline,
                      nodes=tuple(chain),
                      detail=f"chain {idx} ({len(chain)} groups) not merged to one "
                             f"active-disperse group by end of phase {deadline}")
        )

    # (i) co-located same-status dispersing robots agree on the bit cursor
    for snap in snaps:
        at_node = groups_at(snap, include_leaders=False)
        for node, group in at_node.items():
            actives = [label for label in group
                       if status_of(snap, label) is Status.ACTIVE_DISPERSE]
            cursors = {snap.states[label].disp_bit for label in actives}
            if len(cursors) > 1:
                violations.append(
                    Violation("cursor-misalignment", phase=snap.phase,
                              robots=tuple(actives), nodes=(node,),
                              detail=f"co-located dispersing robots at bit cursors "
                                     f"{sorted(cursors)}")
                )

    # non-leader net displacement per phase: 0 or +1, except a retreat phase
    retreated: dict[int, set[int]] = {}
    for record in trace.records:
        if record.round_in_phase == 12:
            for label, _, _, port in record.moves:
                if port == 0:
                    retreated.setdefault(record.phase, set()).add(label)
    for prev_snap, snap in zip(snaps, snaps[1:]):
        for label in labels:
            if is_leader(prev_snap, label):
                continue
            delta = (snap.nodes[label] - prev_snap.nodes[label]) % n
            allowed = {0, 1}
            if label in retreated.get(prev_snap.phase, ()):
                allowed = {0, 1, n - 1}
            if delta not in allowed:
                violations.append(
                    Violation("net-displacement", phase=prev_snap.phase,
                              robots=(label,),
                              detail=f"moved {delta} nodes net in one phase")
                )

    return violations


def displacement_bound(outcome: RunOutcome, scenario: Scenario) -> bool:
    """Pigeonhole sanity for dispersed single-source runs.

    k robots on distinct nodes force someone at ring distance at least
    ceil((k-1)/2) from the source, and at least that many rounds.
    """
    starts = {node for _, node in scenario.robots}
    if len(starts) != 1:
        raise ValueError("displacement bound applies to single-source scenarios only")
    if not outcome.dispersed:
        raise ValueError("displacement bound applies to dispersed runs only")
    source = next(iter(starts))
    k = scenario.k
    bound = -(-(k - 1) // 2)  # ceil((k-1)/2)
    max_dist = max(
        ring_distance(scenario.n, source, node)
        for node in outcome.final_placement.by_robot.values()
    )
    return max_dist >= bound and outcome.rounds_used >= bound


# ---------------------------------------------------------------------------
# exhaustive small-instance search


@dataclass
class ScenarioOutcome:
    scenario: Scenario
    result: RunResult
    rounds_used: int
    phases_used: int
    budget_rounds: int
    validation_count: int
    finding_kinds: tuple[str, ...]
    final_positions: tuple[tuple[int, int], ...] = ()

    @property
    def ok(self) -> bool:
        return self.result is RunResult.DISPERSED


@dataclass
class SearchReport:
    n_max: int
    k_max: int
    l_max: int
    ruleset: str
    total: int = 0
    tallies: dict = field(default_factory=dict)
    validation_violations: int = 0
    failures: list = field(default_factory=list)  # (ScenarioOutcome, minimized Scenario)

    @property
    def all_dispersed(self) -> bool:
        return self.total > 0 and self.tallies.get("dispersed", 0) == self.total

    def render(self) -> str:
        lines = [
            f"exhaustive search: n <= {self.n_max}, k <= {self.k_max}, "
            f"labels in [0, {self.l_max}], ruleset {self.ruleset}",
            f"scenarios run: {self.total}",
        ]
        for key in ("dispersed", "livelock", "budget-exceeded"):
            lines.append(f"  {key}: {self.tallies.get(key, 0)}")
        lines.append(f"trace validation violations: {self.validation_violations}")
        if self.failures:
            lines.append(f"failures ({len(self.failures)}):")
            for outcome, minimized in self.failures:
                kinds = ", ".join(outcome.finding_kinds) or "no lemma violation detected"
                lines.append(
                    f"  - n={minimized.n} robots={minimized.robots} -> "
                    f"{outcome.result.value}; findings: {kinds}"
                )
        else:
            lines.append("no failures")
        return "\n".join(lines)


def estimate_enumeration(n_max: int, k_max: int, l_max: int) -> int:
    total = 0
    for n in range(3, n_max + 1):
        for k in range(1, min(k_max, n - 1) + 1):
            total += math.comb(l_max + 1, k) * n**k
    return total


def enumerate_scenarios(n_max: int, k_max: int, l_max: int):
    """All placements of distinct-label robots, canonical under rotation."""
    estimate = estimate_enumeration(n_max, k_max, l_max)
    if estimate > ENUMERATION_GUARD:
        raise ValueError(
            f"enumeration of ~{estimate} configurations exceeds the "
            f"{ENUMERATION_GUARD} guard"
        )
    for n in range(3, n_max + 1):
        for k in range(1, min(k_max, n - 1) + 1):
            for label_set in itertools.combinations(range(l_max + 1), k):
                for nodes in itertools.product(range(n), repeat=k):
                    if not _is_rotation_canonical(nodes, n):
                        continue
                    yield make_scenario(n, l_max, tuple(zip(label_set, nodes)))


def _is_rotation_canonical(nodes: tuple[int, ...], n: int) -> bool:
    for r in range(1, n):
        rotated = tuple((v + r) % n for v in nodes)
        if rotated < nodes:
            return False
    return True


def evaluate_scenario(
    scenario: Scenario,
    ruleset,
    validate: bool = True,
    invariants: bool = True,
) -> ScenarioOutcome:
    outcome = run(scenario, ruleset)
    validation = validate_trace(outcome.trace, scenario) if validate else []
    kinds: tuple[str, ...] = ()
    if invariants:
        kinds = tuple(sorted({v.kind for v in check_invariants(outcome.trace)}))
    return ScenarioOutcome(
        scenario=scenario,
        result=outcome.result,
        rounds_used=outcome.rounds_used,
        phases_used=outcome.phases_used,
        budget_rounds=ROUNDS_PER_PHASE * phase_budget(
            max_label_bits(scenario.max_label), scenario.k),
        validation_count=len(validation),
        finding_kinds=kinds,
        final_positions=tuple(sorted(outcome.final_placement.by_robot.items())),
    )


def _worker(args) -> ScenarioOutcome:
    n, l_max, robots, ruleset, validate, invariants = args
    from .protocol import Ruleset

    scenario = make_scenario(n, l_max, robots)
    return evaluate_scenario(scenario, Ruleset(ruleset), validate, invariants)


def worker_count() -> int:
    """``RINGDISPERSE_WORKERS`` clamped to [1, cpu count]; the cpu count when unset."""
    cpus = os.cpu_count() or 1
    env = os.environ.get("RINGDISPERSE_WORKERS")
    try:
        return min(max(1, int(env)), cpus) if env else cpus
    except ValueError:
        raise ValueError(f"RINGDISPERSE_WORKERS must be an integer, not {env!r}") from None


def map_jobs(fn, jobs: list, workers: int | None, chunksize: int, serial_max: int) -> list:
    """``[fn(job) for job in jobs]`` across a pool of ``workers`` (default
    ``worker_count()``), or in this process for one worker or few jobs."""
    if workers is None:
        workers = worker_count()
    if workers > 1 and len(jobs) > serial_max:
        with Pool(workers) as pool:
            return pool.map(fn, jobs, chunksize=chunksize)
    return [fn(job) for job in jobs]


def evaluate_many(
    scenarios,
    ruleset,
    validate: bool = True,
    invariants: bool = True,
    workers: int | None = None,
) -> list[ScenarioOutcome]:
    """Evaluate scenarios across a worker pool, results in input order."""
    jobs = [
        (s.n, s.max_label, s.robots, ruleset.value, validate, invariants)
        for s in scenarios
    ]
    return map_jobs(_worker, jobs, workers, chunksize=64, serial_max=64)


def exhaustive_search(
    n_max: int,
    k_max: int,
    l_max: int,
    ruleset,
    validate: bool = True,
    invariants: bool = True,
    minimize: bool = True,
    workers: int | None = None,
) -> SearchReport:
    """Run every small instance; tally outcomes and minimize failures."""
    report = SearchReport(n_max, k_max, l_max, ruleset.value)
    results = evaluate_many(
        enumerate_scenarios(n_max, k_max, l_max),
        ruleset,
        validate=validate,
        invariants=invariants,
        workers=workers,
    )
    for outcome in results:
        report.total += 1
        key = outcome.result.value
        report.tallies[key] = report.tallies.get(key, 0) + 1
        report.validation_violations += outcome.validation_count
        if not outcome.ok:
            minimized = outcome.scenario
            if minimize:
                minimized = minimize_scenario(outcome.scenario, ruleset, outcome.result)
            report.failures.append((outcome, minimized))
    return report


def minimize_scenario(scenario: Scenario, ruleset, expected: RunResult) -> Scenario:
    """Greedy shrink: drop robots, then splice out empty nodes, as long as
    the failure reproduces; the result is replay-checked."""

    def reproduces(candidate: Scenario) -> bool:
        return run(candidate, ruleset, record_rounds=False).result is expected

    current = scenario
    changed = True
    while changed:
        changed = False
        if current.k > 1:
            for label in current.labels():
                robots = tuple(r for r in current.robots if r[0] != label)
                candidate = make_scenario(current.n, current.max_label, robots)
                if reproduces(candidate):
                    current = candidate
                    changed = True
                    break
        if changed:
            continue
        occupied = {node for _, node in current.robots}
        if current.n > 3 and current.k < current.n - 1:
            for gap in sorted(set(range(current.n)) - occupied):
                robots = tuple(
                    (label, node if node < gap else node - 1)
                    for label, node in current.robots
                )
                candidate = make_scenario(current.n - 1, current.max_label, robots)
                if reproduces(candidate):
                    current = candidate
                    changed = True
                    break
    if not reproduces(current):
        raise AssertionError("minimized scenario fails to reproduce the outcome")
    return current
