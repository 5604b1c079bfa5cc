"""Trace validation, lemma-derived invariant checks, and search over scenarios.

The invariant suite is scoped tightly to each lemma's premise so that a
reported violation points at a genuine protocol gap rather than an
over-broad assertion.  Violations found by the search are findings, not
crashes: the harness exists to surface them.

``TraceCheck`` keeps one record per phase start, ``(phase, nodes, states,
statuses, electing)``, by phase and as the last one, and one state per
robot pair for invariant (e).  ``check_trace`` walks a trace once for
the kinds asked of it, and ``validate_trace`` and ``check_invariants``
each ask for their half, so neither walk does the other's work.
``minimize_scenario`` is one loop over ``_shrinks``, the candidates one
shrink smaller than a scenario in the order they are tried; a new kind
of shrink is a new candidate there.
``map_jobs`` streams any iterable of jobs through one kept pool, in job
order, and ``search``, the one fold over scenarios, takes any iterable of
them under any ruleset and folds each result into its report as it
arrives, keeping of a failure only what the report reads.
``exhaustive_search`` is ``search`` over ``enumerate_scenarios``.
``evaluate_many`` streams too: it yields each outcome in input order as
the pool produces it, so a caller's own work on an outcome overlaps the
pool's on later ones.  A job's error surfaces when the iteration reaches
it, not at the call, and an iteration left before its end closes the
kept pool.
"""

from __future__ import annotations

import atexit
import functools
import itertools
import math
import os
from collections.abc import Iterator
from dataclasses import dataclass, field
from typing import NamedTuple

from .engine import ROUNDS_PER_PHASE, RunResult, Trace, phase_budget, run
from .perception import observe
from .protocol import wake_rounds
from .ring import MIN_RING_SIZE, PORT_ONE, PORT_ZERO, move_target, occupancy_cells, succ
from .robots import DISPERSAL_STATUSES, LEGAL_TRANSITIONS, Status, max_label_bits
from .scenario import Scenario

_ACTIVE_SIDE = {Status.ACTIVE_DISPERSE, Status.WAIT, Status.JUMP}
_ONLY_PASSIVE = {Status.PASSIVE}
_TRACKED = DISPERSAL_STATUSES | {Status.IDLE}  # (e) tracks a pair from here on
# (e) the states of a tracked pair until its violation replaces them
_TOGETHER, _APART = "together", "apart"
# the members the walk tests for, bound once: reading a member through its
# class costs an attribute lookup each time
_LEADER_ELECTION, _ACTIVE_MERGE, _ACTIVE_DISPERSE, _IDLE = (
    Status.LEADER_ELECTION, Status.ACTIVE_MERGE, Status.ACTIVE_DISPERSE, Status.IDLE)

ENUMERATION_GUARD = 10**7
_NO_MOVERS: frozenset[int] = frozenset()


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


REPLAY_KINDS = frozenset({
    "round-counter", "perception-replay", "move-legality", "occupancy",
    "participation", "idle-moved",
})


class TraceCheck:
    """The one walk over a trace.  Give it each phase start
    (``phase_start``) and each round (``round``) in trace order, then call
    ``finish``.  ``check_trace`` feeds it stored records and snapshots;
    as an ``engine.run`` sink it is fed each phase start and round as the
    engine runs them, so no record is built.  It reads nothing of the
    engine's state: positions, counts and perception are replayed from
    the moves alone.

    The engine feed, stored records and ``--verbose`` trace files all
    carry every robot's observation, the robots that sit a round out
    included, so a round's observations must cover every robot, and a
    missing one is a perception violation.

    One set of replayed positions and node counts serves the replay (the
    round counter, contiguous from round 0 with the matching phase and
    round-in-phase; the perception flags of each record whose
    ``observations`` is not None; move legality; the post-round
    occupancy), participation by ``protocol.wake_rounds`` and idle
    immobility, cross-chain co-location (b) and the round-12 retreats that
    net displacement allows.  An illegal move, a robot the scenario lacks
    included, is reported and not applied, so the replay stays on the
    ring.  The occupancy is compared as a sequence of ``occupancy_cells``,
    so a zero count, a repeated node or an unsorted cell is a mismatch.  A
    robot perceives the node counts entering this round and the round
    before at its node, as the engine observes it, so a move rebuilds
    nothing per robot.  Most rounds are quiet: a round that follows two
    rounds without a move entry perceives what the round before it
    perceived, and a round without a move keeps the occupancy, so both
    expectations are reused, and every given observation and cell is still
    compared.  The expectations are filled for every robot at
    once and a round's observations are compared with them as one dict;
    only a mismatch walks the robots to report it.

    Each phase start is checked for (a), (c), (d), (g), (i) and net
    displacement, and updates the per-chain, per-robot and per-pair
    tallies from which ``finish`` reports (e), (f), (h) and the record
    count.  One pass over the robots groups them, keeps the (f) tallies
    and checks (g) and net displacement; the other checks walk the groups.
    Its record, ``(phase, nodes, states, statuses, electing)``, is kept by
    phase and as the last one.  For (e) each pair of robots has one state:
    not yet tracked, then together or apart (distinguished) once both are
    post-merge or idle, and at the first phase start where an apart pair
    shares node and status again its violation, which it keeps.  Without
    snapshots (trace files carry no statuses) only the replay runs.

    ``validate`` and ``invariants`` give the walk's scope, chosen here once
    and not tested per round.  Without ``invariants`` no chain, pair or
    tally is built, a phase start only keeps its record, with the states
    participation reads and no electing robots, so no round checks (b),
    and ``finish`` reports only the record count.  Without ``validate`` a
    round only applies the legal moves, notes the round-12 retreats and
    checks (b): it compares no perception or occupancy and reports no
    replay kind.  Either way the violations
    are the full walk's of the kinds kept, in its order.
    """

    def __init__(self, scenario: Scenario, validate: bool = True, invariants: bool = True):
        self.n, self.k = scenario.n, scenario.k
        self.validate, self.invariants = validate, invariants
        self.max_size = max_label_bits(scenario.max_label)
        self.labels = labels = scenario.labels()
        starts = [node for _, node in scenario.robots]
        self.violations: list[Violation] = []
        # the replay: positions and node counts entering the next round, and
        # the node counts entering the round before it
        self.position = dict(scenario.robots)
        self.occupancy = occupancy_cells(starts)
        self.node_counts = self.prev_counts = dict(self.occupancy)
        self.moved_last = _NO_MOVERS
        self.moved_before = False
        self.expected_obs: dict = {}
        self.expected_round = self.rounds = 0
        self.colocated: list | None = None  # (b) at the current placement and phase
        self.colocated_phase = None
        # each phase start's record, (phase, nodes, states, statuses, the
        # electing or merging robots if they span two chains, else []), by
        # phase and the last one; and who retreated in each phase's round 12
        self.phases: dict[int, tuple] = {}
        self.last: tuple | None = None
        self.retreated: dict[int, set[int]] = {}
        self.snapshots = 0
        # the scope is chosen here, once per walk, so that no round tests it
        if not validate:
            self.round = self._placement_round
        if not invariants:
            # the replay reads no chain, pair or tally: the pair table alone
            # is O(k^2)
            self.phase_start = self._replay_phase_start
            return
        self.chains = initial_chains(scenario)
        chain_at = {node: idx for idx, chain in enumerate(self.chains) for node in chain}
        self.chain_of = {label: chain_at[node] for label, node in scenario.robots}
        self.members = [[label for label in labels if self.chain_of[label] == idx]
                        for idx in range(len(self.chains))]
        # (a) holds for chains whose back group starts with more than one robot
        self.electing_chains = [idx for idx, chain in enumerate(self.chains)
                                if starts.count(chain[0]) > 1]
        self.merged_at: list[int | None] = [None] * len(self.chains)
        self.ever_leader: set[int] = set()
        # (e) each pair's state: None until both robots are post-merge or
        # idle, then _TOGETHER or _APART, and its violation at the first
        # phase start where an _APART pair shares node and status again
        self.pairs: dict[tuple[int, int], str | Violation | None] = dict.fromkeys(
            itertools.combinations(labels, 2))
        # (f) per robot, phase starts per status after its first active-disperse one
        self.after_disperse: dict[int, dict[Status, int]] = {}

    def _at(self, phase: int, global_round: int, kind: str, detail: str, robots=(),
            nodes=()) -> None:
        self.violations.append(Violation(kind, phase, global_round, robots, nodes, detail))

    def round(self, global_round: int, phase: int, rip: int, moves, observations,
              cells) -> None:
        """One round: its counters, its moves as ``(label, from, to, port)``,
        the observations (None when not recorded) and the post-round
        occupancy cells."""
        at = self._at
        expected_round = self.expected_round
        if global_round != expected_round or rip != expected_round % ROUNDS_PER_PHASE + 1 or (
                phase != expected_round // ROUNDS_PER_PHASE + 1):
            expected_phase, expected_rip = divmod(expected_round, ROUNDS_PER_PHASE)
            at(phase, global_round, "round-counter",
               f"round-in-phase {rip}; expected round {expected_round}, "
               f"phase {expected_phase + 1}, round-in-phase {expected_rip + 1}")
        self.expected_round = global_round + 1
        self.rounds += 1
        position, moved_last = self.position, self.moved_last

        # perception against the placement entering this round
        counts, prev_counts = self.node_counts, self.prev_counts
        if moved_last or self.moved_before:
            self.expected_obs = {}
        expected = self.expected_obs
        if observations is not None:
            if len(expected) != len(position):
                # every entry holds for each round until the next reset
                for label, node in position.items():
                    expected[label] = observe(
                        counts[node], prev_counts.get(node, 0), label in moved_last)
            if observations != expected:
                self._misperceived(phase, global_round, observations, expected)

        info = self.phases.get(phase)
        if moves:
            moving = set()
            applied = False
            states = info[2] if info else {}
            for label, frm, to, port in moves:
                if label in moving:
                    at(phase, global_round, "move-legality", "duplicate move entry", (label,))
                moving.add(label)
                at_node = position.get(label)
                if at_node is None:
                    at(phase, global_round, "move-legality", "move of an unknown robot",
                       (label,))
                elif frm != at_node:
                    at(phase, global_round, "move-legality",
                       f"claims from {frm}, actually at {at_node}", (label,))
                elif port not in (PORT_ZERO, PORT_ONE) or to != move_target(self.n, frm, port):
                    at(phase, global_round, "move-legality",
                       f"port {port} from {frm} cannot reach {to}", (label,))
                else:
                    position[label] = to
                    applied = True
                state = states.get(label)  # None: no such phase or robot, reported above
                if state is None:
                    pass
                elif state.status is _IDLE:
                    at(phase, global_round, "idle-moved", "idle robot moved", (label,))
                elif rip not in wake_rounds(state.status, state.leader):
                    mover = "leader" if state.leader else state.status.value
                    at(phase, global_round, "participation", f"{mover} moved in round {rip}",
                       (label,))
                if rip == 12 and port == PORT_ZERO:
                    self.retreated.setdefault(phase, set()).add(label)
            if applied:
                self.occupancy = occupancy_cells(position.values())
                self.node_counts = dict(self.occupancy)
                self.colocated = None
        else:
            moving = _NO_MOVERS
        self.prev_counts = counts
        self.moved_before = moved_last  # read for its truth only
        self.moved_last = moving

        if cells != self.occupancy and tuple(cells) != self.occupancy:
            recorded: dict[int, int] = {}
            for node, count in cells:
                recorded[node] = recorded.get(node, 0) + count
            replayed = self.node_counts
            diff = [(node, recorded.get(node, 0), replayed.get(node, 0))
                    for node in sorted(recorded.keys() | replayed.keys())
                    if recorded.get(node, 0) != replayed.get(node, 0)]
            at(phase, global_round, "occupancy",
               f"(node, recorded, replayed): {diff}" if diff else
               f"cells {list(cells)} are not sorted, distinct and positive",
               nodes=tuple(node for node, _, _ in diff))

        if info and info[4]:
            self._colocation(phase, global_round, info)

    def _placement_round(self, global_round: int, phase: int, rip: int, moves,
                         observations, cells) -> None:
        """``round`` for a walk without the replay kinds: the legal moves
        are applied, the round-12 retreats noted and (b) checked, and
        nothing of the replay is compared or reported."""
        if moves:
            position = self.position
            for label, frm, to, port in moves:
                if frm == position.get(label) and port in (PORT_ZERO, PORT_ONE) and (
                        to == move_target(self.n, frm, port)):
                    position[label] = to
                    self.colocated = None
                if rip == 12 and port == PORT_ZERO:
                    self.retreated.setdefault(phase, set()).add(label)
        info = self.phases.get(phase)
        if info and info[4]:
            self._colocation(phase, global_round, info)

    def _colocation(self, phase: int, global_round: int, info: tuple) -> None:
        """(b) no cross-chain co-location while electing or merging: the
        electing or merging robots ``info[4]`` of the phase start record
        ``info`` at their replayed nodes."""
        if self.colocated is None or self.colocated_phase is not info:
            at_node: dict[int, list[int]] = {}
            for label in info[4]:
                at_node.setdefault(self.position[label], []).append(label)
            self.colocated = [(node, group) for node, group in at_node.items()
                              if len({self.chain_of[label] for label in group}) > 1]
            self.colocated_phase = info
        for node, group in self.colocated:
            self._at(phase, global_round, "cross-chain-colocation", "robots from different "
                     "chains share a node during election/merge", tuple(group), (node,))

    def _misperceived(self, phase: int, global_round: int, observations: dict,
                      expected: dict) -> None:
        """Report each observation that differs from the replay's or is
        missing, and each observation of a robot the scenario does not
        have."""
        position = self.position
        for label in position:
            seen = observations.get(label)
            if seen != expected[label]:
                self._at(phase, global_round, "perception-replay",
                         f"recorded {seen}, recomputed {expected[label]}", (label,))
        for label in observations.keys() - position.keys():
            self._at(phase, global_round, "perception-replay",
                     "observation of an unknown robot", (label,))

    def _replay_phase_start(self, phase: int, nodes: dict[int, int], states: dict) -> None:
        """``phase_start`` for a walk without the invariants: the record
        keeps the states, which participation reads, and names no electing
        robot, so no round checks (b)."""
        self.phases[phase] = self.last = (phase, nodes, states, None, [])
        self.snapshots += 1

    def phase_start(self, phase: int, nodes: dict[int, int], states: dict) -> None:
        """One phase start: each robot's node and ``StateSnapshot``."""
        out = self.violations
        n, labels, chain_of = self.n, self.labels, self.chain_of
        ever_leader, after_disperse = self.ever_leader, self.after_disperse
        status: dict[int, Status] = {}
        at_node: dict[int, list[int]] = {}
        plain_at_node: dict[int, list[int]] = {}  # a leader-only node is a scout post
        electing = []
        merging = False
        # (g) the status graph has no back edges, and non-leader net
        # displacement per phase is 0 or +1, or -1 after a round-12 retreat;
        # reported after (d)
        transitions: list[Violation] = []
        last = self.last
        if last is not None:
            last_phase, last_nodes, last_states, last_status, _ = last
            retreated = self.retreated.get(last_phase, ())
        for label in labels:
            state = states[label]
            node = nodes[label]
            now = status[label] = state.status
            at_node.setdefault(node, []).append(label)
            if state.leader:
                ever_leader.add(label)
            else:
                plain_at_node.setdefault(node, []).append(label)
            if now is _LEADER_ELECTION or now is _ACTIVE_MERGE:
                electing.append(label)
                merging = merging or now is _ACTIVE_MERGE
            # (f) per-robot phase tallies after the first active-disperse phase
            tally = after_disperse.get(label)
            if tally is not None:
                tally[now] = tally.get(now, 0) + 1
            elif now is _ACTIVE_DISPERSE:
                after_disperse[label] = {}
            if last is not None:
                before = last_status[label]
                if before is not now and (before, now) not in LEGAL_TRANSITIONS:
                    transitions.append(Violation("status-backedge", phase, None, (label,), (),
                                                 f"{before.value} -> {now.value}"))
                delta = (node - last_nodes[label]) % n
                if delta > 1 and not last_states[label].leader and not (
                        delta == n - 1 and label in retreated):
                    transitions.append(Violation("net-displacement", last_phase, None, (label,),
                                                 (), f"moved {delta} nodes net in one phase"))
        if len(electing) < 2 or len({chain_of[label] for label in electing}) < 2:
            electing = []
        self.phases[phase] = self.last = (phase, nodes, states, status, electing)

        # (a) unique leader per chain whose back group started with >1 robot
        if self.snapshots == self.max_size:  # start of phase max_size + 1
            for idx in self.electing_chains:
                leaders = tuple(label for label in self.members[idx] if states[label].leader)
                if len(leaders) != 1:
                    out.append(Violation("unique-leader", phase, None, leaders, (),
                                         f"chain {idx} has {len(leaders)} leaders after "
                                         f"{self.max_size} election phases"))
        self.snapshots += 1

        # (c) robots from different chains on adjacent nodes are never merging
        if merging:
            for node, group in at_node.items():
                for r1, r2 in itertools.product(group, at_node.get(succ(n, node), ())):
                    if chain_of[r1] == chain_of[r2]:
                        continue
                    for r in (r1, r2):
                        if status[r] is _ACTIVE_MERGE:
                            out.append(Violation("cross-chain-activemerge-adjacency", phase,
                                                 None, (r1, r2), (node, succ(n, node)),
                                                 "merging robot adjacent to a foreign chain"))

        # merge completion per chain: the first phase start with everyone on
        # one node, all active-disperse; scopes (d) and is checked by (h)
        merged_at = self.merged_at
        for idx, members in enumerate(self.members):
            if merged_at[idx] is None and len({nodes[label] for label in members}) == 1 and all(
                    status[label] is _ACTIVE_DISPERSE for label in members):
                merged_at[idx] = phase

        # (d) post-merge alternation: one side of an adjacent occupied pair is
        # all passive, the other all active/wait/jump.  Guaranteed only under
        # the repaired rules, but evaluated for both so literal traces show
        # their breakage.  (i) co-located same-status dispersing robots agree
        # on the bit cursor; reported after (g).
        merged_chains = {idx for idx, at in enumerate(merged_at) if at is not None}
        all_merged = len(merged_chains) == len(merged_at)
        misaligned: list[Violation] = []
        for node, group in plain_at_node.items():
            other = plain_at_node.get(succ(n, node)) if merged_chains else None
            if other and (all_merged or {chain_of[label] for label in group + other}
                          <= merged_chains):
                s1 = {status[label] for label in group}
                s2 = {status[label] for label in other}
                if (s1 | s2) <= DISPERSAL_STATUSES:
                    first = s1 <= _ACTIVE_SIDE and s2 == _ONLY_PASSIVE
                    second = s2 <= _ACTIVE_SIDE and s1 == _ONLY_PASSIVE
                    if first == second:
                        out.append(Violation(
                            "alternation", phase, None, tuple(sorted(group + other)),
                            (node, succ(n, node)), f"adjacent occupied nodes hold "
                            f"{sorted(s.value for s in s1)} / {sorted(s.value for s in s2)}"))
            if len(group) > 1:
                actives = tuple(label for label in group if status[label] is _ACTIVE_DISPERSE)
                cursors = {states[label].disp_bit for label in actives}
                if len(cursors) > 1:
                    misaligned.append(Violation(
                        "cursor-misalignment", phase, None, actives, (node,),
                        f"co-located dispersing robots at bit cursors {sorted(cursors)}"))
        out += transitions
        out += misaligned

        # (e) distinguishedness is monotone once both robots are post-merge:
        # a distinguished pair that shares its node and status again is a
        # violation
        pairs = self.pairs
        for pair, state in pairs.items():
            r1, r2 = pair
            st1, st2 = status[r1], status[r2]
            together = st1 is st2 and nodes[r1] == nodes[r2]
            if state is _APART:
                if together:
                    pairs[pair] = Violation(
                        "distinguished-pair", phase, None, pair, (nodes[r1],),
                        "previously distinguished robots share node and status again")
            elif state is _TOGETHER or (state is None and st1 in _TRACKED and st2 in _TRACKED):
                pairs[pair] = _TOGETHER if together else _APART

    def finish(self, result: RunResult | None = None) -> list[Violation]:
        """Every violation found; after snapshots, with the record count,
        (e) for pairs that never held a leader, (f) and (h)."""
        out = self.violations
        if self.last is None:
            return out
        expected_rounds = ROUNDS_PER_PHASE * (self.snapshots - 1)
        if self.validate and self.rounds != expected_rounds:
            out.append(Violation("round-counter", detail=f"{self.rounds} records for "
                                 f"{self.snapshots} phase snapshots; expected {expected_rounds}"))
        if not self.invariants:
            return out
        # (e) leaves out every leader: the leader revisits nodes by design
        out.extend(state for pair, state in sorted(self.pairs.items())
                   if isinstance(state, Violation) and not self.ever_leader.intersection(pair))
        for label, tally in sorted(self.after_disperse.items()):
            for status, bound, kind in (
                (Status.WAIT, self.k, "wait-budget"),
                (Status.JUMP, 2 * self.k, "jump-budget"),
                (Status.PASSIVE, self.max_size + 2 * self.k, "passive-budget"),
            ):
                if tally.get(status, 0) > bound:
                    out.append(Violation(kind, robots=(label,), detail=f"{tally[status]} "
                                         f"phases exceeds the {bound}-phase bound"))
        # (h) every chain merges to one node within p + 2 phases after election
        for idx, chain in enumerate(self.chains):
            deadline = self.max_size + len(chain) + 2
            merged = self.merged_at[idx]
            if merged is not None and merged <= deadline + 1:
                continue
            # a detected cycle never merges; anything else that ended this
            # early (a dispersal) makes the deadline vacuous
            if merged is None and self.last[0] <= deadline + 1 and (
                    result is not RunResult.LIVELOCK):
                continue
            out.append(Violation("merge-deadline", deadline, None, (), tuple(chain),
                                 f"chain {idx} ({len(chain)} groups) not merged to one "
                                 f"active-disperse group by end of phase {deadline}"))
        return out


def check_trace(scenario: Scenario, records, snapshots=(), result: RunResult | None = None,
                validate: bool = True, invariants: bool = True) -> list[Violation]:
    """Walk ``records`` (any iterable of RoundRecords in trace order) once,
    handing each phase-start snapshot to the check before the first record
    of its phase; the violations of every kind, or of the ``REPLAY_KINDS``
    only (``invariants=False``) or of the other kinds only
    (``validate=False``), each list as the full walk orders it."""
    check = TraceCheck(scenario, validate, invariants)
    snaps = iter(snapshots)
    snap = next(snaps, None)
    for record in records:
        while snap is not None and snap.phase <= record.phase:
            check.phase_start(snap.phase, snap.nodes, snap.states)
            snap = next(snaps, None)
        check.round(record.global_round, record.phase, record.round_in_phase, record.moves,
                    record.observations, record.occupancy)
    while snap is not None:
        check.phase_start(snap.phase, snap.nodes, snap.states)
        snap = next(snaps, None)
    return check.finish(result)


def validate_trace(trace: Trace, scenario: Scenario) -> list[Violation]:
    """The trace against the model itself: the ``REPLAY_KINDS`` of
    ``check_trace``, from a walk that judges no invariant.  The trace must
    hold the 19 rounds of every phase it snapshots, so a record dropped
    from the end is a round-counter violation too.  ValueError for the
    empty trace of an unrecorded run."""
    trace.check_recorded()
    return check_trace(scenario, trace.records, trace.phase_snapshots, trace.result,
                       invariants=False)


def check_invariants(trace: Trace) -> list[Violation]:
    """The lemma-derived invariant kinds of ``check_trace``, from a walk
    that replays positions from the legal moves and compares no
    perception or occupancy.  ValueError for the empty trace of an
    unrecorded run."""
    trace.check_recorded()
    return check_trace(trace.scenario, trace.records, trace.phase_snapshots, trace.result,
                       validate=False)


# ---------------------------------------------------------------------------
# search over scenarios, exhaustive or not


@dataclass(slots=True)
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


class Failure(NamedTuple):
    """What a search keeps of a run that did not disperse: its verdict,
    its lemma finding kinds and the scenario that reproduces the verdict,
    minimized unless the search was asked not to."""

    result: RunResult
    finding_kinds: tuple[str, ...]
    minimized: Scenario


@dataclass
class SearchReport:
    """What ``search`` keeps: the tallies and the failures of one scenario
    source under one ruleset.  ``source`` is the text the first line of
    ``render`` names the scenarios by, and ``ruleset`` the ruleset's name."""

    source: str
    ruleset: str
    total: int = 0
    tallies: dict = field(default_factory=dict)
    validation_violations: int = 0
    failures: list[Failure] = field(default_factory=list)

    @property
    def all_dispersed(self) -> bool:
        return self.total > 0 and self.tallies.get("dispersed", 0) == self.total

    def render(self) -> str:
        lines = [
            f"{self.source}, ruleset {self.ruleset}",
            f"scenarios run: {self.total}",
        ]
        for key in ("dispersed", "livelock", "budget-exceeded"):
            lines.append(f"  {key}: {self.tallies.get(key, 0)}")
        lines.append(f"trace validation violations: {self.validation_violations}")
        if self.failures:
            lines.append(f"failures ({len(self.failures)}):")
            for result, finding_kinds, minimized in self.failures:
                kinds = ", ".join(finding_kinds) or "no lemma violation detected"
                lines.append(
                    f"  - n={minimized.n} robots={minimized.robots} -> "
                    f"{result.value}; findings: {kinds}"
                )
        else:
            lines.append("no failures")
        return "\n".join(lines)


def estimate_enumeration(n_max: int, k_max: int, l_max: int) -> int:
    """Raw placements of distinct-label robots before rotation, summed up
    to the first partial sum past ``ENUMERATION_GUARD``."""
    total = 0
    for n in range(MIN_RING_SIZE, n_max + 1):
        for k in range(1, min(k_max, n - 1) + 1):
            total += math.comb(l_max + 1, k) * n**k
            if total > ENUMERATION_GUARD:
                return total
    return total


def enumerate_scenarios(n_max: int, k_max: int, l_max: int):
    """All placements of distinct-label robots, canonical under rotation.

    The nodes tuple is in label order and labels are distinct, so a
    placement is the lexicographic minimum of its rotations iff its first
    robot is on node 0: every other rotation starts on a node above 0.
    Each scenario is valid by construction, so it is built without
    ``make_scenario``'s checks and its warning for a label bound below
    the robot count, which the ``search`` command gives once instead.
    The (label, node) pairs are built once per label set and ring size,
    one list per label indexed by node, and every scenario of the group
    holds those pair objects; the first robot's node 0 is its only pair.
    """
    # with no ring, no robot or no label the space is empty, and the guard's
    # partial sums would never grow past it
    if n_max < MIN_RING_SIZE:
        raise ValueError(f"n_max must be at least {MIN_RING_SIZE}, not {n_max}")
    if k_max < 1 or l_max < 0:
        raise ValueError(f"k_max must be at least 1 and l_max at least 0, "
                         f"not {k_max} and {l_max}")
    estimate = estimate_enumeration(n_max, k_max, l_max)
    if estimate > ENUMERATION_GUARD:
        raise ValueError(
            f"enumeration of at least {estimate} configurations exceeds the "
            f"{ENUMERATION_GUARD} guard"
        )
    for n in range(MIN_RING_SIZE, n_max + 1):
        for k in range(1, min(k_max, n - 1) + 1):
            for first, *others in itertools.combinations(range(l_max + 1), k):
                head = ((first, 0),)
                rows = [[(label, node) for node in range(n)] for label in others]
                for rest in itertools.product(*rows):
                    yield Scenario(n, l_max, head + rest)


def evaluate_scenario(
    scenario: Scenario,
    ruleset,
    validate: bool = True,
    invariants: bool = True,
) -> ScenarioOutcome:
    """Run ``scenario`` with a ``TraceCheck`` of the asked kinds fed round
    by round, unless neither kind is asked for; no trace is kept."""
    check = TraceCheck(scenario, validate, invariants) if validate or invariants else None
    outcome = run(scenario, ruleset, record_rounds=False, sink=check)
    violations = check.finish(outcome.result) if check is not None else []
    validation = [v for v in violations if v.kind in REPLAY_KINDS]
    kinds = tuple(sorted({v.kind for v in violations} - REPLAY_KINDS))
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


def worker_count() -> int:
    """``RINGDISPERSE_WORKERS`` clamped to [1, cpu count]; the cpu count when unset."""
    cpus = os.cpu_count() or 1
    env = os.environ.get("RINGDISPERSE_WORKERS")
    try:
        return min(max(1, int(env)), cpus) if env else cpus
    except ValueError:
        raise ValueError(f"RINGDISPERSE_WORKERS must be an integer, not {env!r}") from None


# the pool map_jobs keeps, per process id: (worker count, pool).  A forked
# child inherits its parent's entry under the parent's id and leaves it be.
_pools: dict[int, tuple] = {}


def Pool(processes: int):
    """A ``multiprocessing.Pool``; the module is loaded with the first pool,
    so a command that builds none never loads it."""
    import multiprocessing

    return multiprocessing.Pool(processes)


def _pool(workers: int):
    """This process's pool of ``workers`` workers, built on first use; a
    pool of another size is closed first."""
    kept = _pools.get(os.getpid())
    if kept is not None and kept[0] == workers:
        return kept[1]
    _close_pool()
    pool = Pool(workers)
    _pools[os.getpid()] = (workers, pool)
    return pool


@atexit.register
def _close_pool() -> None:
    """Terminate and join this process's kept pool, if it has one.  Runs at
    exit, while the interpreter can still tear the pool down."""
    kept = _pools.pop(os.getpid(), None)
    if kept is not None:
        kept[1].terminate()
        kept[1].join()


def map_jobs(fn, jobs, workers: int | None, chunksize: int, serial_max: int):
    """``fn(job)`` for each of the iterable ``jobs``, yielded in job order,
    across a pool of ``workers`` (default ``worker_count()``), or in this
    process for one worker or at most ``serial_max`` jobs.  Jobs are pulled
    as they are needed: the first ``serial_max + 1`` to choose, the rest as
    the pool or the caller takes them, so neither the jobs nor the results
    are held as a list.

    The pool is kept for later calls with the same worker count, so its
    workers are forked once per process and worker count: a module patched
    after they were forked stays unpatched in them.  An iteration that
    raises, in a job, in the caller or while waiting, or that the caller
    leaves before the end, closes the pool, and the next call builds a new
    one."""
    if workers is None:
        workers = worker_count()
    jobs = iter(jobs)
    head = list(itertools.islice(jobs, serial_max + 1)) if workers > 1 else []
    if len(head) > serial_max:
        pool = _pool(workers)
        try:
            yield from pool.imap(fn, itertools.chain(head, jobs), chunksize)
        except BaseException:  # GeneratorExit too: the caller left early
            _close_pool()
            raise
    else:
        yield from map(fn, itertools.chain(head, jobs))


def evaluate_many(
    scenarios,
    ruleset,
    validate: bool = True,
    invariants: bool = True,
    workers: int | None = None,
) -> Iterator[ScenarioOutcome]:
    """Each scenario's outcome, yielded in input order as ``map_jobs``
    produces it, so a caller works on outcome i (say, minimizes it) while
    the pool still judges later chunks; ``list()`` it to keep them all.
    Nothing runs until the iteration starts, so a job's error, a bad
    ``RINGDISPERSE_WORKERS`` included, is raised by the iteration, not by
    this call, and an iteration left before its end closes the kept pool.
    Chunks are 16 jobs, not ``search``'s 64: a sample of about
    a hundred scenarios then makes enough chunks for the caller's work to
    overlap the pool's, where two chunks of 64 finish together."""
    evaluate = functools.partial(
        evaluate_scenario, ruleset=ruleset, validate=validate, invariants=invariants)
    return map_jobs(evaluate, scenarios, workers, chunksize=16, serial_max=64)


def search(
    scenarios,
    ruleset,
    source: str,
    minimize: bool = True,
    workers: int | None = None,
) -> SearchReport:
    """Run each of the iterable ``scenarios`` under ``ruleset``, a
    ``Ruleset`` member or any ``RuleTable``; tally the verdicts and keep
    each failure, minimized unless ``minimize`` is off.  Each failure is
    minimized in the worker that judged it, in the one pool of the
    search.  The scenarios are pulled once, as the pool takes them, and
    each result is folded into the report as it arrives, so the search
    holds the tallies and the failures, not the scenarios.  ``source``
    names the scenarios in the report's first line."""
    report = SearchReport(source, ruleset.value)
    job = functools.partial(_search_job, ruleset=ruleset, minimize=minimize)
    for result, validation_count, failure in map_jobs(job, scenarios, workers, chunksize=64,
                                                      serial_max=64):
        report.total += 1
        report.tallies[result.value] = report.tallies.get(result.value, 0) + 1
        report.validation_violations += validation_count
        if failure is not None:
            report.failures.append(failure)
    return report


def exhaustive_search(
    n_max: int,
    k_max: int,
    l_max: int,
    ruleset,
    minimize: bool = True,
    workers: int | None = None,
) -> SearchReport:
    """``search`` over every small instance, ``enumerate_scenarios(n_max,
    k_max, l_max)``; a space past ``ENUMERATION_GUARD`` raises ValueError
    before any run."""
    return search(enumerate_scenarios(n_max, k_max, l_max), ruleset,
                  f"exhaustive search: n <= {n_max}, k <= {k_max}, labels in [0, {l_max}]",
                  minimize, workers)


def _search_job(scenario: Scenario, ruleset, minimize: bool) -> tuple:
    """One scenario as ``search`` judges it: its verdict, its
    count of validation violations, and for a run that did not disperse
    its ``Failure`` (None for a dispersed run), so only what the report
    reads comes back from a worker."""
    outcome = evaluate_scenario(scenario, ruleset)
    if outcome.ok:
        return outcome.result, outcome.validation_count, None
    minimized = minimize_scenario(scenario, ruleset, outcome.result) if minimize else scenario
    return outcome.result, outcome.validation_count, Failure(
        outcome.result, outcome.finding_kinds, minimized)


def _shrinks(scenario: Scenario):
    """The scenarios one shrink smaller than ``scenario``, in the order the
    minimizer tries them: each robot dropped, in label order, then each
    empty node spliced out, lowest first.  A shrink of a valid scenario is
    valid, so each is built without ``make_scenario``, as
    ``enumerate_scenarios`` builds its scenarios."""
    n, max_label, robots = scenario.n, scenario.max_label, scenario.robots
    if scenario.k > 1:
        for label in scenario.labels():
            yield Scenario(n, max_label, tuple(r for r in robots if r[0] != label))
    if n > 3 and scenario.k < n - 1:
        for gap in sorted(set(range(n)) - {node for _, node in robots}):
            yield Scenario(n - 1, max_label, tuple(
                (label, node if node < gap else node - 1) for label, node in robots))


def minimize_scenario(scenario: Scenario, ruleset, expected: RunResult) -> Scenario:
    """Greedy shrink: take the first of ``_shrinks`` that reproduces the
    failure, as long as one does.  The result reproduces it: a shrunk
    scenario did when it was taken (runs are deterministic), and an
    unshrunk one is run once more."""

    def reproduces(candidate: Scenario) -> bool:
        return run(candidate, ruleset, record_rounds=False).result is expected

    current = scenario
    while (shrunk := next(filter(reproduces, _shrinks(current)), None)) is not None:
        current = shrunk
    if current is scenario and not reproduces(current):
        raise AssertionError("minimized scenario fails to reproduce the outcome")
    return current
