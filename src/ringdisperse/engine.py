"""Synchronous executor: round loop, perception delivery, simultaneous
commit, termination and livelock detection, and the feed of each round to
a sink.

The engine schedules, observes, commits and hands on; ``protocol.step``
decides and writes every robot's state.  At round 1 of every phase the
engine reads each robot's status and leader flag and builds a wake
schedule from the ruleset's ``wake`` table: per round of the phase, the
robots ``step`` may act on, and apart from them those it acts on only
when they perceive a change.  The schedule is built per (status, leader)
group, so a round steps its robots group by group, not in labels order,
and its lists are shared between rounds and only read.  That order cannot
be observed: ``step`` reads and writes only its own robot's state, the
round's moves are committed together, a sink gets the moves sorted by
label and the observations built in labels order, and the only other
trace of it, the insertion order of ``Placement.counts``, is read sorted
or by length.  ``step`` returns
the port a robot moves through, or None to stay; a skipped call is one
that would have returned None and changed nothing.

There is one round body, ``Engine._run_rounds``: ``run_phase`` runs it
over the 19 rounds of a phase and ``step_round`` over one round.  It
loads the placement, its counts, the movers of the last two rounds and
the last observations once per call and observes and steps the woken
robots.  When a sink is attached it
hands the sink each phase start (``phase_start(phase, nodes, states)``)
at the phase's round 1, from the state as it stands then, and each round
as it happens (``round(global_round, phase, rip, moves, observations,
cells)``): the moves as ``(label, from, to, port)`` in label order,
every robot's observation, the robots that sit the round out included,
and the post-round occupancy cells.  Once its last phase has run,
``run`` hands on the phase start it ends on, whatever the verdict; no
round of that phase runs.  There are two sinks, and both get this one
feed.  The ``Trace`` recorder keeps ``RoundRecord``s and
``PhaseSnapshot``s, for ``run --trace`` and the in-memory trace walks.
``verify.TraceCheck`` judges the run as it goes, so ``evaluate_scenario``
holds no trace: it builds no record and keeps no list.  Without a sink
(``record_rounds=False``, as ``sweep`` and minimization run) a round
hands nothing on and the trace holds the scenario, the ruleset and the
verdict only.

A round allocates only what it keeps: ``observe`` returns one of the
eight shared observations and ``step`` a port, the counts are read
straight from the two placements, last round's moves dict doubles as the
set of robots that moved, a round without a sink in which no robot acts
builds no dict, and a round without a move keeps its placement and
hands on the cells of the round before.  A round with a sink that
follows two rounds without a move hands on the observations dict of the
round before: no count changed over those two rounds and no robot moved
in the last one, so every robot perceives what it perceived a round
earlier.  The records of a quiet stretch thus share one dict, which
sinks treat as read-only.  A round without a sink that follows a round
without a move calls no ``observe``: no count changed and no robot
moved, so each woken robot perceives only whether it is alone.  The
robots woken only on a change are stepped by the same two rules with a
sink and without one, so ``step`` sees the same calls either way: after
a round without a move nobody perceives a change and none of them is
stepped, and in any other round one is stepped only if it stayed and its
node's count changed, the two change bits of its observation.  Only a
sink gets ``snapshot()``s, each robot's once per phase start.  Every
run, with a sink or without, builds the livelock key from the robots'
fields, so a run without a sink builds no snapshot.  A move commit adjusts
the counts of the nodes its movers leave and enter.
``observe`` and ``step`` are looked up as module globals at every call,
and ``apply_moves`` and ``occupancy_vector`` called as methods, so that a
wrapper set on this module or on ``Placement`` sees every call.
"""

from __future__ import annotations

import enum
from collections.abc import Sequence
from dataclasses import dataclass, field
from operator import attrgetter

from .perception import OBSERVATIONS, Observation, observe
from .protocol import RuleTable, Ruleset, step
from .ring import Placement, move_target
from .robots import RobotState, StateSnapshot, Status, apply_pending_status, max_label_bits
from .scenario import Scenario

ROUNDS_PER_PHASE = 19
# A robot's state in the livelock key, read from its fields: everything
# StateSnapshot holds but net_disp, its last field, and net_disp apart
_ABSTRACT_STATE = attrgetter(*StateSnapshot._fields[:-1])
_NET_DISP = attrgetter(StateSnapshot._fields[-1])
# the moves of a round without a sink in which no robot acts; never written
_NOTHING: dict = {}
# per round of a phase, the labels stepped always and those stepped only on
# a perceived change (Engine._build_wake_schedule); index 0 is unused
WakeSchedule = tuple[list[Sequence[int]], list[Sequence[int]]]


class RunResult(enum.Enum):
    DISPERSED = "dispersed"
    LIVELOCK = "livelock"
    BUDGET_EXCEEDED = "budget-exceeded"


@dataclass
class RoundRecord:
    """Full record of one executed round."""

    global_round: int
    phase: int
    round_in_phase: int
    moves: tuple[tuple[int, int, int, int], ...]  # (label, from, to, port)
    observations: dict[int, Observation]
    occupancy: tuple[tuple[int, int], ...]  # ring.occupancy_cells after the round


@dataclass
class PhaseSnapshot:
    """Robot positions and states at a phase start (pending already applied);
    taken in recorded runs only."""

    phase: int
    nodes: dict[int, int]
    states: dict[int, StateSnapshot]  # label -> RobotState.snapshot()


@dataclass
class Trace:
    """A run's round records and phase-start snapshots; both stay empty in
    a run that records nothing."""

    scenario: Scenario
    ruleset: RuleTable
    records: list[RoundRecord] = field(default_factory=list)
    phase_snapshots: list[PhaseSnapshot] = field(default_factory=list)
    result: "RunResult | None" = None  # set once the run reaches a verdict

    def phase_start(self, phase: int, nodes: dict[int, int],
                    states: dict[int, StateSnapshot]) -> None:
        self.phase_snapshots.append(PhaseSnapshot(phase, dict(nodes), states))

    def round(self, global_round: int, phase: int, rip: int, moves: tuple,
              observations: dict[int, Observation], cells: tuple) -> None:
        self.records.append(RoundRecord(global_round, phase, rip, moves, observations, cells))

    def check_recorded(self) -> None:
        """ValueError when the trace holds neither records nor snapshots, as
        the trace of a run with ``record_rounds=False`` does: there is
        nothing to judge or to write, and an empty walk would pass."""
        if not self.records and not self.phase_snapshots:
            raise ValueError("the trace holds no records and no snapshots: "
                             "its run was not recorded")

    def snapshot_for(self, phase: int) -> PhaseSnapshot:
        """The snapshot taken at the start of ``phase``.  Raises ValueError
        when the trace holds none for it; an unrecorded run holds none."""
        if not 1 <= phase <= len(self.phase_snapshots):
            raise ValueError(f"the trace holds no snapshot for phase {phase} "
                             f"({len(self.phase_snapshots)} snapshots)")
        snap = self.phase_snapshots[phase - 1]
        if snap.phase != phase:
            raise ValueError(f"the snapshot stored for phase {phase} is of phase {snap.phase}")
        return snap


@dataclass
class RunOutcome:
    result: RunResult
    rounds_used: int
    phases_used: int
    final_placement: Placement
    trace: Trace
    # a livelock's proven cycle (a, b): phase start a repeats at phase start
    # b, the one the run ends on; None for any other verdict
    cycle: tuple[int, int] | None = None

    @property
    def dispersed(self) -> bool:
        return self.result is RunResult.DISPERSED


def phase_budget(max_size: int, k: int) -> int:
    """The phase bound a run may not exceed: 8(p + k), p = MaxSize.

    The paper bounds dispersal at O(log L + k) rounds; the highest measured
    dispersed phases/(p + k) is 2.29 on the (6,4,7) space and 2.38 on
    n = 26, L = 1023, k = 2..24.  A run cut here without a provable cycle
    has broken that bound.
    """
    return 8 * (max_size + k)


def zero_test_stable(value: int, delta: int) -> bool:
    """True when ``value + j*delta == 0`` reads the same for every j >= 0.

    ``value`` is a robot's ``net_disp`` entering round 13 of some phase of
    a cycle and ``delta`` the change of its ``net_disp`` over one pass of
    the cycle, so ``value + j*delta`` is what that round reads in pass j.
    """
    if delta == 0:
        return True
    if value == 0:
        return False
    # value + j*delta == 0 for some j >= 1 iff delta divides -value with a
    # positive quotient
    quotient, remainder = divmod(-value, delta)
    return remainder != 0 or quotient < 1


class Engine:
    """Executes one scenario deterministically, one round at a time.

    ``sink`` receives each phase start and round (see the module
    docstring); without one, ``record_rounds`` makes the trace the sink.
    """

    def __init__(self, scenario: Scenario, ruleset: RuleTable, record_rounds: bool = True,
                 sink=None):
        self.scenario = scenario
        self.ruleset = ruleset
        self.n = scenario.n
        self.max_size = max_label_bits(scenario.max_label)
        self.labels = scenario.labels()
        self.robots = {
            label: RobotState(label=label, max_size=self.max_size)
            for label in self.labels
        }
        self.placement = Placement(self.n, {label: node for label, node in scenario.robots})
        self.prev_placement = self.placement
        # last round's moves, label -> port: the robots that moved; and the
        # moves of the round before it
        self.moved_last: dict[int, int] = {}
        self.moved_before_last: dict[int, int] = {}
        # last round's observations, handed to the sink; None until a
        # round with a sink has run
        self.observations: dict[int, Observation] | None = None
        self.global_round = 0
        self.phase = 1
        self.round_in_phase = 1
        # per finished phase, each robot's net_disp entering round 13, the
        # one round whose rule can read it (in labels order)
        self.net_disp_at_13: list[tuple[int, ...]] = []
        # the wake schedule of the current phase (_build_wake_schedule);
        # built at round 1
        self.wake_schedule: WakeSchedule = ([], [])
        self.trace = Trace(scenario, ruleset)
        self.sink = sink if sink is not None else self.trace if record_rounds else None

    def _hand_on_phase_start(self, phase: int, placement: Placement) -> None:
        """Hand the sink every robot's snapshot for the start of ``phase``;
        the sink is the only taker of snapshots."""
        robots = self.robots
        self.sink.phase_start(phase, placement.by_robot,
                              {label: robots[label].snapshot() for label in self.labels})

    def snapshot_key(self) -> tuple:
        """The livelock key, split as ((placement, states without
        ``net_disp``), ``net_disp`` vector), canonicalized over ring
        rotations; the states are read from the robots' fields, in labels
        order, as the ``StateSnapshot`` fields.

        The canonical placement is the lexicographic minimum over all n
        rotations.  Only the rotation that puts ``labels[0]`` on node 0
        has 0 as its first coordinate, so that rotation is the minimum and
        the key costs O(k), not O(n·k).
        """
        labels, by_robot, robots = self.labels, self.placement.by_robot, self.robots
        origin, n = by_robot[labels[0]], self.n
        states = [robots[label] for label in labels]
        return ((tuple([(by_robot[label] - origin) % n for label in labels]),
                 tuple(map(_ABSTRACT_STATE, states))), tuple(map(_NET_DISP, states)))

    def _build_wake_schedule(self) -> WakeSchedule:
        """Per round of the phase now starting, the labels ``ruleset.wake``
        steps in it always and those it steps only on a perceived change;
        index 0 is unused.

        The labels are grouped by (status, leader) in one pass, each group
        in labels order, and a round's labels are its groups' in the order
        the groups were first met.  A round that no group wakes holds the
        shared empty tuple and a round that one group wakes holds that
        group's list, so the lists are shared and read only.  The order
        within a round cannot be observed (see the module docstring)."""
        groups: dict[tuple[Status, bool], list[int]] = {}
        for label, state in self.robots.items():
            key = state.status, state.leader
            group = groups.get(key)
            if group is None:
                groups[key] = [label]
            else:
                group.append(label)
        woken: list[Sequence[int]] = [()] * (ROUNDS_PER_PHASE + 1)
        on_change: list[Sequence[int]] = [()] * (ROUNDS_PER_PHASE + 1)
        wake = self.ruleset.wake
        for key, group in groups.items():
            always, changed = wake[key]
            for rip in always:
                slot = woken[rip]
                woken[rip] = slot + group if slot else group
            for rip in changed:
                slot = on_change[rip]
                on_change[rip] = slot + group if slot else group
        return woken, on_change

    def _run_rounds(self, count: int) -> int:
        """The round body: run ``count`` synchronous rounds from the current
        one, handing each phase start and round to the sink if there is one.
        Returns the number of moves committed."""
        robots, labels, ruleset, n = self.robots, self.labels, self.ruleset, self.n
        sink = self.sink
        placement, prev_placement = self.placement, self.prev_placement
        moved_last, moved_before_last = self.moved_last, self.moved_before_last
        observations = self.observations
        phase, rip, global_round = self.phase, self.round_in_phase, self.global_round
        woken_by_round, on_change_by_round = self.wake_schedule
        moves_made = 0
        cells = None  # the occupancy cells of the current placement, once computed
        for _ in range(count):
            if rip == 1:
                if sink is not None:
                    self._hand_on_phase_start(phase, placement)
                self.wake_schedule = woken_by_round, on_change_by_round = (
                    self._build_wake_schedule())
            elif rip == 13:
                # self.robots is keyed in labels order
                self.net_disp_at_13.append(tuple(map(_NET_DISP, robots.values())))
            woken = woken_by_round[rip]
            # after a round without a move no count changed and no robot
            # moved last, so nobody perceives a change and the robots stepped
            # only on one sit the round out
            on_change = on_change_by_round[rip] if moved_last else ()
            if woken or on_change or sink is not None:
                by_robot = placement.by_robot
                counts = placement.counts
                # a robot's node may have been empty a round earlier
                prev_counts = prev_placement.counts
                moves: dict[int, int] = {}
                if sink is None and not moved_last:
                    # each robot perceives only whether it is alone
                    for label in woken:
                        port = step(robots[label], OBSERVATIONS[4 if counts[by_robot[label]] == 1
                                                                else 0], rip, ruleset)
                        if port is not None:
                            moves[label] = port
                elif sink is None:
                    for label in woken:
                        node = by_robot[label]
                        port = step(robots[label], observe(
                            counts[node], prev_counts.get(node, 0), label in moved_last),
                            rip, ruleset)
                        if port is not None:
                            moves[label] = port
                    # a robot perceives a change if it stayed and its
                    # node's count changed
                    for label in on_change:
                        node = by_robot[label]
                        now, before = counts[node], prev_counts.get(node, 0)
                        if now != before and label not in moved_last:
                            port = step(robots[label], observe(now, before, False),
                                        rip, ruleset)
                            if port is not None:
                                moves[label] = port
                else:
                    # after two rounds without a move, a round perceives
                    # what the round before it perceived
                    if moved_last or moved_before_last or observations is None:
                        observations = {}
                        for label in labels:
                            node = by_robot[label]
                            observations[label] = observe(
                                counts[node], prev_counts.get(node, 0), label in moved_last)
                    for label in woken:
                        port = step(robots[label], observations[label], rip, ruleset)
                        if port is not None:
                            moves[label] = port
                    for label in on_change:
                        observation = observations[label]
                        if observation.increase or observation.decrease:
                            port = step(robots[label], observation, rip, ruleset)
                            if port is not None:
                                moves[label] = port
            else:  # no sink and nobody acts: no move
                moves = _NOTHING

            if moves:
                new_placement = placement.apply_moves(moves)
                moves_made += len(moves)
                cells = None
            else:  # the placement, and so its cells, stay
                new_placement = placement
            if sink is not None:
                if cells is None:
                    cells = new_placement.occupancy_vector()
                sink.round(global_round, phase, rip, tuple(
                    (label, by_robot[label], move_target(n, by_robot[label], port), port)
                    for label, port in sorted(moves.items())) if moves else (),
                    observations, cells)
            prev_placement, placement = placement, new_placement
            moved_before_last, moved_last = moved_last, moves
            global_round += 1
            if rip == ROUNDS_PER_PHASE:
                for label in labels:
                    apply_pending_status(robots[label])
                phase += 1
                rip = 1
            else:
                rip += 1
        self.placement, self.prev_placement = placement, prev_placement
        self.moved_last, self.moved_before_last = moved_last, moved_before_last
        self.observations = observations
        self.phase, self.round_in_phase, self.global_round = phase, rip, global_round
        return moves_made

    def step_round(self) -> None:
        """Run one synchronous round."""
        self._run_rounds(1)

    def run_phase(self) -> int:
        """Run the 19 rounds of the current phase; returns its move count."""
        return self._run_rounds(ROUNDS_PER_PHASE)


def _repeats_forever(
    engine: Engine, a: int, disp_a: tuple[int, ...], disp_b: tuple[int, ...]
) -> bool:
    """Whether phases [a, b) repeat forever, given equal keys modulo
    ``net_disp`` at phase starts a and b; b is the engine's current phase."""
    if not engine.ruleset.reads_net_disp:
        return True
    deltas = [(i, after - before)
              for i, (before, after) in enumerate(zip(disp_a, disp_b)) if after != before]
    return all(
        zero_test_stable(values[i], delta)
        for values in engine.net_disp_at_13[a - 1:engine.phase - 1]
        for i, delta in deltas
    )


def run(
    scenario: Scenario,
    ruleset: RuleTable = Ruleset.REPAIRED,
    max_phases: int | None = None,
    record_rounds: bool = True,
    sink=None,
) -> RunOutcome:
    """Run to a verdict: dispersed, livelock, or budget exhaustion.

    ``sink`` gets every phase start and round as it happens, in place of
    the trace's records (see the module docstring); ``record_rounds=False``
    without a sink keeps nothing.

    Dispersed requires both all-distinct positions and a full phase with
    zero moves: leaders keep probing while their node is shared, so a
    merely distinct placement can be transient.

    Livelock is a proven cycle.  At every phase start the run compares
    the state, up to ring rotation and with each robot's ``net_disp``
    left out, with every earlier phase start.  ``net_disp`` must be left
    out: it grows without bound while a chain translates, so the exact
    state of a translating cycle never repeats.  Suppose phase starts a
    and b (a < b) have equal keys.  The rules see no node identities and
    read ``net_disp`` in one place only, ``net_disp == 0`` in round 13 of
    active-disperse under a ruleset whose ``reads_net_disp`` is set (the
    repaired rules, repair 4).  So as long as that test
    reads the same, phases b, b+1, ... replay phases a, a+1, ... with the
    placement rotated: the same statuses, moves and perceptions.  Each
    robot's ``net_disp`` then changes by the same delta over every pass
    of the cycle, and a round-13 value v of pass 0 reads v + j*delta in
    pass j.  By induction over the passes the cycle repeats forever if,
    for every robot with delta != 0, no round-13 value v in phases
    [a, b) is 0 and no j >= 1 gives v + j*delta == 0
    (``zero_test_stable``).  A run that repeats forever never passes a
    quiet, all-distinct phase, since no phase of [a, b) was one.  The
    rules of a ruleset without ``reads_net_disp`` (the literal rules)
    never read ``net_disp``, so under them every repeat is a cycle.  An
    exact repeat (every delta 0) is always one.

    The key leaves out the robots' perception state across the round 19
    -> round 1 boundary as well (the previous placement and who moved
    last), which can differ between a and b.  That state sets only the
    increase and decrease flags of round 1, and no rule reads either in
    round 1: the one round-1 rule, leader election's, reads ``alone``
    only, and the latches are set in rounds 7 and 10-12.

    Every earlier phase start is kept with its ``net_disp`` vector, and
    the test runs against each one with the same key, so an exact repeat
    is never missed.  A livelock's ``RunOutcome.cycle`` is (a, b) for the
    earliest such a.  A run that reaches ``max_phases`` (by default
    ``phase_budget``) without a proven cycle is budget-exceeded.
    """
    engine = Engine(scenario, ruleset, record_rounds=record_rounds, sink=sink)
    if max_phases is None:
        max_phases = phase_budget(engine.max_size, scenario.k)
    abstract, disp = engine.snapshot_key()
    cycle = None
    # key modulo net_disp -> the (phase, net_disp vector) of each phase start with it
    seen: dict[tuple, list[tuple[int, tuple[int, ...]]]] = {abstract: [(engine.phase, disp)]}

    while True:
        phase_moves = engine.run_phase()
        finished = engine.phase - 1
        if phase_moves == 0 and engine.placement.all_distinct():
            result = RunResult.DISPERSED
            break
        abstract, disp = engine.snapshot_key()
        earlier = seen.setdefault(abstract, [])
        cycle = next(((a, engine.phase) for a, disp_a in earlier
                      if _repeats_forever(engine, a, disp_a, disp)), None)
        if cycle is not None:
            result = RunResult.LIVELOCK
            break
        earlier.append((engine.phase, disp))
        if engine.phase > max_phases:
            result = RunResult.BUDGET_EXCEEDED
            break

    if engine.sink is not None:
        # the phase start the run ends on; no round of it runs
        engine._hand_on_phase_start(engine.phase, engine.placement)
    engine.trace.result = result
    return RunOutcome(
        result=result,
        rounds_used=finished * ROUNDS_PER_PHASE,
        phases_used=finished,
        final_placement=engine.placement,
        trace=engine.trace,
        cycle=cycle,
    )
