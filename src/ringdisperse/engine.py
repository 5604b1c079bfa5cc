"""Synchronous executor: round loop, perception delivery, simultaneous
commit, trace recording, termination and livelock detection."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from .perception import Observation, observe
from .protocol import Ruleset, step
from .ring import PORT_ONE, Placement, move_target
from .robots import (
    DISPERSAL_STATUSES,
    RobotState,
    StateSnapshot,
    apply_pending_status,
    max_label_bits,
)
from .scenario import Scenario

ROUNDS_PER_PHASE = 19


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
    """Robot positions and states at a phase start (pending already applied)."""

    phase: int
    nodes: dict[int, int]
    states: dict[int, StateSnapshot]  # label -> RobotState.snapshot()


@dataclass
class Trace:
    scenario: Scenario
    ruleset: Ruleset
    labels: tuple[int, ...]
    records: list[RoundRecord] = field(default_factory=list)
    phase_snapshots: list[PhaseSnapshot] = field(default_factory=list)
    result: "RunResult | None" = None  # set once the run reaches a verdict

    def snapshot_for(self, phase: int) -> PhaseSnapshot:
        snap = self.phase_snapshots[phase - 1]
        assert snap.phase == phase
        return snap


@dataclass
class RunOutcome:
    result: RunResult
    rounds_used: int
    phases_used: int
    final_placement: Placement
    trace: Trace

    @property
    def dispersed(self) -> bool:
        return self.result is RunResult.DISPERSED


def default_phase_budget(max_size: int, k: int) -> int:
    # constant multiple of the round bound, with headroom
    return 8 * (max_size + k) + 16


class Engine:
    """Executes one scenario deterministically, one round at a time."""

    def __init__(self, scenario: Scenario, ruleset: Ruleset, record_rounds: bool = True):
        self.scenario = scenario
        self.ruleset = ruleset
        self.record_rounds = record_rounds
        self.n = scenario.n
        self.max_size = max_label_bits(scenario.max_label)
        self.labels = scenario.labels()
        self.robots = {
            label: RobotState(label=label, max_size=self.max_size)
            for label in self.labels
        }
        self.placement = Placement(self.n, {label: node for label, node in scenario.robots})
        self.prev_placement = self.placement
        self.moved_last: set[int] = set()
        self.global_round = 0
        self.phase = 1
        self.round_in_phase = 1
        self.moves_in_phase = 0
        self.trace = Trace(scenario, ruleset, self.labels)
        self._snapshot_phase()

    def _snapshot_phase(self) -> None:
        self.trace.phase_snapshots.append(
            PhaseSnapshot(
                phase=self.phase,
                nodes=dict(self.placement.by_robot),
                states={label: self.robots[label].snapshot() for label in self.labels},
            )
        )

    def snapshot_key(self) -> tuple:
        """Placement plus state vector, canonicalized over ring rotations.

        The canonical placement is the lexicographic minimum over all n
        rotations.  Only the rotation that puts ``labels[0]`` on node 0
        has 0 as its first coordinate, so that rotation is the minimum and
        the key costs O(k), not O(n·k).
        """
        states = tuple(self.robots[label].snapshot() for label in self.labels)
        by_robot = self.placement.by_robot
        origin = by_robot[self.labels[0]]
        return (tuple((by_robot[label] - origin) % self.n for label in self.labels), states)

    def step_round(self) -> RoundRecord | None:
        """Run one synchronous round; returns the record when recording."""
        rip = self.round_in_phase
        placement = self.placement
        prev = self.prev_placement
        observations: dict[int, Observation] = {}
        moves: dict[int, int] = {}
        for label in self.labels:
            state = self.robots[label]
            node = placement.by_robot[label]
            obs = observe(placement.count_at(node), prev.count_at(node), label in self.moved_last)
            observations[label] = obs
            action = step(state, obs, rip, self.ruleset)
            if action.port is not None:
                moves[label] = action.port

        new_placement = placement.apply_moves(moves)
        for label, port in moves.items():
            state = self.robots[label]
            if state.status in DISPERSAL_STATUSES:
                state.net_disp += 1 if port == PORT_ONE else -1
        record = None
        if self.record_rounds:
            record = RoundRecord(
                global_round=self.global_round,
                phase=self.phase,
                round_in_phase=rip,
                moves=tuple(
                    (label, placement.by_robot[label],
                     move_target(self.n, placement.by_robot[label], port), port)
                    for label, port in sorted(moves.items())
                ),
                observations=observations,
                occupancy=new_placement.occupancy_vector(),
            )
            self.trace.records.append(record)

        self.prev_placement = placement
        self.placement = new_placement
        self.moved_last = set(moves)
        self.moves_in_phase += len(moves)
        self.global_round += 1
        if rip == ROUNDS_PER_PHASE:
            for label in self.labels:
                apply_pending_status(self.robots[label])
            self.phase += 1
            self.round_in_phase = 1
            self._snapshot_phase()
        else:
            self.round_in_phase += 1
        return record

    def run_phase(self) -> int:
        """Run the 19 rounds of the current phase; returns its move count."""
        self.moves_in_phase = 0
        for _ in range(ROUNDS_PER_PHASE):
            self.step_round()
        return self.moves_in_phase


def run(
    scenario: Scenario,
    ruleset: Ruleset = Ruleset.REPAIRED,
    max_phases: int | None = None,
    record_rounds: bool = True,
) -> RunOutcome:
    """Run to a verdict: dispersed, livelock, or budget exhaustion.

    Dispersed requires both all-distinct positions and a full phase with
    zero moves: leaders keep probing while their node is shared, so a
    merely distinct placement can be transient.  Livelock is a repeated
    phase-start snapshot up to ring rotation, which in a deterministic
    system certifies a cycle.
    """
    engine = Engine(scenario, ruleset, record_rounds=record_rounds)
    if max_phases is None:
        max_phases = default_phase_budget(engine.max_size, scenario.k)
    seen: set[tuple] = {engine.snapshot_key()}

    while True:
        phase_moves = engine.run_phase()
        finished = engine.phase - 1
        if phase_moves == 0 and engine.placement.all_distinct():
            result = RunResult.DISPERSED
            break
        key = engine.snapshot_key()
        if key in seen:
            result = RunResult.LIVELOCK
            break
        seen.add(key)
        if engine.phase > max_phases:
            result = RunResult.BUDGET_EXCEEDED
            break

    engine.trace.result = result
    return RunOutcome(
        result=result,
        rounds_used=finished * ROUNDS_PER_PHASE,
        phases_used=finished,
        final_placement=engine.placement,
        trace=engine.trace,
    )
