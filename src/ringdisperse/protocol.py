"""Per-round decision rules: the six status subroutines and round gating.

Each phase is 19 synchronous rounds.  A robot runs the subroutine matching
its status at the phase start; a status change decided mid-phase is held
in ``pending_status`` and committed only at the phase boundary.  The
``Ruleset`` switch selects between the literal rules and a repaired
variant that fixes four flag-timing defects (see the clause comments).

``step`` is the one place that decides and writes a robot's state within
a round, and ``PARTICIPATION``, keyed by the status and leader flag, is
the one place that decides in which rounds it does.  A robot that sits
out a round perceives it but keeps nothing: ``step`` returns STAY and
changes no field.  A robot that takes part first latches the two bits
that repaired rules read later, a decrease in round 7 (merge follow) and
an increase in rounds 10-12 (retreat), then runs its subroutine, then
counts a move of a dispersal status in ``net_disp``.  Every robot that
reads a latch takes part in the rounds that set it: the non-leader
active-merge robots read ``decrease_at_7`` in round 8 and take part in
round 7, and the non-leader active-disperse and passive robots read
``increase_in_10_12`` in round 12 and take part in rounds 10-12.

``wake_rounds`` is the same table in the form the engine runs: the
rounds of a phase in which ``step`` may act on a robot, given its status
and leader flag at the phase start.  It adds the leader rounds for
leader election only, because that leader flag can turn on in round 1
or 5 of an election phase; status and every other flag the gate reads
are fixed within a phase, so in every other round ``step`` is a no-op
and the engine skips the call.

``step`` mutates the passed RobotState in place and returns the move,
always one of the three shared actions ``STAY``, ``MOVE_ZERO`` and
``MOVE_ONE``, so that a round allocates no action.
All robots' moves within a round are computed against the same pre-round
placement and committed simultaneously by the engine.
"""

from __future__ import annotations

import enum
from typing import NamedTuple

from .perception import Observation
from .ring import PORT_ONE, PORT_ZERO
from .robots import DISPERSAL_STATUSES, RobotState, StateSnapshot, Status, bit_at


class Ruleset(enum.Enum):
    LITERAL = "literal"
    REPAIRED = "repaired"


class Action(NamedTuple):
    """A robot's decision for one round: stay (port None) or move."""

    port: int | None


# the only three actions: every subroutine returns one of these constants
STAY = Action(None)
MOVE_ZERO = Action(PORT_ZERO)
MOVE_ONE = Action(PORT_ONE)

# Published participation table (status column x round), kept verbatim as
# documentation.  Where it contradicts the subroutines the subroutines
# govern; the effective table below carries the corrections.
PAPER_PARTICIPATION: dict[Status, frozenset[int]] = {
    Status.LEADER_ELECTION: frozenset({1, 2, 3, 4, 5}),
    Status.ACTIVE_MERGE: frozenset({6, 7, 8}),
    Status.ACTIVE_DISPERSE: frozenset({9, 10, 11, 12, 13, 14, 15, 17, 18, 19}),
    Status.PASSIVE: frozenset({9, 10, 11, 12, 15, 16, 17, 19}),
    Status.WAIT: frozenset({14, 17}),
    Status.JUMP: frozenset({17}),
    Status.IDLE: frozenset(),
}

# The wait/jump columns at round 14 are swapped relative to the
# subroutines: a jump robot moves in round 14, a wait robot never moves.
PARTICIPATION_CONFLICTS: tuple[tuple[Status, int], ...] = (
    (Status.WAIT, 14),
    (Status.JUMP, 14),
)

EFFECTIVE_PARTICIPATION: dict[Status, frozenset[int]] = {
    **PAPER_PARTICIPATION,
    Status.WAIT: frozenset({17}),
    Status.JUMP: frozenset({14, 17}),
}

# A leader acts only in these rounds, regardless of status: the election
# wrap-up, the merge sweep, and the forward probe.  In particular a leader
# never runs rounds 12-19, so it never settles and never leaves
# active-disperse once it gets there.
LEADER_ROUNDS = frozenset({5, 6, 7, 9, 10, 11})

# Rounds whose perception the latches keep: a decrease in round 7 and an
# increase in rounds 10-12.
LATCH_ROUNDS = frozenset({7, 10, 11, 12})

# The rounds in which a robot takes part, by (status, leader flag): a
# leader takes part in its own rounds, anyone else by status, and an idle
# robot never.
PARTICIPATION: dict[tuple[Status, bool], frozenset[int]] = {
    (status, leader): frozenset() if status is Status.IDLE
    else LEADER_ROUNDS if leader else rounds
    for status, rounds in EFFECTIVE_PARTICIPATION.items()
    for leader in (False, True)
}

_WAKE_ROUNDS = {
    (status, leader): rounds | LEADER_ROUNDS if status is Status.LEADER_ELECTION else rounds
    for (status, leader), rounds in PARTICIPATION.items()
}


def wake_rounds(status: Status, leader: bool) -> frozenset[int]:
    """The rounds of a phase in which ``step`` may act on a robot that
    starts the phase with this status and leader flag (see the module
    docstring); in every other round ``step`` is a no-op for it."""
    return _WAKE_ROUNDS[status, leader]


def participates(state: RobotState | StateSnapshot, round_in_phase: int) -> bool:
    return round_in_phase in PARTICIPATION[state.status, state.leader]


def step(state: RobotState, obs: Observation, round_in_phase: int, ruleset: Ruleset) -> Action:
    """Decide one robot's action for this round; mutates ``state``."""
    # the gate of participates(), inlined: step runs once per woken robot-round
    if round_in_phase not in PARTICIPATION[state.status, state.leader]:
        return STAY
    # the latches read by repairs 1 and 2; apply_pending_status clears them
    # at the phase boundary
    if round_in_phase in LATCH_ROUNDS:
        if round_in_phase == 7:
            if obs.decrease:
                state.decrease_at_7 = True
        elif obs.increase:
            state.increase_in_10_12 = True
    action = _SUBROUTINES[state.status](state, obs, round_in_phase, ruleset)
    if action is not STAY and state.status in DISPERSAL_STATUSES:
        state.net_disp += 1 if action is MOVE_ONE else -1
    return action


def leader_election_step(
    state: RobotState, obs: Observation, rip: int, ruleset: Ruleset
) -> Action:
    if rip == 1:
        if obs.alone and state.proceed == 0:
            state.leader = True
        elif state.proceed == 0 and bit_at(state.label, state.le_bit, state.max_size) == 1:
            # split: robots whose current bit is 1 step forward
            state.proceed = 1
            return MOVE_ONE
        return STAY

    if rip == 2:
        if state.proceed == 0 and obs.decrease:
            # the stayers detected the split and move forward to inform;
            # move_var marks them as this phase's informers so that round 3
            # returns only them, never a retiree from an earlier phase
            state.proceed = 2
            state.move_var = 2
            return MOVE_ONE
        return STAY

    if rip == 3:
        informer = state.proceed == 2 and state.move_var == 2
        if ruleset is Ruleset.REPAIRED:
            # always return and keep candidacy: the informers' signal can be
            # cancelled by a neighbouring group's arrivals (net-change
            # blindspot), so increase=false must not disqualify a candidate
            if state.proceed == 1 or informer:
                return MOVE_ZERO
            return STAY
        if (state.proceed == 1 and obs.increase) or informer:
            return MOVE_ZERO
        if state.proceed == 1 and not obs.increase:
            state.proceed = 0
            return MOVE_ZERO
        return STAY

    if rip == 4:
        if state.proceed == 1:
            return MOVE_ZERO  # probe the predecessor node
        return STAY

    if rip == 5:
        action = STAY
        if state.proceed == 1:
            if obs.alone:
                state.leader = True
            state.proceed = 0
            action = MOVE_ONE
        # bit bookkeeping for every electing robot, winners included
        if state.le_bit == state.max_size:
            state.pending_status = Status.ACTIVE_MERGE
        else:
            state.le_bit += 1
        return action

    return STAY


def active_merge_step(
    state: RobotState, obs: Observation, rip: int, ruleset: Ruleset
) -> Action:
    if rip == 6:
        if state.leader:
            return MOVE_ONE
        return STAY

    if rip == 7:
        if state.leader and obs.alone:
            # empty successor: merging is complete, return and retire the sweep
            state.pending_status = Status.ACTIVE_DISPERSE
            return MOVE_ZERO
        return STAY

    if rip == 8:
        # non-leaders only; the leader is gated out of round 8
        if ruleset is Ruleset.LITERAL:
            if obs.increase:
                state.pending_status = Status.ACTIVE_DISPERSE
                return STAY
            return MOVE_ONE
        # Repaired: follow the leader's observed departure, stop on its
        # observed return.  The literal increase=false test reads the flag
        # one round too late and makes a multi-group chain translate
        # rigidly forever.  Stop takes precedence over follow.
        if obs.increase:
            state.pending_status = Status.ACTIVE_DISPERSE
            return STAY
        if state.decrease_at_7:
            return MOVE_ONE
        return STAY

    return STAY


def _leader_probe(state: RobotState, obs: Observation, rip: int) -> Action | None:
    """Rounds 9-11: the leader keeps one empty node ahead of its group."""
    if rip == 9:
        if state.leader and state.advance == 0 and not obs.alone:
            state.advance = 1
            return MOVE_ONE
        return STAY
    if rip == 10:
        if state.leader and state.advance == 1 and obs.alone:
            return MOVE_ONE
        return STAY
    if rip == 11:
        if state.leader and state.advance == 1 and obs.alone:
            state.advance = 0
            return MOVE_ZERO
        return STAY
    return None


def _retreat_on_leader_arrival(state: RobotState, obs: Observation, ruleset: Ruleset) -> Action:
    """Round 12: a foreign leader landed here; fall back one node.

    The arrival happens during round 9 or 10, so the literal rule (which
    reads the instantaneous round-12 flag) demonstrably misses it; the
    repaired rule reads the increase latched over rounds 10-12.
    """
    if ruleset is Ruleset.REPAIRED:
        arrived = state.increase_in_10_12
    else:
        arrived = obs.increase
    if arrived:
        state.pending_status = Status.PASSIVE
        return MOVE_ZERO
    return STAY


def active_disperse_step(
    state: RobotState, obs: Observation, rip: int, ruleset: Ruleset
) -> Action:
    if rip in (9, 10, 11):
        probe = _leader_probe(state, obs, rip)
        return probe if probe is not None else STAY

    if rip == 12:
        return _retreat_on_leader_arrival(state, obs, ruleset)

    if rip == 13:
        if obs.alone and state.start == 0:
            # Repaired: only a robot still at its dispersal start node (the
            # rear of its chain) may arm the retirement timer on its own;
            # everyone else waits for the predecessor's round-18 visit.
            # The literal alone-twice rule retires inner robots early, and
            # a later split landing on an idle node then sticks forever.
            if ruleset is Ruleset.LITERAL or state.net_disp == 0:
                state.start = 1
            return STAY
        if obs.alone and state.start == 1:
            state.settle = 1
            return STAY
        # not alone: process the current label bit, then advance the cursor
        action = STAY
        if state.current_disp_bit() == 1:
            state.move_var = 1
            action = MOVE_ONE
        state.advance_disp_bit()
        return action

    if rip == 14:
        if state.move_var == 0 and obs.decrease:
            # a split happened; the stayers move forward to announce it
            state.move_var = 2
            return MOVE_ONE
        return STAY

    if rip == 15:
        if state.move_var == 0:
            state.pending_status = Status.PASSIVE
            return STAY
        if (state.move_var == 1 and not obs.increase) or state.move_var == 2:
            # movers that saw no informer arrive learned that everyone
            # moved (no split); informers return after announcing
            state.pending_status = Status.PASSIVE
            return MOVE_ZERO
        return STAY

    if rip == 17:
        if state.move_var == 1:
            if obs.decrease:
                # the occupants vacated in round 16: this node was taken
                state.pending_status = Status.WAIT
            # else: landed on an empty node, stay active; leave any pending
            # set earlier in the phase untouched
            state.start = 0
        return STAY

    if rip == 18:
        if state.settle == 1:
            return MOVE_ONE  # announce the coming retirement ahead
        return STAY

    if rip == 19:
        if state.settle == 1:
            state.pending_status = Status.IDLE
            return MOVE_ZERO
        return STAY

    return STAY


def passive_step(
    state: RobotState, obs: Observation, rip: int, ruleset: Ruleset
) -> Action:
    if rip in (9, 10, 11):
        probe = _leader_probe(state, obs, rip)
        return probe if probe is not None else STAY

    if rip == 12:
        return _retreat_on_leader_arrival(state, obs, ruleset)

    if rip == 15:
        if obs.increase:
            state.move_var = 1  # an incoming group arrived: vacate next round
        return STAY

    if rip == 16:
        if state.move_var == 1:
            return MOVE_ZERO
        return STAY

    if rip == 17:
        if state.move_var == 0:
            state.pending_status = Status.ACTIVE_DISPERSE
            return STAY
        state.pending_status = Status.JUMP
        return MOVE_ONE

    if rip == 19:
        if obs.increase:
            state.start = 1  # the predecessor announced it will retire
        return STAY

    return STAY


def jump_step(state: RobotState, obs: Observation, rip: int, ruleset: Ruleset) -> Action:
    if rip == 14:
        return MOVE_ONE  # make room for the group that arrived
    if rip == 17:
        if obs.decrease:
            state.pending_status = Status.WAIT  # landed on an occupied node
        else:
            state.pending_status = Status.ACTIVE_DISPERSE
        return STAY
    return STAY


def wait_step(state: RobotState, obs: Observation, rip: int, ruleset: Ruleset) -> Action:
    if rip == 17:
        state.pending_status = Status.PASSIVE
    return STAY


_SUBROUTINES = {
    Status.LEADER_ELECTION: leader_election_step,
    Status.ACTIVE_MERGE: active_merge_step,
    Status.ACTIVE_DISPERSE: active_disperse_step,
    Status.PASSIVE: passive_step,
    Status.WAIT: wait_step,
    Status.JUMP: jump_step,
}
