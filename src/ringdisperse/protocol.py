"""Per-round decision rules, one per (status, round) cell, and round gating.

Each phase is 19 synchronous rounds.  ``RULES[status][round]`` is the
literal rule a robot runs in that round given its status at the phase
start: the one copy of the per-round rules.  A status change decided
mid-phase is held in ``pending_status`` and committed only at the phase
boundary.  A ruleset is data, not a branch in a rule: ``RuleTable(name,
overlay)``, the one constructor of a ruleset, is ``RULES`` with the cells
of ``overlay`` replaced, and carries the tables derived from those cells.
Both ``Ruleset`` members are built by it: the literal ruleset replaces no
cell, the repaired one the five cells of ``REPAIRS``, which fix four
flag-timing defects; any other overlay runs wherever a member does.  A
ruleset's ``reads_net_disp`` says whether its rules read ``net_disp``; a
rule counts as a reader unless it is known not to be one (every literal
rule and repairs 1-3).  Of the members only the repaired ruleset reads
it, in round 13 of active-disperse (repair 4), and ``engine.run``'s
livelock proof rests on that.

``wake_rounds(status, leader)`` is the one table of the rounds in which a
robot acts, given its status and leader flag at the phase start: the
rounds its status has a rule cell for, for a leader only those in
``LEADER_ROUNDS``, and none for an idle robot.  A repair replaces a cell
and never adds one, so both rulesets share it.  ``step`` is the one place
that decides and writes a robot's state within a round; in any other
round it returns STAY and changes no field, so the engine skips the call,
and the trace checker judges every move by the same table.  The leader
flag of an election can turn on in round 1, and that needs no extra
round: a leader's cells are the non-leader's cells that lie in
``LEADER_ROUNDS``, so the leader's round 5 is already a non-leader's wake
round.  Status and every other flag the dispatch reads are fixed within a
phase.

A robot that acts first latches the two bits that repaired rules read
later, a decrease in round 7 (merge follow) and an increase in rounds
10-12 (retreat), then runs its rule, then counts a move of a dispersal
status in ``net_disp``.  Every robot that reads a latch acts in the rounds
that set it: the non-leader active-merge robots read ``decrease_at_7`` in
round 8 and act in round 7, and the non-leader active-disperse and
passive robots read ``increase_in_10_12`` in round 12 and act in rounds
10-12.  A leader round with no rule cell (6, 7 and 9-11 of an election, 5
and 9-11 of a merge, 5-7 of active-disperse) could at most set a latch,
and no leader ever reads one: the reading cells lie outside
``LEADER_ROUNDS`` and no rule clears ``leader``.  The latches are cleared
at every phase boundary and appear in no snapshot, livelock key or trace,
so such a round is not run, and a leader that moves in it breaks
participation.

A ruleset's ``wake[status, leader]`` splits the wake rounds in two: the
rounds the robot is always stepped in, and the rounds whose cells act
only on a perceived change.  Given neither an increase nor a decrease,
``step`` returns STAY in the latter and changes no field, the latches
included.  Their rules read only a change bit (``_CHANGE_RULES``), or are
a leader's rules (``_LEADER_RULES``) in a non-leader's cell, which acts at
most through a latch that ``step`` sets only on a change.  Any other rule,
a repair included, is stepped in every wake round of its cell.  The
engine steps a robot in the on-change rounds only when it perceives a
change.

``step`` mutates the passed RobotState in place and returns a port, the
one the robot moves through, or None to stay: ``MOVE_ZERO``, ``MOVE_ONE``
and ``STAY`` in the rules.
All robots' moves within a round are computed against the same pre-round
placement and committed simultaneously by the engine.
"""

from __future__ import annotations

import enum
from typing import Callable

from .perception import Observation
from .ring import PORT_ONE, PORT_ZERO
from .robots import DISPERSAL_STATUSES, RobotState, Status, bit_at


# a robot's decision for one round: stay, or the port it moves through
STAY = None
MOVE_ZERO = PORT_ZERO
MOVE_ONE = PORT_ONE

# Published participation table (status column x round), kept verbatim as
# documentation.  Where it contradicts the rules the rules govern, and the
# wake table derived from them carries the corrections.
PAPER_PARTICIPATION: dict[Status, frozenset[int]] = {
    Status.LEADER_ELECTION: frozenset({1, 2, 3, 4, 5}),
    Status.ACTIVE_MERGE: frozenset({6, 7, 8}),
    Status.ACTIVE_DISPERSE: frozenset({9, 10, 11, 12, 13, 14, 15, 17, 18, 19}),
    Status.PASSIVE: frozenset({9, 10, 11, 12, 15, 16, 17, 19}),
    Status.WAIT: frozenset({14, 17}),
    Status.JUMP: frozenset({17}),
    Status.IDLE: frozenset(),
}

# The wait/jump columns at round 14 are swapped relative to the rules: a
# jump robot moves in round 14, a wait robot never moves.
PARTICIPATION_CONFLICTS: tuple[tuple[Status, int], ...] = (
    (Status.WAIT, 14),
    (Status.JUMP, 14),
)

# A leader acts only in these rounds, regardless of status: the election
# wrap-up, the merge sweep, and the forward probe.  In particular a leader
# never runs rounds 12-19, so it never settles and never leaves
# active-disperse once it gets there.
LEADER_ROUNDS = frozenset({5, 6, 7, 9, 10, 11})

# Rounds whose perception the latches keep: a decrease in round 7 and an
# increase in rounds 10-12.
LATCH_ROUNDS = frozenset({7, 10, 11, 12})

# one status's decision in one round; it may write the state it is given
Rule = Callable[[RobotState, Observation], int | None]


# -- leader election, rounds 1-5 ----------------------------------------------


def _elect_alone_or_split(state: RobotState, obs: Observation) -> int | None:
    if obs.alone and state.proceed == 0:
        state.leader = True
    elif state.proceed == 0 and bit_at(state.label, state.le_bit, state.max_size) == 1:
        # split: robots whose current bit is 1 step forward
        state.proceed = 1
        return MOVE_ONE
    return STAY


def _inform_split(state: RobotState, obs: Observation) -> int | None:
    if state.proceed == 0 and obs.decrease:
        # the stayers detected the split and move forward to inform;
        # move_var marks them as this phase's informers so that round 3
        # returns only them, never a retiree from an earlier phase
        state.proceed = 2
        state.move_var = 2
        return MOVE_ONE
    return STAY


def _return_from_split(state: RobotState, obs: Observation) -> int | None:
    informer = state.proceed == 2 and state.move_var == 2
    if (state.proceed == 1 and obs.increase) or informer:
        return MOVE_ZERO
    if state.proceed == 1 and not obs.increase:
        state.proceed = 0
        return MOVE_ZERO
    return STAY


def _probe_predecessor(state: RobotState, obs: Observation) -> int | None:
    if state.proceed == 1:
        return MOVE_ZERO  # probe the predecessor node
    return STAY


def _election_result(state: RobotState, obs: Observation) -> int | None:
    port = STAY
    if state.proceed == 1:
        if obs.alone:
            state.leader = True
        state.proceed = 0
        port = MOVE_ONE
    # bit bookkeeping for every electing robot, winners included
    if state.le_bit == state.max_size:
        state.pending_status = Status.ACTIVE_MERGE
    else:
        state.le_bit += 1
    return port


# -- active merge, rounds 6-8 -------------------------------------------------


def _merge_sweep_out(state: RobotState, obs: Observation) -> int | None:
    if state.leader:
        return MOVE_ONE
    return STAY


def _merge_sweep_end(state: RobotState, obs: Observation) -> int | None:
    if state.leader and obs.alone:
        # empty successor: merging is complete, return and retire the sweep
        state.pending_status = Status.ACTIVE_DISPERSE
        return MOVE_ZERO
    return STAY


def _merge_follow(state: RobotState, obs: Observation) -> int | None:
    # non-leaders only; the leader is gated out of round 8
    if obs.increase:
        state.pending_status = Status.ACTIVE_DISPERSE
        return STAY
    return MOVE_ONE


# -- rounds 9-12, shared by active-disperse and passive -----------------------
# Rounds 9-11: the leader keeps one empty node ahead of its group.


def _probe_ahead(state: RobotState, obs: Observation) -> int | None:
    if state.leader and state.advance == 0 and not obs.alone:
        state.advance = 1
        return MOVE_ONE
    return STAY


def _probe_onward(state: RobotState, obs: Observation) -> int | None:
    if state.leader and state.advance == 1 and obs.alone:
        return MOVE_ONE
    return STAY


def _probe_back(state: RobotState, obs: Observation) -> int | None:
    if state.leader and state.advance == 1 and obs.alone:
        state.advance = 0
        return MOVE_ZERO
    return STAY


def _retreat_on_leader_arrival(state: RobotState, obs: Observation) -> int | None:
    """Round 12: a foreign leader landed here; fall back one node."""
    if obs.increase:
        state.pending_status = Status.PASSIVE
        return MOVE_ZERO
    return STAY


# -- active disperse, rounds 13-19 --------------------------------------------


def _split_or_settle(state: RobotState, obs: Observation) -> int | None:
    if obs.alone and state.start == 0:
        state.start = 1
        return STAY
    if obs.alone and state.start == 1:
        state.settle = 1
        return STAY
    # not alone: process the current label bit, then advance the cursor
    port = STAY
    if state.current_disp_bit() == 1:
        state.move_var = 1
        port = MOVE_ONE
    state.advance_disp_bit()
    return port


def _announce_split(state: RobotState, obs: Observation) -> int | None:
    if state.move_var == 0 and obs.decrease:
        # a split happened; the stayers move forward to announce it
        state.move_var = 2
        return MOVE_ONE
    return STAY


def _split_outcome(state: RobotState, obs: Observation) -> int | None:
    if state.move_var == 0:
        state.pending_status = Status.PASSIVE
        return STAY
    if (state.move_var == 1 and not obs.increase) or state.move_var == 2:
        # movers that saw no informer arrive learned that everyone
        # moved (no split); informers return after announcing
        state.pending_status = Status.PASSIVE
        return MOVE_ZERO
    return STAY


def _mover_landing(state: RobotState, obs: Observation) -> int | None:
    if state.move_var == 1:
        if obs.decrease:
            # the occupants vacated in round 16: this node was taken
            state.pending_status = Status.WAIT
        # else: landed on an empty node, stay active; leave any pending
        # set earlier in the phase untouched
        state.start = 0
    return STAY


def _announce_retirement(state: RobotState, obs: Observation) -> int | None:
    if state.settle == 1:
        return MOVE_ONE  # announce the coming retirement ahead
    return STAY


def _retire(state: RobotState, obs: Observation) -> int | None:
    if state.settle == 1:
        state.pending_status = Status.IDLE
        return MOVE_ZERO
    return STAY


# -- passive, rounds 15-19 ----------------------------------------------------


def _hear_arrival(state: RobotState, obs: Observation) -> int | None:
    if obs.increase:
        state.move_var = 1  # an incoming group arrived: vacate next round
    return STAY


def _vacate(state: RobotState, obs: Observation) -> int | None:
    if state.move_var == 1:
        return MOVE_ZERO
    return STAY


def _reactivate_or_jump(state: RobotState, obs: Observation) -> int | None:
    if state.move_var == 0:
        state.pending_status = Status.ACTIVE_DISPERSE
        return STAY
    state.pending_status = Status.JUMP
    return MOVE_ONE


def _hear_retirement(state: RobotState, obs: Observation) -> int | None:
    if obs.increase:
        state.start = 1  # the predecessor announced it will retire
    return STAY


# -- jump and wait ------------------------------------------------------------


def _make_room(state: RobotState, obs: Observation) -> int | None:
    return MOVE_ONE  # make room for the group that arrived


def _jump_landing(state: RobotState, obs: Observation) -> int | None:
    if obs.decrease:
        state.pending_status = Status.WAIT  # landed on an occupied node
    else:
        state.pending_status = Status.ACTIVE_DISPERSE
    return STAY


def _end_wait(state: RobotState, obs: Observation) -> int | None:
    state.pending_status = Status.PASSIVE
    return STAY


# The rounds 9-12 rules of active-disperse and passive: the leader's
# forward probe and the retreat from a foreign leader.
_PROBE_AND_RETREAT: dict[int, Rule] = {
    9: _probe_ahead, 10: _probe_onward, 11: _probe_back, 12: _retreat_on_leader_arrival,
}

# RULES[status][round]: the rule a robot with this status at the phase
# start runs in this round, the one copy of the per-round rules.
RULES: dict[Status, dict[int, Rule]] = {
    Status.LEADER_ELECTION: {1: _elect_alone_or_split, 2: _inform_split,
                             3: _return_from_split, 4: _probe_predecessor,
                             5: _election_result},
    Status.ACTIVE_MERGE: {6: _merge_sweep_out, 7: _merge_sweep_end, 8: _merge_follow},
    Status.ACTIVE_DISPERSE: {**_PROBE_AND_RETREAT, 13: _split_or_settle,
                             14: _announce_split, 15: _split_outcome, 17: _mover_landing,
                             18: _announce_retirement, 19: _retire},
    Status.PASSIVE: {**_PROBE_AND_RETREAT, 15: _hear_arrival, 16: _vacate,
                     17: _reactivate_or_jump, 19: _hear_retirement},
    Status.WAIT: {17: _end_wait},
    Status.JUMP: {14: _make_room, 17: _jump_landing},
    Status.IDLE: {},
}


# -- the four repairs of the repaired ruleset ---------------------------------
# Each replaces a rule cell of RULES; 1, 3 and 4 are a guard in front of the
# literal rule they amend.


def _follow_observed_departure(state: RobotState, obs: Observation) -> int | None:
    """Repair 1, round 8: follow the leader's observed departure, stop on
    its observed return (stop takes precedence).  The literal
    increase=false test reads the flag one round too late and makes a
    multi-group chain translate rigidly forever."""
    if not obs.increase and not state.decrease_at_7:
        return STAY
    return _merge_follow(state, obs)


def _retreat_on_latched_arrival(state: RobotState, obs: Observation) -> int | None:
    """Repair 2, round 12: the foreign leader lands during round 9 or 10,
    so the literal rule, which reads the instantaneous round-12 flag,
    demonstrably misses it; this one reads the increase latched over
    rounds 10-12."""
    if state.increase_in_10_12:
        state.pending_status = Status.PASSIVE
        return MOVE_ZERO
    return STAY


def _keep_candidacy(state: RobotState, obs: Observation) -> int | None:
    """Repair 3, round 3: a candidate always returns and keeps candidacy.
    The informers' signal can be cancelled by a neighbouring group's
    arrivals (net-change blindspot), so increase=false must not
    disqualify it."""
    if state.proceed == 1:
        return MOVE_ZERO
    return _return_from_split(state, obs)


def _arm_only_at_start(state: RobotState, obs: Observation) -> int | None:
    """Repair 4, round 13: only a robot still at its dispersal start node
    (the rear of its chain) may arm the retirement timer on its own;
    everyone else waits for the predecessor's round-18 visit.  The literal
    alone-twice rule retires inner robots early, and a later split landing
    on an idle node then sticks forever."""
    if obs.alone and state.start == 0 and state.net_disp != 0:
        return STAY
    return _split_or_settle(state, obs)


# REPAIRS[status, round]: the cells of RULES the repaired ruleset replaces.
REPAIRS: dict[tuple[Status, int], Rule] = {
    (Status.ACTIVE_MERGE, 8): _follow_observed_departure,
    (Status.ACTIVE_DISPERSE, 12): _retreat_on_latched_arrival,
    (Status.PASSIVE, 12): _retreat_on_latched_arrival,
    (Status.LEADER_ELECTION, 3): _keep_candidacy,
    (Status.ACTIVE_DISPERSE, 13): _arm_only_at_start,
}

# The rounds in which a robot acts, by its status and leader flag at the
# phase start (wake_rounds): its status's rule cells, for a leader only
# those in LEADER_ROUNDS.  A leader round without a cell is left out: a
# step there could at most set a latch, which only non-leader rules read.
_WAKE_ROUNDS: dict[tuple[Status, bool], frozenset[int]] = {
    (status, leader): frozenset(rules) & LEADER_ROUNDS if leader else frozenset(rules)
    for status, rules in RULES.items()
    for leader in (False, True)
}


# The rules that act only on a perceived change: given neither an increase
# nor a decrease, each returns STAY and writes nothing.
_CHANGE_RULES = frozenset({_inform_split, _retreat_on_leader_arrival, _announce_split,
                           _hear_arrival, _hear_retirement})
# The rules that act only for a leader.  In a non-leader's cell such a rule
# acts at most through the latch step sets, and step sets one only on a change.
_LEADER_RULES = frozenset({_merge_sweep_out, _merge_sweep_end,
                           _probe_ahead, _probe_onward, _probe_back})
# The rules known to leave net_disp unread: every literal rule and repairs
# 1-3.  Any other rule counts as reading it, which can only make engine.run's
# livelock proof stricter.
_NET_DISP_UNREAD = frozenset(
    {rule for rules in RULES.values() for rule in rules.values()}
    | {_follow_observed_departure, _retreat_on_latched_arrival, _keep_candidacy})


def _acts_only_on_change(rule: Rule | None, leader: bool) -> bool:
    return rule is None or rule in _CHANGE_RULES or (not leader and rule in _LEADER_RULES)


class RuleTable:
    """A ruleset: ``RULES`` with the cells of its ``overlay`` replaced, and
    the tables derived from its cells once, when it is built, for the
    members and any other overlay alike.  Its ``value`` is its name.  It
    pickles by name and overlay, its rules named by function, so a pool
    worker rebuilds the tables; a member pickles by name.

    ``dispatch[status]`` is a pair indexed by the leader flag, the
    non-leader's cells then the leader's: ``dispatch[status][leader]``
    maps each of ``wake_rounds(status, leader)`` to the rule ``step`` runs
    there, so ``step`` finds its cell without building a tuple key.
    ``wake[status, leader]`` splits those rounds, given the status and
    leader flag at the phase start, into two sorted tuples: the rounds the
    engine always steps the robot in, and those in which every cell acts
    only on a perceived change (for leader election also the leader's
    cells, since its leader flag can turn on in round 1).
    ``reads_net_disp`` is true when some cell's rule is not known to leave
    ``net_disp`` unread; ``engine.run``'s livelock proof rests on it.  So
    a rule that is neither a literal rule nor a repair, a wrapper
    included, is stepped in every wake round of its cell and counts as a
    reader: soundness by construction.
    """

    def __init__(self, name: str, overlay: dict[tuple[Status, int], Rule]):
        self._value_ = name
        self.overlay = overlay
        self.dispatch: dict[Status, tuple[dict[int, Rule], dict[int, Rule]]] = {
            status: tuple({rip: overlay.get((status, rip), RULES[status][rip])
                           for rip in sorted(_WAKE_ROUNDS[status, leader])}
                          for leader in (False, True))
            for status in RULES
        }
        self.wake: dict[tuple[Status, bool], tuple[tuple[int, ...], tuple[int, ...]]] = {}
        for (status, leader), rounds in _WAKE_ROUNDS.items():
            held = (leader, True) if status is Status.LEADER_ELECTION else (leader,)
            on_change = {rip for rip in rounds if all(
                _acts_only_on_change(self.dispatch[status][now].get(rip), now) for now in held)}
            self.wake[status, leader] = (tuple(sorted(rounds - on_change)),
                                         tuple(sorted(on_change)))
        self.reads_net_disp = any(rule not in _NET_DISP_UNREAD
                                  for both in self.dispatch.values()
                                  for cells in both for rule in cells.values())

    @property
    def value(self) -> str:
        return self._value_

    def __reduce__(self):
        return RuleTable, (self._value_, self.overlay)


class Ruleset(RuleTable, enum.Enum):
    """The two shipped rulesets, the ones the CLI names, each built by
    ``RuleTable``.  A member's value is its name; it hashes by identity
    and pickles by name, as any enum member."""

    LITERAL = "literal", {}
    REPAIRED = "repaired", REPAIRS

    # the enum maps a value to its member before __init__ runs, so the value
    # is set here as well
    def __new__(cls, name: str, overlay: dict[tuple[Status, int], Rule]):
        member = object.__new__(cls)
        member._value_ = name
        return member

    # hash by identity, as Status does, not by name
    __hash__ = object.__hash__


def wake_rounds(status: Status, leader: bool) -> frozenset[int]:
    """The rounds of a phase in which a robot that starts the phase with
    this status and leader flag acts (see the module docstring): ``step``
    is a no-op for it in every other round, and a move there breaks
    participation."""
    return _WAKE_ROUNDS[status, leader]


def step(state: RobotState, obs: Observation, round_in_phase: int,
         ruleset: RuleTable) -> int | None:
    """Decide one robot's move for this round: the port it moves through,
    or None to stay; mutates ``state``."""
    # the robot's rule cell for this round, if it acts in it: one lookup per
    # woken robot-round, the leader flag indexing the status's pair
    rule = ruleset.dispatch[state.status][state.leader].get(round_in_phase)
    if rule is None:
        return STAY
    # the latches read by repairs 1 and 2; apply_pending_status clears them
    # at the phase boundary
    if round_in_phase in LATCH_ROUNDS:
        if round_in_phase == 7:
            if obs.decrease:
                state.decrease_at_7 = True
        elif obs.increase:
            state.increase_in_10_12 = True
    port = rule(state, obs)
    if port is not STAY and state.status in DISPERSAL_STATUSES:
        state.net_disp += 1 if port == MOVE_ONE else -1
    return port
