"""Robot identity, label bit access, statuses and per-robot protocol state:
small counters, two label-bit cursors and two latches, no observation log."""

from __future__ import annotations

import enum
from dataclasses import dataclass
from operator import attrgetter
from typing import NamedTuple


class Status(enum.Enum):
    LEADER_ELECTION = "leaderelection"
    ACTIVE_MERGE = "activemerge"
    ACTIVE_DISPERSE = "activedisperse"
    PASSIVE = "passive"
    WAIT = "wait"
    JUMP = "jump"
    IDLE = "idle"

    # hash by identity: members are singletons (a pickle round-trip returns
    # the same member), and Enum's own hash, hash(self._name_), is a
    # Python-level call on every dict and set lookup of the round loop
    __hash__ = object.__hash__

    def __repr__(self) -> str:  # compact in traces and diffs
        return self.value


# Allowed status transitions.  Leader election feeds the merge, the merge
# feeds dispersal, and the four dispersal statuses cycle among themselves
# or retire to idle.  No edge ever leads back to election or merging.
DISPERSAL_STATUSES = frozenset(
    {Status.ACTIVE_DISPERSE, Status.PASSIVE, Status.WAIT, Status.JUMP}
)

LEGAL_TRANSITIONS: frozenset[tuple[Status, Status]] = frozenset(
    {(Status.LEADER_ELECTION, Status.ACTIVE_MERGE),
     (Status.ACTIVE_MERGE, Status.ACTIVE_DISPERSE)}
    | {(a, b) for a in DISPERSAL_STATUSES for b in DISPERSAL_STATUSES}
    | {(a, Status.IDLE) for a in DISPERSAL_STATUSES}
)


class IllegalStatusTransition(Exception):
    """A pending status update violates the status transition graph."""


def max_label_bits(max_label: int) -> int:
    """Shared padded label length: floor(log2 L) + 1, and 1 when L = 0."""
    if max_label < 0:
        raise ValueError("max label must be non-negative")
    return max(1, max_label.bit_length())


def bit_at(label: int, i: int, max_size: int) -> int:
    """i-th least-significant bit of the zero-padded binary label, 1-based."""
    if not 1 <= i <= max_size:
        raise ValueError(f"bit index {i} outside [1, {max_size}]")
    return (label >> (i - 1)) & 1


class StateSnapshot(NamedTuple):
    """The persistent fields of a RobotState (everything but the two latches).

    Snapshots and livelock keys are taken only at phase starts, where both
    latches are always False, so leaving them out loses nothing.  A plain
    tuple underneath, so snapshots hash and compare as tuples.  The class
    is also the one list of the fields the livelock key reads, straight
    from the robot; ``net_disp`` stays the last field, which the key keeps
    apart.
    """

    status: Status
    pending_status: Status | None
    leader: bool
    proceed: int
    move_var: int
    start: int
    settle: int
    advance: int
    le_bit: int
    disp_bit: int
    net_disp: int


# a RobotState's StateSnapshot fields, in order, as one tuple
_SNAPSHOT_FIELDS = attrgetter(*StateSnapshot._fields)


@dataclass
class RobotState:
    """One robot's protocol variables.

    ``le_bit`` is the label-bit cursor for leader election (1..max_size);
    ``disp_bit`` is the separate cursor for the dispersal splits, where
    max_size + 1 means exhausted (the robot then behaves as if its current
    bit were 0).  The two latches are the only memory of past
    observations: ``decrease_at_7`` records a decrease perceived in round 7
    and ``increase_in_10_12`` an increase perceived in rounds 10-12 of the
    current phase, each only in rounds the robot takes part in.  Both are
    cleared at every phase boundary.
    """

    label: int
    max_size: int
    status: Status = Status.LEADER_ELECTION
    pending_status: Status | None = None
    leader: bool = False
    proceed: int = 0        # {0,1,2}; persists across phases
    move_var: int = 0       # {0,1,2}; reset to 0 at each phase boundary
    start: int = 0
    settle: int = 0
    advance: int = 0
    le_bit: int = 1
    disp_bit: int = 1
    net_disp: int = 0       # net displacement since dispersal began
    decrease_at_7: bool = False
    increase_in_10_12: bool = False

    def current_disp_bit(self) -> int:
        """Bit under the dispersal cursor; 0 once the cursor is exhausted."""
        if self.disp_bit > self.max_size:
            return 0
        return bit_at(self.label, self.disp_bit, self.max_size)

    def advance_disp_bit(self) -> None:
        self.disp_bit = min(self.disp_bit + 1, self.max_size + 1)

    def snapshot(self) -> StateSnapshot:
        """Hashable view of the persistent fields (excludes the latches)."""
        return tuple.__new__(StateSnapshot, _SNAPSHOT_FIELDS(self))


def apply_pending_status(state: RobotState) -> None:
    """Commit the pending status at a phase boundary.

    Resets move_var and clears both latches; proceed, start, settle,
    advance and leader persist across phases.
    """
    if state.pending_status is not None:
        target = state.pending_status
        if target is not state.status and (state.status, target) not in LEGAL_TRANSITIONS:
            raise IllegalStatusTransition(
                f"robot {state.label}: {state.status.value} -> {target.value}"
            )
        state.status = target
        state.pending_status = None
    state.move_var = 0
    state.decrease_at_7 = False
    state.increase_in_10_12 = False
