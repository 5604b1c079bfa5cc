"""What a silent robot may perceive in a round, and nothing more.

A robot sees three bits: whether it is alone right now, and whether the
number of co-located robots rose or fell during the previous round -- but
only if it stayed put that round, and only as a net change: an equal
number of arrivals and departures is invisible.  The round number is not
part of what it perceives; the robot's own phase clock supplies it.
"""

from __future__ import annotations

from typing import NamedTuple


class Observation(NamedTuple):
    alone: bool
    increase: bool
    decrease: bool


def observe(current_count: int, previous_count: int, moved_last_round: bool) -> Observation:
    """Observation delivered at the start of a round.

    ``current_count`` is the occupancy of the robot's node at the end of
    the previous round, ``previous_count`` the occupancy of that node one
    round earlier.  A robot that moved last round gets no change flags.
    """
    alone = current_count == 1
    if moved_last_round:
        return Observation(alone, False, False)
    return Observation(alone, current_count > previous_count, current_count < previous_count)
