"""What a silent robot may perceive in a round, and nothing more.

A robot sees three bits: whether it is alone right now, and whether the
number of co-located robots rose or fell during the previous round -- but
only if it stayed put that round, and only as a net change: an equal
number of arrivals and departures is invisible.  The round number is not
part of what it perceives; the robot's own phase clock supplies it.

Three bits allow eight observations, and these eight are the only
``Observation`` values the package makes: ``observe`` and ``observation``
return the shared entries of ``OBSERVATIONS`` and never build a new one.
"""

from __future__ import annotations

from typing import NamedTuple


class Observation(NamedTuple):
    alone: bool
    increase: bool
    decrease: bool


# every observation, indexed by alone << 2 | increase << 1 | decrease
OBSERVATIONS: tuple[Observation, ...] = tuple(
    Observation(bool(index & 4), bool(index & 2), bool(index & 1)) for index in range(8))


def observation(alone: bool, increase: bool, decrease: bool) -> Observation:
    """The shared ``Observation`` with these three bits."""
    return OBSERVATIONS[alone << 2 | increase << 1 | decrease]


def observe(current_count: int, previous_count: int, moved_last_round: bool) -> Observation:
    """Observation delivered at the start of a round.

    ``current_count`` is the occupancy of the robot's node at the end of
    the previous round, ``previous_count`` the occupancy of that node one
    round earlier.  A robot that moved last round gets no change flags.
    """
    alone = 4 if current_count == 1 else 0
    if moved_last_round or current_count == previous_count:
        return OBSERVATIONS[alone]
    return OBSERVATIONS[alone | (2 if current_count > previous_count else 1)]
