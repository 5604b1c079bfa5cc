"""Oriented anonymous ring topology and robot placement.

Nodes are numbered 0..n-1 for simulation bookkeeping only; the protocol
layer never sees node identities.  Port 0 leads to the predecessor,
port 1 to the successor, uniformly at every node.
"""

from __future__ import annotations

PORT_ZERO = 0
PORT_ONE = 1

MIN_RING_SIZE = 3  # a 2-cycle degenerates port semantics


class ConfigurationError(Exception):
    """Raised when a placement operation references an unknown robot."""


def succ(n: int, v: int) -> int:
    """Node reached from v through port 1."""
    return (v + 1) % n


def pred(n: int, v: int) -> int:
    """Node reached from v through port 0."""
    return (v - 1) % n


def move_target(n: int, v: int, port: int) -> int:
    return succ(n, v) if port == PORT_ONE else pred(n, v)


def count_nodes(nodes) -> dict[int, int]:
    """Robots per occupied node; the one place robots are counted."""
    counts: dict[int, int] = {}
    for node in nodes:
        counts[node] = counts.get(node, 0) + 1
    return counts


def occupancy_cells(nodes) -> tuple[tuple[int, int], ...]:
    """Sparse occupancy of robot positions: the occupied cells only, as
    ``(node, count)`` pairs sorted by node, every count at least 1.

    This is the one form of occupancy in records and trace files; its
    size grows with the number of robots, never with the ring size.
    """
    return tuple(sorted(count_nodes(nodes).items()))


class Placement:
    """Robot-to-node map with value semantics.

    ``by_robot`` maps robot label -> node; ``counts`` maps each occupied
    node to its number of robots, counted once for a new placement and
    adjusted for the movers by ``apply_moves``.
    """

    __slots__ = ("n", "by_robot", "counts")

    def __init__(self, n: int, by_robot: dict[int, int]):
        self.n = n
        self.by_robot = dict(by_robot)
        self.counts = count_nodes(self.by_robot.values())

    def occupancy_vector(self) -> tuple[tuple[int, int], ...]:
        return tuple(sorted(self.counts.items()))

    def all_distinct(self) -> bool:
        return len(self.counts) == len(self.by_robot)

    def apply_moves(self, moves: dict[int, int]) -> "Placement":
        """Apply all moves simultaneously; ``moves`` maps label -> port.

        Robots crossing the same edge in opposite directions swap nodes
        without interacting.  Robots absent from ``moves`` stay put; with
        no moves at all the placement is returned as it is, since a
        placement is never changed in place.
        """
        if not moves:
            return self
        n, by_robot = self.n, self.by_robot
        new_by_robot = dict(by_robot)
        counts = dict(self.counts)
        # only the movers' nodes change count: each leaves one and enters one
        for label, port in moves.items():
            node = by_robot.get(label)
            if node is None:
                raise ConfigurationError(f"unknown robot {label} in move set")
            target = new_by_robot[label] = move_target(n, node, port)
            left = counts[node] - 1
            if left:
                counts[node] = left
            else:
                del counts[node]
            counts[target] = counts.get(target, 0) + 1
        placement = Placement.__new__(Placement)
        placement.n, placement.by_robot, placement.counts = n, new_by_robot, counts
        return placement

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Placement)
            and self.n == other.n
            and self.by_robot == other.by_robot
        )

    def __repr__(self) -> str:
        return f"Placement(n={self.n}, by_robot={self.by_robot!r})"


def ring_distance(n: int, a: int, b: int) -> int:
    d = abs(a - b) % n
    return min(d, n - d)
