"""Scenario definition, text format, validation and generators.

Grammar (UTF-8, one directive per line, '#' starts a comment):

    ring <n>
    maxlabel <L>
    robot <label> <node>     # repeated, one per robot
"""

from __future__ import annotations

import random
import warnings
from dataclasses import dataclass

from .ring import MIN_RING_SIZE


class ScenarioError(Exception):
    """A scenario file or generator argument violates the model limits."""


@dataclass(frozen=True, slots=True)
class Scenario:
    n: int
    max_label: int
    robots: tuple[tuple[int, int], ...]  # (label, start node), sorted by label

    @property
    def k(self) -> int:
        return len(self.robots)

    def labels(self) -> tuple[int, ...]:
        return tuple(label for label, _ in self.robots)


def _check_ring_size(n: int) -> None:
    if n < MIN_RING_SIZE:
        raise ScenarioError(f"ring size {n} too small: n >= {MIN_RING_SIZE} required")


def make_scenario(n: int, max_label: int, robots) -> Scenario:
    """Validate and normalize; raises ScenarioError naming the broken rule."""
    _check_ring_size(n)
    if max_label < 0:
        raise ScenarioError("maxlabel must be non-negative")
    robots = tuple(sorted((int(label), int(node)) for label, node in robots))
    k = len(robots)
    if k < 1:
        raise ScenarioError("at least one robot required")
    if k >= n:
        raise ScenarioError(f"k < n required (got k={k}, n={n})")
    seen: set[int] = set()
    for label, node in robots:
        if label in seen:
            raise ScenarioError(f"duplicate label {label}")
        seen.add(label)
        if not 0 <= label <= max_label:
            raise ScenarioError(f"label {label} outside [0, {max_label}]")
        if not 0 <= node < n:
            raise ScenarioError(f"node {node} outside [0, {n - 1}]")
    if max_label < k:
        warnings.warn(
            f"maxlabel {max_label} below robot count {k}; the protocol assumes L >= k",
            stacklevel=2,
        )
    return Scenario(n, max_label, robots)


def parse_scenario(text: str) -> Scenario:
    n = None
    max_label = None
    robots: list[tuple[int, int]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        try:
            if parts[0] == "ring" and len(parts) == 2:
                if n is not None:
                    raise ScenarioError(f"line {lineno}: duplicate ring directive")
                n = int(parts[1])
            elif parts[0] == "maxlabel" and len(parts) == 2:
                if max_label is not None:
                    raise ScenarioError(f"line {lineno}: duplicate maxlabel directive")
                max_label = int(parts[1])
            elif parts[0] == "robot" and len(parts) == 3:
                robots.append((int(parts[1]), int(parts[2])))
            else:
                raise ScenarioError(f"line {lineno}: unrecognized directive {parts[0]!r}")
        except ValueError:
            raise ScenarioError(f"line {lineno}: malformed integer in {line!r}") from None
    if n is None:
        raise ScenarioError("missing ring directive")
    if max_label is None:
        raise ScenarioError("missing maxlabel directive")
    return make_scenario(n, max_label, robots)


def render_scenario(s: Scenario) -> str:
    lines = [f"ring {s.n}", f"maxlabel {s.max_label}"]
    lines.extend(f"robot {label} {node}" for label, node in s.robots)
    return "\n".join(lines) + "\n"


def load_scenario(path) -> Scenario:
    """Parse a scenario file; ScenarioError also for text that is not UTF-8."""
    with open(path, encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise ScenarioError(f"not UTF-8 text: {exc}") from None
    return parse_scenario(text)


def _check_label_draw(k: int, max_label: int) -> None:
    """Raise ScenarioError unless k >= 1 distinct labels fit in [0, L]."""
    if k < 1:
        raise ScenarioError("at least one robot required")
    if k > max_label + 1:
        raise ScenarioError(f"cannot draw {k} distinct labels from [0, {max_label}]")


def gen_single_source(n: int, k: int, max_label: int, seed: int) -> Scenario:
    """All k robots on node 0 with distinct random labels from [0, L]."""
    _check_label_draw(k, max_label)
    rng = random.Random(seed)
    labels = rng.sample(range(max_label + 1), k)
    return make_scenario(n, max_label, [(label, 0) for label in labels])


def gen_multi_source(n: int, k: int, max_label: int, max_groups: int, seed: int) -> Scenario:
    """Random multiplicity nodes: group count, sizes and gaps are sampled."""
    _check_ring_size(n)
    _check_label_draw(k, max_label)
    if max_groups < 1:
        raise ScenarioError("max_groups must be at least 1")
    rng = random.Random(seed)
    groups = rng.randint(1, min(max_groups, k, n // 2))
    # composition of k robots into the groups
    cuts = sorted(rng.sample(range(1, k), groups - 1)) if groups > 1 else []
    sizes = [b - a for a, b in zip([0] + cuts, cuts + [k])]
    # composition of the n - groups empty nodes into per-group gaps >= 1
    spare = (n - groups) - groups
    extras = [0] * groups
    for _ in range(spare):
        extras[rng.randrange(groups)] += 1
    labels = iter(rng.sample(range(max_label + 1), k))
    robots = []
    node = 0
    for size, extra in zip(sizes, extras):
        for _ in range(size):
            robots.append((next(labels), node))
        node += 1 + 1 + extra  # the group node plus its gap
    return make_scenario(n, max_label, robots)


def gen_chain(group_sizes, gap: int, n: int, max_label: int) -> Scenario:
    """One maximal chain of consecutive groups followed by a trailing gap.

    Group i occupies node i; labels are assigned sequentially (1..k when
    they fit below max_label, else 0..k-1).
    """
    group_sizes = list(group_sizes)
    if not group_sizes or any(size < 1 for size in group_sizes):
        raise ScenarioError("group sizes must be positive")
    if gap < 1:
        raise ScenarioError("trailing gap must be at least 1")
    if len(group_sizes) + gap > n:
        raise ScenarioError(
            f"{len(group_sizes)} groups plus gap {gap} do not fit on {n} nodes"
        )
    k = sum(group_sizes)
    first = 1 if k <= max_label else 0
    if first + k - 1 > max_label:
        raise ScenarioError(f"cannot label {k} robots within [0, {max_label}]")
    labels = iter(range(first, first + k))
    robots = []
    for node, size in enumerate(group_sizes):
        for _ in range(size):
            robots.append((next(labels), node))
    return make_scenario(n, max_label, robots)
