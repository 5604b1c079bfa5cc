import pytest
from hypothesis import given
from hypothesis import strategies as st

from ringdisperse.ring import (
    PORT_ONE,
    PORT_ZERO,
    ConfigurationError,
    Placement,
    count_nodes,
    pred,
    ring_distance,
    succ,
)


def test_succ_examples():
    assert succ(5, 3) == 4
    assert succ(5, 4) == 0
    assert succ(3, 0) == 1


def test_pred_examples():
    assert pred(5, 0) == 4
    assert pred(5, 3) == 2


@given(st.integers(min_value=3, max_value=50), st.data())
def test_succ_pred_inverse(n, data):
    v = data.draw(st.integers(min_value=0, max_value=n - 1))
    assert pred(n, succ(n, v)) == v
    assert succ(n, pred(n, v)) == v


def test_apply_moves_opposite_crossing_swaps():
    p = Placement(5, {1: 0, 2: 1})
    q = p.apply_moves({1: PORT_ONE, 2: PORT_ZERO})
    assert q.by_robot == {1: 1, 2: 0}


def test_apply_moves_identity():
    p = Placement(5, {1: 0, 2: 1})
    assert p.apply_moves({}) == p


def test_apply_moves_allows_colocation():
    p = Placement(5, {1: 0, 2: 1})
    q = p.apply_moves({1: PORT_ONE})
    assert q.by_robot == {1: 1, 2: 1}
    assert q.counts[1] == 2


def test_apply_moves_unknown_robot():
    p = Placement(5, {1: 0})
    with pytest.raises(ConfigurationError):
        p.apply_moves({9: PORT_ONE})


@given(
    st.integers(min_value=3, max_value=12),
    st.dictionaries(st.integers(0, 9), st.integers(0, 100), min_size=1, max_size=8),
    st.data(),
)
def test_apply_moves_order_independent_and_conserving(n, robots, data):
    robots = {label: node % n for label, node in robots.items()}
    p = Placement(n, robots)
    movers = data.draw(
        st.dictionaries(st.sampled_from(sorted(robots)), st.sampled_from([0, 1]))
    )
    q = p.apply_moves(movers)
    reordered = dict(reversed(list(movers.items())))
    assert p.apply_moves(reordered) == q
    assert len(q.by_robot) == len(robots)
    assert sum(count for _, count in q.occupancy_vector()) == len(robots)
    # the counts stay consistent with the robot-to-node map
    for node in q.by_robot.values():
        assert q.counts[node] == list(q.by_robot.values()).count(node)
    # ... with no stale or zero entry for a node left empty
    assert q.counts == count_nodes(q.by_robot.values())
    assert q.all_distinct() == (len(set(q.by_robot.values())) == len(robots))
    # value semantics: the source placement is unchanged
    assert p.by_robot == robots
    assert p.counts == count_nodes(robots.values())


def test_ring_distance_wraps():
    assert ring_distance(6, 0, 5) == 1
    assert ring_distance(6, 0, 3) == 3
    assert ring_distance(6, 2, 2) == 0
