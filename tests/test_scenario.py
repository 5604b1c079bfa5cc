import pytest
from hypothesis import given
from hypothesis import strategies as st

from ringdisperse.scenario import (
    Scenario,
    ScenarioError,
    gen_chain,
    gen_multi_source,
    gen_single_source,
    make_scenario,
    parse_scenario,
    render_scenario,
)


def test_parse_basic_single_source():
    s = parse_scenario("ring 5\nmaxlabel 3\nrobot 1 0\nrobot 2 0\n")
    assert s.n == 5 and s.max_label == 3 and s.k == 2
    assert s.robots == ((1, 0), (2, 0))


def test_parse_comments_and_blanks():
    s = parse_scenario("# layout\nring 5\n\nmaxlabel 3  # inline\nrobot 1 0\n")
    assert s.k == 1


def test_parse_duplicate_label():
    with pytest.raises(ScenarioError, match="duplicate label"):
        parse_scenario("ring 5\nmaxlabel 3\nrobot 1 0\nrobot 1 2\n")


def test_parse_k_equal_n_rejected():
    with pytest.raises(ScenarioError, match="k < n"):
        parse_scenario("ring 3\nmaxlabel 3\nrobot 0 0\nrobot 1 1\nrobot 2 2\n")


def test_parse_label_above_max():
    with pytest.raises(ScenarioError, match="outside"):
        parse_scenario("ring 5\nmaxlabel 3\nrobot 4 0\n")


def test_parse_small_ring_rejected():
    with pytest.raises(ScenarioError, match="too small"):
        parse_scenario("ring 2\nmaxlabel 3\nrobot 1 0\n")


def test_parse_errors_name_the_line():
    with pytest.raises(ScenarioError, match="line 2"):
        parse_scenario("ring 5\nrobots 1 0\nmaxlabel 3\n")
    with pytest.raises(ScenarioError, match="line 3"):
        parse_scenario("ring 5\nmaxlabel 3\nrobot one 0\n")


def test_low_max_label_warns():
    with pytest.warns(UserWarning, match="below robot count"):
        make_scenario(5, 2, [(0, 0), (1, 0), (2, 0)])


scenarios = st.integers(3, 9).flatmap(
    lambda n: st.integers(1, n - 1).flatmap(
        lambda k: st.tuples(
            st.just(n),
            st.integers(k, 40),
            st.lists(st.integers(0, n - 1), min_size=k, max_size=k),
        )
    )
)


@given(scenarios)
def test_render_parse_round_trip(params):
    n, max_label, nodes = params
    robots = [(label, node) for label, node in enumerate(nodes)]
    s = make_scenario(n, max_label, robots)
    assert parse_scenario(render_scenario(s)) == s


def test_gen_single_source_deterministic():
    a = gen_single_source(8, 3, 7, seed=42)
    b = gen_single_source(8, 3, 7, seed=42)
    assert a == b
    assert {node for _, node in a.robots} == {0}
    assert gen_single_source(8, 3, 7, seed=43) != a


def test_gen_single_source_infeasible():
    with pytest.raises(ScenarioError, match="distinct labels"):
        gen_single_source(8, 4, 1, seed=0)


@pytest.mark.parametrize("k", [0, -1])
def test_gen_single_source_needs_a_robot(k):
    with pytest.raises(ScenarioError, match="at least one robot"):
        gen_single_source(10, k, 15, seed=0)


@pytest.mark.parametrize("n, k, max_groups, match", [
    (5, 0, 2, "at least one robot"),
    (5, -1, 2, "at least one robot"),
    (1, 1, 1, "ring size 1 too small"),
    (2, 1, 1, "ring size 2 too small"),
])
def test_gen_multi_source_rejects_with_a_scenario_error(n, k, max_groups, match):
    with pytest.raises(ScenarioError, match=match):
        gen_multi_source(n, k, 7, max_groups, seed=1)


@pytest.mark.parametrize("seed", range(25))
def test_gen_multi_source_always_valid(seed):
    s = gen_multi_source(9, 5, 15, max_groups=5, seed=seed)
    assert parse_scenario(render_scenario(s)) == s
    # groups are separated by at least one empty node
    occupied = sorted({node for _, node in s.robots})
    for node in occupied:
        nxt = (node + 1) % s.n
        prv = (node - 1) % s.n
        assert not (nxt in occupied and prv in occupied and len(occupied) == s.n)


def test_gen_multi_source_max_groups_all_solo():
    s = gen_multi_source(12, 3, 7, max_groups=3, seed=5)
    assert s.k == 3


def test_gen_chain_layout():
    s = gen_chain([3, 1], gap=2, n=7, max_label=7)
    assert s.robots == ((1, 0), (2, 0), (3, 0), (4, 1))


def test_gen_chain_infeasible():
    with pytest.raises(ScenarioError):
        gen_chain([2, 2], gap=1, n=3, max_label=7)
    with pytest.raises(ScenarioError):
        gen_chain([5], gap=1, n=8, max_label=2)
