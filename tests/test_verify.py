"""Validator, invariant suite, search and shrinking."""

import contextlib
import dataclasses
import hashlib
import inspect
import itertools
import math
import multiprocessing.pool
import os
import pickle
import random
import subprocess
import sys
import time
import tracemalloc
import warnings
from collections import Counter
from collections.abc import Iterator
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ringdisperse import engine as engine_module
from ringdisperse.engine import RoundRecord, RunResult, run
from ringdisperse.perception import Observation
from ringdisperse.protocol import REPAIRS, RuleTable, Ruleset, wake_rounds
from ringdisperse.robots import Status
from ringdisperse.scenario import (Scenario, gen_chain, gen_multi_source, gen_single_source,
                                  make_scenario)
from ringdisperse.verify import (
    REPLAY_KINDS,
    TraceCheck,
    check_invariants,
    check_trace,
    enumerate_scenarios,
    estimate_enumeration,
    evaluate_many,
    evaluate_scenario,
    exhaustive_search,
    initial_chains,
    map_jobs,
    minimize_scenario,
    search,
    validate_trace,
    worker_count,
)


@pytest.fixture(scope="module")
def chain_outcome():
    scenario = gen_chain([2, 2], gap=2, n=7, max_label=7)
    return scenario, run(scenario, Ruleset.REPAIRED)


def test_engine_trace_validates_clean(chain_outcome):
    scenario, outcome = chain_outcome
    assert validate_trace(outcome.trace, scenario) == []


def test_mutated_move_is_caught(chain_outcome):
    scenario, outcome = chain_outcome
    trace = outcome.trace
    target = next(i for i, r in enumerate(trace.records) if r.moves)
    record = trace.records[target]
    label, frm, to, port = record.moves[0]
    bad = record.moves[:1] + (((label, frm, (to + 1) % scenario.n, port)),) + record.moves[1:]
    trace.records[target] = dataclasses.replace(record, moves=bad)
    violations = validate_trace(trace, scenario)
    trace.records[target] = record
    assert any(v.kind == "move-legality" for v in violations)


@pytest.mark.parametrize("pick", [
    lambda records: next(i for i, r in enumerate(records) if not r.moves),
    lambda records: len(records) - 1,
], ids=["first-no-move-record", "last-record"])
def test_dropped_record_is_caught(chain_outcome, pick):
    scenario, outcome = chain_outcome
    trace = outcome.trace
    target = pick(trace.records)
    records = trace.records[:target] + trace.records[target + 1:]
    violations = validate_trace(dataclasses.replace(trace, records=records), scenario)
    assert any(v.kind == "round-counter" for v in violations)


@pytest.mark.parametrize("rewrite", [
    lambda cells: cells + ((max(node for node, _ in cells) + 1, 0),),
    lambda cells: cells[:-1] + (cells[-1], cells[-1]),
    lambda cells: cells[::-1],
], ids=["zero-count-cell", "duplicate-cell", "unsorted-cells"])
def test_noncanonical_occupancy_is_caught(chain_outcome, rewrite):
    scenario, outcome = chain_outcome
    trace = outcome.trace
    target = next(i for i, r in enumerate(trace.records) if len(r.occupancy) > 1)
    records = list(trace.records)
    records[target] = dataclasses.replace(
        records[target], occupancy=rewrite(records[target].occupancy))
    violations = validate_trace(dataclasses.replace(trace, records=records), scenario)
    assert [(v.kind, v.global_round) for v in violations] == [("occupancy", target)]


def test_record_without_phase_snapshot_is_reported():
    scenario = make_scenario(4, 3, [(1, 0), (2, 0)])
    trace = run(scenario, Ruleset.REPAIRED).trace
    records = list(trace.records)
    records[3] = dataclasses.replace(records[3], phase=99)
    violations = validate_trace(dataclasses.replace(trace, records=records), scenario)
    assert [v.kind for v in violations] == ["round-counter"]
    assert violations[0].global_round == 3


def test_mutated_observation_is_caught(chain_outcome):
    scenario, outcome = chain_outcome
    trace = outcome.trace
    record = trace.records[0]
    label = trace.scenario.labels()[0]
    original = record.observations[label]
    record.observations[label] = Observation(original.alone, True, original.decrease)
    violations = validate_trace(trace, scenario)
    record.observations[label] = original
    assert any(v.kind == "perception-replay" for v in violations)


def test_participation_report():
    # phase 14 of this chain starts with robot 3 jumping, 4 idle and 5
    # waiting, and robot 3 jumps forward in round 14 as the rules say
    scenario = gen_chain([2, 2, 2], gap=2, n=9, max_label=7)
    trace = run(scenario, Ruleset.REPAIRED).trace
    snap = trace.snapshot_for(14)
    assert [snap.states[label].status for label in (3, 4, 5)] == [
        Status.JUMP, Status.IDLE, Status.WAIT]
    target = next(i for i, r in enumerate(trace.records)
                  if (r.phase, r.round_in_phase) == (14, 14))
    record = trace.records[target]
    assert [move[0] for move in record.moves] == [3]
    added = tuple((label, snap.nodes[label], (snap.nodes[label] + 1) % scenario.n, 1)
                  for label in (4, 5))
    records = list(trace.records)
    records[target] = dataclasses.replace(record, moves=record.moves + added)
    violations = validate_trace(dataclasses.replace(trace, records=records), scenario)
    # the wait robot sits round 14 out and the jump robot moves in it: the
    # rule cells, not the published table, judge them
    assert [(v.kind, v.robots, v.global_round) for v in violations
            if v.kind in ("participation", "idle-moved")] == [
        ("idle-moved", (4,), target), ("participation", (5,), target)]


def test_leader_moving_in_a_leader_round_without_a_rule_cell_breaks_participation():
    # robot 1 leads in active-disperse at phase 5, and a leader of that
    # status has rule cells in rounds 9-11 only, so no run moves it in
    # round 7 of the phase: a trace that does is forged
    scenario = make_scenario(5, 7, [(0, 0), (1, 0), (3, 4), (5, 4)])
    trace = run(scenario, Ruleset.REPAIRED).trace
    state = trace.snapshot_for(5).states[1]
    assert (state.status, state.leader) == (Status.ACTIVE_DISPERSE, True)
    assert 7 not in wake_rounds(state.status, state.leader)
    target = 82
    record = trace.records[target]
    assert (record.phase, record.round_in_phase) == (5, 7)
    assert 1 not in [move[0] for move in record.moves]
    node = dict(scenario.robots)[1]
    for earlier in trace.records[:target]:
        node = next((to for label, _, to, _ in earlier.moves if label == 1), node)
    records = list(trace.records)
    records[target] = dataclasses.replace(
        record, moves=record.moves + ((1, node, (node + 1) % scenario.n, 1),))
    violations = validate_trace(dataclasses.replace(trace, records=records), scenario)
    assert [(v.kind, v.robots, v.global_round) for v in violations
            if v.kind == "participation"] == [("participation", (1,), target)]


def test_initial_chains_wrap_and_split():
    s = make_scenario(7, 7, [(1, 0), (2, 1), (3, 4)])
    assert initial_chains(s) == [[0, 1], [4]]
    wrapped = make_scenario(6, 7, [(1, 5), (2, 0), (3, 2)])
    assert initial_chains(wrapped) == [[2], [5, 0]]


def test_invariants_clean_on_good_run(chain_outcome):
    _, outcome = chain_outcome
    assert check_invariants(outcome.trace) == []


def test_literal_merge_failure_yields_merge_deadline_finding():
    scenario = gen_chain([2, 2], gap=2, n=7, max_label=7)
    outcome = run(scenario, Ruleset.LITERAL, max_phases=50)
    assert outcome.result is RunResult.LIVELOCK
    kinds = {v.kind for v in check_invariants(outcome.trace)}
    assert "merge-deadline" in kinds


def test_singleton_front_group_elects_twice():
    # a one-robot group is momentarily alone in round 1 and self-elects,
    # so this chain ends the election with two leaders: a finding
    scenario = gen_chain([3, 1], gap=2, n=7, max_label=7)
    outcome = run(scenario, Ruleset.REPAIRED)
    kinds = {v.kind for v in check_invariants(outcome.trace)}
    assert "unique-leader" in kinds


@pytest.fixture(scope="module")
def dispersal_trace():
    # robot 2 leads from phase 3; robots 0 and 4 never lead, are post-merge
    # from phase 5 on, and are apart from phase 10 on
    scenario = gen_single_source(8, 3, 7, seed=1)
    assert scenario.robots == ((0, 0), (2, 0), (4, 0))
    outcome = run(scenario, Ruleset.REPAIRED)
    assert outcome.result is RunResult.DISPERSED
    assert len(outcome.trace.phase_snapshots) == 12
    return scenario, outcome.trace


def pairs_met(scenario, trace, pair, phases):
    """The distinguished-pair violations of ``trace`` with the second robot
    of ``pair`` moved onto the first one's node and status at the start of
    each of ``phases``."""
    first, second = pair
    snapshots = []
    for snap in trace.phase_snapshots:
        if snap.phase in phases:
            nodes, states = dict(snap.nodes), dict(snap.states)
            nodes[second] = nodes[first]
            states[second] = states[second]._replace(status=states[first].status)
            snap = dataclasses.replace(snap, nodes=nodes, states=states)
        snapshots.append(snap)
    found = check_trace(scenario, trace.records, snapshots, trace.result)
    return [v for v in found if v.kind == "distinguished-pair"]


def test_distinguished_pair_that_meets_again_is_one_violation(dispersal_trace):
    scenario, trace = dispersal_trace
    assert pairs_met(scenario, trace, (0, 4), ()) == []
    met = pairs_met(scenario, trace, (0, 4), {12})
    assert [(v.phase, v.robots, v.nodes) for v in met] == [(12, (0, 4), (0,))]
    assert str(met[0]) == ("[distinguished-pair] phase 12: previously distinguished robots "
                           "share node and status again")
    twice = pairs_met(scenario, trace, (0, 4), {11, 12})
    assert [(v.phase, v.robots, v.nodes) for v in twice] == [(11, (0, 4), (0,))]


def test_distinguished_pair_with_a_leader_is_no_violation(dispersal_trace):
    scenario, trace = dispersal_trace
    assert all(not snap.states[0].leader for snap in trace.phase_snapshots)
    assert trace.phase_snapshots[-1].states[2].leader
    assert pairs_met(scenario, trace, (0, 2), {12}) == []
    assert pairs_met(scenario, trace, (0, 2), {11, 12}) == []


def test_enumeration_counts_and_canonicalization():
    scenarios = list(enumerate_scenarios(4, 2, 1))
    # every scenario is its own rotation-canonical representative
    assert len({(s.n, s.robots) for s in scenarios}) == len(scenarios)
    for s in scenarios:
        nodes = tuple(node for _, node in s.robots)
        assert all(
            nodes <= tuple((v + r) % s.n for v in nodes) for r in range(s.n)
        )


def test_enumerated_and_minimized_scenarios_are_valid_and_silent():
    # both build Scenarios without make_scenario: each must be what
    # make_scenario makes of it, and neither warns for L below k
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        scenarios = list(enumerate_scenarios(4, 3, 2))
        failures = [s for s in scenarios if not run(s, Ruleset.LITERAL).dispersed]
        minimized = [minimize_scenario(s, Ruleset.LITERAL, run(s, Ruleset.LITERAL).result)
                     for s in failures]
    assert any(s.k > s.max_label for s in minimized)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for s in scenarios + minimized:
            assert make_scenario(s.n, s.max_label, s.robots) == s


def test_enumeration_guard():
    with pytest.raises(ValueError, match="guard"):
        list(enumerate_scenarios(12, 8, 255))
    assert estimate_enumeration(4, 2, 1) < 100


def test_enumeration_guard_fails_fast():
    start = time.process_time()
    with pytest.raises(ValueError, match="guard"):
        next(enumerate_scenarios(10**8, 1, 0))
    assert time.process_time() - start < 1.0


@pytest.mark.parametrize("n_max", [2, 0, -5])
def test_enumeration_below_the_smallest_ring_is_an_error(n_max):
    # an empty space would run no scenario and report a clean pass
    with pytest.raises(ValueError, match="n_max must be at least 3"):
        next(enumerate_scenarios(n_max, 1, 3))


def _rotation_canonical(nodes, n):
    return all(nodes <= tuple((v + r) % n for v in nodes) for r in range(1, n))


def test_enumeration_is_the_rotation_canonical_filter():
    # the oracle: every placement, kept when no rotation is smaller
    expected = [
        (n, tuple(zip(labels, nodes)))
        for n in range(3, 6)
        for k in range(1, min(3, n - 1) + 1)
        for labels in itertools.combinations(range(4), k)
        for nodes in itertools.product(range(n), repeat=k)
        if _rotation_canonical(nodes, n)
    ]
    assert [(s.n, s.robots) for s in enumerate_scenarios(5, 3, 3)] == expected


def test_enumeration_is_the_naive_zip_sequence():
    naive = [
        Scenario(n, 4, tuple(zip(labels, (0,) + rest)))
        for n in range(3, 6)
        for k in range(1, min(3, n - 1) + 1)
        for labels in itertools.combinations(range(5), k)
        for rest in itertools.product(range(n), repeat=k - 1)
    ]
    assert list(enumerate_scenarios(5, 3, 4)) == naive


def test_enumeration_shares_the_pairs_of_a_label_set_and_ring_size():
    groups: dict[tuple, dict] = {}
    for scenario in enumerate_scenarios(5, 3, 4):
        held = groups.setdefault((scenario.n, scenario.labels()), {})
        for pair in scenario.robots:
            assert held.setdefault(pair, pair) is pair, (scenario, pair)
    # one group's pairs: its first label on node 0, every other label on every node
    assert len(groups[5, (0, 2, 3)]) == 1 + 5 + 5


def test_enumerated_space_fits_in_a_few_megabytes():
    tracemalloc.start()
    try:
        space = list(enumerate_scenarios(6, 4, 7))
        size, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(space) == 28_718
    assert size < 6_000_000


def test_scenario_and_outcome_pickle_replace_and_hold_no_dict():
    scenario = make_scenario(6, 7, [(1, 0), (2, 0), (3, 2)])
    outcome = evaluate_scenario(scenario, Ruleset.REPAIRED)
    for value in (scenario, outcome):
        copy = pickle.loads(pickle.dumps(value))
        assert copy == value and copy is not value
        assert not hasattr(value, "__dict__")
    assert hash(pickle.loads(pickle.dumps(scenario))) == hash(scenario)
    assert type(outcome).__hash__ is None, "an outcome is mutable, so unhashable"
    assert dataclasses.replace(scenario, n=7) == make_scenario(7, 7, scenario.robots)
    assert dataclasses.replace(outcome, rounds_used=0).rounds_used == 0
    with pytest.raises(dataclasses.FrozenInstanceError):
        scenario.n = 7


def test_enumeration_count_647():
    expected = sum(math.comb(8, k) * n ** (k - 1)
                   for n in range(3, 7) for k in range(1, min(4, n - 1) + 1))
    assert expected == 28_718
    assert sum(1 for _ in enumerate_scenarios(6, 4, 7)) == expected


def test_findings_on_a_647_sample_are_pinned():
    # every 50th (6,4,7) scenario; the tallies below are the verdicts of the
    # checker before it became one walk, so no later edit drops a kind
    sample = list(enumerate_scenarios(6, 4, 7))[::50]
    pinned = {
        Ruleset.REPAIRED: ({"alternation": 16, "merge-deadline": 182, "unique-leader": 92},
                           18),
        Ruleset.LITERAL: ({"cross-chain-activemerge-adjacency": 27, "merge-deadline": 231,
                           "unique-leader": 92}, 75),
    }
    for ruleset, (kinds, unexplained) in pinned.items():
        outcomes = list(evaluate_many(sample, ruleset, workers=1))
        assert len(outcomes) == 575
        assert Counter(kind for o in outcomes for kind in o.finding_kinds) == kinds
        assert sum(o.validation_count for o in outcomes) == 0
        assert sum(1 for o in outcomes if not o.ok and not o.finding_kinds) == unexplained


@pytest.mark.parametrize("scenarios, ruleset, pinned", [
    ("sample", Ruleset.REPAIRED,
     "168345f9537e2d6b8c8a714dfb42ee5f50d5ddc1920b600312c05ce7014962d4"),
    ("sample", Ruleset.LITERAL,
     "77bcaa12b7ab76369714245c6c80bab8050bfa16b94a67c08a65c409cbabbe01"),
    ("large", Ruleset.REPAIRED,
     "cf1cbb66a638b4860a516671fb74850e6ccf787fe6c4c8d29e9c04efe880bd05"),
    ("large", Ruleset.LITERAL,
     "cf1cbb66a638b4860a516671fb74850e6ccf787fe6c4c8d29e9c04efe880bd05"),
], ids=["647-sample-repaired", "647-sample-literal", "large-ring-repaired",
        "large-ring-literal"])
def test_violation_lists_are_pinned_in_order(scenarios, ruleset, pinned):
    # sha256 over each recorded run's violations as printed, in the order
    # check_trace reports them, so a change to how the walk runs must keep
    # every list and its order.  The large ring run has no violation, and
    # its pin is that of an empty list.
    if scenarios == "sample":
        scenarios = list(enumerate_scenarios(6, 4, 7))[::50]
    else:
        scenarios = [gen_single_source(10**4, 8, 1023, seed=7)]
    lists = []
    for scenario in scenarios:
        trace = run(scenario, ruleset).trace
        found = check_trace(scenario, trace.records, trace.phase_snapshots, trace.result)
        assert validate_trace(trace, scenario) == [v for v in found if v.kind in REPLAY_KINDS]
        assert check_invariants(trace) == [v for v in found if v.kind not in REPLAY_KINDS]
        lists.append([str(v) for v in found])
    assert hashlib.sha256(repr(lists).encode()).hexdigest() == pinned


class Capturing:
    """A sink that hands the check each phase start and round, and keeps
    each round it hands on as a ``RoundRecord``."""

    def __init__(self, check):
        self.check, self.rounds = check, []

    def phase_start(self, phase, nodes, states):
        self.check.phase_start(phase, nodes, states)

    def round(self, global_round, phase, rip, moves, observations, cells):
        self.rounds.append(RoundRecord(global_round, phase, rip, moves, observations, cells))
        self.check.round(global_round, phase, rip, moves, observations, cells)


class Tampering(Capturing):
    """A sink that hands the check round ``target`` rewritten by ``tamper``."""

    def __init__(self, check, target, tamper):
        super().__init__(check)
        self.target, self.tamper = target, tamper

    def round(self, global_round, phase, rip, moves, observations, cells):
        if global_round == self.target:
            moves, observations, cells = self.tamper(moves, observations, cells)
        super().round(global_round, phase, rip, moves, observations, cells)


def streamed_violations(scenario, ruleset, sink=Capturing):
    """The violations of a run judged as it goes, as ``evaluate_scenario``
    judges it, the run's outcome, and the ``sink(check)`` that fed the
    check."""
    check = TraceCheck(scenario)
    feed = sink(check)
    outcome = run(scenario, ruleset, sink=feed)
    return check.finish(outcome.result), outcome, feed


@pytest.mark.parametrize("ruleset", list(Ruleset))
def test_streamed_check_equals_the_record_walk(ruleset):
    # the check is fed what the recorder keeps, every robot's observation
    # included, and reports what the walk over the records reports
    sample = random.Random(7).sample(list(enumerate_scenarios(6, 4, 7)), 300)
    found = 0
    for scenario in sample:
        streamed, outcome, feed = streamed_violations(scenario, ruleset)
        recorded = run(scenario, ruleset)
        trace = recorded.trace
        assert outcome.result is recorded.result, scenario
        assert outcome.rounds_used == recorded.rounds_used, scenario
        assert feed.rounds == trace.records, scenario
        assert streamed == check_trace(scenario, trace.records, trace.phase_snapshots,
                                       trace.result), scenario
        found += bool(streamed)
    assert found > 0  # the sample holds runs with findings


def wrong_observation(moves, observations, cells):
    label = min(observations)
    seen = observations[label]
    return moves, {**observations, label: Observation(seen.alone, not seen.increase,
                                                      seen.decrease)}, cells


def illegal_move(moves, observations, cells):
    label, frm, to, port = moves[0]
    return ((label, frm, to + 2, port),) + moves[1:], observations, cells


def wrong_cells(moves, observations, cells):
    node, count = cells[-1]
    return moves, observations, cells[:-1] + ((node, count + 1),)


def dropped_observation(moves, observations, cells):
    return moves, {label: seen for label, seen in observations.items()
                   if label != min(observations)}, cells


@pytest.mark.parametrize("tamper, kind", [
    (wrong_observation, "perception-replay"),
    (illegal_move, "move-legality"),
    (wrong_cells, "occupancy"),
    (dropped_observation, "perception-replay"),
])
def test_feed_reports_what_the_record_walk_reports(tamper, kind):
    scenario = gen_chain([2, 2], gap=2, n=9, max_label=7)
    recorded = run(scenario, Ruleset.REPAIRED)
    trace = recorded.trace
    target = 19  # round 1 of phase 2
    record = trace.records[target]
    assert record.moves
    # the lowest label, whose observation the tampers rewrite, sits the
    # round out: no rule of its phase-start state acts in round 1
    states = trace.snapshot_for(record.phase).states
    assert [label for label, state in states.items()
            if record.round_in_phase not in wake_rounds(state.status, state.leader)] == [
        min(scenario.labels())]
    streamed, _, _ = streamed_violations(
        scenario, Ruleset.REPAIRED, lambda check: Tampering(check, target, tamper))
    # the record walk gets the same rewrite
    moves, observations, cells = tamper(record.moves, record.observations, record.occupancy)
    records = list(trace.records)
    records[target] = dataclasses.replace(record, moves=moves, observations=observations,
                                          occupancy=cells)
    walked = check_trace(scenario, records, trace.phase_snapshots, trace.result)

    def at_target(violations):
        return [v for v in violations if v.global_round == target]

    # an illegal move is not replayed, so the cells then differ as well
    assert at_target(streamed) == at_target(walked)
    assert at_target(streamed)[0].kind == kind


def test_evaluate_scenario_builds_no_round_record(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a RoundRecord was built")

    sample = list(enumerate_scenarios(6, 4, 7))[::500]
    expected = {ruleset: [evaluate_scenario(s, ruleset) for s in sample] for ruleset in Ruleset}
    monkeypatch.setattr(engine_module, "RoundRecord", refuse)
    with pytest.raises(AssertionError, match="RoundRecord"):
        run(sample[0], Ruleset.REPAIRED)
    for ruleset in Ruleset:
        assert [evaluate_scenario(s, ruleset) for s in sample] == expected[ruleset]


def test_evaluate_scenario_without_checks_records_no_round(monkeypatch):
    rounds = []
    monkeypatch.setattr(engine_module.Trace, "round",
                        lambda self, *args: rounds.append(args[0]))
    sample = list(enumerate_scenarios(6, 4, 7))[::500]
    run(sample[0], Ruleset.REPAIRED)
    assert rounds, "a recorded run records its rounds"
    rounds.clear()
    for ruleset in Ruleset:
        for outcome in evaluate_many(sample, ruleset, validate=False, invariants=False,
                                     workers=1):
            assert outcome.rounds_used > 0
    assert rounds == []


def test_an_unrecorded_trace_is_an_error_not_a_clean_check():
    # this run livelocks, and a walk over its empty trace would find nothing
    scenario = make_scenario(5, 7, [(0, 0), (1, 0), (3, 4), (5, 4)])
    outcome = run(scenario, Ruleset.REPAIRED, record_rounds=False)
    assert outcome.result is RunResult.LIVELOCK
    with pytest.raises(ValueError, match="not recorded"):
        validate_trace(outcome.trace, scenario)
    with pytest.raises(ValueError, match="not recorded"):
        check_invariants(outcome.trace)
    assert check_invariants(run(scenario, Ruleset.REPAIRED).trace)


@st.composite
def small_scenarios(draw):
    """Scenarios with n <= 12, k <= 5 and L <= 15: distinct labels on
    nodes drawn uniformly, so one chain or several."""
    n = draw(st.integers(min_value=3, max_value=12))
    k = draw(st.integers(min_value=1, max_value=min(5, n - 1)))
    max_label = draw(st.integers(min_value=k, max_value=15))
    labels = draw(st.lists(st.integers(min_value=0, max_value=max_label),
                           min_size=k, max_size=k, unique=True))
    nodes = draw(st.lists(st.integers(min_value=0, max_value=n - 1), min_size=k, max_size=k))
    return make_scenario(n, max_label, list(zip(labels, nodes)))


@st.composite
def single_source_scenarios(draw):
    """Single-source scenarios with k = 2..10 and n <= 32, whose groups
    reach the wait, jump and passive rules."""
    k = draw(st.integers(min_value=2, max_value=10))
    n = draw(st.integers(min_value=k + 1, max_value=32))
    return gen_single_source(n, k, 63, seed=draw(st.integers(min_value=0, max_value=2**32)))


def _replayed_node(scenario, records, label):
    """Where ``label`` stands entering the first round after ``records``."""
    node = dict(scenario.robots)[label]
    for record in records:
        node = next((to for mover, _, to, _ in record.moves if mover == label), node)
    return node


def _tamper(scenario, records, kind, pick):
    """``records`` with one record rewritten by ``kind``; ``pick`` chooses
    the record and the robot.  The records' observation dicts are shared,
    so a rewrite copies them."""
    index = pick % len(records)
    record = records[index]
    labels = scenario.labels()
    label = labels[pick % len(labels)]
    records = list(records)
    if kind == "move-target":
        moved = [i for i, r in enumerate(records) if r.moves] or [index]
        index = moved[pick % len(moved)]
        record = records[index]
        if record.moves:
            mover, frm, to, port = record.moves[0]
            moves = ((mover, frm, (to + 1) % scenario.n, port),) + record.moves[1:]
            records[index] = dataclasses.replace(record, moves=moves)
    elif kind == "observation-bit":
        seen = record.observations[label]
        records[index] = dataclasses.replace(record, observations={
            **record.observations, label: Observation(not seen.alone, *seen[1:])})
    elif kind == "occupancy-cell":
        node, count = record.occupancy[pick % len(record.occupancy)]
        cells = tuple((at, count + 1 if at == node else c) for at, c in record.occupancy)
        records[index] = dataclasses.replace(record, occupancy=cells)
    elif kind == "dropped-record":
        del records[index]
    elif kind == "phase-number":
        records[index] = dataclasses.replace(record, phase=record.phase + 1 + pick % 3)
    else:  # a forged move of a robot from its replayed node, perhaps outside its rounds
        node = _replayed_node(scenario, records[:index], label)
        forged = (label, node, (node + 1) % scenario.n, 1)
        moves = tuple(sorted(record.moves + (forged,)))
        records[index] = dataclasses.replace(record, moves=moves)
    return records


TAMPERS = ("move-target", "observation-bit", "occupancy-cell", "dropped-record",
           "phase-number", "forged-move")


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.one_of(small_scenarios(), single_source_scenarios()),
       st.lists(st.tuples(st.sampled_from(TAMPERS), st.integers(min_value=0, max_value=10**6)),
                min_size=1, max_size=3))
def test_scoped_walks_are_the_split_of_the_full_walk(scenario, tampers):
    # validate_trace walks without the invariants and check_invariants
    # without the replay comparisons; each must still report exactly its
    # kinds of the full walk, in the same order, on clean and tampered traces
    for ruleset in Ruleset:
        trace = run(scenario, ruleset).trace
        records = trace.records
        for kind, pick in tampers:
            records = _tamper(scenario, records, kind, pick)
        tampered = dataclasses.replace(trace, records=records)
        found = check_trace(scenario, records, trace.phase_snapshots, trace.result)
        assert validate_trace(tampered, scenario) == [
            v for v in found if v.kind in REPLAY_KINDS], (scenario, ruleset, tampers)
        assert check_invariants(tampered) == [
            v for v in found if v.kind not in REPLAY_KINDS], (scenario, ruleset, tampers)


@pytest.mark.parametrize("ruleset", list(Ruleset))
def test_scoped_streamed_checks_are_the_split_of_the_full_one(ruleset):
    # evaluate_scenario hands its flags to the check the engine feeds
    sample = list(enumerate_scenarios(6, 4, 7))[::300]
    for scenario in sample:
        full = evaluate_scenario(scenario, ruleset)
        replay = evaluate_scenario(scenario, ruleset, invariants=False)
        lemmas = evaluate_scenario(scenario, ruleset, validate=False)
        assert (replay.validation_count, replay.finding_kinds) == (full.validation_count, ())
        assert (lemmas.validation_count, lemmas.finding_kinds) == (0, full.finding_kinds)
    assert any(evaluate_scenario(s, ruleset).finding_kinds for s in sample)


def test_a_replay_only_walk_builds_no_pair_table():
    # invariant (e) keeps a state per robot pair, 12.5 million at k = 5,000;
    # a walk without the invariants, as for a trace file, needs none
    k = 5_000
    scenario = make_scenario(2 * k, 2**13 - 1, [(label, 2 * label) for label in range(k)])
    tracemalloc.start()
    try:
        assert check_trace(scenario, [], invariants=False) == []
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 10_000_000


# every 60th (5,4,7) scenario: 191, past the serial cutoff of 64
SAMPLE_547 = list(enumerate_scenarios(5, 4, 7))[::60]


@pytest.mark.parametrize("member, overlay", [(Ruleset.REPAIRED, REPAIRS), (Ruleset.LITERAL, {})],
                         ids=["repaired", "literal"])
def test_a_built_ruleset_gives_its_members_outcomes_in_the_pool(member, overlay):
    # pickled, as the pool pickles it with each chunk, and rebuilt there
    built = pickle.loads(pickle.dumps(RuleTable(f"{member.value} again", overlay)))
    expected = list(evaluate_many(SAMPLE_547, member, workers=1))
    assert any(not outcome.ok for outcome in expected)
    assert list(evaluate_many(SAMPLE_547, built, workers=2)) == expected


@pytest.mark.parametrize("ruleset", [Ruleset.REPAIRED, Ruleset.LITERAL], ids=lambda r: r.value)
def test_search_pulls_a_generator_once_and_reports_alike_on_one_and_two_workers(ruleset):
    def draws(pulled):
        for seed in range(100):
            pulled.append(seed)
            yield gen_multi_source(12, 5, 15, 3, seed)

    reports = []
    for workers in (1, 2):
        pulled = []
        scenarios = draws(pulled)
        reports.append(search(scenarios, ruleset, "100 multi-source draws", workers=workers))
        assert pulled == list(range(100)) and next(scenarios, None) is None
    serial, pooled = reports
    assert serial.total == 100
    assert serial.render().startswith(f"100 multi-source draws, ruleset {ruleset.value}\n")
    assert pooled.render() == serial.render()


def test_exhaustive_search_is_search_over_the_enumeration():
    report = exhaustive_search(4, 3, 3, Ruleset.LITERAL, workers=1)
    same = search(enumerate_scenarios(4, 3, 3), Ruleset.LITERAL,
                  "exhaustive search: n <= 4, k <= 3, labels in [0, 3]", workers=1)
    assert report == same and report.failures
    assert [f.name for f in dataclasses.fields(report)][:2] == ["source", "ruleset"]


def test_tiny_search_all_disperse():
    report = exhaustive_search(4, 2, 3, Ruleset.REPAIRED, workers=1)
    assert report.total > 0
    assert report.all_dispersed
    assert report.validation_violations == 0
    assert report.failures == []


def test_search_rerun_reproduces_outcomes():
    report = exhaustive_search(4, 2, 1, Ruleset.REPAIRED, workers=1)
    again = exhaustive_search(4, 2, 1, Ruleset.REPAIRED, workers=1)
    assert report.tallies == again.tallies
    assert report.total == again.total


def test_minimizer_shrinks_and_replays():
    # the singleton-front-group chain livelocks under literal merging; the
    # minimizer must keep the failure while shrinking robots and ring
    scenario = gen_chain([2, 2], gap=3, n=8, max_label=7)
    outcome = evaluate_scenario(scenario, Ruleset.LITERAL)
    assert outcome.result is not RunResult.DISPERSED
    minimized = minimize_scenario(scenario, Ruleset.LITERAL, outcome.result)
    assert minimized.k <= scenario.k
    assert minimized.n <= scenario.n
    check = evaluate_scenario(minimized, Ruleset.LITERAL, validate=False, invariants=False)
    assert check.result is outcome.result


def test_minimizer_runs_the_returned_scenario_once(monkeypatch):
    # an accepted candidate already reproduced, so it is not run again
    import ringdisperse.verify as verify_module

    scenario = gen_chain([2, 2], gap=3, n=8, max_label=7)
    result = evaluate_scenario(scenario, Ruleset.LITERAL).result
    ran = []

    def counted_run(candidate, *args, **kwargs):
        ran.append(candidate)
        return run(candidate, *args, **kwargs)

    monkeypatch.setattr(verify_module, "run", counted_run)
    minimized = minimize_scenario(scenario, Ruleset.LITERAL, result)
    assert minimized != scenario
    assert ran.count(minimized) == 1
    assert run(minimized, Ruleset.LITERAL, record_rounds=False).result is result


@pytest.mark.parametrize("ruleset, failures, runs, pinned", [
    (Ruleset.REPAIRED, 88, 592,
     "d833b5d76bb30da0adceec7544073041acf9813f52c7eb2224473f23c5d0f762"),
    (Ruleset.LITERAL, 244, 2178,
     "294a8f849ad09c9556f5d477d8b473abd948b974a5bb84433d555e990dcd5ea5"),
], ids=["repaired", "literal"])
def test_minimized_643_search_is_pinned(monkeypatch, ruleset, failures, runs, pinned):
    # sha256 of the rendered report, which names every minimized scenario,
    # and the reproduce runs the minimizer takes: each run past the one
    # that judges a scenario
    import ringdisperse.verify as verify_module

    calls = []

    def counted_run(*args, **kwargs):
        calls.append(1)
        return run(*args, **kwargs)

    monkeypatch.setattr(verify_module, "run", counted_run)
    report = exhaustive_search(6, 4, 3, ruleset, workers=1)
    assert (report.total, len(report.failures)) == (773, failures)
    assert len(calls) - report.total == runs
    assert hashlib.sha256(report.render().encode()).hexdigest() == pinned


def test_minimizer_raises_when_the_outcome_does_not_reproduce():
    # nothing shrinks a scenario whose outcome is not the expected one, and
    # the final check of the unshrunk scenario catches it
    scenario = make_scenario(4, 3, ((1, 0), (2, 0)))
    with pytest.raises(AssertionError, match="fails to reproduce"):
        minimize_scenario(scenario, Ruleset.REPAIRED, RunResult.LIVELOCK)


def test_worker_count_reads_and_clamps_the_variable(monkeypatch):
    cpus = os.cpu_count() or 1
    monkeypatch.delenv("RINGDISPERSE_WORKERS", raising=False)
    assert worker_count() == cpus
    for value, expected in (("1", 1), ("0", 1), ("-3", 1), (str(cpus), cpus),
                            ("1000000", cpus)):
        monkeypatch.setenv("RINGDISPERSE_WORKERS", value)
        assert worker_count() == expected, value


@pytest.mark.parametrize("value", ["abc", "1.5", "2 workers"])
def test_worker_count_rejects_a_non_integer(monkeypatch, value):
    monkeypatch.setenv("RINGDISPERSE_WORKERS", value)
    with pytest.raises(ValueError, match="RINGDISPERSE_WORKERS"):
        worker_count()


@pytest.mark.parametrize("workers", [1, 2])
def test_map_jobs_keeps_input_order(workers):
    jobs = list(range(-5, 5))
    assert list(map_jobs(abs, jobs, workers, chunksize=3, serial_max=4)) == [abs(j) for j in jobs]


@pytest.fixture
def pool_log(monkeypatch):
    """``verify.Pool`` replaced by real pools that log ("built" or
    "terminated", worker count, pool); every test starts and ends with no
    kept pool."""
    import ringdisperse.verify as verify_module

    log = []

    class LoggedPool(multiprocessing.pool.Pool):
        def __init__(self, processes):
            super().__init__(processes)
            log.append(("built", processes, self))

        def terminate(self):
            log.append(("terminated", self._processes, self))
            super().terminate()

    verify_module._close_pool()
    monkeypatch.setattr(verify_module, "Pool", LoggedPool)
    yield log
    for _, pool in verify_module._pools.values():
        pool.terminate()
        pool.join()
    verify_module._pools.clear()


def absolute_unless_zero(job: int) -> int:
    if job == 0:
        raise ValueError("job 0 fails")
    return abs(job)


POOL_JOBS = list(range(-20, 20))


def pooled(fn=abs, workers=2):
    return list(map_jobs(fn, POOL_JOBS, workers, chunksize=3, serial_max=4))


def test_map_jobs_keeps_one_pool_across_calls(pool_log):
    assert pooled() == pooled() == [abs(j) for j in POOL_JOBS]
    assert [(event, workers) for event, workers, _ in pool_log] == [("built", 2)]


def test_map_jobs_replaces_the_pool_for_another_worker_count(pool_log):
    pooled(workers=2)
    assert pooled(workers=3) == [abs(j) for j in POOL_JOBS]
    assert [(event, workers) for event, workers, _ in pool_log] == [
        ("built", 2), ("terminated", 2), ("built", 3)]
    assert pool_log[1][2] is pool_log[0][2]


def test_map_jobs_raises_a_job_error_and_works_on(pool_log):
    pooled()
    with pytest.raises(ValueError, match="job 0 fails"):
        pooled(absolute_unless_zero)
    assert pooled() == [abs(j) for j in POOL_JOBS]
    # the pool that raised is dropped, and the next call builds its own
    assert [(event, workers) for event, workers, _ in pool_log] == [
        ("built", 2), ("terminated", 2), ("built", 2)]


def test_map_jobs_leaves_the_pool_of_another_process_alone(pool_log, monkeypatch):
    import ringdisperse.verify as verify_module

    parent = os.getpid()

    class ChildOs:
        """``os`` as a forked child of this process sees it."""

        def getpid(self):
            return parent + 1

        def __getattr__(self, name):
            return getattr(os, name)

    pooled()
    monkeypatch.setattr(verify_module, "os", ChildOs())
    assert pooled() == [abs(j) for j in POOL_JOBS]
    monkeypatch.setattr(verify_module, "os", os)
    assert pooled() == [abs(j) for j in POOL_JOBS]
    # the child built its own pool and terminated neither; back in the
    # parent, the parent's pool serves again
    assert [(event, workers) for event, workers, _ in pool_log] == [
        ("built", 2), ("built", 2)]
    assert pool_log[0][2] is not pool_log[1][2]


def test_map_jobs_pulls_jobs_as_results_are_read():
    pulled = []

    def jobs():
        for job in range(1000):
            pulled.append(job)
            yield job

    results = map_jobs(abs, jobs(), 1, chunksize=3, serial_max=4)
    assert list(itertools.islice(results, 10)) == list(range(10))
    assert len(pulled) <= 15


@pytest.mark.parametrize("leave", ["break", "raise"])
def test_leaving_a_pooled_iteration_closes_the_pool(pool_log, leave):
    with pytest.raises(KeyError) if leave == "raise" else contextlib.nullcontext():
        for result in map_jobs(abs, POOL_JOBS, 2, chunksize=3, serial_max=4):
            if leave == "raise":
                raise KeyError(result)
            break
    assert [(event, workers) for event, workers, _ in pool_log] == [
        ("built", 2), ("terminated", 2)]
    assert pooled() == [abs(j) for j in POOL_JOBS]
    assert [event for event, _, _ in pool_log] == ["built", "terminated", "built"]


def test_search_past_the_guard_builds_no_pool(pool_log):
    with pytest.raises(ValueError, match="guard"):
        exhaustive_search(12, 8, 255, Ruleset.REPAIRED, workers=2)
    assert pool_log == []


@pytest.mark.parametrize("ruleset", [Ruleset.REPAIRED, Ruleset.LITERAL], ids=lambda r: r.value)
def test_search_report_is_the_same_on_one_and_two_workers(ruleset):
    # (4, 3, 3) holds 114 scenarios, past the serial cutoff of 64
    assert sum(1 for _ in enumerate_scenarios(4, 3, 3)) == 114
    serial = exhaustive_search(4, 3, 3, ruleset, workers=1)
    assert serial.total == 114
    assert exhaustive_search(4, 3, 3, ruleset, workers=2).render() == serial.render()


# every 224th (6,4,7) scenario, as the search-647 benchmark samples it:
# 129 scenarios, past the serial cutoff of 64
STREAM_SLICE = list(enumerate_scenarios(6, 4, 7))[::224]


@pytest.mark.parametrize("ruleset", [Ruleset.REPAIRED, Ruleset.LITERAL], ids=lambda r: r.value)
def test_evaluate_many_streams_the_serial_outcomes_in_order(pool_log, ruleset):
    assert len(STREAM_SLICE) == 129
    streamed = evaluate_many(STREAM_SLICE, ruleset, workers=2)
    assert isinstance(streamed, Iterator)
    serial = list(evaluate_many(STREAM_SLICE, ruleset, workers=1))
    assert [outcome.scenario for outcome in serial] == STREAM_SLICE
    assert list(streamed) == serial
    assert [(event, workers) for event, workers, _ in pool_log] == [("built", 2)]


@pytest.mark.parametrize("ruleset", [Ruleset.REPAIRED, Ruleset.LITERAL], ids=lambda r: r.value)
def test_minimizing_while_the_outcomes_stream_gives_the_same_scenarios(ruleset):
    # the search-647 loop: each failure is minimized in this process while
    # the iteration is still open and the pool judges later chunks
    outcomes = evaluate_many(STREAM_SLICE, ruleset, workers=2)
    streamed = []
    for outcome in outcomes:
        if not outcome.ok:
            assert inspect.getgeneratorstate(outcomes) == inspect.GEN_SUSPENDED
            streamed.append(minimize_scenario(outcome.scenario, ruleset, outcome.result))
    after = [minimize_scenario(outcome.scenario, ruleset, outcome.result)
             for outcome in list(evaluate_many(STREAM_SLICE, ruleset, workers=1))
             if not outcome.ok]
    assert streamed == after
    assert len(after) > 10


def test_leaving_an_evaluate_many_iteration_closes_the_pool(pool_log):
    for _ in evaluate_many(STREAM_SLICE, Ruleset.REPAIRED, workers=2):
        break
    assert [(event, workers) for event, workers, _ in pool_log] == [
        ("built", 2), ("terminated", 2)]
    outcomes = list(evaluate_many(STREAM_SLICE, Ruleset.REPAIRED, workers=2))
    assert [outcome.scenario for outcome in outcomes] == STREAM_SLICE
    assert [event for event, _, _ in pool_log] == ["built", "terminated", "built"]


def test_evaluate_many_raises_at_iteration_not_at_the_call(monkeypatch):
    monkeypatch.setenv("RINGDISPERSE_WORKERS", "abc")
    outcomes = evaluate_many(STREAM_SLICE, Ruleset.REPAIRED)
    with pytest.raises(ValueError, match="RINGDISPERSE_WORKERS"):
        next(outcomes)


CLEAN_EXIT = """
import multiprocessing
from ringdisperse.verify import map_jobs

for _ in range(2):
    list(map_jobs(abs, list(range(40)), 2, chunksize=1, serial_max=4))
    print(*sorted(child.pid for child in multiprocessing.active_children()))
"""


def test_kept_pool_ends_with_the_process():
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", CLEAN_EXIT], env=env,
                          capture_output=True, text=True, timeout=120)
    assert (done.returncode, done.stderr) == (0, "")
    after_first, after_second = done.stdout.splitlines()
    assert after_first == after_second, "both calls, one pool"
    pids = [int(pid) for pid in after_first.split()]
    assert len(pids) == 2, "a pool of two workers"
    for pid in pids:
        with pytest.raises(ProcessLookupError):
            os.kill(pid, 0)
