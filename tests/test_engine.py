"""Executor tests: frozen hand-derived oracles, verdicts, determinism."""

import dataclasses
import itertools
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ringdisperse import engine as engine_module
from ringdisperse.engine import (
    ROUNDS_PER_PHASE,
    Engine,
    RunResult,
    _repeats_forever,
    phase_budget,
    run,
    zero_test_stable,
)
from ringdisperse.perception import observe
from ringdisperse.protocol import Ruleset, step, wake_rounds
from ringdisperse.robots import RobotState, Status
from ringdisperse.scenario import gen_chain, gen_single_source, make_scenario
from ringdisperse.verify import TraceCheck, check_trace, enumerate_scenarios


def moves_by_round(trace, phase):
    """(round_in_phase, label) -> (from, to) for one phase."""
    out = {}
    for record in trace.records:
        if record.phase != phase:
            continue
        for label, frm, to, _ in record.moves:
            out[(record.round_in_phase, label)] = (frm, to)
    return out


def test_single_robot_disperses_in_first_phase():
    scenario = make_scenario(3, 1, [(1, 0)])
    outcome = run(scenario)
    assert outcome.result is RunResult.DISPERSED
    assert outcome.rounds_used == ROUNDS_PER_PHASE
    assert outcome.rounds_used < ROUNDS_PER_PHASE * (1 + 3)
    # self-elected in round 1, no movement at all
    assert outcome.trace.snapshot_for(2).states[1][2] is True
    assert all(not record.moves for record in outcome.trace.records)


def test_two_robot_oracle_full_trace():
    """Frozen hand-execution of labels {1, 2} from one node, n=4, L=3.

    Phase 1 elects robot 1 (split on bit 1, probe of the empty
    predecessor); phase 2 is the quiet second election phase; phase 3
    merges; phase 4 is the first dispersal phase (the leader scouts ahead
    and robot 2, alone behind it, arms its retirement timer); phase 5 is
    fully quiescent with distinct positions.
    """
    scenario = make_scenario(4, 3, [(1, 0), (2, 0)])
    outcome = run(scenario, Ruleset.REPAIRED)
    assert outcome.result is RunResult.DISPERSED
    assert outcome.phases_used == 5
    assert outcome.rounds_used == 95
    assert outcome.final_placement.by_robot == {1: 1, 2: 0}

    trace = outcome.trace
    assert moves_by_round(trace, 1) == {
        (1, 1): (0, 1),   # bit 1 of label 1 is 1: step forward
        (2, 2): (0, 1),   # stayer saw the departure and informs
        (3, 1): (1, 0),   # informed candidate returns
        (3, 2): (1, 0),   # informer returns
        (4, 1): (0, 3),   # candidate probes the predecessor
        (5, 1): (3, 0),   # alone there: leader, comes home
    }
    assert moves_by_round(trace, 2) == {}
    assert moves_by_round(trace, 3) == {
        (6, 1): (0, 1),   # merge sweep
        (7, 1): (1, 0),   # empty successor: merging complete
    }
    assert moves_by_round(trace, 4) == {
        (9, 1): (0, 1),   # leader scouts ahead of the group
        (10, 1): (1, 2),
        (11, 1): (2, 1),
    }
    assert moves_by_round(trace, 5) == {}

    assert trace.snapshot_for(2).states[1][2] is True  # leader flag
    assert trace.snapshot_for(4).states[2][0] is Status.ACTIVE_DISPERSE
    assert trace.snapshot_for(5).states[2][0] is Status.PASSIVE
    assert trace.snapshot_for(5).states[2][5] == 1  # start timer armed


def test_two_group_chain_oracle_repaired():
    """Frozen hand-execution of the two-group chain {1,2}|{3,4} on n=7.

    Election takes the three phases of MaxSize; the merge sweep absorbs
    the front group in phase 4 and completes in phase 5; dispersal then
    unfolds split by split until phase 11 is quiescent and distinct.
    """
    scenario = gen_chain([2, 2], gap=2, n=7, max_label=7)
    assert scenario.robots == ((1, 0), (2, 0), (3, 1), (4, 1))
    outcome = run(scenario, Ruleset.REPAIRED)
    assert outcome.result is RunResult.DISPERSED
    assert outcome.phases_used == 11
    assert outcome.rounds_used == 209
    assert outcome.final_placement.by_robot == {1: 4, 2: 2, 3: 3, 4: 1}

    trace = outcome.trace
    # one leader, elected in the back group during phase 1
    assert trace.snapshot_for(2).states[1][2] is True
    assert sum(1 for lab in (2, 3, 4) if trace.snapshot_for(4).states[lab][2]) == 0
    # merge completes at the end of phase 5: all co-located, all dispersing
    snap6 = trace.snapshot_for(6)
    assert set(snap6.nodes.values()) == {1}
    assert all(snap6.states[lab][0] is Status.ACTIVE_DISPERSE for lab in (1, 2, 3, 4))
    # alternation after the first split: passives behind, actives ahead
    snap7 = trace.snapshot_for(7)
    assert snap7.states[2][0] is Status.PASSIVE
    assert snap7.states[4][0] is Status.PASSIVE
    assert snap7.states[3][0] is Status.ACTIVE_DISPERSE
    # the wait/jump displacement dance in phase 8
    snap9 = trace.snapshot_for(9)
    assert snap9.states[2][0] is Status.WAIT
    assert snap9.states[3][0] is Status.JUMP
    assert snap9.nodes[2] == snap9.nodes[3] == 2


def test_two_group_chain_literal_livelocks():
    scenario = gen_chain([2, 2], gap=2, n=7, max_label=7)
    outcome = run(scenario, Ruleset.LITERAL, max_phases=50)
    assert outcome.result is RunResult.LIVELOCK
    assert outcome.phases_used <= 50
    # the merging chain translates rigidly: same snapshot up to rotation
    snap4 = outcome.trace.snapshot_for(4)
    snap5 = outcome.trace.snapshot_for(5)
    assert {snap4.nodes[lab] + 1 for lab in (1, 2)} == {snap5.nodes[1], snap5.nodes[2]}


def test_budget_exceeded_verdict():
    scenario = gen_chain([2, 2], gap=2, n=7, max_label=7)
    outcome = run(scenario, Ruleset.LITERAL, max_phases=3)
    assert outcome.result is RunResult.BUDGET_EXCEEDED
    assert outcome.phases_used == 3


@pytest.mark.parametrize("value, delta, stable", [
    (5, 1, True),     # moves away from 0
    (-3, 2, True),    # steps over 0: -3, -1, 1, ...
    (7, 0, True),     # an exact repeat
    (0, 1, False),    # reads 0 now, never again
    (-2, 1, False),   # reaches 0 in pass 2
    (5, -5, False),   # reaches 0 in pass 1
])
def test_zero_test_stable_hand_cases(value, delta, stable):
    assert zero_test_stable(value, delta) is stable


def test_zero_test_stable_matches_its_definition():
    for value in range(-12, 13):
        for delta in range(-6, 7):
            reads = [value + j * delta == 0 for j in range(30)]
            assert zero_test_stable(value, delta) == (len(set(reads)) == 1)


@pytest.mark.parametrize("ruleset, at_13, disp_b, proven", [
    # robot 2 moved +2 over phases [2, 4); its round-13 values there are
    # 4 and 3, which never reach 0; the 0 of phase 1 lies before the cycle
    (Ruleset.REPAIRED, [(0, 0), (0, 4), (0, 3)], (0, 7), True),
    # robot 2 moved -2 and read 4 in phase 2: it reads 0 two passes later
    (Ruleset.REPAIRED, [(0, 0), (0, 4), (0, 3)], (0, 3), False),
    # robot 1 read 0 in phase 2 and its net_disp rose by 1: it reads 1 next pass
    (Ruleset.REPAIRED, [(0, 5), (0, 3), (0, 4)], (1, 5), False),
    # the literal rules never read net_disp
    (Ruleset.LITERAL, [(0, 0), (0, 3), (0, 4)], (0, 3), True),
])
def test_repeats_forever_reads_round_13_of_the_cycle(ruleset, at_13, disp_b, proven):
    engine = Engine(make_scenario(6, 3, [(1, 0), (2, 0)]), ruleset, record_rounds=False)
    engine.phase = 4  # phases 1-3 finished; the repeat is of phase start 2
    engine.net_disp_at_13 = at_13
    assert _repeats_forever(engine, 2, (0, 5), disp_b) is proven


def exact_key_run(scenario, ruleset):
    """The run loop with the exact livelock key, as the oracle: livelock
    only when ``snapshot_key`` repeats exactly, and budget-exceeded after
    ``phase_budget`` phases.  Returns (verdict, phases, final placement)."""
    engine = Engine(scenario, ruleset, record_rounds=False)
    budget = phase_budget(engine.max_size, scenario.k)
    seen = {engine.snapshot_key()}
    while True:
        phase_moves = engine.run_phase()
        finished = engine.phase - 1
        if phase_moves == 0 and engine.placement.all_distinct():
            return RunResult.DISPERSED, finished, engine.placement
        key = engine.snapshot_key()
        if key in seen:
            return RunResult.LIVELOCK, finished, engine.placement
        seen.add(key)
        if engine.phase > budget:
            return RunResult.BUDGET_EXCEEDED, finished, engine.placement


@pytest.fixture(scope="module")
def sample_647():
    """Every 50th scenario of the (6,4,7) space."""
    return list(enumerate_scenarios(6, 4, 7))[::50]


@pytest.mark.parametrize("ruleset", list(Ruleset))
def test_cycle_detection_agrees_with_the_exact_key(sample_647, ruleset):
    changed = 0
    for scenario in sample_647:
        verdict, phases, placement = exact_key_run(scenario, ruleset)
        outcome = run(scenario, ruleset, record_rounds=False)
        if verdict is RunResult.BUDGET_EXCEEDED:
            # a translating cycle the exact key cannot see
            assert outcome.result is RunResult.LIVELOCK, scenario
            assert outcome.phases_used < phases, scenario
            changed += 1
        else:
            assert outcome.result is verdict, scenario
            assert outcome.rounds_used == phases * ROUNDS_PER_PHASE, scenario
            assert outcome.final_placement == placement, scenario
    assert changed > 0


def trajectory(scenario, ruleset, record_rounds, rounds):
    """The placement and every robot's full state after each of ``rounds``
    rounds of a fresh engine."""
    engine = Engine(scenario, ruleset, record_rounds=record_rounds)
    states = []
    for _ in range(rounds):
        engine.step_round()
        states.append((engine.placement.by_robot,
                       [dataclasses.replace(engine.robots[label]) for label in engine.labels]))
    return states


def wake_everyone(ruleset):
    """A wake table for ``ruleset`` that steps every robot in every round,
    whatever its status and leader flag, and so also where its cell acts
    only on a perceived change and it perceives none."""
    return {key: (tuple(range(1, ROUNDS_PER_PHASE + 1)), ()) for key in ruleset.wake}


@pytest.mark.parametrize("ruleset", list(Ruleset))
def test_wake_schedule_matches_stepping_every_robot(sample_647, ruleset, monkeypatch):
    # the (6,4,7) sample has k <= 4; large k is where most steps of the
    # change-triggered cells are skipped
    single_source = [gen_single_source(26, k, 1023, seed=k) for k in (8, 16, 24)]
    for scenario in sample_647 + single_source:
        outcome = run(scenario, ruleset)
        rounds = outcome.rounds_used
        recorded = trajectory(scenario, ruleset, True, rounds)
        unrecorded = trajectory(scenario, ruleset, False, rounds)
        with monkeypatch.context() as patch:
            patch.setattr(ruleset, "wake", wake_everyone(ruleset))
            everyone = trajectory(scenario, ruleset, True, rounds)
            oracle = run(scenario, ruleset)
        assert len(recorded) == len(unrecorded) == len(everyone) == rounds
        for index, (a, b, c) in enumerate(zip(recorded, unrecorded, everyone)):
            assert a == b == c, (scenario, index)
        assert oracle.result is outcome.result, scenario
        assert oracle.rounds_used == outcome.rounds_used, scenario
        assert oracle.final_placement == outcome.final_placement, scenario
        assert oracle.trace.records == outcome.trace.records, scenario
        assert oracle.trace.phase_snapshots == outcome.trace.phase_snapshots, scenario


@st.composite
def shared_node_scenarios(draw):
    """Multi-source scenarios with n <= 64, k <= 24 and L <= 1023: distinct
    labels, start nodes drawn uniformly, and at least one shared node."""
    n = draw(st.integers(min_value=3, max_value=64))
    k = draw(st.integers(min_value=2, max_value=min(24, n - 1)))
    max_label = draw(st.integers(min_value=k, max_value=1023))
    labels = draw(st.lists(st.integers(min_value=0, max_value=max_label),
                           min_size=k, max_size=k, unique=True))
    nodes = draw(st.lists(st.integers(min_value=0, max_value=n - 1),
                          min_size=k - 1, max_size=k - 1))
    nodes.append(nodes[draw(st.integers(min_value=0, max_value=k - 2))])
    return make_scenario(n, max_label, list(zip(labels, nodes)))


@st.composite
def single_source_scenarios(draw):
    """Single-source scenarios with n <= 64, k = 2..24 and L <= 1023, as
    the sweep draws them: every robot on node 0, random distinct labels."""
    k = draw(st.integers(min_value=2, max_value=24))
    n = draw(st.integers(min_value=k + 1, max_value=64))
    max_label = draw(st.integers(min_value=k, max_value=1023))
    return gen_single_source(n, k, max_label, seed=draw(st.integers(min_value=0)))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(shared_node_scenarios(), single_source_scenarios())
def test_wake_schedule_matches_stepping_every_robot_on_drawn_scenarios(shared_node, single_source):
    # the trace checker lets a robot move only in its wake rounds, so the
    # run that steps every robot in every round must not break participation
    for scenario, ruleset in itertools.product((shared_node, single_source), Ruleset):
        outcome = run(scenario, ruleset)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(ruleset, "wake", wake_everyone(ruleset))
            oracle = run(scenario, ruleset)
        assert oracle.result is outcome.result, (scenario, ruleset)
        assert oracle.trace.records == outcome.trace.records, (scenario, ruleset)
        assert oracle.trace.phase_snapshots == outcome.trace.phase_snapshots, (scenario, ruleset)
        trace = oracle.trace
        violations = check_trace(scenario, trace.records, trace.phase_snapshots, trace.result)
        assert "participation" not in {v.kind for v in violations}, (scenario, ruleset)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.lists(st.tuples(st.sampled_from(list(Status)), st.booleans()), min_size=1,
                max_size=24),
       st.sampled_from(list(Ruleset)))
def test_wake_schedule_holds_the_labels_each_robots_wake_rounds_put_there(keys, ruleset):
    # the schedule is built per (status, leader) group; as sets its lists
    # are the per-robot build's, and no round holds a label twice
    scenario = make_scenario(len(keys) + 2, 1023, [(3 * i + 1, i) for i in range(len(keys))])
    engine = Engine(scenario, ruleset, record_rounds=False)
    for label, (status, leader) in zip(engine.labels, keys):
        engine.robots[label].status, engine.robots[label].leader = status, leader
    woken, on_change = engine._build_wake_schedule()
    assert len(woken) == len(on_change) == ROUNDS_PER_PHASE + 1
    assert not woken[0] and not on_change[0]
    for rip in range(1, ROUNDS_PER_PHASE + 1):
        for side, built in enumerate((woken[rip], on_change[rip])):
            expected = {label for label, key in zip(engine.labels, keys)
                        if rip in ruleset.wake[key][side]}
            assert len(built) == len(set(built)), (rip, side)
            assert set(built) == expected, (rip, side)


def assert_observations_fresh_and_shared(scenario, records):
    """Each record's observations equal what ``observe`` gives from the
    placements replayed from the moves, and a record holds the very dict
    of the record before it exactly when neither of the two rounds before
    it moved a robot (no round precedes round 0).  Returns the number of
    records that share."""
    position = dict(scenario.robots)
    counts = prev_counts = Counter(position.values())
    moved = set()
    shared = 0
    for index, record in enumerate(records):
        assert record.observations == {
            label: observe(counts[node], prev_counts[node], label in moved)
            for label, node in position.items()}, (scenario, index)
        quiet = index > 0 and not any(r.moves for r in records[max(0, index - 2):index])
        held = index > 0 and record.observations is records[index - 1].observations
        assert held == quiet, (scenario, index)
        shared += quiet
        for label, _, to, _ in record.moves:
            position[label] = to
        prev_counts, counts = counts, Counter(position.values())
        moved = {label for label, _, _, _ in record.moves}
    return shared


@pytest.mark.parametrize("ruleset", list(Ruleset))
def test_quiet_rounds_hand_on_the_observations_of_the_round_before(sample_647, ruleset):
    shared = 0
    for scenario in sample_647:
        records = run(scenario, ruleset).trace.records
        shared += assert_observations_fresh_and_shared(scenario, records)
        # step_round carries the moves of the last two rounds and the last
        # observations from one call to the next, as run_phase does
        engine = Engine(scenario, ruleset)
        for _ in records:
            engine.step_round()
        assert engine.trace.records == records, scenario
        assert_observations_fresh_and_shared(scenario, engine.trace.records)
    assert shared > 0


@pytest.mark.parametrize("ruleset", list(Ruleset))
def test_unrecorded_run_keeps_no_trace_and_the_same_verdict(sample_647, ruleset):
    for scenario in sample_647:
        recorded = run(scenario, ruleset)
        unrecorded = run(scenario, ruleset, record_rounds=False)
        assert unrecorded.trace.records == [], scenario
        assert unrecorded.trace.phase_snapshots == [], scenario
        assert unrecorded.result is recorded.result, scenario
        assert unrecorded.trace.result is recorded.result, scenario
        assert unrecorded.rounds_used == recorded.rounds_used, scenario
        assert unrecorded.phases_used == recorded.phases_used, scenario
        assert unrecorded.final_placement == recorded.final_placement, scenario


@pytest.mark.parametrize("ruleset", list(Ruleset))
def test_step_sees_the_same_rounds_with_and_without_a_sink(sample_647, ruleset, monkeypatch):
    # a run without a sink perceives its quiet rounds without observe; step
    # must get the same robots, rounds and observations as with a sink
    calls = []

    def recorded_step(state, observation, rip, rules):
        calls.append((state.label, rip, observation))
        return step(state, observation, rip, rules)

    monkeypatch.setattr(engine_module, "step", recorded_step)
    for scenario in sample_647:
        run(scenario, ruleset)
        with_sink = calls[:]
        calls.clear()
        run(scenario, ruleset, record_rounds=False)
        assert calls == with_sink, scenario
        calls.clear()


@pytest.mark.parametrize("ruleset", list(Ruleset))
def test_a_livelock_carries_the_cycle_it_proved(sample_647, ruleset):
    livelocks = cut = 0
    for scenario in sample_647:
        outcome = run(scenario, ruleset)
        if outcome.result is not RunResult.LIVELOCK:
            assert outcome.cycle is None, scenario
            continue
        livelocks += 1
        a, b = outcome.cycle
        assert 1 <= a < b == outcome.phases_used + 1, scenario
        start, end = outcome.trace.snapshot_for(a), outcome.trace.snapshot_for(b)
        first = scenario.labels()[0]
        shift = end.nodes[first] - start.nodes[first]
        assert end.nodes == {label: (node + shift) % scenario.n
                             for label, node in start.nodes.items()}, scenario
        assert ({label: state._replace(net_disp=0) for label, state in end.states.items()}
                == {label: state._replace(net_disp=0)
                    for label, state in start.states.items()}), scenario
        if b > 2:
            # cut before the cycle closes: budget-exceeded, and no cycle
            short = run(scenario, ruleset, max_phases=b - 2, record_rounds=False)
            assert short.result is RunResult.BUDGET_EXCEEDED, scenario
            assert short.cycle is None, scenario
            cut += 1
    assert livelocks > 0 and cut > 0


@pytest.mark.parametrize("mode, ruleset, max_phases, result, phases", [
    pytest.param(mode, *verdict, id=mode + suffix)
    for suffix, verdict in [
        ("", (Ruleset.REPAIRED, None, RunResult.DISPERSED, 11)),
        ("-livelock", (Ruleset.LITERAL, None, RunResult.LIVELOCK, 4)),
        ("-budget-exceeded", (Ruleset.REPAIRED, 4, RunResult.BUDGET_EXCEEDED, 4)),
    ]
    for mode in ["recorded", "checked", "unrecorded"]
])
def test_one_snapshot_per_robot_per_phase_start(monkeypatch, mode, ruleset, max_phases,
                                                result, phases):
    # criterion 6's [2,2] chain: whatever the verdict, a recorded or checked
    # run hands on phases_used + 1 phase starts, the last one after the
    # final phase; an unrecorded run takes none, since its livelock key
    # reads the robots' fields
    scenario = gen_chain([2, 2], gap=2, n=7, max_label=7)
    calls = []
    snapshot = RobotState.snapshot

    def counted(state):
        calls.append(state.label)
        return snapshot(state)

    monkeypatch.setattr(RobotState, "snapshot", counted)
    sink = TraceCheck(scenario) if mode == "checked" else None
    outcome = run(scenario, ruleset, max_phases, record_rounds=mode == "recorded", sink=sink)
    assert outcome.result is result and outcome.phases_used == phases
    phase_starts = phases + 1
    snapshots = 0 if mode == "unrecorded" else phase_starts
    assert len(calls) == scenario.k * snapshots
    assert calls == list(scenario.labels()) * snapshots
    if mode == "recorded":
        assert len(outcome.trace.phase_snapshots) == phase_starts
    else:
        assert outcome.trace.phase_snapshots == [] and outcome.trace.records == []


def test_snapshot_for_raises_without_a_snapshot():
    scenario = make_scenario(4, 3, [(1, 0), (2, 0)])
    unrecorded = run(scenario, record_rounds=False).trace
    with pytest.raises(ValueError, match="no snapshot for phase 2"):
        unrecorded.snapshot_for(2)
    recorded = run(scenario).trace
    assert recorded.snapshot_for(1).phase == 1
    for phase in (0, len(recorded.phase_snapshots) + 1):
        with pytest.raises(ValueError, match=f"no snapshot for phase {phase}"):
            recorded.snapshot_for(phase)


def test_snapshot_for_raises_on_a_misplaced_snapshot():
    trace = run(make_scenario(4, 3, [(1, 0), (2, 0)])).trace
    del trace.phase_snapshots[1]
    with pytest.raises(ValueError, match="stored for phase 2 is of phase 3"):
        trace.snapshot_for(2)


@st.composite
def rotated_scenarios(draw):
    """A scenario on a ring of 3..9 nodes and the same scenario rotated by
    ``shift`` nodes."""
    n = draw(st.integers(min_value=3, max_value=9))
    k = draw(st.integers(min_value=1, max_value=n - 1))
    max_label = draw(st.integers(min_value=k, max_value=15))
    labels = draw(st.lists(st.integers(min_value=0, max_value=max_label),
                           min_size=k, max_size=k, unique=True))
    nodes = draw(st.lists(st.integers(min_value=0, max_value=n - 1), min_size=k, max_size=k))
    shift = draw(st.integers(min_value=1, max_value=n - 1))
    return (make_scenario(n, max_label, zip(labels, nodes)),
            make_scenario(n, max_label, [(label, (node + shift) % n)
                                         for label, node in zip(labels, nodes)]),
            shift)


@settings(max_examples=100, deadline=None)
@given(rotated_scenarios())
def test_rotation_equivariance(scenarios):
    # canonical-only enumeration of placements is sound only if this holds
    scenario, rotated, shift = scenarios
    for ruleset in Ruleset:
        base = run(scenario, ruleset, record_rounds=False)
        turned = run(rotated, ruleset, record_rounds=False)
        assert turned.result is base.result
        assert turned.rounds_used == base.rounds_used
        assert turned.final_placement.by_robot == {
            label: (node + shift) % scenario.n
            for label, node in base.final_placement.by_robot.items()}


def test_repaired_121_chain_is_a_proven_livelock():
    # the (1,2,1) shape of the repaired multi-source gap translates
    # forever; the exact key ran it out to the phase budget
    scenario = gen_chain([1, 2, 1], gap=2, n=6, max_label=7)
    budget = phase_budget(3, scenario.k)
    assert exact_key_run(scenario, Ruleset.REPAIRED)[:2] == (RunResult.BUDGET_EXCEEDED, budget)
    outcome = run(scenario, Ruleset.REPAIRED)
    assert outcome.result is RunResult.LIVELOCK
    assert outcome.phases_used < budget


def test_snapshot_key_rotation_invariance():
    a = Engine(make_scenario(6, 3, [(1, 0), (2, 2)]), Ruleset.REPAIRED)
    b = Engine(make_scenario(6, 3, [(1, 4), (2, 0)]), Ruleset.REPAIRED)
    assert a.snapshot_key() == b.snapshot_key()


def test_snapshot_key_state_sensitivity():
    a = Engine(make_scenario(6, 3, [(1, 0), (2, 2)]), Ruleset.REPAIRED)
    b = Engine(make_scenario(6, 3, [(1, 0), (2, 2)]), Ruleset.REPAIRED)
    b.robots[2].proceed = 2
    assert a.snapshot_key() != b.snapshot_key()


def split_key(positions, engine):
    """``positions`` and the robots' snapshots as the livelock key is
    split: ((positions, states without net_disp), net_disp vector)."""
    snaps = [engine.robots[label].snapshot() for label in engine.labels]
    return ((positions, tuple(s[:-1] for s in snaps)), tuple(s.net_disp for s in snaps))


def all_rotations_key(engine):
    """The livelock key by its definition: the lexicographic minimum of the
    placement over all n ring rotations, plus the state vector."""
    by_robot = engine.placement.by_robot
    best = min(
        tuple((by_robot[label] + r) % engine.n for label in engine.labels)
        for r in range(engine.n)
    )
    return split_key(best, engine)


@st.composite
def small_engines(draw, record_rounds):
    n = draw(st.integers(min_value=3, max_value=12))
    k = draw(st.integers(min_value=1, max_value=min(n - 1, 5)))
    labels = draw(st.lists(st.integers(min_value=0, max_value=7),
                           min_size=k, max_size=k, unique=True))
    nodes = draw(st.lists(st.integers(min_value=0, max_value=n - 1),
                          min_size=k, max_size=k))
    ruleset = draw(st.sampled_from(list(Ruleset)))
    return Engine(make_scenario(n, 7, zip(labels, nodes)), ruleset, record_rounds=record_rounds)


@st.composite
def engines_mid_run(draw):
    engine = draw(small_engines(record_rounds=False))
    for _ in range(draw(st.integers(min_value=0, max_value=3 * ROUNDS_PER_PHASE))):
        engine.step_round()
    return engine


@settings(max_examples=200, deadline=None)
@given(engines_mid_run())
def test_snapshot_key_equals_all_rotations_minimum(engine):
    assert engine.snapshot_key() == all_rotations_key(engine)


@settings(max_examples=100, deadline=None)
@given(st.booleans().flatmap(lambda recorded: small_engines(record_rounds=recorded)),
       st.integers(min_value=1, max_value=4))
def test_snapshot_key_reads_the_snapshot_fields(engine, phases):
    # the key read from the robots' fields is the snapshot-based key, split
    for _ in range(phases):
        by_robot = engine.placement.by_robot
        origin = by_robot[engine.labels[0]]
        positions = tuple((by_robot[label] - origin) % engine.n for label in engine.labels)
        assert engine.snapshot_key() == split_key(positions, engine)
        engine.run_phase()


@settings(max_examples=100, deadline=None)
@given(small_engines(record_rounds=True), st.integers(min_value=1, max_value=4))
def test_run_phase_hands_on_each_phase_start_once(engine, phases):
    # round 1 of each phase hands that phase start on, once and in order
    for _ in range(phases):
        engine.run_phase()
    assert [snap.phase for snap in engine.trace.phase_snapshots] == list(range(1, phases + 1))


def test_round_counters_and_movement_limits():
    scenario = gen_chain([2, 2], gap=2, n=7, max_label=7)
    outcome = run(scenario, Ruleset.REPAIRED)
    for record in outcome.trace.records:
        assert record.global_round == 19 * (record.phase - 1) + record.round_in_phase - 1
        assert sum(count for _, count in record.occupancy) == scenario.k
        for label, frm, to, port in record.moves:
            assert to == (frm + 1) % scenario.n or to == (frm - 1) % scenario.n


def test_determinism_identical_traces():
    scenario = gen_chain([3, 1], gap=2, n=7, max_label=7)
    first = run(scenario, Ruleset.REPAIRED)
    second = run(scenario, Ruleset.REPAIRED)
    assert first.result is second.result
    assert first.rounds_used == second.rounds_used
    assert [r.moves for r in first.trace.records] == [r.moves for r in second.trace.records]
    assert [r.observations for r in first.trace.records] == [
        r.observations for r in second.trace.records
    ]


def test_all_singletons_disperse_immediately():
    scenario = make_scenario(6, 7, [(1, 0), (2, 2), (3, 4)])
    outcome = run(scenario)
    assert outcome.result is RunResult.DISPERSED
    assert outcome.phases_used == 1


def latch_window(seen, from_round, to_round, flag):
    """The observation-window rule the two latches replace: True iff
    ``flag`` was perceived in a round of [from_round, to_round] among the
    ``(round_in_phase, Observation)`` pairs of the current phase."""
    return any(from_round <= rip <= to_round and getattr(obs, flag) for rip, obs in seen)


def assert_latches_match_window(engine, rounds):
    """Step ``engine`` and check every robot's latches after every round.
    A latch keeps what the robot perceived in the rounds of its window that
    ``step`` acts on it in, its ``wake_rounds``; for the robots that read
    it, the non-leader merging robots and the non-leader active-disperse
    and passive robots, that is the whole window.  Returns how many
    (reader, round) pairs had each latch set."""
    decreases = increases = 0
    for _ in range(rounds):
        engine.step_round()
        phase_records = [r for r in engine.trace.records if r.phase == engine.phase]
        for label, state in engine.robots.items():
            seen = [(r.round_in_phase, r.observations[label]) for r in phase_records]
            woken = wake_rounds(state.status, state.leader)
            taken = [(rip, obs) for rip, obs in seen if rip in woken]
            assert state.decrease_at_7 == latch_window(taken, 7, 7, "decrease")
            assert state.increase_in_10_12 == latch_window(taken, 10, 12, "increase")
            if state.leader:
                continue
            if state.status is Status.ACTIVE_MERGE:
                assert state.decrease_at_7 == latch_window(seen, 7, 7, "decrease")
                decreases += state.decrease_at_7
            if state.status in (Status.ACTIVE_DISPERSE, Status.PASSIVE):
                assert state.increase_in_10_12 == latch_window(seen, 10, 12, "increase")
                increases += state.increase_in_10_12
    return decreases, increases


@settings(max_examples=100, deadline=None)
@given(small_engines(record_rounds=True), st.integers(min_value=1, max_value=6 * ROUNDS_PER_PHASE))
def test_latches_equal_the_observation_window(engine, rounds):
    assert_latches_match_window(engine, rounds)


def test_latches_skip_the_leader_rounds_without_a_rule_cell():
    # a leader in active-disperse has no rule cell in round 7, so step
    # skips it there: in round 83, round 7 of phase 5, robot 1 leads,
    # perceives a decrease and latches none
    engine = Engine(make_scenario(5, 7, [(0, 0), (1, 0), (3, 4), (5, 4)]), Ruleset.REPAIRED)
    assert_latches_match_window(engine, 83)
    last, robot = engine.trace.records[-1], engine.robots[1]
    assert (last.phase, last.round_in_phase, last.observations[1].decrease) == (5, 7, True)
    assert (robot.status, robot.leader, robot.decrease_at_7) == (
        Status.ACTIVE_DISPERSE, True, False)
    assert 7 not in wake_rounds(robot.status, robot.leader)
    assert_latches_match_window(engine, 6 * ROUNDS_PER_PHASE - 83)


@pytest.mark.parametrize("ruleset", list(Ruleset))
def test_latches_are_set_on_a_merging_chain(ruleset):
    # two two-robot chains: the followers perceive their leader leave in
    # round 7, and one chain's scouting leader lands on the other chain's
    # dispersing group in round 10, so neither latch is checked only in its
    # all-False state
    engine = Engine(make_scenario(5, 7, [(1, 0), (2, 0), (3, 3), (4, 3)]), ruleset)
    decreases, increases = assert_latches_match_window(engine, 12 * ROUNDS_PER_PHASE)
    assert decreases > 0 and increases > 0
