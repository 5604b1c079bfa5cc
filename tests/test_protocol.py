"""Round-rule unit tests, including the hand-derived phase oracles."""

import dataclasses
import itertools
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ringdisperse.engine import ROUNDS_PER_PHASE, Engine, PhaseSnapshot
from ringdisperse.perception import OBSERVATIONS, Observation
from ringdisperse.protocol import (
    LEADER_ROUNDS,
    PAPER_PARTICIPATION,
    PARTICIPATION_CONFLICTS,
    PORT_ONE,
    PORT_ZERO,
    REPAIRS,
    RULES,
    RuleTable,
    Ruleset,
    _arm_only_at_start,
    _hear_arrival,
    _NET_DISP_UNREAD,
    step,
    wake_rounds,
)
from ringdisperse.robots import RobotState, Status
from ringdisperse.scenario import make_scenario


def obs(alone=False, increase=False, decrease=False):
    return Observation(alone, increase, decrease)


def robot(**kw):
    base = dict(label=5, max_size=3)
    base.update(kw)
    return RobotState(**base)


def phase_engine(n, max_label, robots_spec, ruleset=Ruleset.REPAIRED):
    """Engine with injected robot statuses, as if mid-protocol.

    robots_spec: label -> (node, status, extra state fields).
    """
    scenario = make_scenario(n, max_label, [(lab, spec[0]) for lab, spec in robots_spec.items()])
    eng = Engine(scenario, ruleset)
    for label, (_, status, extra) in robots_spec.items():
        state = eng.robots[label]
        state.status = status
        for field_name, value in extra.items():
            setattr(state, field_name, value)
    return eng


def test_idle_robot_stays():
    st = robot(status=Status.IDLE)
    assert step(st, obs(), 13, Ruleset.REPAIRED) is None


def test_passive_stays_in_round_13():
    st = robot(status=Status.PASSIVE)
    port = step(st, obs(), 13, Ruleset.REPAIRED)
    assert port is None
    assert st.pending_status is None


def test_wait_turns_passive_in_round_17():
    st = robot(status=Status.WAIT)
    port = step(st, obs(), 17, Ruleset.REPAIRED)
    assert port is None
    assert st.pending_status is Status.PASSIVE


def test_wait_never_moves():
    st = robot(status=Status.WAIT)
    for rip in range(1, 20):
        assert step(st, obs(), rip, Ruleset.REPAIRED) is None


def test_singleton_elects_itself_in_round_1():
    st = robot(status=Status.LEADER_ELECTION)
    port = step(st, obs(alone=True), 1, Ruleset.REPAIRED)
    assert port is None
    assert st.leader


def test_leader_is_gated_outside_its_rounds():
    st = robot(status=Status.LEADER_ELECTION, leader=True)
    port = step(st, obs(), 1, Ruleset.REPAIRED)
    assert port is None
    assert st.proceed == 0  # bit processing skipped entirely


def test_retired_candidate_is_inert():
    # proceed=2 marks a disqualified candidate; it must stay put in
    # every later election phase, including round 3
    st = robot(status=Status.LEADER_ELECTION, proceed=2)
    for rip in range(1, 6):
        port = step(st, obs(decrease=True), rip, Ruleset.REPAIRED)
        if rip == 5:
            continue  # bookkeeping round, no move either way
        assert port is None, f"moved in round {rip}"


def test_fresh_informer_returns_in_round_3():
    st = robot(status=Status.LEADER_ELECTION, proceed=0)
    port = step(st, obs(decrease=True), 2, Ruleset.REPAIRED)
    assert port == PORT_ONE
    assert st.proceed == 2
    port = step(st, obs(), 3, Ruleset.REPAIRED)
    assert port == PORT_ZERO


def test_literal_round3_drops_candidacy_without_increase():
    st = robot(status=Status.LEADER_ELECTION, proceed=1)
    port = step(st, obs(increase=False), 3, Ruleset.LITERAL)
    assert port == PORT_ZERO
    assert st.proceed == 0


def test_repaired_round3_keeps_candidacy():
    st = robot(status=Status.LEADER_ELECTION, proceed=1)
    port = step(st, obs(increase=False), 3, Ruleset.REPAIRED)
    assert port == PORT_ZERO
    assert st.proceed == 1


def test_participation_conflicts_are_every_difference_from_the_paper():
    # a rule in a round the paper's table leaves out, or a paper round with
    # no rule, must be annotated as a conflict
    differences = {
        (status, rip)
        for status in Status
        for rip in PAPER_PARTICIPATION[status] ^ RULES[status].keys()
    }
    assert differences == set(PARTICIPATION_CONFLICTS)


def test_wake_table_is_the_rule_cells():
    # the engine wakes a robot, and the checker lets it move, only in the
    # rounds a rule of its status acts in; an electing non-leader's leader
    # flag can turn on in round 1, and the leader's round 5 is a
    # non-leader's cell too
    expected = {
        (Status.LEADER_ELECTION, False): {1, 2, 3, 4, 5},
        (Status.LEADER_ELECTION, True): {5},
        (Status.ACTIVE_MERGE, False): {6, 7, 8},
        (Status.ACTIVE_MERGE, True): {6, 7},
        (Status.ACTIVE_DISPERSE, False): {9, 10, 11, 12, 13, 14, 15, 17, 18, 19},
        (Status.ACTIVE_DISPERSE, True): {9, 10, 11},
        (Status.PASSIVE, False): {9, 10, 11, 12, 15, 16, 17, 19},
        (Status.PASSIVE, True): {9, 10, 11},
        (Status.WAIT, False): {17},
        (Status.WAIT, True): set(),
        (Status.JUMP, False): {14, 17},
        (Status.JUMP, True): set(),
        (Status.IDLE, False): set(),
        (Status.IDLE, True): set(),
    }
    assert set(expected) == set(itertools.product(Status, (False, True)))
    for (status, leader), rounds in expected.items():
        assert wake_rounds(status, leader) == rounds, (status, leader)


def test_leader_cells_are_the_non_leader_cells_in_the_leader_rounds():
    # so the wake rounds of a non-leader cover those of a leader, which an
    # election whose leader flag turns on in round 1 relies on
    for ruleset, status in itertools.product(Ruleset, Status):
        leader = ruleset.dispatch[status][True]
        plain = ruleset.dispatch[status][False]
        assert leader.keys() == plain.keys() & LEADER_ROUNDS, (ruleset, status)
        assert all(leader[rip] is plain[rip] for rip in leader), (ruleset, status)
        assert wake_rounds(status, True) <= wake_rounds(status, False), status


def test_repairs_replace_cells_of_the_literal_rules():
    # a repair never adds a cell, so wake_rounds and each ruleset's
    # dispatch and wake tables, all keyed by the cells of RULES, hold
    # under both rulesets
    assert {ruleset: ruleset.overlay for ruleset in Ruleset} == {
        Ruleset.LITERAL: {}, Ruleset.REPAIRED: REPAIRS}
    assert set(REPAIRS) == {
        (Status.LEADER_ELECTION, 3), (Status.ACTIVE_MERGE, 8),
        (Status.ACTIVE_DISPERSE, 12), (Status.PASSIVE, 12), (Status.ACTIVE_DISPERSE, 13)}
    for status, rip in REPAIRS:
        assert rip in RULES[status], (status, rip)


def test_rulesets_dispatch_differ_in_the_repaired_cells_only():
    # each ruleset dispatches exactly the wake rounds, the rule cells
    differences = set()
    for status, leader in itertools.product(Status, (False, True)):
        literal = Ruleset.LITERAL.dispatch[status][leader]
        repaired = Ruleset.REPAIRED.dispatch[status][leader]
        assert set(literal) == set(repaired) == wake_rounds(status, leader), (status, leader)
        differences |= {(status, rip) for rip in literal if literal[rip] is not repaired[rip]}
    assert differences == set(REPAIRS)


def test_dispatch_is_the_rules_with_the_overlay_applied():
    # dispatch[status][leader] holds a cell in each wake round and none in
    # any other, and the cell is RULES' unless the ruleset's overlay
    # replaces it
    for ruleset, status, leader in itertools.product(Ruleset, Status, (False, True)):
        cells = ruleset.dispatch[status][leader]
        for rip in range(1, ROUNDS_PER_PHASE + 1):
            expected = (ruleset.overlay.get((status, rip), RULES[status][rip])
                        if rip in wake_rounds(status, leader) else None)
            assert cells.get(rip) is expected, (ruleset, status, leader, rip)


# the cells whose rules read a latch: repair 1 reads decrease_at_7 and
# repair 2 increase_in_10_12
LATCH_READERS = {(Status.ACTIVE_MERGE, 8), (Status.ACTIVE_DISPERSE, 12), (Status.PASSIVE, 12)}


def test_latch_reading_cells_lie_outside_the_leader_rounds():
    # so a leader never reads a latch, and the leader rounds without a rule
    # cell, which the engine skips, set nothing a rule reads
    for status, rip in LATCH_READERS:
        assert rip in RULES[status] and rip not in LEADER_ROUNDS, (status, rip)
        assert rip not in wake_rounds(status, True), (status, rip)


def test_ruleset_hashes_by_identity_and_survives_pickle():
    for ruleset in Ruleset:
        assert hash(ruleset) == object.__hash__(ruleset)
    table = {ruleset: ruleset.value for ruleset in Ruleset}
    restored = pickle.loads(pickle.dumps(table))
    for ruleset in Ruleset:
        assert restored[ruleset] == ruleset.value
        assert pickle.loads(pickle.dumps(ruleset)) is ruleset


def test_ruleset_is_looked_up_by_its_name():
    # the CLI's --ruleset names and the trace files name a ruleset by value
    assert [ruleset.value for ruleset in Ruleset] == ["literal", "repaired"]
    for ruleset in Ruleset:
        assert Ruleset(ruleset.value) is ruleset


def test_ruleset_wake_table_splits_the_wake_rounds_its_dispatch_covers():
    for ruleset in Ruleset:
        keys = set(itertools.product(Status, (False, True)))
        assert all(len(both) == 2 for both in ruleset.dispatch.values()), ruleset
        dispatched = set(itertools.product(ruleset.dispatch, (False, True)))
        assert ruleset.wake.keys() == dispatched == keys, ruleset
        for status, leader in keys:
            always, on_change = ruleset.wake[status, leader]
            key = (ruleset, status, leader)
            assert list(always) == sorted(always) and list(on_change) == sorted(on_change), key
            assert not set(always) & set(on_change), key
            assert set(always) | set(on_change) == wake_rounds(status, leader), key
            assert ruleset.dispatch[status][leader].keys() == wake_rounds(status, leader), key


def test_reads_net_disp_is_derived_from_the_dispatched_rules():
    # engine.run's livelock proof rests on it: only repair 4 reads net_disp
    assert Ruleset.LITERAL.reads_net_disp is False
    assert Ruleset.REPAIRED.reads_net_disp is True
    readers = {rule for ruleset in Ruleset for both in ruleset.dispatch.values()
               for cells in both for rule in cells.values() if rule not in _NET_DISP_UNREAD}
    assert readers == {_arm_only_at_start}


def test_a_ruleset_built_from_repairs_has_the_repaired_tables():
    # the members are built by the one constructor, so any other name with
    # the same overlay derives the same tables
    for member, overlay in ((Ruleset.REPAIRED, REPAIRS), (Ruleset.LITERAL, {})):
        built = RuleTable(f"{member.value} again", overlay)
        assert isinstance(member, RuleTable) and type(built) is RuleTable
        assert built.value == f"{member.value} again"
        assert (built.overlay, built.dispatch, built.wake, built.reads_net_disp) == (
            member.overlay, member.dispatch, member.wake, member.reads_net_disp)


def test_a_ruleset_pickles_by_name_and_overlay():
    built = RuleTable("repaired again", REPAIRS)
    assert built.__reduce__() == (RuleTable, ("repaired again", REPAIRS))
    data = pickle.dumps(built)
    # the derived tables are rebuilt, not pickled
    assert len(data) < len(pickle.dumps(vars(built))) / 2
    copy = pickle.loads(data)
    assert type(copy) is RuleTable and copy is not built
    assert (copy.value, copy.overlay, copy.dispatch, copy.wake, copy.reads_net_disp) == (
        built.value, built.overlay, built.dispatch, built.wake, built.reads_net_disp)
    for member in Ruleset:
        assert len(pickle.dumps(member)) < len(data) and pickle.loads(pickle.dumps(member)) is member


# labels of the robots that passive round 15's wrapped rule was called for
_WRAPPED_CALLS: list[int] = []


def _wrapped_hear_arrival(state: RobotState, obs: Observation):
    """Passive round 15's rule behind a wrapper: a rule neither among the
    change rules nor among those known to leave net_disp unread."""
    _WRAPPED_CALLS.append(state.label)
    return _hear_arrival(state, obs)


def test_a_wrapped_rule_is_stepped_in_every_wake_round_and_reads_net_disp():
    # soundness by construction: a rule the tables do not know is stepped
    # without a perceived change, and counts as reading net_disp
    wrapped = RuleTable("wrapped", {(Status.PASSIVE, 15): _wrapped_hear_arrival})
    assert 15 in Ruleset.LITERAL.wake[Status.PASSIVE, False][1]
    always, on_change = wrapped.wake[Status.PASSIVE, False]
    assert 15 in always and 15 not in on_change
    assert wrapped.reads_net_disp and not Ruleset.LITERAL.reads_net_disp
    assert {key: tables for key, tables in wrapped.wake.items()
            if key != (Status.PASSIVE, False)} == {
        key: tables for key, tables in Ruleset.LITERAL.wake.items()
        if key != (Status.PASSIVE, False)}
    # two lone passive robots perceive no change all phase, and each is
    # stepped in round 15 all the same
    eng = phase_engine(6, 7, {1: (0, Status.PASSIVE, {}), 2: (3, Status.PASSIVE, {})},
                       ruleset=wrapped)
    _WRAPPED_CALLS.clear()
    assert eng.run_phase() == 0
    assert sorted(_WRAPPED_CALLS) == [1, 2]


@st.composite
def phase_fields(draw):
    """Every RobotState field but status and leader, over its whole range."""
    max_size = draw(st.integers(min_value=1, max_value=10))
    return dict(
        label=draw(st.integers(min_value=0, max_value=2 ** max_size - 1)),
        max_size=max_size,
        pending_status=draw(st.none() | st.sampled_from(list(Status))),
        proceed=draw(st.integers(min_value=0, max_value=2)),
        move_var=draw(st.integers(min_value=0, max_value=2)),
        start=draw(st.integers(min_value=0, max_value=1)),
        settle=draw(st.integers(min_value=0, max_value=1)),
        advance=draw(st.integers(min_value=0, max_value=1)),
        le_bit=draw(st.integers(min_value=1, max_value=max_size)),
        disp_bit=draw(st.integers(min_value=1, max_value=max_size + 1)),
        net_disp=draw(st.integers(min_value=-40, max_value=40)),
        decrease_at_7=draw(st.booleans()),
        increase_in_10_12=draw(st.booleans()),
    )


@settings(max_examples=60, deadline=None)
@given(phase_fields())
def test_step_is_a_no_op_outside_the_wake_rounds(fields):
    # the engine skips step in the rounds outside wake_rounds, so there step
    # must stay and leave the state alone for every status, observation and
    # ruleset; in every round it returns a port or None
    for status, leader in itertools.product(Status, (False, True)):
        # an election phase can turn the leader flag on mid-phase
        held = {leader, True} if status is Status.LEADER_ELECTION else {leader}
        woken = wake_rounds(status, leader)
        for now_leader, rip, ruleset, observation in itertools.product(
                held, range(1, ROUNDS_PER_PHASE + 1), Ruleset, OBSERVATIONS):
            state = RobotState(status=status, leader=now_leader, **fields)
            before = dataclasses.replace(state)
            port = step(state, observation, rip, ruleset)
            # type() as well, since False == 0 and True == 1
            assert port is None or (
                type(port) is int and port in (PORT_ZERO, PORT_ONE)), (
                status, now_leader, rip, port)
            if rip in woken:
                continue
            assert port is None, (status, now_leader, rip)
            # dataclass equality compares every field, the latches included
            assert state == before, (status, now_leader, rip, observation)


def test_on_change_rounds_are_the_change_triggered_cells():
    # a non-leader's cells that read only a change bit, and its cells of
    # the leader's rules, which act on it only through a latch; under the
    # literal rules also round 12, whose repair reads the latch
    both = {
        (Status.LEADER_ELECTION, False): {2},
        (Status.ACTIVE_MERGE, False): {6, 7},
        (Status.ACTIVE_DISPERSE, False): {9, 10, 11, 14},
        (Status.PASSIVE, False): {9, 10, 11, 15, 19},
    }
    literal_only = {(Status.ACTIVE_DISPERSE, False): {12}, (Status.PASSIVE, False): {12}}
    for status, leader in itertools.product(Status, (False, True)):
        rounds = both.get((status, leader), set())
        literal = set(Ruleset.LITERAL.wake[status, leader][1])
        assert set(Ruleset.REPAIRED.wake[status, leader][1]) == rounds, (status, leader)
        assert literal == rounds | literal_only.get((status, leader), set()), (status, leader)
        assert literal <= wake_rounds(status, leader)


@settings(max_examples=60, deadline=None)
@given(phase_fields())
def test_step_is_a_no_op_without_a_change_in_the_on_change_rounds(fields):
    # the engine steps a robot in its on-change wake rounds only when it
    # perceives an increase or a decrease, so on either observation with
    # neither step must stay and leave the state alone
    quiet = [observation for observation in OBSERVATIONS
             if not observation.increase and not observation.decrease]
    assert len(quiet) == 2
    for status, leader, ruleset in itertools.product(Status, (False, True), Ruleset):
        # an election phase can turn the leader flag on mid-phase
        held = {leader, True} if status is Status.LEADER_ELECTION else {leader}
        for now_leader, rip, observation in itertools.product(
                held, ruleset.wake[status, leader][1], quiet):
            state = RobotState(status=status, leader=now_leader, **fields)
            before = dataclasses.replace(state)
            assert step(state, observation, rip, ruleset) is None, (
                status, now_leader, rip, ruleset, observation)
            # dataclass equality compares every field, the latches included
            assert state == before, (status, now_leader, rip, ruleset, observation)


def stepped(fields, status, leader, observation, rip, ruleset):
    """step's port and the state it leaves, from a fresh state."""
    state = RobotState(status=status, leader=leader, **fields)
    return step(state, observation, rip, ruleset), state


@settings(max_examples=40, deadline=None)
@given(phase_fields(), st.integers(min_value=-40, max_value=40))
def test_step_reads_net_disp_only_where_its_ruleset_declares(fields, other):
    # the first premise of engine.run's livelock proof: with every other
    # field equal, step moves the same way, writes the same fields and
    # changes net_disp by the same amount whatever net_disp is, except in
    # round 13 of active-disperse under a ruleset whose reads_net_disp is set
    shifted = {**fields, "net_disp": other}
    for status, leader, rip, ruleset, observation in itertools.product(
            Status, (False, True), range(1, ROUNDS_PER_PHASE + 1), Ruleset, OBSERVATIONS):
        if status is Status.ACTIVE_DISPERSE and rip == 13 and ruleset.reads_net_disp:
            continue
        port, state = stepped(fields, status, leader, observation, rip, ruleset)
        other_port, other_state = stepped(shifted, status, leader, observation, rip, ruleset)
        assert port == other_port, (status, leader, rip, ruleset, observation)
        assert (other_state.net_disp - other
                == state.net_disp - fields["net_disp"]), (status, leader, rip, ruleset)
        assert (dataclasses.replace(other_state, net_disp=state.net_disp)
                == state), (status, leader, rip, ruleset, observation)


@settings(max_examples=60, deadline=None)
@given(phase_fields())
def test_round_1_reads_neither_increase_nor_decrease(fields):
    # the second premise: the perception state the livelock key leaves out
    # sets only round 1's increase and decrease, which no round-1 rule reads
    for status, leader, ruleset, alone in itertools.product(
            Status, (False, True), Ruleset, (False, True)):
        outcomes = [stepped(fields, status, leader, Observation(alone, increase, decrease),
                            1, ruleset)
                    for increase, decrease in itertools.product((False, True), repeat=2)]
        assert all(outcome == outcomes[0] for outcome in outcomes), (status, leader, ruleset)


@settings(max_examples=20, deadline=None)
@given(phase_fields())
def test_only_the_latch_reading_cells_read_a_latch(fields):
    # step moves and writes alike whatever the latches hold, except in the
    # cells of LATCH_READERS under the repaired rules
    readers = {ruleset: set() for ruleset in Ruleset}
    for status, leader, rip, ruleset, observation in itertools.product(
            Status, (False, True), range(1, ROUNDS_PER_PHASE + 1), Ruleset, OBSERVATIONS):
        outcomes = []
        for latched in (False, True):
            state = RobotState(status=status, leader=leader, **{
                **fields, "decrease_at_7": latched, "increase_in_10_12": latched})
            port = step(state, observation, rip, ruleset)
            outcomes.append((port, dataclasses.replace(
                state, decrease_at_7=False, increase_in_10_12=False)))
        if outcomes[0] != outcomes[1]:
            readers[ruleset].add((status, rip))
    assert readers == {Ruleset.LITERAL: set(), Ruleset.REPAIRED: LATCH_READERS}


@settings(max_examples=60, deadline=None)
@given(phase_fields())
def test_step_never_turns_a_leader_off(fields):
    # a leader keeps its flag for the rest of the run, so it never runs a
    # latch-reading cell, and its wake rounds hold for the whole phase
    for status, rip, ruleset, observation in itertools.product(
            Status, range(1, ROUNDS_PER_PHASE + 1), Ruleset, OBSERVATIONS):
        state = RobotState(status=status, leader=True, **fields)
        step(state, observation, rip, ruleset)
        assert state.leader, (status, rip, ruleset, observation)


def test_all_zero_bits_leaves_group_still():
    # both labels have bit 1 = 0, so the whole election phase is quiet
    eng = phase_engine(5, 7, {
        2: (0, Status.LEADER_ELECTION, {}),
        4: (0, Status.LEADER_ELECTION, {}),
    })
    assert eng.run_phase() == 0
    assert eng.robots[2].proceed == 0 and eng.robots[4].proceed == 0


def test_injected_states_are_handed_on_at_round_1():
    # phase_engine injects the statuses after construction; the sink gets
    # them, not the constructed ones, with round 1 of the phase
    eng = phase_engine(6, 7, {
        6: (1, Status.WAIT, {}),
        1: (0, Status.PASSIVE, {"start": 1}),
    })
    injected = {label: eng.robots[label].snapshot() for label in (1, 6)}
    assert eng.trace.phase_snapshots == []
    eng.step_round()
    assert eng.trace.phase_snapshots == [PhaseSnapshot(1, {1: 0, 6: 1}, injected)]
    assert injected[6].status is Status.WAIT and injected[1].start == 1


def test_split_on_empty_successor():
    # labels 1 (bit 1) and 2 (bit 0) disperse: the mover settles one ahead,
    # the stayer informs, returns, and turns passive
    eng = phase_engine(5, 3, {
        1: (0, Status.ACTIVE_DISPERSE, {}),
        2: (0, Status.ACTIVE_DISPERSE, {}),
    })
    eng.run_phase()
    assert eng.placement.by_robot == {1: 1, 2: 0}
    assert eng.robots[1].status is Status.ACTIVE_DISPERSE
    assert eng.robots[2].status is Status.PASSIVE
    moves = {(r.round_in_phase, label): port
             for r in eng.trace.records for (label, _, _, port) in r.moves}
    assert moves == {(13, 1): 1, (14, 2): 1, (15, 2): 0}


def test_all_ones_split_returns_and_goes_passive():
    # labels 1 and 3 share bit 1 = 1: everyone moves, nobody informs,
    # everyone returns and turns passive
    eng = phase_engine(5, 3, {
        1: (0, Status.ACTIVE_DISPERSE, {}),
        3: (0, Status.ACTIVE_DISPERSE, {}),
    })
    eng.run_phase()
    assert eng.placement.by_robot == {1: 0, 3: 0}
    assert eng.robots[1].status is Status.PASSIVE
    assert eng.robots[3].status is Status.PASSIVE


def test_split_onto_occupied_node_waits_and_displaces():
    # active pair at node 0 splits onto a passive robot at node 1: the
    # mover ends waiting, the passive occupant vacates and jumps back
    eng = phase_engine(6, 7, {
        1: (0, Status.ACTIVE_DISPERSE, {}),
        2: (0, Status.ACTIVE_DISPERSE, {}),
        6: (1, Status.PASSIVE, {}),
    })
    eng.run_phase()
    assert eng.placement.by_robot == {1: 1, 2: 0, 6: 1}
    assert eng.robots[1].status is Status.WAIT
    assert eng.robots[6].status is Status.JUMP
    assert eng.robots[2].status is Status.PASSIVE


def test_wait_passive_jump_cycle_moves_one_node():
    # a displaced robot waits, turns passive, is displaced again and jumps:
    # net movement across the three phases is exactly one node
    eng = phase_engine(6, 7, {
        6: (1, Status.WAIT, {}),
        1: (0, Status.PASSIVE, {}),
        2: (0, Status.PASSIVE, {}),
    })
    eng.run_phase()  # wait phase: 6 stays at node 1
    assert eng.placement.by_robot[6] == 1
    assert eng.robots[6].status is Status.PASSIVE
    disp_bit_before = eng.robots[6].disp_bit
    eng.run_phase()  # passive phase: 1 splits onto node 1; 6 vacates and jumps back
    assert eng.placement.by_robot[6] == 1
    assert eng.robots[6].status is Status.JUMP
    assert eng.robots[1].status is Status.WAIT
    eng.run_phase()  # jump phase: 6 advances one node and finds it empty
    assert eng.placement.by_robot[6] == 2
    assert eng.robots[6].status is Status.ACTIVE_DISPERSE
    assert eng.robots[6].disp_bit == disp_bit_before  # jump never reads bits


def test_jump_onto_empty_node_reactivates():
    eng = phase_engine(5, 3, {2: (0, Status.JUMP, {})})
    eng.run_phase()
    assert eng.placement.by_robot == {2: 1}
    assert eng.robots[2].status is Status.ACTIVE_DISPERSE


def test_lone_rear_robot_settles_and_idles():
    # alone with nothing behind: arm the timer one phase, then settle,
    # visit the successor and retire
    eng = phase_engine(5, 3, {2: (0, Status.ACTIVE_DISPERSE, {})})
    eng.run_phase()
    assert eng.robots[2].start == 1
    assert eng.robots[2].status is Status.PASSIVE
    eng.run_phase()  # passive interlude
    assert eng.robots[2].status is Status.ACTIVE_DISPERSE
    eng.run_phase()
    assert eng.robots[2].status is Status.IDLE
    assert eng.placement.by_robot == {2: 0}
    moves = {(r.round_in_phase): port
             for r in eng.trace.records[38:] for (_, _, _, port) in r.moves}
    assert moves == {18: 1, 19: 0}  # the announcement visit


def test_displaced_robot_does_not_self_retire():
    # repaired rules: a robot that has moved since dispersal began must
    # wait for its predecessor's announcement instead of self-arming
    st = robot(status=Status.ACTIVE_DISPERSE, net_disp=1)
    step(st, obs(alone=True), 13, Ruleset.REPAIRED)
    assert st.start == 0
    st_literal = robot(status=Status.ACTIVE_DISPERSE, net_disp=1)
    step(st_literal, obs(alone=True), 13, Ruleset.LITERAL)
    assert st_literal.start == 1


def test_announced_robot_settles_wherever_it_is():
    st = robot(status=Status.ACTIVE_DISPERSE, net_disp=3, start=1)
    step(st, obs(alone=True), 13, Ruleset.REPAIRED)
    assert st.settle == 1


def test_passive_hears_retirement_announcement():
    st = robot(status=Status.PASSIVE)
    step(st, obs(increase=True), 19, Ruleset.REPAIRED)
    assert st.start == 1


def test_leader_probe_rounds():
    st = robot(status=Status.ACTIVE_DISPERSE, leader=True)
    assert step(st, obs(alone=False), 9, Ruleset.REPAIRED) == PORT_ONE
    assert st.advance == 1
    assert step(st, obs(alone=True), 10, Ruleset.REPAIRED) == PORT_ONE
    assert step(st, obs(alone=True), 11, Ruleset.REPAIRED) == PORT_ZERO
    assert st.advance == 0


def test_leader_never_runs_late_rounds():
    st = robot(status=Status.ACTIVE_DISPERSE, leader=True, settle=1)
    for rip in (12, 13, 14, 15, 16, 17, 18, 19):
        port = step(st, obs(alone=True, increase=True, decrease=True),
                      rip, Ruleset.REPAIRED)
        assert port is None
    assert st.pending_status is None


def test_retreat_detection_literal_misses_early_arrival():
    # the foreign leader lands at the end of round 10; only the latched
    # window notices by round 12
    rounds = [(10, obs()), (11, obs(increase=True))]
    st_rep = robot(status=Status.ACTIVE_DISPERSE)
    for rip, seen in rounds:
        step(st_rep, seen, rip, Ruleset.REPAIRED)
    assert st_rep.increase_in_10_12
    port = step(st_rep, obs(), 12, Ruleset.REPAIRED)
    assert port == PORT_ZERO
    assert st_rep.pending_status is Status.PASSIVE

    st_lit = robot(status=Status.ACTIVE_DISPERSE)
    for rip, seen in rounds:
        step(st_lit, seen, rip, Ruleset.LITERAL)
    port = step(st_lit, obs(), 12, Ruleset.LITERAL)
    assert port is None
    assert st_lit.pending_status is None


def test_merge_follow_and_stop_precedence():
    # stop (leader returned) wins over follow (leader departed earlier)
    st = robot(status=Status.ACTIVE_MERGE)
    step(st, obs(), 6, Ruleset.REPAIRED)
    step(st, obs(decrease=True), 7, Ruleset.REPAIRED)
    assert st.decrease_at_7
    port = step(st, obs(increase=True), 8, Ruleset.REPAIRED)
    assert port is None
    assert st.pending_status is Status.ACTIVE_DISPERSE


def test_merge_follow_on_departure():
    st = robot(status=Status.ACTIVE_MERGE)
    step(st, obs(), 6, Ruleset.REPAIRED)
    step(st, obs(decrease=True), 7, Ruleset.REPAIRED)
    port = step(st, obs(), 8, Ruleset.REPAIRED)
    assert port == PORT_ONE
    assert st.pending_status is None


def test_no_latch_in_rounds_the_robot_sits_out():
    # a robot keeps what it perceives only in the rounds it takes part in;
    # none of these statuses reads a latch
    for status in (Status.LEADER_ELECTION, Status.WAIT, Status.JUMP, Status.IDLE):
        st = robot(status=status)
        assert step(st, obs(decrease=True), 7, Ruleset.REPAIRED) is None
        assert step(st, obs(increase=True), 11, Ruleset.REPAIRED) is None
        assert not st.decrease_at_7 and not st.increase_in_10_12, status


def test_idle_robot_perceives_a_leader_arrival_without_latching():
    # the leader of group {1, 2} probes forward in round 9 onto idle robot
    # 3, which perceives the increase in round 10 and takes no part in it
    eng = phase_engine(6, 3, {
        1: (0, Status.ACTIVE_DISPERSE, {"leader": True}),
        2: (0, Status.ACTIVE_DISPERSE, {}),
        3: (1, Status.IDLE, {}),
    })
    for _ in range(10):
        eng.step_round()
    assert eng.trace.records[-1].observations[3].increase
    assert not eng.robots[3].increase_in_10_12


@pytest.mark.parametrize("status, extra, rip, seen, port, delta", [
    (Status.ACTIVE_DISPERSE, {"label": 1}, 13, obs(), PORT_ONE, 1),
    (Status.PASSIVE, {"move_var": 1}, 16, obs(), PORT_ZERO, -1),
    (Status.JUMP, {}, 14, obs(), PORT_ONE, 1),
    (Status.LEADER_ELECTION, {"label": 1}, 1, obs(), PORT_ONE, 0),
    (Status.ACTIVE_MERGE, {"leader": True}, 6, obs(), PORT_ONE, 0),
    (Status.ACTIVE_MERGE, {"leader": True}, 7, obs(alone=True), PORT_ZERO, 0),
])
def test_step_counts_only_dispersal_moves_in_net_disp(status, extra, rip, seen, port, delta):
    st = robot(status=status, net_disp=3, **extra)
    assert step(st, seen, rip, Ruleset.REPAIRED) == port
    assert st.net_disp == 3 + delta


def test_single_group_merges_in_one_phase():
    eng = phase_engine(5, 3, {
        1: (0, Status.ACTIVE_MERGE, {"leader": True}),
        2: (0, Status.ACTIVE_MERGE, {}),
    })
    eng.run_phase()
    assert eng.placement.by_robot == {1: 0, 2: 0}
    assert eng.robots[1].status is Status.ACTIVE_DISPERSE
    assert eng.robots[2].status is Status.ACTIVE_DISPERSE
