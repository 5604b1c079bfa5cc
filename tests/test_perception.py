import itertools

from ringdisperse.perception import OBSERVATIONS, Observation, observation, observe


def test_stayed_with_arrival_sees_increase():
    obs = observe(3, 2, moved_last_round=False)
    assert obs.increase and not obs.decrease


def test_net_zero_churn_is_invisible():
    obs = observe(3, 3, moved_last_round=False)
    assert not obs.increase and not obs.decrease


def test_alone_flag():
    obs = observe(1, 4, moved_last_round=False)
    assert obs.alone
    assert obs.decrease


def test_mover_gets_no_change_flags():
    obs = observe(5, 1, moved_last_round=True)
    assert not obs.increase and not obs.decrease
    assert not obs.alone


def test_observation_is_three_bits():
    assert Observation._fields == ("alone", "increase", "decrease")


def reference_observe(current_count, previous_count, moved_last_round):
    """The two-branch formula ``observe`` replaced, building a new tuple."""
    alone = current_count == 1
    if moved_last_round:
        return Observation(alone, False, False)
    return Observation(alone, current_count > previous_count, current_count < previous_count)


def test_observe_matches_the_reference_formula():
    seen = {}
    for current, previous, moved in itertools.product(range(5), range(5), (False, True)):
        obs = observe(current, previous, moved)
        assert obs == reference_observe(current, previous, moved), (current, previous, moved)
        # equal inputs, equal bits: the identical object
        assert observe(current, previous, moved) is obs
        assert seen.setdefault(tuple(obs), obs) is obs
        assert any(obs is shared for shared in OBSERVATIONS)
    # a rise and a fall never show together, so two of the eight never occur
    assert len(seen) == 6


def test_observation_returns_the_shared_value():
    assert len(OBSERVATIONS) == len(set(OBSERVATIONS)) == 8
    for bits in itertools.product((False, True), repeat=3):
        assert observation(*bits) is OBSERVATIONS[bits[0] << 2 | bits[1] << 1 | bits[2]]
        assert tuple(observation(*bits)) == bits
