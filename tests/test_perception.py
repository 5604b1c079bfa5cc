from ringdisperse.perception import Observation, observe


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
