import pickle

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ringdisperse.robots import (
    IllegalStatusTransition,
    RobotState,
    Status,
    apply_pending_status,
    bit_at,
    max_label_bits,
)


def test_bit_at_examples():
    assert bit_at(5, 1, 3) == 1  # 101, least significant bit
    assert bit_at(5, 2, 3) == 0
    assert bit_at(1, 3, 3) == 0  # zero-padded front


def test_bit_at_range_check():
    with pytest.raises(ValueError):
        bit_at(5, 0, 3)
    with pytest.raises(ValueError):
        bit_at(5, 4, 3)


def test_max_label_bits():
    assert max_label_bits(0) == 1
    assert max_label_bits(1) == 1
    assert max_label_bits(7) == 3
    assert max_label_bits(8) == 4
    assert max_label_bits(1023) == 10


@given(st.integers(0, 4095), st.integers(0, 4095), st.integers(0, 4095))
def test_distinct_labels_differ_in_some_bit(a, b, l_max):
    l_max = max(l_max, a, b)
    size = max_label_bits(l_max)
    bits_a = [bit_at(a, i, size) for i in range(1, size + 1)]
    bits_b = [bit_at(b, i, size) for i in range(1, size + 1)]
    assert (bits_a == bits_b) == (a == b)


def _state(**kw) -> RobotState:
    base = dict(label=5, max_size=3)
    base.update(kw)
    return RobotState(**base)


def test_apply_pending_merge_to_disperse():
    st_ = _state(status=Status.ACTIVE_MERGE, pending_status=Status.ACTIVE_DISPERSE,
                 move_var=2, proceed=2)
    st_.decrease_at_7 = st_.increase_in_10_12 = True
    apply_pending_status(st_)
    assert st_.status is Status.ACTIVE_DISPERSE
    assert st_.pending_status is None
    assert st_.move_var == 0
    assert not st_.decrease_at_7 and not st_.increase_in_10_12
    assert st_.proceed == 2  # persists across phases


def test_apply_pending_noop_still_resets_phase_locals():
    st_ = _state(status=Status.PASSIVE, move_var=1, start=1)
    st_.decrease_at_7 = st_.increase_in_10_12 = True
    apply_pending_status(st_)
    assert st_.status is Status.PASSIVE
    assert st_.move_var == 0
    assert not st_.decrease_at_7 and not st_.increase_in_10_12
    assert st_.start == 1


def test_apply_pending_rejects_backedge():
    st_ = _state(status=Status.IDLE, pending_status=Status.LEADER_ELECTION)
    with pytest.raises(IllegalStatusTransition):
        apply_pending_status(st_)


def test_apply_pending_rejects_return_to_merge():
    st_ = _state(status=Status.PASSIVE, pending_status=Status.ACTIVE_MERGE)
    with pytest.raises(IllegalStatusTransition):
        apply_pending_status(st_)


def test_disp_bit_cursor_caps():
    st_ = _state(disp_bit=3)
    st_.advance_disp_bit()
    assert st_.disp_bit == 4
    st_.advance_disp_bit()
    assert st_.disp_bit == 4  # capped at max_size + 1
    assert st_.current_disp_bit() == 0  # exhausted cursor reads as 0


def test_status_hashes_by_identity_and_survives_pickle():
    for status in Status:
        assert hash(status) == object.__hash__(status)
    table = {status: status.value for status in Status}
    restored = pickle.loads(pickle.dumps(table))
    for status in Status:
        assert restored[status] == status.value
        assert pickle.loads(pickle.dumps(status)) is status
