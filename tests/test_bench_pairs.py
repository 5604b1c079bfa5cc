"""The per-metric rules of ``tools/bench_pairs.py`` on synthetic runs: a
claimed gain is met when the change wins at least nine tenths of the pairs
and its median beats the parent's by more than the parent's interquartile
range, and a metric is within its bound when the change's median is no
worse than the parent's by more than the bound."""

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

# parent runs with median 100 and inclusive quartiles 98 and 102 (IQR 4)
PARENT = [95.0, 97.0, 98.0, 98.0, 99.5, 100.5, 102.0, 102.0, 103.0, 105.0]


def test_a_gain_in_every_pair_beyond_the_spread_is_met():
    entry = bench_pairs.summary(PARENT, [p + 5 for p in PARENT], "higher", 0.25)
    assert entry["parent_quartiles"] == [98.0, 102.0]
    assert entry["change_wins"] == 10
    assert entry["claim_met"] is True and entry["within_bound"] is True


def test_nine_of_ten_wins_suffice_eight_do_not():
    nine = [p + 5 for p in PARENT[:-1]] + [PARENT[-1] - 1]
    eight = [p + 5 for p in PARENT[:-2]] + [p - 1 for p in PARENT[-2:]]
    assert bench_pairs.summary(PARENT, nine, "higher", 0.25)["claim_met"] is True
    entry = bench_pairs.summary(PARENT, eight, "higher", 0.25)
    assert entry["change_wins"] == 8 and entry["claim_met"] is False


def test_winning_every_pair_by_less_than_the_spread_is_not_met():
    entry = bench_pairs.summary(PARENT, [p + 3 for p in PARENT], "higher", 0.25)
    assert entry["change_wins"] == 10
    assert entry["claim_met"] is False  # medians 100 and 103 differ by less than 4


def test_a_gain_in_the_wrong_direction_is_not_met():
    entry = bench_pairs.summary(PARENT, [p + 10 for p in PARENT], "lower", 0.25)
    assert entry["change_wins"] == 0 and entry["claim_met"] is False


def test_a_higher_median_won_in_too_few_pairs_is_not_met():
    # a ring-large-like claim: the median rises 98.5 -> 104.7 (+6.3%), but
    # the pairs are noisy and the change wins only 5 of 10
    parent = [92.0, 95.0, 97.0, 98.0, 98.5, 98.5, 101.0, 104.0, 110.0, 112.0]
    change = [104.7, 94.0, 104.7, 96.0, 104.7, 104.7, 99.0, 104.7, 108.0, 111.0]
    entry = bench_pairs.summary(parent, change, "higher", 0.25)
    assert (entry["parent_median"], entry["change_median"]) == (98.5, 104.7)
    assert entry["change_wins"] == 5
    assert entry["claim_met"] is False and entry["within_bound"] is True


@pytest.mark.parametrize("better, change_median, within", [
    ("higher", 75.0, True),    # 25% lower: exactly at the bound
    ("higher", 74.0, False),
    ("higher", 130.0, True),
    ("lower", 125.0, True),    # 25% higher: exactly at the bound
    ("lower", 126.0, False),
    ("lower", 70.0, True),
])
def test_within_bound_compares_the_medians_with_the_bound(better, change_median, within):
    change = [change_median + p - 100 for p in PARENT]
    entry = bench_pairs.summary(PARENT, change, better, 0.25)
    assert entry["change_median"] == change_median
    assert entry["within_bound"] is within


def test_a_setup_time_regression_alone_is_outside_its_bound():
    # a setup_s-like metric: the median rises 0.0377 -> 0.0528 s (+40%)
    parent = [0.035, 0.036, 0.037, 0.0377, 0.0377, 0.0377, 0.038, 0.039, 0.040, 0.041]
    change = [v * 0.0528 / 0.0377 for v in parent]
    entry = bench_pairs.summary(parent, change, "lower", 0.25)
    assert entry["change_median"] == 0.0528
    assert entry["within_bound"] is False and entry["claim_met"] is False


def test_without_a_bound_there_is_no_bound_field():
    assert "within_bound" not in bench_pairs.summary(PARENT, PARENT, "lower")


def test_the_description_names_met_claims_and_metrics_outside_their_bound():
    result = {"end_to_end": {
        "w": {"pairs": 10,
              "metrics": {
                  "runs_per_s": bench_pairs.summary(PARENT, [p + 5 for p in PARENT],
                                                    "higher", 0.25),
                  "setup_s": bench_pairs.summary(PARENT, [p * 2 for p in PARENT],
                                                 "lower", 0.25)},
              "unit_host_s": bench_pairs.summary(PARENT, PARENT, "lower")}}}
    text = bench_pairs.describe(result)
    assert "A claimed gain would be met on: w runs_per_s." in text
    assert "Worse than the parent by more than the bound: w setup_s." in text
