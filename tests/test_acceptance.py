"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s``.  The exhaustive
criteria take a few minutes; worker count follows RINGDISPERSE_WORKERS.
"""

import itertools
import math
import time

import pytest

from ringdisperse.engine import RunResult, run
from ringdisperse.protocol import Ruleset
from ringdisperse.ring import ring_distance
from ringdisperse.robots import Status, max_label_bits
from ringdisperse.scenario import gen_chain, make_scenario
from ringdisperse.sweep import SweepSpec, fit_rounds, run_sweep
from ringdisperse.verify import check_invariants, evaluate_many, exhaustive_search

L_MAX = 7
ROOTED_RING_SIZES = range(3, 9)
ROOTED_K_MAX = 4
# size of the rooted suite, derived independently of the fixture so that a
# fixture which shrinks or comes back empty fails criterion 2 loudly
ROOTED_SUITE_SIZE = sum(
    math.comb(L_MAX + 1, k)
    for n in ROOTED_RING_SIZES
    for k in range(1, min(ROOTED_K_MAX, n - 1) + 1)
)

# invariant kinds that must stay clean on the rooted suite (criterion 7);
# cursor alignment (i) is reported separately, pass or finding
LEMMA_KINDS_A_TO_H = {
    "unique-leader",
    "cross-chain-colocation",
    "cross-chain-activemerge-adjacency",
    "alternation",
    "distinguished-pair",
    "wait-budget",
    "jump-budget",
    "passive-budget",
    "status-backedge",
    "merge-deadline",
    "net-displacement",
}


def _verdict(num: int, name: str, passed: bool, detail: str) -> None:
    print(f"ACCEPTANCE {num} [{name}]: {'PASS' if passed else 'FAIL'} - {detail}")


@pytest.fixture(scope="module")
def rooted_results():
    """Every single-source scenario with n <= 8, k <= 4, labels from [0, 7]."""
    scenarios = [
        make_scenario(n, L_MAX, ((label, 0) for label in labels))
        for n in ROOTED_RING_SIZES
        for k in range(1, min(ROOTED_K_MAX, n - 1) + 1)
        for labels in itertools.combinations(range(L_MAX + 1), k)
    ]
    return list(evaluate_many(scenarios, Ruleset.REPAIRED, validate=True, invariants=True))


def test_criterion_1_model_fidelity():
    started = time.time()
    reports = {
        ruleset: exhaustive_search(6, 4, L_MAX, ruleset, minimize=False)
        for ruleset in (Ruleset.REPAIRED, Ruleset.LITERAL)
    }
    elapsed = time.time() - started
    violations = sum(report.validation_violations for report in reports.values())
    total = sum(report.total for report in reports.values())
    passed = violations == 0 and total > 0 and elapsed < 600
    _verdict(
        1, "model-fidelity", passed,
        f"{total} traces across both rulesets, {violations} validation "
        f"violations, {elapsed:.0f}s",
    )
    assert violations == 0
    assert elapsed < 600


def test_criterion_2_rooted_theorem(rooted_results):
    failures = [
        r for r in rooted_results
        if r.result is not RunResult.DISPERSED or r.rounds_used > r.budget_rounds
    ]
    colocated = [
        r for r in rooted_results
        if r.result is RunResult.DISPERSED
        and len({node for _, node in r.final_positions}) != r.scenario.k
    ]
    validation = sum(r.validation_count for r in rooted_results)
    passed = (
        len(rooted_results) == ROOTED_SUITE_SIZE
        and validation == 0
        and not failures
        and not colocated
    )
    _verdict(
        2, "rooted-theorem", passed,
        f"{len(rooted_results)} of {ROOTED_SUITE_SIZE} single-source scenarios "
        f"dispersed within 19*8*(MaxSize+k) rounds; {len(failures)} over budget "
        f"or stuck, {len(colocated)} with residual co-location, {validation} "
        f"validation violations",
    )
    assert len(rooted_results) == ROOTED_SUITE_SIZE
    assert validation == 0
    assert not failures
    assert not colocated


def test_criterion_3_multi_source():
    report = exhaustive_search(6, 3, L_MAX, Ruleset.REPAIRED, minimize=True)
    unexplained = [failure for failure in report.failures if not failure.finding_kinds]
    passed = report.total > 0 and (report.all_dispersed or not unexplained)
    branch = (
        "100% dispersed within budget"
        if report.all_dispersed
        else f"{len(report.failures)} failures, all with lemma findings and "
             f"minimized reproductions"
    )
    _verdict(3, "multi-source", passed, f"{report.total} scenarios; {branch}")
    assert report.total > 0
    assert report.all_dispersed or not unexplained


def test_criterion_4_scaling_fit():
    spec_l = SweepSpec(vary="L", points=tuple(2**i - 1 for i in range(1, 15)),
                       n=10, k=4, max_label=0, seeds=20, ruleset=Ruleset.REPAIRED)
    rows_l = run_sweep(spec_l)
    fit_l = fit_rounds(rows_l, features=("max_size",), per_point_mean=True)

    spec_k = SweepSpec(vary="k", points=tuple(range(2, 25)),
                       n=26, k=0, max_label=2**10 - 1, seeds=20,
                       ruleset=Ruleset.REPAIRED)
    rows_k = run_sweep(spec_k)
    fit_k = fit_rounds(rows_k, features=("k",), per_point_mean=True)

    passed = fit_l.r_squared >= 0.9 and fit_k.r_squared >= 0.9
    _verdict(
        4, "scaling-fit", passed,
        f"L axis {fit_l.describe()}; k axis {fit_k.describe()}",
    )
    assert fit_l.r_squared >= 0.9
    assert fit_k.r_squared >= 0.9


def test_criterion_5_lower_bound_sanity(rooted_results):
    bad = []
    for r in rooted_results:
        if r.result is not RunResult.DISPERSED:
            continue
        k = r.scenario.k
        bound = -(-(k - 1) // 2)
        max_dist = max(
            ring_distance(r.scenario.n, 0, node) for _, node in r.final_positions
        )
        if max_dist < bound or r.rounds_used < bound:
            bad.append(r.scenario)
    passed = not bad
    _verdict(
        5, "lower-bound-sanity", passed,
        f"max displacement and rounds >= ceil((k-1)/2) on all "
        f"{len(rooted_results)} dispersed rooted runs; {len(bad)} exceptions",
    )
    assert not bad


def test_criterion_6_literal_vs_repaired():
    scenario = gen_chain([2, 2], gap=2, n=7, max_label=L_MAX)
    max_size = max_label_bits(L_MAX)

    literal = run(scenario, Ruleset.LITERAL, max_phases=50)
    literal_ok = literal.result is RunResult.LIVELOCK and literal.phases_used <= 50

    repaired = run(scenario, Ruleset.REPAIRED)
    merge_phase = None
    for snap in repaired.trace.phase_snapshots:
        if len(set(snap.nodes.values())) == 1 and all(
            state[0] is Status.ACTIVE_DISPERSE for state in snap.states.values()
        ):
            merge_phase = snap.phase - 1  # complete at the end of the prior phase
            break
    deadline = max_size + 2 + 2  # p + 2 phases after the election, p = 2
    repaired_ok = (
        repaired.result is RunResult.DISPERSED
        and merge_phase is not None
        and merge_phase <= deadline
    )
    passed = literal_ok and repaired_ok
    _verdict(
        6, "literal-vs-repaired", passed,
        f"literal livelock after {literal.phases_used} phases; repaired merge "
        f"complete at end of phase {merge_phase} (deadline {deadline}), "
        f"dispersed in {repaired.phases_used} phases",
    )
    assert literal_ok
    assert repaired_ok


def test_criterion_7_invariant_suite(rooted_results):
    lemma_violations = []
    cursor_findings = []
    for r in rooted_results:
        for kind in r.finding_kinds:
            if kind in LEMMA_KINDS_A_TO_H:
                lemma_violations.append((r.scenario, kind))
            elif kind == "cursor-misalignment":
                cursor_findings.append(r.scenario)

    singleton = gen_chain([3, 1], gap=2, n=7, max_label=L_MAX)
    singleton_outcome = run(singleton, Ruleset.REPAIRED)
    singleton_kinds = sorted({v.kind for v in check_invariants(singleton_outcome.trace)})

    passed = not lemma_violations
    _verdict(
        7, "invariant-suite", passed,
        f"checks (a)-(h) clean on {len(rooted_results)} rooted runs "
        f"({len(lemma_violations)} violations); check (i): "
        f"{len(cursor_findings)} cursor findings on the rooted suite; "
        f"singleton-front-group chain outcome: {singleton_outcome.result.value} "
        f"with findings {singleton_kinds}",
    )
    assert not lemma_violations
    # the singleton chain is a documented finding generator, not a failure
    assert "unique-leader" in singleton_kinds


def test_criterion_8_determinism(tmp_path):
    from ringdisperse.cli import main

    scenario_path = tmp_path / "chain.scn"
    scenario_path.write_text(
        "ring 7\nmaxlabel 7\nrobot 1 0\nrobot 2 0\nrobot 3 1\nrobot 4 1\n"
    )
    paths = []
    for name in ("first.jsonl", "second.jsonl"):
        trace_path = tmp_path / name
        code = main(["run", "--scenario", str(scenario_path), "--ruleset", "repaired",
                     "--trace", str(trace_path), "--verbose"])
        assert code == 0
        paths.append(trace_path)
    identical = paths[0].read_bytes() == paths[1].read_bytes()
    _verdict(
        8, "determinism", identical,
        f"two runs produced byte-identical traces "
        f"({len(paths[0].read_bytes())} bytes)",
    )
    assert identical
