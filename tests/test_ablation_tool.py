"""Smoke test of ``tools/ablation.py``: its rulesets and its row function
on a tiny space.  The tool itself judges the whole (6,4,7) space per row
and runs outside this suite."""

import importlib.util
import json
from pathlib import Path

from ringdisperse.engine import RunResult
from ringdisperse.protocol import Ruleset
from ringdisperse.verify import enumerate_scenarios, evaluate_many

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("ablation", ROOT / "tools" / "ablation.py")
ablation = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ablation)


def test_no_repair_and_every_repair_build_the_members_tables():
    for repairs, member in (((), Ruleset.LITERAL), ((1, 2, 3, 4), Ruleset.REPAIRED)):
        built = ablation.ruleset_of(repairs)
        assert (built.overlay, built.dispatch, built.wake, built.reads_net_disp) == (
            member.overlay, member.dispatch, member.wake, member.reads_net_disp)
    # reads_net_disp is derived: only repair 4 reads net_disp
    for repairs in ((1,), (2,), (3,), (4,), (1, 2, 3), (2, 3, 4)):
        assert ablation.ruleset_of(repairs).reads_net_disp == (4 in repairs), repairs


def test_rows_on_a_tiny_space_count_as_the_members_outcomes():
    space = list(enumerate_scenarios(4, 3, 3))
    keys = set(json.loads((ROOT / "ABLATION_16.json").read_text())["rows"][0])
    for repairs, member in (((), Ruleset.LITERAL), ((1, 2, 3, 4), Ruleset.REPAIRED)):
        row = ablation.ablation_row(repairs, member.value, space, workers=1)
        assert row.keys() == keys
        outcomes = list(evaluate_many(space, member, workers=1))
        failures = [outcome for outcome in outcomes if not outcome.ok]
        assert row == {
            "repairs": list(repairs), "ruleset": member.value, "scenarios": len(space),
            "livelock": sum(o.result is RunResult.LIVELOCK for o in failures),
            "budget_exceeded": sum(o.result is RunResult.BUDGET_EXCEEDED for o in failures),
            "unexplained": sum(not o.finding_kinds for o in failures),
            "failures_k_le_3": sum(o.scenario.k <= 3 for o in failures),
            "validation_violations": sum(o.validation_count for o in outcomes),
        }
    assert ablation.ablation_row((), "literal", space, workers=1)["livelock"] > 0
