"""Rebuild the rows of ``ABLATION_16.json`` from ``src/`` and compare them with the file.

Run from the repository root:

    python3 tools/ablation.py

Each row judges the whole (n <= 6, k <= 4, L = 7) space,
``evaluate_many(enumerate_scenarios(6, 4, 7), ruleset)`` with validation
and invariants on, under a ruleset that ``protocol.RuleTable`` builds from
``RULES`` and the cells of ``protocol.REPAIRS`` that belong to the row's
repairs.  Nothing is patched: ``reads_net_disp`` is derived from the
overlay as for any ruleset, and the pool workers rebuild the ruleset from
its name and overlay.  One line per row says whether it equals the file's
row; the exit status is 1 if any row, or the file's cells of a repair,
differ.  It takes about 2 minutes on two cores.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from ringdisperse.protocol import REPAIRS, RuleTable  # noqa: E402
from ringdisperse.robots import Status  # noqa: E402
from ringdisperse.verify import enumerate_scenarios, evaluate_many  # noqa: E402

# each repair by its number, as the cells of REPAIRS it replaces
REPAIR_CELLS: dict[int, tuple[tuple[Status, int], ...]] = {
    1: ((Status.ACTIVE_MERGE, 8),),
    2: ((Status.ACTIVE_DISPERSE, 12), (Status.PASSIVE, 12)),
    3: ((Status.LEADER_ELECTION, 3),),
    4: ((Status.ACTIVE_DISPERSE, 13),),
}


def ruleset_of(repairs) -> RuleTable:
    """``RULES`` with the cells of ``repairs``, a subset of 1-4, replaced by
    their repairs: no cell for the literal rules, all five for the
    repaired ones."""
    overlay = {cell: REPAIRS[cell] for repair in sorted(repairs) for cell in REPAIR_CELLS[repair]}
    return RuleTable(f"repairs {sorted(repairs)}", overlay)


def ablation_row(repairs, ruleset_text: str, scenarios, workers: int | None = None) -> dict:
    """The row of ``repairs`` over ``scenarios``, keyed as the file's rows:
    the verdict counts, the failures without a finding kind, the failures
    with k <= 3 and the sum of the replay violations."""
    row = {"repairs": sorted(repairs), "ruleset": ruleset_text, "scenarios": 0, "livelock": 0,
           "budget_exceeded": 0, "unexplained": 0, "failures_k_le_3": 0,
           "validation_violations": 0}
    for outcome in evaluate_many(scenarios, ruleset_of(repairs), workers=workers):
        row["scenarios"] += 1
        row["validation_violations"] += outcome.validation_count
        if outcome.ok:
            continue
        row[outcome.result.value.replace("-", "_")] += 1
        row["unexplained"] += not outcome.finding_kinds
        row["failures_k_le_3"] += outcome.scenario.k <= 3
    return row


def main() -> int:
    record = json.loads((ROOT / "ABLATION_16.json").read_text(encoding="utf-8"))
    cells = {str(repair): [f"{status.value} round {rip}" for status, rip in repair_cells]
             for repair, repair_cells in REPAIR_CELLS.items()}
    differ = cells != record["repair_cells"]
    if differ:
        print(f"repair cells: file {record['repair_cells']} src {cells} DIFFERENT")
    for expected in record["rows"]:
        row = ablation_row(expected["repairs"], expected["ruleset"],
                           enumerate_scenarios(6, 4, 7))
        fields = [key for key in expected.keys() | row.keys()
                  if expected.get(key) != row.get(key)]
        differ += bool(fields)
        verdict = "equal" if not fields else "DIFFERENT in " + ", ".join(
            f"{key} (file {expected.get(key)}, src {row.get(key)})" for key in sorted(fields))
        print(f"repairs {expected['repairs']}: {verdict}", flush=True)
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
