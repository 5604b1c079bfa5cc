"""Deterministic simulator and verification harness for silent-robot
dispersion on an oriented ring."""

from .engine import RunOutcome, RunResult, Trace, run
from .protocol import RuleTable, Ruleset
from .robots import RobotState, Status, max_label_bits
from .scenario import (
    Scenario,
    gen_chain,
    gen_multi_source,
    gen_single_source,
    make_scenario,
    parse_scenario,
    render_scenario,
)
from .verify import (
    Violation,
    check_invariants,
    exhaustive_search,
    minimize_scenario,
    search,
    validate_trace,
)

__all__ = [
    "RunOutcome",
    "RunResult",
    "Trace",
    "run",
    "RuleTable",
    "Ruleset",
    "RobotState",
    "Status",
    "max_label_bits",
    "Scenario",
    "gen_chain",
    "gen_multi_source",
    "gen_single_source",
    "make_scenario",
    "parse_scenario",
    "render_scenario",
    "Violation",
    "check_invariants",
    "exhaustive_search",
    "minimize_scenario",
    "search",
    "validate_trace",
]
