"""Span tracing installed around the package's public calls.

Per-scenario calls (a run, a validation, a minimization, a trace file
operation) become spans with a parent and a scenario id shared by every
span of the same scenario.  Per-round calls (perception, the rule step,
move commit, the occupancy vector, the livelock key) are folded into
count and nanosecond totals on the enclosing span, so trace memory grows
with the number of scenarios, never with the number of rounds.

The wrappers live here, in the benchmark, and are removed again when the
``Tracer.installed()`` context exits; the package itself is not edited.
"""

from __future__ import annotations

import contextlib
import functools
import time
from dataclasses import dataclass, field

from ringdisperse import cli, engine, ring, sweep, verify
import ringdisperse

# modules whose globals may hold a name imported from another layer
_BINDING_MODULES = (ringdisperse, engine, verify, sweep, cli)

# traced span name -> (module, attribute); the span covers the whole call
SPAN_CALLS = {
    "engine.run": (engine, "run"),
    "verify.enumerate_scenarios": (verify, "enumerate_scenarios"),
    "verify.validate_trace": (verify, "validate_trace"),
    "verify.check_invariants": (verify, "check_invariants"),
    "verify.minimize_scenario": (verify, "minimize_scenario"),
    "sweep.run_sweep": (sweep, "run_sweep"),
    "sweep.fit_rounds": (sweep, "fit_rounds"),
    "cli.write_trace": (cli, "write_trace"),
    "cli.read_trace": (cli, "read_trace"),
    "cli.verify_trace_file": (cli, "verify_trace_file"),
}

# per-round (or per-phase) calls, aggregated on the enclosing span; the
# engine looks up observe and step as its own module globals
COUNTED_CALLS = {
    "perception.observe": (engine, "observe"),
    "protocol.step": (engine, "step"),
    "ring.apply_moves": (ring.Placement, "apply_moves"),
    "ring.occupancy_vector": (ring.Placement, "occupancy_vector"),
    "engine.snapshot_key": (engine.Engine, "snapshot_key"),
}

LAYERS = tuple(SPAN_CALLS) + tuple(COUNTED_CALLS)


def _scenario_arg(name: str, args, kwargs):
    """The Scenario a top-level call works on, or None."""
    if name in ("engine.run", "verify.minimize_scenario"):
        return args[0] if args else kwargs.get("scenario")
    if name == "verify.validate_trace":
        return args[1] if len(args) > 1 else kwargs.get("scenario")
    if name == "verify.check_invariants":
        trace = args[0] if args else kwargs.get("trace")
        return trace.scenario
    if name == "cli.write_trace":
        outcome = args[0] if args else kwargs.get("outcome")
        return outcome.trace.scenario
    if name == "cli.verify_trace_file":
        return args[2] if len(args) > 2 else kwargs.get("scenario")
    return None


@dataclass
class Span:
    id: int
    parent: int | None
    scenario: int | None
    name: str
    start_ns: int
    end_ns: int = 0
    child_ns: int = 0
    # per-round call name -> [calls, ns]
    counted: dict = field(default_factory=dict)
    robot_rounds: int = 0
    budget_exceeded: bool = False


class Tracer:
    """Collects spans in memory; one instance per traced pass."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._scenario_ids: dict = {}
        self.occupancy_cells = 0  # sum of n over occupancy_vector calls

    # -- recording ---------------------------------------------------------

    def _span_wrapper(self, name: str, fn):
        tracer = self

        def open_span(args, kwargs) -> Span:
            parent = tracer._stack[-1] if tracer._stack else None
            if parent is not None and parent.scenario is not None:
                scenario_id = parent.scenario
            else:
                scenario = _scenario_arg(name, args, kwargs)
                scenario_id = None
                if scenario is not None:
                    scenario_id = tracer._scenario_ids.setdefault(
                        scenario, len(tracer._scenario_ids))
            span = Span(len(tracer.spans), parent.id if parent else None,
                        scenario_id, name, time.perf_counter_ns())
            tracer.spans.append(span)
            tracer._stack.append(span)
            return span

        def close_span(span: Span) -> None:
            span.end_ns = time.perf_counter_ns()
            tracer._stack.pop()
            if tracer._stack:
                tracer._stack[-1].child_ns += span.end_ns - span.start_ns

        if name == "verify.enumerate_scenarios":
            # a generator: the span lasts until the caller exhausts it
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                span = open_span(args, kwargs)
                try:
                    yield from fn(*args, **kwargs)
                finally:
                    close_span(span)

            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = open_span(args, kwargs)
            try:
                result = fn(*args, **kwargs)
            finally:
                close_span(span)
            if name == "engine.run":
                span.robot_rounds = result.rounds_used * result.trace.scenario.k
                span.budget_exceeded = result.result is engine.RunResult.BUDGET_EXCEEDED
            return result

        return wrapper

    def _counted_wrapper(self, name: str, fn):
        tracer = self
        stack = self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = clock()
            result = fn(*args, **kwargs)
            elapsed = clock() - start
            span = stack[-1]  # per-round calls happen only inside engine.run
            entry = span.counted.get(name)
            if entry is None:
                span.counted[name] = [1, elapsed]
            else:
                entry[0] += 1
                entry[1] += elapsed
            if name == "ring.occupancy_vector":
                tracer.occupancy_cells += args[0].n
            return result

        return wrapper

    @contextlib.contextmanager
    def installed(self):
        """Patch every binding of the traced calls; restore them on exit."""
        patches = []
        for name, (owner, attr) in SPAN_CALLS.items():
            original = getattr(owner, attr)
            wrapped = self._span_wrapper(name, original)
            for module in _BINDING_MODULES:
                if getattr(module, attr, None) is original:
                    patches.append((module, attr, original))
                    setattr(module, attr, wrapped)
        for name, (owner, attr) in COUNTED_CALLS.items():
            original = getattr(owner, attr)
            patches.append((owner, attr, original))
            setattr(owner, attr, self._counted_wrapper(name, original))
        try:
            yield self
        finally:
            for owner, attr, original in reversed(patches):
                setattr(owner, attr, original)

    # -- reduction ---------------------------------------------------------

    def layer_metrics(self) -> dict[str, float]:
        """Calls and self seconds per layer, plus the derived counters."""
        calls = dict.fromkeys(LAYERS, 0)
        self_ns = dict.fromkeys(LAYERS, 0)
        robot_rounds = budget_rounds = reproduce_runs = 0
        for span in self.spans:
            counted_ns = 0
            for name, (count, ns) in span.counted.items():
                calls[name] += count
                self_ns[name] += ns
                counted_ns += ns
            calls[span.name] += 1
            self_ns[span.name] += span.end_ns - span.start_ns - span.child_ns - counted_ns
            if span.name == "engine.run":
                robot_rounds += span.robot_rounds
                if span.budget_exceeded:
                    budget_rounds += span.robot_rounds
                if (span.parent is not None
                        and self.spans[span.parent].name == "verify.minimize_scenario"):
                    reproduce_runs += 1
        metrics: dict[str, float] = {}
        for name in LAYERS:
            metrics[f"{name}.calls"] = calls[name]
            metrics[f"{name}.self_s"] = self_ns[name] / 1e9
        findings = calls["verify.minimize_scenario"]
        metrics["engine.robot_rounds"] = robot_rounds
        metrics["engine.budget_round_share"] = budget_rounds / robot_rounds if robot_rounds else 0.0
        metrics["ring.occupancy_cells"] = self.occupancy_cells
        metrics["verify.minimize_scenario.reproduce_runs"] = reproduce_runs
        metrics["verify.minimize_scenario.runs_per_finding"] = (
            reproduce_runs / findings if findings else 0.0)
        return metrics
