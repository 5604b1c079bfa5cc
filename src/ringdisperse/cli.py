"""Command-line entry points: run, sweep, search, verify.

Trace files are line-delimited JSON, one object per round after a header
line, so they stream and diff cleanly:

    {"format": "ringdisperse-trace-v2", "scenario": {...}, "ruleset": "...",
     "result": "...", "rounds": R}
    {"round": 0, "phase": 1, "rip": 1, "moves": [[label, from, to, port], ...],
     "occ": [[node, count], ...], "obs": {"<label>": [alone, increase, decrease]}}

``occ`` is the sparse post-round occupancy: the occupied nodes only, sorted,
each count at least 1, so a row's size grows with k and not with the ring
size.  The ``obs`` key appears only under --verbose, and each of its
entries is exactly three JSON booleans.  ``write_trace`` formats each row
directly rather than through ``json.dumps``; the rows are byte-identical
to v2 rows written with ``json.dumps(row, separators=(",", ":"))``, so
the format is unchanged.  ``read_trace`` reads the rows back as the
RoundRecords the run recorded, decoding the text after a row's counters
once per distinct text in the file (quiet rounds repeat it) and handing
any other line to ``json.loads``, so the records and the messages are
the ones ``json.loads`` and one record check give.  ``verify`` checks
the header against the scenario and the row count, that its ruleset and
result are names of a ruleset and a verdict, that its rounds is an
integer and the rows whole phases, and that the rows bear the result
out, then feeds the records to the one trace walk,
``verify.check_trace``.  Trace files carry no robot statuses, so from a
file the walk is asked for its replay only, and builds none of the
invariants' tables; participation, idle immobility and the invariants
are checked in memory.  A violation prints as ``[kind]
phase P round R: ...``; a malformed row, a line that is not UTF-8, and
any file in another format (the dense-occupancy v1 included) are
invalid input.

``run --trace``, ``sweep --out`` and ``search --out-dir`` try their
output path before any run, so a bad path costs no work.  A label bound
below the robot count is said once on stderr as ``warning: ...``.

Exit codes: 0 dispersed / no violations, 2 livelock (a proven cycle),
3 budget exceeded (no proven cycle within the phase budget), 4 invalid
input, 1 verification violations.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import re
import sys
import warnings
from pathlib import Path

from .engine import ROUNDS_PER_PHASE, RoundRecord, RunOutcome, RunResult, phase_budget, run
from .perception import OBSERVATIONS
from .protocol import Ruleset
from .robots import max_label_bits
from .scenario import Scenario, ScenarioError, load_scenario, render_scenario
from .sweep import SweepSpec, fit_rounds, rows_to_csv, run_sweep
from .verify import ENUMERATION_GUARD, check_trace, exhaustive_search

TRACE_FORMAT = "ringdisperse-trace-v2"
RULESET_NAMES = [ruleset.value for ruleset in Ruleset]

EXIT_OK = 0
EXIT_VIOLATIONS = 1
EXIT_LIVELOCK = 2
EXIT_BUDGET = 3
EXIT_INPUT = 4

_RESULT_EXIT = {
    RunResult.DISPERSED: EXIT_OK,
    RunResult.LIVELOCK: EXIT_LIVELOCK,
    RunResult.BUDGET_EXCEEDED: EXIT_BUDGET,
}


def _scenario_json(scenario: Scenario) -> dict:
    return {
        "n": scenario.n,
        "max_label": scenario.max_label,
        "robots": [[label, node] for label, node in scenario.robots],
    }


# each shared Observation as the JSON its ``obs`` entry is written as
_OBS_JSON = {obs: json.dumps(list(obs), separators=(",", ":")) for obs in OBSERVATIONS}


def write_trace(outcome: RunOutcome, path, verbose: bool = False) -> None:
    """Write the trace file of ``outcome``.  Rows are formatted directly
    and are byte for byte what ``json.dumps(row, separators=(",", ":"))``
    makes of them.  A row whose occupancy or observations equal the
    previous row's reuses that row's text for them: records hold integer
    labels, nodes and counts, so equal values format alike.  ValueError
    for an unrecorded run, whose trace holds no rows to write."""
    trace = outcome.trace
    trace.check_recorded()
    header = {
        "format": TRACE_FORMAT,
        "scenario": _scenario_json(trace.scenario),
        "ruleset": trace.ruleset.value,
        "result": outcome.result.value,
        "rounds": outcome.rounds_used,
    }
    lines = [json.dumps(header, separators=(",", ":"))]
    last = None  # the record before this one
    for record in trace.records:
        moves = ",".join([f"[{label},{frm},{to},{port}]"
                          for label, frm, to, port in record.moves]) if record.moves else ""
        if last is None or record.occupancy != last.occupancy:
            occ = ",".join([f"[{node},{count}]" for node, count in record.occupancy])
        row = (f'{{"round":{record.global_round},"phase":{record.phase},'
               f'"rip":{record.round_in_phase},"moves":[{moves}],"occ":[{occ}]')
        if verbose:
            if last is None or record.observations != last.observations:
                obs = ",".join([f'"{label}":{_OBS_JSON[seen]}'
                                for label, seen in sorted(record.observations.items())])
            row = f'{row},"obs":{{{obs}}}'
        lines.append(row + "}")
        last = record
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def _not_utf8(path) -> str:
    """Which line of the trace file at ``path`` is not UTF-8, the header or
    a row numbered as ``read_trace`` numbers them, and the codec's error."""
    with open(path, "rb") as fh:
        data = fh.read()
    before = 0  # the non-blank lines before this one
    # bytes.splitlines splits where text-mode reading does (\n, \r, \r\n)
    for line in data.splitlines():
        try:
            before += bool(line.decode("utf-8").strip())
        except UnicodeDecodeError as exc:
            return f"trace {f'row {before}' if before else 'header'} is not UTF-8: {exc}"
    return "trace file is not UTF-8"  # it changed since it was read


# the start of a row as write_trace writes it: the three counters in
# canonical decimal of at most 18 digits ([0-9], since \d and int() also
# take other scripts' digits), then the opening quote of the next key
_row_start = re.compile(r'\{"round":(0|[1-9][0-9]{0,17}),"phase":(0|[1-9][0-9]{0,17}),'
                        r'"rip":(0|[1-9][0-9]{0,17}),(?=")').match


# the keys of a row's counters, which a body read on its own must not hold
_COUNTERS = {"round", "phase", "rip"}
# what a malformed row raises in _fields and _record
_MALFORMED = (KeyError, TypeError, ValueError)


def read_trace(path) -> tuple[dict, list[RoundRecord]]:
    """The header and the RoundRecords of a trace file, blank lines
    skipped; ValueError names the header, or the row (numbered from 1),
    that is not UTF-8, not JSON (a value nested past the recursion limit
    or a number past ``int()``'s digit limit included) or malformed (see
    ``_record``).  The first bad line in file order is the one named.

    A row that starts as ``write_trace`` starts one has its counters read
    from that start, and the rest of the line, its body, decoded as
    ``"{" + body`` and converted once per distinct body text in the file:
    rows of quiet rounds repeat the previous row's body, and rows with
    equal bodies share its moves, observations and occupancy.  Any other
    line, a body ``json.loads`` rejects, a malformed body and a body that
    repeats a counter key go to ``json.loads`` whole and then to
    ``_record``, so every record and message is the one that gives."""
    try:
        with open(path, encoding="utf-8") as fh:
            lines = (line for line in fh if line.strip())
            first = next(lines, None)
            if first is None:
                raise ValueError("empty trace file")
            try:
                header = json.loads(first)
            except (ValueError, RecursionError) as exc:
                raise ValueError(f"trace header is not JSON: {exc}") from None
            fmt = header.get("format") if isinstance(header, dict) else None
            if fmt != TRACE_FORMAT:
                raise ValueError(f"unsupported trace format {fmt!r}")
            records: list[RoundRecord] = []
            bodies: dict[str, tuple] = {}  # body text -> (moves, observations, occupancy)
            labels: dict[str, int] = {}  # obs key -> label
            for line in fh:  # the lines after the header
                start = _row_start(line)
                if start is not None:
                    body = line[start.end():]
                    fields = bodies.get(body)
                    if fields is None:
                        try:
                            decoded = json.loads("{" + body)
                            if not decoded.keys() & _COUNTERS:
                                fields = bodies[body] = _fields(decoded, labels)
                        except (RecursionError, *_MALFORMED):  # the whole line is judged below
                            pass
                    if fields is not None:
                        round_, phase, rip = start.groups()
                        records.append(RoundRecord(int(round_), int(phase), int(rip), *fields))
                        continue
                if not line.strip():
                    continue
                try:
                    row = json.loads(line)
                except (ValueError, RecursionError) as exc:
                    raise ValueError(
                        f"trace row {len(records) + 1} is not JSON: {exc}") from None
                records.append(_record(row, len(records) + 1, labels))
            return header, records
    except UnicodeDecodeError:
        raise ValueError(_not_utf8(path)) from None


def _label(key: str) -> int:
    """An ``obs`` key as its label: canonical decimal only, as written."""
    label = int(key)
    if str(label) != key:
        raise ValueError(f"obs key {key!r} is not a canonical label")
    return label


def _fields(row: dict, labels: dict[str, int]) -> tuple:
    """The moves, observations and occupancy of a decoded row, as a
    RoundRecord holds them; one of ``_MALFORMED`` if they are malformed.

    ``moves`` and ``occ`` must be lists of integer 4-tuples and pairs, and
    ``obs``, when present, an object keyed by canonical decimal labels
    whose entries are exactly three booleans, read as the shared
    Observations.  The types are exact: JSON ``1`` is no boolean and
    ``true`` no integer.  ``labels`` holds each key already read as its
    label, so a file converts each key once.  A label no robot has is
    left to the replay, which reports it."""
    moves, occ = row["moves"], row["occ"]
    if type(moves) is not list or type(occ) is not list:
        raise TypeError("moves or occ is not a list")
    moves = tuple([(label, frm, to, port) for label, frm, to, port in moves])
    cells = tuple([(node, count) for node, count in occ])
    for move in moves:
        label, frm, to, port = move
        if not type(label) is type(frm) is type(to) is type(port) is int:
            raise TypeError(f"{move} are not all integers")
    for cell in cells:
        node, count = cell
        if not type(node) is type(count) is int:
            raise TypeError(f"{cell} are not all integers")
    if "obs" not in row:
        return moves, None, cells
    obs = row["obs"]
    if type(obs) is not dict:
        raise TypeError("obs is not an object")
    observations = {}
    for key, bits in obs.items():
        if type(bits) is not list or len(bits) != 3:
            raise TypeError(f"{bits!r} is not three booleans")
        alone, increase, decrease = bits
        if not type(alone) is type(increase) is type(decrease) is bool:
            raise TypeError(f"{bits!r} is not three booleans")
        label = labels.get(key)
        if label is None:
            label = labels[key] = _label(key)
        observations[label] = OBSERVATIONS[alone << 2 | increase << 1 | decrease]
    return moves, observations, cells


def _record(row, index: int, labels: dict[str, int]) -> RoundRecord:
    """Row ``index`` of a trace file, as ``json.loads`` decodes its line,
    as the RoundRecord it records: an object whose ``round``, ``phase``
    and ``rip`` are integers and whose other fields ``_fields`` takes.
    ValueError, naming the row, on anything else."""
    try:
        counters = (row["round"], row["phase"], row["rip"])
        if any(type(value) is not int for value in counters):
            raise TypeError(f"{counters} are not all integers")
        return RoundRecord(*counters, *_fields(row, labels))
    except _MALFORMED as exc:
        raise ValueError(f"trace row {index} is malformed: {exc!r}") from None


def _ends_dispersed(records: list[RoundRecord]) -> bool:
    """Whether records end as a dispersed run ends.  ``engine.run`` tests
    for dispersal after each phase and before any other verdict, so a run
    is dispersed exactly when its last phase, the last 19 records, moved
    no robot and left every robot on a node of its own."""
    tail = records[-ROUNDS_PER_PHASE:]
    return (len(tail) == ROUNDS_PER_PHASE and not any(record.moves for record in tail)
            and all(count == 1 for _, count in tail[-1].occupancy))


def verify_trace_file(header: dict, records: list[RoundRecord], scenario: Scenario) -> list[str]:
    """Check the header against the scenario and the row count, its
    ruleset and result against their names, its rounds for an integer,
    the row count for whole phases, and its result against the records
    (see ``_ends_dispersed``), then walk the records with
    ``verify.check_trace``.  Trace files carry no phase-start statuses,
    so the walk is asked for the replay only and builds none of the
    invariants' tables.  The ruleset is not checked against the records:
    that takes a run of the scenario."""
    problems: list[str] = []
    if header.get("scenario") != _scenario_json(scenario):
        problems.append("trace header scenario differs from the scenario file")
    for key, kind in (("ruleset", Ruleset), ("result", RunResult)):
        names = [member.value for member in kind]
        if header.get(key) not in names:
            problems.append(f"trace header {key} {header.get(key)!r} is not one of {names}")
    rounds = header.get("rounds")
    if type(rounds) is not int:
        problems.append(f"trace header rounds {rounds!r} is not an integer")
    elif rounds != len(records):
        problems.append(f"trace header records {rounds} rounds, file has {len(records)} rows")
    if not records or len(records) % ROUNDS_PER_PHASE:
        problems.append(f"trace has {len(records)} rows, not a positive multiple of "
                        f"{ROUNDS_PER_PHASE}: a run ends on a phase boundary")
    violations = check_trace(scenario, records, invariants=False)
    result = header.get("result")
    if result in [member.value for member in RunResult]:
        dispersed = _ends_dispersed(records)
        if dispersed != (result == RunResult.DISPERSED.value):
            problems.append(
                f"trace header result {result!r} does not match the rows, which "
                f"{'end' if dispersed else 'do not end'} on a phase without a move "
                f"and with every robot on a node of its own")
    return problems + [str(v) for v in violations]


def _try_output(path, directory: bool = False) -> bool:
    """Try an output path before any work, so that a bad one costs no run:
    make the directory when ``directory`` is set, then open the file, or
    the directory's ``report.txt``, for appending, which changes no byte
    of an existing file, and remove it again if the open made it.  On
    failure prints ``error: <path>: <reason>`` and returns False."""
    target = Path(path)
    try:
        if directory:
            target.mkdir(parents=True, exist_ok=True)
            target = target / "report.txt"
        made = not target.exists()
        with open(target, "a", encoding="utf-8"):
            pass
        if made:
            target.unlink()
    except OSError as exc:
        print(f"error: {path}: {exc}", file=sys.stderr)
        return False
    return True


@contextlib.contextmanager
def _warnings_on_stderr():
    """Say each distinct warning raised inside once on stderr as
    ``warning: <message>``, in place of Python's line with a source path."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        yield
    for message in dict.fromkeys(str(warning.message) for warning in caught):
        print(f"warning: {message}", file=sys.stderr)


def _cmd_run(args) -> int:
    if args.max_phases is not None and args.max_phases < 1:
        print(f"error: --max-phases must be at least 1, not {args.max_phases}", file=sys.stderr)
        return EXIT_INPUT
    try:
        with _warnings_on_stderr():
            scenario = load_scenario(args.scenario)
    except (OSError, ScenarioError) as exc:
        print(f"error: {args.scenario}: {exc}", file=sys.stderr)
        return EXIT_INPUT
    if args.trace and not _try_output(args.trace):
        return EXIT_INPUT
    ruleset = Ruleset(args.ruleset)
    outcome = run(scenario, ruleset, max_phases=args.max_phases)
    print(
        f"{outcome.result.value}: {outcome.rounds_used} rounds "
        f"({outcome.phases_used} phases), ruleset {ruleset.value}"
    )
    if outcome.result is RunResult.BUDGET_EXCEEDED:
        bound = phase_budget(max_label_bits(scenario.max_label), scenario.k)
        print(
            f"no provable cycle in {outcome.phases_used} phases; "
            f"the O(log L + k) bound is 8(p+k) = {bound} phases"
        )
    if outcome.dispersed:
        final = outcome.final_placement.by_robot
        placed = " ".join(f"{label}@{node}" for label, node in sorted(final.items()))
        print(f"final placement: {placed}")
    if args.trace:
        try:
            write_trace(outcome, args.trace, verbose=args.verbose)
        except OSError as exc:
            print(f"error: {args.trace}: {exc}", file=sys.stderr)
            return EXIT_INPUT
        print(f"trace written to {args.trace}")
    return _RESULT_EXIT[outcome.result]


def _cmd_sweep(args) -> int:
    for flag, value in (("--step", args.step), ("--seeds", args.seeds)):
        if value < 1:
            print(f"error: {flag} must be at least 1, not {value}", file=sys.stderr)
            return EXIT_INPUT
    points = range(args.start, args.stop + 1, args.step)
    if len(points) * args.seeds > ENUMERATION_GUARD:
        print(f"error: {len(points)} points x {args.seeds} seeds exceeds the "
              f"{ENUMERATION_GUARD} run guard", file=sys.stderr)
        return EXIT_INPUT
    spec = SweepSpec(
        vary=args.vary,
        points=tuple(points),
        n=args.n,
        k=args.k,
        max_label=args.maxlabel,
        seeds=args.seeds,
        ruleset=Ruleset(args.ruleset),
    )
    if args.out and not _try_output(args.out):
        return EXIT_INPUT
    try:
        rows = run_sweep(spec)
    except ValueError as exc:  # a malformed RINGDISPERSE_WORKERS
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    # one of L and k varies, so at most one (L, k) of the run rows has L < k
    for max_label, k in dict.fromkeys((row.max_label, row.k) for row in rows
                                      if row.max_label < row.k
                                      and not row.outcome.startswith("error:")):
        print(f"warning: maxlabel {max_label} below robot count {k}; "
              f"the protocol assumes L >= k", file=sys.stderr)
    csv_text = rows_to_csv(rows)
    if args.out:
        try:
            Path(args.out).write_text(csv_text, encoding="utf-8")
        except OSError as exc:
            print(f"error: {args.out}: {exc}", file=sys.stderr)
            return EXIT_INPUT
        print(f"{len(rows)} rows written to {args.out}")
    else:
        sys.stdout.write(csv_text)
    try:
        fit = fit_rounds(rows)
        print(fit.describe())
    except ValueError:
        print("no fit: not enough dispersed rows")
    return EXIT_OK


def _cmd_search(args) -> int:
    ruleset = Ruleset(args.ruleset)
    if args.out_dir and not _try_output(args.out_dir, directory=True):
        return EXIT_INPUT
    # k distinct labels from [0, L] leave k = L + 1 as the only robot count
    # above L; say so once, not once per scenario
    if 0 <= args.l_max < min(args.k_max, args.n_max - 1):
        print(f"warning: --l-max {args.l_max} is below the robot count {args.l_max + 1} "
              f"of some scenarios; the protocol assumes L >= k", file=sys.stderr)
    try:
        report = exhaustive_search(args.n_max, args.k_max, args.l_max, ruleset)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    print(report.render())
    if args.out_dir:
        out_dir = Path(args.out_dir)
        try:
            out_dir.mkdir(parents=True, exist_ok=True)
            (out_dir / "report.txt").write_text(report.render() + "\n", encoding="utf-8")
            for idx, (result, finding_kinds, minimized) in enumerate(report.failures):
                path = out_dir / f"finding-{idx:04d}.scn"
                body = render_scenario(minimized)
                kinds = ",".join(finding_kinds) or "none"
                path.write_text(
                    f"# outcome: {result.value}\n# findings: {kinds}\n{body}",
                    encoding="utf-8",
                )
        except OSError as exc:
            print(f"error: {args.out_dir}: {exc}", file=sys.stderr)
            return EXIT_INPUT
        print(f"report and {len(report.failures)} finding files in {out_dir}")
    return EXIT_OK if report.validation_violations == 0 else EXIT_VIOLATIONS


def _cmd_verify(args) -> int:
    try:
        with _warnings_on_stderr():
            scenario = load_scenario(args.scenario)
    except (OSError, ScenarioError) as exc:
        print(f"error: {args.scenario}: {exc}", file=sys.stderr)
        return EXIT_INPUT
    try:
        header, records = read_trace(args.trace)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    problems = verify_trace_file(header, records, scenario)
    for problem in problems:
        print(f"violation: {problem}")
    print(f"{len(problems)} violations")
    return EXIT_OK if not problems else EXIT_VIOLATIONS


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ringdisperse",
        description="simulate and verify silent-robot dispersion on an oriented ring",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one scenario")
    p_run.add_argument("--scenario", required=True)
    p_run.add_argument("--ruleset", choices=RULESET_NAMES, default=Ruleset.REPAIRED.value)
    p_run.add_argument("--max-phases", type=int, default=None)
    p_run.add_argument("--trace", default=None)
    p_run.add_argument("--verbose", action="store_true",
                       help="include per-robot perception flags in the trace")
    p_run.set_defaults(func=_cmd_run)

    p_sweep = sub.add_parser("sweep", help="sweep one parameter over seeded runs")
    p_sweep.add_argument("--vary", choices=["k", "L", "n"], required=True)
    p_sweep.add_argument("--from", dest="start", type=int, required=True)
    p_sweep.add_argument("--to", dest="stop", type=int, required=True)
    p_sweep.add_argument("--step", type=int, default=1)
    p_sweep.add_argument("--seeds", type=int, default=5)
    p_sweep.add_argument("--n", type=int, default=10)
    p_sweep.add_argument("--k", type=int, default=4)
    p_sweep.add_argument("--maxlabel", type=int, default=15)
    p_sweep.add_argument("--ruleset", choices=RULESET_NAMES, default=Ruleset.REPAIRED.value)
    p_sweep.add_argument("--out", default=None, help="CSV output path (default stdout)")
    p_sweep.set_defaults(func=_cmd_sweep)

    p_search = sub.add_parser("search", help="exhaustively run all small instances")
    p_search.add_argument("--n-max", type=int, required=True)
    p_search.add_argument("--k-max", type=int, required=True)
    p_search.add_argument("--l-max", type=int, required=True)
    p_search.add_argument("--ruleset", choices=RULESET_NAMES, default=Ruleset.REPAIRED.value)
    p_search.add_argument("--out-dir", default=None)
    p_search.set_defaults(func=_cmd_search)

    p_verify = sub.add_parser("verify", help="validate a trace file against the model")
    p_verify.add_argument("--trace", required=True)
    p_verify.add_argument("--scenario", required=True)
    p_verify.set_defaults(func=_cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
