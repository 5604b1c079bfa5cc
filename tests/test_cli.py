import csv
import dataclasses
import json
import os
import random
import subprocess
import sys
import time
import warnings
from pathlib import Path

import pytest

from ringdisperse.cli import (
    TRACE_FORMAT,
    _record,
    _scenario_json,
    main,
    read_trace,
    verify_trace_file,
    write_trace,
)
from ringdisperse.engine import run
from ringdisperse.perception import OBSERVATIONS
from ringdisperse.protocol import Ruleset
from ringdisperse.scenario import gen_single_source, load_scenario, make_scenario, render_scenario
from ringdisperse.verify import enumerate_scenarios, validate_trace


@pytest.fixture()
def rooted_scenario(tmp_path):
    path = tmp_path / "rooted.scn"
    path.write_text("ring 4\nmaxlabel 3\nrobot 1 0\nrobot 2 0\n")
    return path


@pytest.fixture()
def chain_scenario(tmp_path):
    path = tmp_path / "chain.scn"
    path.write_text(
        "ring 7\nmaxlabel 7\nrobot 1 0\nrobot 2 0\nrobot 3 1\nrobot 4 1\n"
    )
    return path


def test_run_dispersed_exit_zero(rooted_scenario, capsys):
    code = main(["run", "--scenario", str(rooted_scenario)])
    out = capsys.readouterr().out
    assert code == 0
    assert "dispersed" in out
    assert "95 rounds" in out


def test_run_literal_chain_livelock_exit(chain_scenario, capsys):
    code = main(["run", "--scenario", str(chain_scenario), "--ruleset", "literal"])
    assert code == 2
    assert "livelock" in capsys.readouterr().out


def test_run_budget_exit(chain_scenario, capsys):
    code = main(["run", "--scenario", str(chain_scenario), "--ruleset", "literal",
                 "--max-phases", "3"])
    assert code == 3
    assert "no provable cycle in 3 phases" in capsys.readouterr().out


@pytest.mark.parametrize("max_phases", [0, -5])
def test_run_rejects_max_phases_below_one(chain_scenario, capsys, max_phases):
    code = main(["run", "--scenario", str(chain_scenario), "--max-phases", str(max_phases)])
    assert code == 4
    captured = capsys.readouterr()
    assert captured.err == f"error: --max-phases must be at least 1, not {max_phases}\n"
    assert captured.out == ""


def test_run_malformed_scenario_exit(tmp_path, capsys):
    bad = tmp_path / "bad.scn"
    bad.write_text("ring 4\nmaxlabel 3\nrobot 1 0\nrobot 1 1\n")
    code = main(["run", "--scenario", str(bad)])
    assert code == 4
    assert "duplicate label" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["run", "verify"])
def test_non_utf8_scenario_exits_input(rooted_scenario, tmp_path, command):
    # a UnicodeDecodeError is neither an OSError nor a ScenarioError
    bad = tmp_path / "bad.scn"
    bad.write_bytes(b"\xff\xfering 4\nmaxlabel 3\nrobot 1 0\n")
    args = [command, "--scenario", str(bad)]
    if command == "verify":
        trace_path = tmp_path / "trace.jsonl"
        main(["run", "--scenario", str(rooted_scenario), "--trace", str(trace_path)])
        args += ["--trace", str(trace_path)]
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-m", "ringdisperse.cli", *args],
                          capture_output=True, text=True, env=env, timeout=60)
    assert done.returncode == 4
    assert done.stderr.startswith(f"error: {bad}: ") and "not UTF-8" in done.stderr
    assert "Traceback" not in done.stderr


@pytest.mark.parametrize("line, where", [
    (0, "trace header"),
    (3, "trace row 3"),
    (None, "trace row 96"),  # appended after the 95 rows
], ids=["header", "row", "appended"])
def test_verify_names_the_trace_line_that_is_not_utf8(rooted_scenario, tmp_path, capsys,
                                                      line, where):
    trace_path = tmp_path / "trace.jsonl"
    main(["run", "--scenario", str(rooted_scenario), "--trace", str(trace_path)])
    lines = trace_path.read_bytes().splitlines(keepends=True)
    if line is None:
        lines.append(b"\xff")
    else:
        lines[line] = lines[line][:5] + b"\xff" + lines[line][5:]
    # a blank line is not numbered as a row
    trace_path.write_bytes(b"\n" + b"".join(lines[:2]) + b"\n" + b"".join(lines[2:]))
    capsys.readouterr()
    code = main(["verify", "--trace", str(trace_path), "--scenario", str(rooted_scenario)])
    assert code == 4
    err = capsys.readouterr().err
    assert err.startswith(f"error: {where} is not UTF-8: 'utf-8' codec can't decode byte 0xff "
                          f"in position {0 if line is None else 5}"), err


def test_trace_roundtrip_verifies_clean(rooted_scenario, tmp_path, capsys):
    trace_path = tmp_path / "trace.jsonl"
    assert main(["run", "--scenario", str(rooted_scenario),
                 "--trace", str(trace_path), "--verbose"]) == 0
    code = main(["verify", "--trace", str(trace_path),
                 "--scenario", str(rooted_scenario)])
    assert code == 0
    assert "0 violations" in capsys.readouterr().out


def _two_edge_hop(lines):
    target = next(i for i, line in enumerate(lines) if '"moves":[[' in line)
    row = json.loads(lines[target])
    row["moves"][0][2] = (row["moves"][0][2] + 1) % 4
    return lines[:target] + [json.dumps(row, separators=(",", ":"))] + lines[target + 1:]


def _occ_cell_moved(lines):
    row = json.loads(lines[-1])
    node, count = row["occ"][-1]
    row["occ"][-1] = [(node + 1) % 4, count]
    return lines[:-1] + [json.dumps(row, separators=(",", ":"))]


def test_corrupted_trace_fails_verification(rooted_scenario, tmp_path, capsys):
    trace_path = tmp_path / "trace.jsonl"
    main(["run", "--scenario", str(rooted_scenario), "--trace", str(trace_path),
          "--verbose"])
    lines = trace_path.read_text().splitlines()
    corruptions = {
        "two-edge hop": _two_edge_hop(lines),
        "truncated to 39 rows": lines[:40],
        "last row dropped": lines[:-1],
        "occ cell moved to the next node": _occ_cell_moved(lines),
    }
    for name, corrupted in corruptions.items():
        trace_path.write_text("\n".join(corrupted) + "\n")
        code = main(["verify", "--trace", str(trace_path),
                     "--scenario", str(rooted_scenario)])
        assert code == 1, name
        assert "violation: " in capsys.readouterr().out, name


def _hop_in_memory(records):
    target = next(i for i, record in enumerate(records) if record.moves)
    label, frm, to, port = records[target].moves[0]
    moves = ((label, frm, (to + 1) % 4, port),) + records[target].moves[1:]
    return records[:target] + [dataclasses.replace(records[target], moves=moves)] + \
        records[target + 1:]


def _occ_moved_in_memory(records):
    node, count = records[-1].occupancy[-1]
    occupancy = records[-1].occupancy[:-1] + (((node + 1) % 4, count),)
    return records[:-1] + [dataclasses.replace(records[-1], occupancy=occupancy)]


@pytest.mark.parametrize("in_file, in_memory", [
    (_two_edge_hop, _hop_in_memory),
    (_occ_cell_moved, _occ_moved_in_memory),
], ids=["two-edge hop", "occ cell moved to the next node"])
def test_file_and_memory_report_the_same_violations(rooted_scenario, tmp_path, in_file,
                                                    in_memory):
    # the corruptions of test_corrupted_trace_fails_verification that the
    # replay sees; a truncated file is caught by its header instead
    scenario = load_scenario(rooted_scenario)
    outcome = run(scenario)
    trace_path = tmp_path / "trace.jsonl"
    write_trace(outcome, trace_path, verbose=True)
    lines = trace_path.read_text().splitlines()
    trace_path.write_text("\n".join(in_file(lines)) + "\n")
    header, records = read_trace(trace_path)
    from_file = verify_trace_file(header, records, scenario)
    trace = dataclasses.replace(outcome.trace, records=in_memory(outcome.trace.records))
    from_memory = [str(v) for v in validate_trace(trace, scenario)]
    assert from_file
    assert from_file == from_memory


@pytest.mark.parametrize("key, value", [
    ("ruleset", "bogus"), ("ruleset", None), ("ruleset", ["repaired"]),
    ("result", "bogus"), ("result", 0), ("result", ["dispersed"]),
], ids=["ruleset-bogus", "ruleset-null", "ruleset-list", "result-bogus", "result-int",
        "result-list"])
def test_verify_reports_a_header_ruleset_or_result_that_is_no_name(
        rooted_scenario, tmp_path, capsys, key, value):
    trace_path = tmp_path / "trace.jsonl"
    main(["run", "--scenario", str(rooted_scenario), "--trace", str(trace_path)])
    lines = trace_path.read_text().splitlines()
    header = json.loads(lines[0])
    header[key] = value
    lines[0] = json.dumps(header)
    trace_path.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    code = main(["verify", "--trace", str(trace_path), "--scenario", str(rooted_scenario)])
    assert code == 1
    out = capsys.readouterr().out
    assert f"violation: trace header {key} {value!r} is not one of" in out, out
    assert "1 violations" in out


@pytest.mark.parametrize("fixture, argv, result, ends", [
    ("rooted_scenario", [], "livelock", "end"),
    ("rooted_scenario", [], "budget-exceeded", "end"),
    ("chain_scenario", ["--ruleset", "literal"], "dispersed", "do not end"),
], ids=["dispersed-as-livelock", "dispersed-as-budget", "livelock-as-dispersed"])
def test_verify_reports_a_header_result_the_rows_do_not_bear_out(
        request, tmp_path, capsys, fixture, argv, result, ends):
    # a run is dispersed exactly when its last phase moves no robot and
    # ends on distinct nodes, so a rewritten result is caught from the rows
    scenario = request.getfixturevalue(fixture)
    trace_path = tmp_path / "trace.jsonl"
    main(["run", "--scenario", str(scenario), "--trace", str(trace_path), *argv])
    lines = trace_path.read_text().splitlines()
    header = json.loads(lines[0])
    assert header["result"] != result
    header["result"] = result
    lines[0] = json.dumps(header)
    trace_path.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    code = main(["verify", "--trace", str(trace_path), "--scenario", str(scenario)])
    assert code == 1
    out = capsys.readouterr().out
    assert (f"violation: trace header result {result!r} does not match the rows, which "
            f"{ends} on a phase without a move and with every robot on a node of its own"
            in out), out
    assert "1 violations" in out


# row 7 of the rooted scenario's trace: round 6 moves no robot
_ROW_7 = '{"round":6,"phase":1,"rip":7,"moves":[],"occ":[[0,2]]}'


@pytest.mark.parametrize("line, row", [
    (1, {"round": 0, "phase": 1, "rip": 1, "occ": [2, 0, 0, 0]}),
    (1, {"round": 0, "phase": 1, "rip": 1, "moves": [[1, 0, 1]], "occ": [1, 1, 0, 0]}),
    (1, [1, 2, 3]),
    (0, [1, 2, 3]),
    (0, {"format": "ringdisperse-trace-v1",
         "scenario": {"n": 4, "max_label": 3, "robots": [[1, 0], [2, 0]]},
         "ruleset": "repaired", "result": "dispersed", "rounds": 95}),
    (1, {"round": 0, "phase": 1, "rip": 1, "moves": [], "occ": [2, 0, 0, 0]}),
    (1, {"round": False, "phase": 1, "rip": 1, "moves": [[1, 0, 1, 1]],
         "occ": [[0, 1], [1, 1]]}),
    (1, {"round": 0, "phase": 1, "rip": 1, "moves": [[1, 0, 1, 1.0]],
         "occ": [[0, 1], [1, 1]]}),
    (1, {"round": 0, "phase": 1, "rip": 1, "moves": [[1, 0, 1, 1]],
         "occ": [[0, 1], [1, 1.0]]}),
    (1, {"round": 0, "phase": 1, "rip": 1, "moves": [[1, 0, 1, 1]],
         "occ": [[0, 1, 0], [1, 1]]}),
    (1, {"round": 0, "phase": 1, "rip": 1, "moves": [[1, 0, 1, 1]],
         "occ": [[0, 1], [1, 1]],
         "obs": {"x": [False, False, False], "2": [False, False, False]}}),
    (1, {"round": 0, "phase": 1, "rip": 1, "moves": [[1, 0, 1, 1]],
         "occ": [[0, 1], [1, 1]], "obs": [[False, False, False], [False, False, False]]}),
    # round 6 moves no robot; each row below reads as that round through
    # iteration or int(), which replays cleanly, but is not v2
    (7, {"round": 6, "phase": 1, "rip": 7, "moves": "", "occ": [[0, 2]]}),
    (7, {"round": 6, "phase": 1, "rip": 7, "moves": {}, "occ": [[0, 2]]}),
    (7, {"round": 6, "phase": 1, "rip": 7, "moves": [], "occ": [[0, 2]],
         "obs": {" 1": [False, False, False], "2": [False, False, False]}}),
    (7, {"round": 6, "phase": 1, "rip": 7, "moves": [], "occ": [[0, 2]],
         "obs": {"01": [False, False, False], "2": [False, False, False]}}),
    (7, {"round": 6, "phase": 1, "rip": 7, "moves": [], "occ": [[0, 2]],
         "obs": {"+1": [False, False, False], "2": [False, False, False]}}),
    (7, {"round": 6, "phase": 1, "rip": 7, "moves": [], "occ": [[0, 2]], "obs": None}),
    # a string is written as the line itself: rows cut short
    (3, '{"round":2,"phase":1,"rip":3,"moves":[],"occ":[[0,'),
    (0, '{"format":"ringdisperse-trace-v2","scenario":{"n":4,'),
    # row 7 as written, then the text around it; json.loads judges each line
    # (only its whitespace, " \t\n\r", may pad a value), and the reader
    # must give its row and message
    (7, _ROW_7 + " x"),
    (7, _ROW_7 + _ROW_7),
    (7, "\ufeff" + _ROW_7),
    (7, _ROW_7.replace('"moves":[]', '"moves":""') + " \t "),
    (7, " \t" + _ROW_7.replace('"moves":[]', '"moves":""') + "\t"),
    (7, _ROW_7 + "\x0b"),
    # JSON that json.loads cannot build: nested past the recursion limit,
    # or a number past int()'s 4,300-digit limit
    (7, _ROW_7.replace('"moves":[]', '"moves":' + "[" * 100_000 + "]" * 100_000)),
    (0, '{"format":"ringdisperse-trace-v2","scenario":' + "[" * 100_000 + "]" * 100_000 + "}"),
    (7, _ROW_7.replace('"round":6', '"round":' + "6" * 5000)),
    (7, _ROW_7.replace('"occ":[[0,2]]', '"occ":[[' + "1" * 5000 + ',2]]')),
    (0, '{"format":"ringdisperse-trace-v2","rounds":' + "9" * 5000 + "}"),
], ids=["no-moves", "three-element-move", "not-an-object", "header-not-an-object",
        "v1-header", "occ-cell-not-a-pair", "bool-round", "float-port", "float-count",
        "three-int-occ-cell", "obs-key-not-a-label", "obs-a-list", "moves-a-string",
        "moves-an-object", "obs-key-space", "obs-key-leading-zero", "obs-key-plus",
        "obs-null", "truncated-row", "truncated-header", "trailing-text", "two-objects",
        "bom", "json-whitespace-after", "json-whitespace-around", "vertical-tab-after",
        "moves-nested-deep", "header-nested-deep", "round-5000-digits", "node-5000-digits",
        "header-value-5000-digits"])
def test_verify_malformed_row_exits_input(rooted_scenario, tmp_path, capsys, line, row):
    trace_path = tmp_path / "trace.jsonl"
    main(["run", "--scenario", str(rooted_scenario), "--trace", str(trace_path)])
    lines = trace_path.read_text().splitlines()
    assert lines[7] == _ROW_7
    lines[line] = row if type(row) is str else json.dumps(row)
    trace_path.write_text("\n".join(lines) + "\n")
    code = main(["verify", "--trace", str(trace_path),
                 "--scenario", str(rooted_scenario)])
    assert code == 4
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    if type(row) is str:
        where = f"trace row {line}" if line else "trace header"
        try:
            json.loads(row + "\n")  # the line as read
        except (ValueError, RecursionError) as exc:
            assert err == f"error: {where} is not JSON: {exc}\n", err
        else:  # JSON with a malformed field
            assert err.startswith(f"error: {where} is malformed: "), err


@pytest.mark.parametrize("convert", [
    lambda bits: [int(b) for b in bits],
    lambda bits: [float(b) for b in bits],
    lambda bits: ["yes"] + bits[1:],
    lambda bits: bits[:2],
    lambda bits: bits + [False],
    lambda bits: bits[0],
], ids=["ints", "floats", "string", "two-bits", "four-bits", "not-a-list"])
def test_verify_rejects_obs_entries_that_are_not_three_booleans(
        rooted_scenario, tmp_path, capsys, convert):
    # 1 == True and 0.0 == False, so the int and float forms would replay
    # cleanly if they were read as observations
    trace_path = tmp_path / "trace.jsonl"
    main(["run", "--scenario", str(rooted_scenario), "--trace", str(trace_path), "--verbose"])
    lines = trace_path.read_text().splitlines()
    row = json.loads(lines[1])
    row["obs"]["1"] = convert(row["obs"]["1"])
    lines[1] = json.dumps(row)
    trace_path.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    code = main(["verify", "--trace", str(trace_path), "--scenario", str(rooted_scenario)])
    assert code == 4
    assert "trace row 1 is malformed" in capsys.readouterr().err


def _tamper_quiet_round(lines, records, tamper):
    """Apply ``tamper`` to the record of the first round that follows two
    rounds without a move, in the file lines and in the records alike; by
    then the check's expected observations cover every robot."""
    target = next(i for i in range(2, len(records))
                  if not records[i - 2].moves and not records[i - 1].moves)
    tampered = tamper(records[target])
    row = json.loads(lines[target + 1])
    row["moves"] = [list(move) for move in tampered.moves]
    row["obs"] = {str(label): [seen.alone, seen.increase, seen.decrease]
                  for label, seen in tampered.observations.items()}
    return (lines[:target + 1] + [json.dumps(row, separators=(",", ":"))] + lines[target + 2:],
            records[:target] + [tampered] + records[target + 1:])


def _flip_robot_1(observations):
    return {**observations, 1: OBSERVATIONS[7 - OBSERVATIONS.index(observations[1])]}


def _robot_1_as_unknown_9(observations):
    return {9 if label == 1 else label: seen for label, seen in observations.items()}


def _observations(tamper):
    """The record tamper that rewrites a record's observations with ``tamper``."""
    return lambda record: dataclasses.replace(record, observations=tamper(record.observations))


def _unknown_9_moves(record):
    return dataclasses.replace(record, moves=record.moves + ((9, 0, 1, 1),))


@pytest.mark.parametrize("tamper, expected", [
    (_observations(_flip_robot_1), [
        "[perception-replay] phase 1 round 7: recorded Observation(alone=True, increase=True, "
        "decrease=True), recomputed Observation(alone=False, increase=False, decrease=False)"]),
    (_observations(_robot_1_as_unknown_9), [
        "[perception-replay] phase 1 round 7: recorded None, recomputed "
        "Observation(alone=False, increase=False, decrease=False)",
        "[perception-replay] phase 1 round 7: observation of an unknown robot"]),
    (_unknown_9_moves, ["[move-legality] phase 1 round 7: move of an unknown robot"]),
], ids=["flipped", "unknown-label", "unknown-mover"])
def test_quiet_round_observation_mismatch_is_reported_per_robot(rooted_scenario, tmp_path,
                                                                tamper, expected):
    # a quiet round compares its observations as one dict; a mismatch must
    # still be reported robot by robot, from the file and from memory
    # alike, and a label the scenario lacks is named as unknown there and
    # in a move
    scenario = load_scenario(rooted_scenario)
    outcome = run(scenario)
    trace_path = tmp_path / "trace.jsonl"
    write_trace(outcome, trace_path, verbose=True)
    lines, records = _tamper_quiet_round(trace_path.read_text().splitlines(),
                                         outcome.trace.records, tamper)
    trace_path.write_text("\n".join(lines) + "\n")
    header, records = read_trace(trace_path)
    from_file = verify_trace_file(header, records, scenario)
    trace = dataclasses.replace(outcome.trace, records=records)
    from_memory = [str(v) for v in validate_trace(trace, scenario)]
    assert from_file == from_memory == expected


def test_read_observations_are_the_shared_values(rooted_scenario, tmp_path):
    trace_path = tmp_path / "trace.jsonl"
    main(["run", "--scenario", str(rooted_scenario), "--trace", str(trace_path), "--verbose"])
    observations = [obs for record in read_trace(trace_path)[1]
                    for obs in record.observations.values()]
    assert observations
    assert all(any(obs is shared for shared in OBSERVATIONS) for obs in observations)


_CRITERION_8_CHAIN = make_scenario(7, 7, ((1, 0), (2, 0), (3, 1), (4, 1)))


def _body(line):
    """The text of a written row after its three counters."""
    return line.split(",", 3)[3]


def _read_or_message(path):
    try:
        return read_trace(path)[1]
    except ValueError as exc:
        return str(exc)


def _json_loads_or_message(path):
    """The records that ``json.loads`` and the reader's record check make
    of the file's lines after the header, one line at a time, blank lines
    skipped, or the message ``read_trace`` must give."""
    records = []
    for line in path.read_text().splitlines(keepends=True)[1:]:
        if not line.strip():
            continue
        try:
            row = json.loads(line)
        except (ValueError, RecursionError) as exc:
            return f"trace row {len(records) + 1} is not JSON: {exc}"
        try:
            records.append(_record(row, len(records) + 1, {}))
        except ValueError as exc:
            return str(exc)
    return records


def _same_records(got, expected):
    """Equal records, true/false not read as 1/0; compared record by
    record, so a failure shows one record."""
    assert type(got) is list and len(got) == len(expected)
    for index, (record, want) in enumerate(zip(got, expected), start=1):
        assert (index, repr(record)) == (index, repr(want))
        assert record == want


@pytest.mark.parametrize("verbose", [False, True], ids=["plain", "verbose"])
@pytest.mark.parametrize("scenario", [
    _CRITERION_8_CHAIN, gen_single_source(10**4, 8, 1023, seed=7)], ids=["chain", "ring-10^4"])
def test_read_trace_rows_equal_json_loads(tmp_path, scenario, verbose):
    path = tmp_path / "trace.jsonl"
    write_trace(run(scenario), path, verbose)
    records = read_trace(path)[1]
    _same_records(records, _json_loads_or_message(path))
    # quiet rounds repeat a body, and rows with equal bodies share its values
    bodies = [_body(line) for line in path.read_text().splitlines()[1:]]
    assert len(set(bodies)) < len(bodies) // 2
    assert len({id(record.occupancy) for record in records}) == len(set(bodies))


@pytest.mark.parametrize("scenario", [
    _CRITERION_8_CHAIN, gen_single_source(10**4, 8, 1023, seed=7)], ids=["chain", "ring-10^4"])
def test_read_trace_gives_back_the_recorded_rounds(tmp_path, scenario):
    outcome = run(scenario)
    path = tmp_path / "trace.jsonl"
    write_trace(outcome, path, verbose=True)
    header, records = read_trace(path)
    assert header["rounds"] == len(records)
    _same_records(records, outcome.trace.records)
    write_trace(outcome, path)
    _same_records(read_trace(path)[1], [dataclasses.replace(record, observations=None)
                                        for record in outcome.trace.records])


# a quiet row of the criterion-8 chain, the same body as the row before it
_QUIET = ('{"round":7,"phase":1,"rip":8,"moves":[],"occ":[[0,2],[1,2]],"obs":{'
          '"1":[false,false,false],"2":[false,false,false],"3":[false,false,false],'
          '"4":[false,false,false]}}')


@pytest.mark.parametrize("line", [
    _QUIET.replace('"moves"', '"round":99,"moves"'),
    _QUIET.replace('"moves"', '"rip":1,"moves"'),
    _QUIET.replace('"moves":[]', '"moves":[1],"moves":[]'),
    _QUIET.replace('"2":', '"1":[true,true,true],"2":'),
    _QUIET.replace('"rip":8,', '"rip":8,,'),
    '{"round":7,"phase":1,"rip":8,}',
    _QUIET.replace('"round":7', '"round":07'),
    _QUIET.replace('"round":7', '"round":-0'),
    _QUIET.replace('"round":7', '"round":' + "7" * 18),
    _QUIET.replace('"round":7', '"round":' + "7" * 19),
    _QUIET.replace('"round":7', '"round":' + "7" * 5000),
    _QUIET.replace('"occ":[[0,2]', '"occ":[[' + "1" * 5000 + ",2]"),
    _QUIET.replace('"moves":[]', '"moves":' + "[" * 100_000 + "]" * 100_000),
    _QUIET.replace('"round":7', '"round":٧'),
    _QUIET.replace('"round":7', '"round":7٧'),
    _QUIET.replace('"phase":1', '"phase": 1').replace('"round":7', '"round": 7'),
    _QUIET.replace('"occ":', '"occ" :'),
    _QUIET + " x",
    _QUIET + " \t\r",
    _QUIET.replace('"round":7,"phase":1,"rip":8', '"round":8,"phase":1,"rip":9'),
    _QUIET.replace('"round":7,"phase":1,"rip":8', '"round":3,"phase":5,"rip":0'),
    _QUIET[:-1],
    _QUIET.replace("[false,false,false]}", "[false,false,00]}"),
], ids=["dup-round", "dup-rip", "dup-moves", "dup-obs-key", "comma-after-counters",
        "only-counters", "round-01", "round-minus-0", "round-18-digits", "round-19-digits",
        "round-5000-digits", "node-5000-digits", "moves-nested-deep", "round-arabic-digit",
        "round-ascii-then-arabic-digit", "spaces-after-colons",
        "space-before-colon", "trailing-text", "trailing-json-whitespace",
        "previous-body-next-counters", "previous-body-other-counters", "truncated",
        "bad-number-in-body"])
def test_read_trace_matches_json_loads_on_crafted_rows(tmp_path, line):
    # the crafted row follows two rows with its body, so a decoded body is
    # at hand; each must read as json.loads and the record check read it,
    # or fail with their message
    path = tmp_path / "trace.jsonl"
    write_trace(run(_CRITERION_8_CHAIN), path, verbose=True)
    lines = path.read_text().splitlines()
    assert lines[8] == _QUIET and _body(lines[7]) == _body(_QUIET)
    lines[9] = line
    path.write_text("\n".join(lines) + "\n")
    expected = _json_loads_or_message(path)
    got = _read_or_message(path)
    if type(expected) is str:
        assert got == expected
    else:
        _same_records(got, expected)


def _verify_exits_input(tmp_path, capsys, lines, row):
    scenario_path = tmp_path / "chain.scn"
    scenario_path.write_text(render_scenario(_CRITERION_8_CHAIN))
    trace_path = tmp_path / "trace.jsonl"
    trace_path.write_text("\n".join(lines) + "\n")
    code = main(["verify", "--trace", str(trace_path), "--scenario", str(scenario_path)])
    assert code == 4
    err = capsys.readouterr().err
    assert err.startswith(f"error: trace row {row} is malformed: "), err


def _trace_lines(tmp_path):
    path = tmp_path / "trace.jsonl"
    write_trace(run(_CRITERION_8_CHAIN), path, verbose=True)
    return path.read_text().splitlines()


def test_verify_rejects_an_int_bit_in_a_row_equal_in_value_to_the_last(tmp_path, capsys):
    # JSON 1 == true, so the row equals the one before it in value, not in type
    lines = _trace_lines(tmp_path)
    row = next(i for i in range(2, len(lines))
               if _body(lines[i]) == _body(lines[i - 1]) and '[true,false,false]' in lines[i])
    lines[row] = lines[row].replace("[true,false,false]", "[1,false,false]", 1)
    assert json.loads(lines[row])["obs"] == json.loads(lines[row - 1])["obs"]
    _verify_exits_input(tmp_path, capsys, lines, row)


def _retype_one(row, field):
    """Turn the first 1 of ``row[field]`` into true, in place; False if
    there is none."""
    for item in row[field]:
        for position, value in enumerate(item):
            if type(value) is int and value == 1:
                item[position] = True
                return True
    return False


@pytest.mark.parametrize("field", ["moves", "occ"])
def test_verify_rejects_a_true_in_values_equal_to_the_last_rows(tmp_path, capsys, field):
    # the next row repeats a row's moves and occ with one 1 as true: equal
    # in value to the values the row before it carried, not in type
    lines = _trace_lines(tmp_path)
    r = next(r for r in range(1, len(lines) - 1) if _retype_one(json.loads(lines[r]), field))
    row = json.loads(lines[r])
    _retype_one(row, field)
    row.update({key: json.loads(lines[r + 1])[key] for key in ("round", "phase", "rip")})
    lines[r + 1] = json.dumps(row, separators=(",", ":"))
    assert json.loads(lines[r + 1])[field] == json.loads(lines[r])[field]
    _verify_exits_input(tmp_path, capsys, lines, r + 1)


def test_verify_rejects_obs_null_after_a_verbose_row(tmp_path, capsys):
    lines = _trace_lines(tmp_path)
    lines[9] = lines[9].split(',"obs":')[0] + ',"obs":null}'
    _verify_exits_input(tmp_path, capsys, lines, 9)


def test_verify_names_the_first_bad_row_in_file_order(tmp_path, capsys):
    # a malformed row is reported while the file is read, before a later
    # row that is not JSON
    lines = _trace_lines(tmp_path)
    lines[3] = lines[3].replace("false", "0", 1)
    lines[9] = lines[9][:-1]
    _verify_exits_input(tmp_path, capsys, lines, 3)


def _verify_livelock_prints(tmp_path, capsys, rows, rounds):
    """``verify``'s exit code and output on the first ``rows`` rows of the
    criterion-8 chain's literal trace, a livelock of 76 rows, with the
    header's ``rounds`` set to ``rounds``; cut short, the rows still do not
    end dispersed, so the header's result holds."""
    path = tmp_path / "trace.jsonl"
    write_trace(run(_CRITERION_8_CHAIN, Ruleset.LITERAL), path)
    lines = path.read_text().splitlines()
    assert len(lines) == 1 + 4 * 19
    header = json.loads(lines[0])
    assert header["result"] == "livelock"
    header["rounds"] = rounds
    path.write_text("\n".join([json.dumps(header), *lines[1:1 + rows]]) + "\n")
    scenario_path = tmp_path / "chain.scn"
    scenario_path.write_text(render_scenario(_CRITERION_8_CHAIN))
    capsys.readouterr()
    code = main(["verify", "--trace", str(path), "--scenario", str(scenario_path)])
    return code, capsys.readouterr().out


@pytest.mark.parametrize("rows", [0, 1, 18, 25, 75, 57])
def test_verify_reports_rows_that_are_not_whole_phases(tmp_path, capsys, rows):
    # every run ends on a phase boundary, so only whole phases verify clean
    code, out = _verify_livelock_prints(tmp_path, capsys, rows, rows)
    if rows and rows % 19 == 0:
        assert (code, out) == (0, "0 violations\n")
    else:
        assert code == 1
        assert out == (f"violation: trace has {rows} rows, not a positive multiple of 19: "
                       f"a run ends on a phase boundary\n1 violations\n")


@pytest.mark.parametrize("rounds", [True, 1.0, 76.0, "76", None, [76]],
                         ids=["true", "float-1", "float-76", "string", "null", "list"])
@pytest.mark.parametrize("rows", [1, 76])
def test_verify_reports_header_rounds_that_are_not_an_integer(tmp_path, capsys, rounds, rows):
    # JSON true and 1.0 equal 1, so a count check alone takes them
    code, out = _verify_livelock_prints(tmp_path, capsys, rows, rounds)
    assert code == 1
    assert out.startswith(f"violation: trace header rounds {rounds!r} is not an integer\n")
    assert out.endswith(f"{1 if rows == 76 else 2} violations\n"), out


def test_tampered_row_inside_a_run_of_quiet_rows_is_reported(tmp_path):
    # the rows before and after the tampered one share one decoded body
    scenario = _CRITERION_8_CHAIN
    outcome = run(scenario)
    path = tmp_path / "trace.jsonl"
    write_trace(outcome, path, verbose=True)
    lines = path.read_text().splitlines()
    records = outcome.trace.records
    # record r is file line r + 1
    r = next(r for r in range(1, len(records) - 1)
             if _body(lines[r]) == _body(lines[r + 1]) == _body(lines[r + 2]))
    flipped = _flip_robot_1(records[r].observations)
    row = json.loads(lines[r + 1])
    row["obs"] = {str(label): [seen.alone, seen.increase, seen.decrease]
                  for label, seen in sorted(flipped.items())}
    lines[r + 1] = json.dumps(row, separators=(",", ":"))
    path.write_text("\n".join(lines) + "\n")
    header, read = read_trace(path)
    from_file = verify_trace_file(header, read, scenario)
    records = records[:r] + [dataclasses.replace(records[r], observations=flipped)] + \
        records[r + 1:]
    trace = dataclasses.replace(outcome.trace, records=records)
    from_memory = [str(v) for v in validate_trace(trace, scenario)]
    assert from_file == from_memory
    assert from_file and all(problem.startswith("[perception-replay]") for problem in from_file)


def _traced_file_size(n, tmp_path):
    """Record, write, read and verify one k=8 single-source run on ring size
    n; the same seed draws the same labels for every n."""
    scenario = gen_single_source(n, 8, 255, seed=7)
    outcome = run(scenario)
    assert outcome.dispersed
    assert validate_trace(outcome.trace, scenario) == []
    path = tmp_path / f"ring-{n}.jsonl"
    write_trace(outcome, path, verbose=True)
    header, records = read_trace(path)
    assert len(records) == outcome.rounds_used
    assert all(len(record.occupancy) <= scenario.k for record in records)
    assert verify_trace_file(header, records, scenario) == []
    return path.stat().st_size


def test_trace_cost_is_flat_in_ring_size(tmp_path):
    small = _traced_file_size(10**3, tmp_path)
    large = _traced_file_size(10**6, tmp_path)
    assert abs(large - small) <= 0.01 * small


def _reference_write_trace(outcome, path, verbose=False):
    """The json.dumps row writer that write_trace's direct formatting
    replaced, kept as the reference for its bytes."""
    trace = outcome.trace
    with open(path, "w", encoding="utf-8") as fh:
        header = {
            "format": TRACE_FORMAT,
            "scenario": _scenario_json(trace.scenario),
            "ruleset": trace.ruleset.value,
            "result": outcome.result.value,
            "rounds": outcome.rounds_used,
        }
        fh.write(json.dumps(header, separators=(",", ":")) + "\n")
        for record in trace.records:
            row = {
                "round": record.global_round,
                "phase": record.phase,
                "rip": record.round_in_phase,
                "moves": [list(move) for move in record.moves],
                "occ": [list(cell) for cell in record.occupancy],
            }
            if verbose:
                row["obs"] = {
                    str(label): [obs.alone, obs.increase, obs.decrease]
                    for label, obs in sorted(record.observations.items())
                }
            fh.write(json.dumps(row, separators=(",", ":")) + "\n")


@pytest.mark.parametrize("ruleset", list(Ruleset), ids=lambda r: r.value)
def test_write_trace_matches_the_json_dumps_writer(tmp_path, ruleset):
    criterion_8_chain = make_scenario(7, 7, ((1, 0), (2, 0), (3, 1), (4, 1)))
    sample = random.Random(13).sample(list(enumerate_scenarios(6, 4, 7)), 40)
    large = gen_single_source(10**4, 8, 1023, seed=7)
    for scenario in [criterion_8_chain, *sample, large]:
        outcome = run(scenario, ruleset)
        for verbose in (False, True):
            _reference_write_trace(outcome, tmp_path / "reference.jsonl", verbose)
            write_trace(outcome, tmp_path / "trace.jsonl", verbose)
            assert (tmp_path / "trace.jsonl").read_bytes() == \
                (tmp_path / "reference.jsonl").read_bytes(), (scenario, verbose)


def test_write_trace_refuses_an_unrecorded_run(tmp_path):
    # the run livelocks after 228 rounds, none of them recorded: a header
    # claiming them over no rows would fail verify
    scenario = make_scenario(5, 7, [(0, 0), (1, 0), (3, 4), (5, 4)])
    outcome = run(scenario, Ruleset.REPAIRED, record_rounds=False)
    assert outcome.rounds_used == 228
    with pytest.raises(ValueError, match="not recorded"):
        write_trace(outcome, tmp_path / "trace.jsonl")
    assert not (tmp_path / "trace.jsonl").exists()


# row 2 of the verbose criterion 8 trace: a move, two occupied nodes, and
# observations that hold true and false
_ROW_2 = ('{"round":1,"phase":1,"rip":2,"moves":[[2,0,1,1]],"occ":[[1,3],[2,1]],"obs":{'
          '"1":[false,false,false],"2":[true,false,true],"3":[true,false,false],'
          '"4":[false,false,false]}}')


@pytest.mark.parametrize("old, new, message", [
    ('"2":[true,', '"2":[1,', "TypeError('[1, False, True] is not three booleans')"),
    ('"1":[false,', '"1":[0,', "TypeError('[0, False, False] is not three booleans')"),
    ('"moves":[[2,', '"moves":[[true,', "TypeError('(True, 0, 1, 1) are not all integers')"),
    ('[[1,3]', '[[1,true]', "TypeError('(1, True) are not all integers')"),
    ('"round":1,', '"round":true,', "TypeError('(True, 1, 2) are not all integers')"),
], ids=["obs-1-for-true", "obs-0-for-false", "move-label-true", "occ-count-true",
        "round-true"])
def test_read_trace_keeps_json_booleans_and_integers_apart(tmp_path, old, new, message):
    # 1 == True in Python, so only the exact type tells them apart; each
    # row is rejected with the message pinned here
    path = tmp_path / "trace.jsonl"
    write_trace(run(_CRITERION_8_CHAIN), path, verbose=True)
    lines = path.read_text().splitlines()
    assert lines[2] == _ROW_2
    lines[2] = _ROW_2.replace(old, new, 1)
    path.write_text("\n".join(lines) + "\n")
    assert _read_or_message(path) == f"trace row 2 is malformed: {message}"


def test_trace_bytes_are_deterministic(rooted_scenario, tmp_path):
    a = tmp_path / "a.jsonl"
    b = tmp_path / "b.jsonl"
    main(["run", "--scenario", str(rooted_scenario), "--trace", str(a), "--verbose"])
    main(["run", "--scenario", str(rooted_scenario), "--trace", str(b), "--verbose"])
    assert a.read_bytes() == b.read_bytes()


def test_sweep_empty_range_headers_only(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    code = main(["sweep", "--vary", "k", "--from", "5", "--to", "4",
                 "--seeds", "2", "--out", str(out)])
    assert code == 0
    assert out.read_text().splitlines() == ["n,k,L,seed,ruleset,outcome,rounds,phases"]


def test_sweep_rows_and_fit(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    code = main(["sweep", "--vary", "k", "--from", "2", "--to", "4",
                 "--seeds", "3", "--n", "8", "--maxlabel", "15", "--out", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "n,k,L,seed,ruleset,outcome,rounds,phases"
    assert len(lines) == 1 + 3 * 3
    assert all(line.count(",") == 7 for line in lines[1:])
    assert "rounds ~" in capsys.readouterr().out


def test_sweep_infeasible_rows_recorded_not_fatal(tmp_path):
    out = tmp_path / "sweep.csv"
    code = main(["sweep", "--vary", "L", "--from", "1", "--to", "3", "--step", "2",
                 "--seeds", "1", "--n", "8", "--k", "4", "--out", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()[1:]
    assert any("error:" in line for line in lines)  # L=1 cannot label 4 robots
    assert any("dispersed" in line for line in lines)


def test_sweep_robot_counts_below_one_are_error_rows(capsys):
    code = main(["sweep", "--vary", "k", "--from", "-1", "--to", "2",
                 "--n", "10", "--maxlabel", "15", "--seeds", "1"])
    assert code == 0
    captured = capsys.readouterr()
    rows = captured.out.splitlines()[1:5]
    assert rows[:2] == ["10,-1,15,0,repaired,error:at least one robot required,0,0",
                        "10,0,15,0,repaired,error:at least one robot required,0,0"]
    assert [row.split(",")[5] for row in rows[2:]] == ["dispersed", "dispersed"]
    assert captured.err == ""


def test_sweep_quotes_an_error_message_that_holds_a_comma(capsys):
    code = main(["sweep", "--vary", "L", "--from", "2", "--to", "3", "--n", "8",
                 "--k", "4", "--seeds", "2"])
    assert code == 0
    lines = capsys.readouterr().out.splitlines()[:5]
    rows = list(csv.reader(lines))
    assert [len(row) for row in rows] == [8] * 5
    message = "error:cannot draw 4 distinct labels from [0, 2]"
    assert [row[5] for row in rows[1:]] == [message, message, "dispersed", "dispersed"]
    # a row without a comma in any field is written as it always was
    assert lines[3:] == [",".join(row) for row in rows[3:]]


@pytest.mark.parametrize("step", [0, -1])
def test_sweep_rejects_step_below_one(tmp_path, capsys, step):
    out = tmp_path / "sweep.csv"
    code = main(["sweep", "--vary", "k", "--from", "2", "--to", "4",
                 "--step", str(step), "--out", str(out)])
    assert code == 4
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


@pytest.mark.parametrize("seeds", [0, -2])
def test_sweep_rejects_seeds_below_one(capsys, seeds):
    code = main(["sweep", "--vary", "k", "--from", "2", "--to", "3",
                 "--seeds", str(seeds), "--n", "8"])
    assert code == 4
    captured = capsys.readouterr()
    assert captured.err == f"error: --seeds must be at least 1, not {seeds}\n"
    assert captured.out == ""


@pytest.mark.parametrize("argv", [
    ["sweep", "--vary", "k", "--from", "2", "--to", "1000000000000"],
    ["sweep", "--vary", "k", "--from", "2", "--to", "3", "--seeds", "1000000000000"],
    ["search", "--n-max", "1000000000000", "--k-max", "0", "--l-max", "7"],
    ["search", "--n-max", "1000000000000", "--k-max", "4", "--l-max", "-1"],
    ["search", "--n-max", "2", "--k-max", "1", "--l-max", "3"],
], ids=["sweep-to", "sweep-seeds", "search-k-max", "search-l-max", "search-n-max"])
def test_unbounded_input_exits_input_fast(capsys, argv):
    start = time.process_time()
    assert main(argv) == 4
    assert time.process_time() - start < 1.0
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and captured.out == ""


@pytest.mark.parametrize("argv", [
    ["sweep", "--vary", "k", "--from", "2", "--to", "3", "--seeds", "1", "--n", "8"],
    ["search", "--n-max", "4", "--k-max", "2", "--l-max", "3"],
], ids=["sweep", "search"])
def test_malformed_worker_count_exits_input(monkeypatch, capsys, argv):
    monkeypatch.setenv("RINGDISPERSE_WORKERS", "abc")
    assert main(argv) == 4
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "RINGDISPERSE_WORKERS" in err


@pytest.mark.parametrize("command", ["run", "sweep", "search"])
def test_unwritable_output_path_exits_input(chain_scenario, tmp_path, capsys, command):
    # a missing parent directory for a file, or a file where the output
    # directory's parent must be: a one-line error, no traceback
    blocker = tmp_path / "blocker"
    blocker.write_text("")
    path, argv = {
        "run": (tmp_path / "missing" / "trace.jsonl",
                ["run", "--scenario", str(chain_scenario), "--trace"]),
        "sweep": (tmp_path / "missing" / "sweep.csv",
                  ["sweep", "--vary", "k", "--from", "2", "--to", "3", "--seeds", "1",
                   "--n", "8", "--out"]),
        "search": (blocker / "findings",
                   ["search", "--n-max", "4", "--k-max", "2", "--l-max", "3", "--out-dir"]),
    }[command]
    assert main(argv + [str(path)]) == 4
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: ") and err.count("\n") == 1, err
    assert not path.exists()


@pytest.mark.parametrize("command", ["run", "sweep", "search"])
def test_bad_output_path_is_caught_before_the_work(chain_scenario, tmp_path, capsys,
                                                   monkeypatch, command):
    # the path is tried first: no run starts and no report is printed
    import ringdisperse.cli as cli_module

    def no_work(*args, **kwargs):
        raise AssertionError("the work started before the output path was tried")

    blocker = tmp_path / "blocker"
    blocker.write_text("")
    work, path, argv = {
        "run": ("run", blocker / "trace.jsonl",
                ["run", "--scenario", str(chain_scenario), "--trace"]),
        "sweep": ("run_sweep", tmp_path / "missing" / "sweep.csv",
                  ["sweep", "--vary", "k", "--from", "2", "--to", "3", "--seeds", "1",
                   "--n", "8", "--out"]),
        "search": ("exhaustive_search", blocker / "findings",
                   ["search", "--n-max", "4", "--k-max", "2", "--l-max", "3", "--out-dir"]),
    }[command]
    monkeypatch.setattr(cli_module, work, no_work)
    assert main(argv + [str(path)]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {path}: ") and captured.err.count("\n") == 1


def test_output_path_try_leaves_no_file(tmp_path, capsys, monkeypatch):
    # a sweep that fails after the try leaves no file that the try made, and
    # an existing file as it was
    monkeypatch.setenv("RINGDISPERSE_WORKERS", "abc")
    argv = ["sweep", "--vary", "k", "--from", "2", "--to", "3", "--seeds", "1", "--n", "8",
            "--out"]
    made = tmp_path / "made.csv"
    assert main(argv + [str(made)]) == 4
    assert not made.exists()
    kept = tmp_path / "kept.csv"
    kept.write_text("old\n")
    assert main(argv + [str(kept)]) == 4
    assert kept.read_text() == "old\n"


def test_search_with_labels_below_robots_warns_once(capsys):
    # the literal rules fail on ring 4 with three robots and labels 0..2,
    # so both the enumeration and the minimization build k > L scenarios
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["search", "--n-max", "4", "--k-max", "3", "--l-max", "2",
                     "--ruleset", "literal"])
    captured = capsys.readouterr()
    assert code == 0 and "no failures" not in captured.out
    assert captured.err == ("warning: --l-max 2 is below the robot count 3 of some "
                            "scenarios; the protocol assumes L >= k\n")
    assert main(["search", "--n-max", "4", "--k-max", "3", "--l-max", "3"]) == 0
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("workers", ["1", "2"])
def test_run_and_verify_with_labels_below_robots_warn_once(tmp_path, capsys, monkeypatch,
                                                           workers):
    monkeypatch.setenv("RINGDISPERSE_WORKERS", workers)
    scenario = tmp_path / "low.scn"
    scenario.write_text("ring 6\nmaxlabel 2\nrobot 0 0\nrobot 1 0\nrobot 2 0\n")
    trace = tmp_path / "low.jsonl"
    said = "warning: maxlabel 2 below robot count 3; the protocol assumes L >= k\n"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["run", "--scenario", str(scenario), "--trace", str(trace)])
        captured = capsys.readouterr()
        assert captured.err == said
        assert captured.out.startswith(("dispersed:", "livelock:", "budget-exceeded:"))
        assert code in (0, 2, 3) and trace.exists()
        assert main(["verify", "--scenario", str(scenario), "--trace", str(trace)]) == 0
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("0 violations\n", said)


@pytest.mark.parametrize("workers", ["1", "2"])
def test_sweep_with_labels_below_robots_warns_once(capsys, monkeypatch, workers):
    # 20 runs, past the serial cutoff, so two workers build the rows in a pool
    monkeypatch.setenv("RINGDISPERSE_WORKERS", workers)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["sweep", "--vary", "L", "--from", "2", "--to", "3", "--n", "8",
                     "--k", "4", "--seeds", "10"])
    captured = capsys.readouterr()
    assert code == 0
    outcomes = [row[5] for row in csv.reader(captured.out.splitlines()[1:21])]
    assert all(outcome.startswith("error:cannot draw 4") for outcome in outcomes[:10])
    assert all(outcome in ("dispersed", "livelock") for outcome in outcomes[10:])
    assert captured.err == "warning: maxlabel 3 below robot count 4; the protocol assumes L >= k\n"


def test_search_writes_report_and_findings(tmp_path, capsys):
    out_dir = tmp_path / "findings"
    code = main(["search", "--n-max", "4", "--k-max", "2", "--l-max", "3",
                 "--out-dir", str(out_dir)])
    assert code == 0
    report = (out_dir / "report.txt").read_text()
    assert "dispersed" in report
    assert "trace validation violations: 0" in report
