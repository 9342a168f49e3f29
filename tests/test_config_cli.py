"""Config parsing and the command line."""

import argparse
import csv
import hashlib
import json
import re
import subprocess
import sys
import time
from datetime import timedelta
from pathlib import Path

import pytest

from streamqc import cli, config, connectors, expression
from streamqc.cli import HASH_SEED_ENV, _hash_seed, main
from streamqc.config import (
    ConfigError,
    load_config,
    parse_config,
    resolve_path,
    semantic_errors,
)
from streamqc.model import (
    MAX_PANES_PER_ROW,
    ModelError,
    Param,
    Predicate,
    Threshold,
    ValueRange,
    WindowSpec,
    format_ts,
    parse_ts,
)

from helpers import T0, assign_sliding, assign_tumbling, run_cli_child


def base_config():
    return {
        "source": {
            "kind": "csv",
            "path": "stream.csv",
            "event_time": "t",
            "schema": [
                {"name": "t", "type": "timestamp"},
                {"name": "fare", "type": "float", "nullable": True},
                {"name": "zone", "type": "text"},
            ],
        },
        "window": {"kind": "tumbling", "duration": "1m"},
        "checks": [
            {"id": "fare_mean",
             "measure": {"id": "mean", "column": "fare"},
             "constraint": {"op": "<=", "bound": 10.0}},
        ],
    }


def parse_errors(obj):
    with pytest.raises(ConfigError) as err:
        parse_config(obj)
    return err.value.errors


# ---------------------------------------------------------------------------
# Parsing


def test_parse_minimal_config():
    cfg = parse_config(base_config())
    assert cfg.source.kind == "csv" and cfg.source.path == "stream.csv"
    assert cfg.window == WindowSpec("tumbling", duration=timedelta(minutes=1))
    assert cfg.checks[0].id == "fare_mean"
    assert cfg.checks[0].measure.params == {"column": "fare"}
    assert cfg.checks[0].constraint == Threshold("<=", 10.0)
    assert cfg.engine.hash_seed == 0


def test_unknown_keys_rejected_with_path():
    obj = base_config()
    obj["surprise"] = 1
    obj["source"]["compression"] = "zstd"
    obj["window"]["step"] = "1m"
    obj["checks"][0]["severity"] = "high"
    messages = parse_errors(obj)
    joined = "\n".join(messages)
    assert "config: unknown" in joined and "'surprise'" in joined
    assert "source: unknown" in joined and "'compression'" in joined
    assert "window: unknown" in joined and "'step'" in joined
    assert "checks[0]: unknown" in joined and "'severity'" in joined
    assert len(messages) == 4  # every problem reported in one pass
    # Nested levels carry their own path once the level above is clean.
    nested = base_config()
    nested["checks"][0]["constraint"]["slack"] = 2
    assert any("checks[0].constraint" in m and "'slack'" in m
               for m in parse_errors(nested))


def test_missing_required_keys():
    messages = parse_errors({"window": {"kind": "tumbling", "duration": "1m"}})
    joined = "\n".join(messages)
    assert "'source'" in joined and "'checks'" in joined


def test_event_time_must_be_timestamp_column():
    obj = base_config()
    obj["source"]["event_time"] = "fare"
    assert any("must have type timestamp" in m for m in parse_errors(obj))
    obj["source"]["event_time"] = "ghost"
    assert any("not in the schema" in m for m in parse_errors(obj))


def test_socket_source_takes_address():
    obj = base_config()
    obj["source"]["kind"] = "socket"
    assert any("address" in m for m in parse_errors(obj))
    del obj["source"]["path"]
    obj["source"]["address"] = "tcp://localhost:9000"
    cfg = parse_config(obj)
    assert cfg.source.address == "tcp://localhost:9000"


def test_secondary_socket_rejected():
    obj = base_config()
    obj["secondary_source"] = {
        "kind": "socket", "address": "tcp://h:1", "event_time": "t",
        "schema": [{"name": "t", "type": "timestamp"}]}
    assert any("secondary" in m for m in parse_errors(obj))


def test_replay_forms():
    obj = base_config()
    obj["source"]["replay"] = "fast"
    assert parse_config(obj).source.replay_mode == "fast"
    obj["source"]["replay"] = {"mode": "scaled", "factor": 60}
    cfg = parse_config(obj)
    assert cfg.source.replay_mode == "scaled" and cfg.source.replay_factor == 60.0
    obj["source"]["replay"] = {"mode": "scaled", "factor": 0}
    assert any("factor" in m for m in parse_errors(obj))
    obj["source"]["replay"] = "slow"
    assert parse_errors(obj)


@pytest.mark.parametrize("factor", ["NaN", "Infinity", "-Infinity"])
def test_replay_factor_must_be_finite(tmp_path, factor):
    # Python's json reads NaN and Infinity; a scaled replay cannot pace by either.
    obj = base_config()
    obj["source"]["replay"] = {"mode": "scaled", "factor": 1.0}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(obj).replace('"factor": 1.0', f'"factor": {factor}'))
    with pytest.raises(ConfigError) as err:
        load_config(str(path))
    assert err.value.errors == ["source.replay: factor must be a positive number"]


def test_constraint_forms():
    obj = base_config()
    obj["checks"][0]["constraint"] = {"range": [5, 10], "inclusive": [True, False]}
    assert parse_config(obj).checks[0].constraint == ValueRange(5, 10, True, False)
    obj["checks"][0]["constraint"] = {"predicate": "value <= 10"}
    assert parse_config(obj).checks[0].constraint == Predicate("value <= 10")
    obj["checks"][0]["constraint"] = {"bound": 10.0}
    assert any("'op'" in m or "op" in m for m in parse_errors(obj))
    obj["checks"][0]["constraint"] = {"range": [10, 5]}
    assert any("lo <= hi" in m for m in parse_errors(obj))


def test_constraint_timestamp_bounds_parse():
    obj = base_config()
    obj["checks"][0]["measure"] = {"id": "max", "column": "t"}
    obj["checks"][0]["constraint"] = {"op": "<", "bound": "2015-05-08T00:00:00.000Z"}
    cfg = parse_config(obj)
    assert cfg.checks[0].constraint.bound == parse_ts("2015-05-08T00:00:00Z")


def test_window_forms_and_errors():
    obj = base_config()
    obj["window"] = {"kind": "sliding", "duration": "5m", "slide": "1m",
                     "allowed_lateness": "3m", "key_by": "zone"}
    cfg = parse_config(obj)
    assert cfg.window.slide == timedelta(minutes=1)
    assert cfg.window_key_by == "zone"
    obj["window"] = {"kind": "session", "gap": "2m"}
    assert parse_config(obj).window.gap == timedelta(minutes=2)
    obj["window"] = {"kind": "hopping", "duration": "1m"}
    assert parse_errors(obj)
    obj["window"] = {"kind": "tumbling", "duration": "soon"}
    assert any("duration" in m for m in parse_errors(obj))
    obj["window"] = {"kind": "tumbling", "duration": "1m", "key_by": "ghost"}
    assert any("window.key_by" in m for m in parse_errors(obj))


def test_context_and_reference_blocks():
    obj = base_config()
    obj["checks"][0]["constraint"] = {"predicate": "value <= ref_cap + sigma_H"}
    obj["checks"][0]["context"] = {"horizon": "10m", "statistics": ["sigma_H"]}
    obj["checks"][0]["reference"] = {"table": "caps", "key": "hour_of(window_start)"}
    obj["references"] = [{"id": "caps", "path": "caps.csv", "key": "hour"}]
    cfg = parse_config(obj)
    check = cfg.checks[0]
    assert check.context.horizon == timedelta(minutes=10)
    assert check.context.statistics == ("sigma_H",)
    assert check.reference.table == "caps"
    assert cfg.references[0].path == "caps.csv"
    obj["references"].append({"id": "caps", "path": "x.csv", "key": "h"})
    assert any("duplicate reference id" in m for m in parse_errors(obj))


def test_engine_bounds():
    obj = base_config()
    obj["engine"] = {"hash_seed": 2 ** 64}
    assert any("hash_seed" in m for m in parse_errors(obj))
    obj["engine"] = {"hash_seed": 7}
    assert parse_config(obj).engine.hash_seed == 7


def test_detectors_block():
    obj = base_config()
    obj["detectors"] = {
        "dead": {"threshold": "3m", "restart": "manual"},
        "frozen": [{"column": "fare", "windows": 3, "key_by": "zone"}],
    }
    cfg = parse_config(obj)
    assert cfg.detectors.dead.threshold == timedelta(minutes=3)
    assert cfg.detectors.frozen[0].windows == 3
    obj["detectors"]["frozen"][0]["windows"] = "three"
    assert any("windows" in m for m in parse_errors(obj))


# ---------------------------------------------------------------------------
# Normalization round trip


def maximal_config():
    obj = base_config()
    obj["source"]["watermark_delay"] = "30s"
    obj["source"]["replay"] = {"mode": "scaled", "factor": 60}
    obj["source"]["formats"] = {"t": "iso"}
    obj["window"] = {"kind": "sliding", "duration": "5m", "slide": "1m",
                     "allowed_lateness": "2m", "origin": "2015-01-01T00:00:00.000Z",
                     "key_by": "zone"}
    obj["checks"] = [
        {"id": "fare_mean",
         "measure": {"id": "mean", "column": "fare"},
         "constraint": {"predicate": "value <= mu_H + 3 * sigma_H"},
         "context": {"horizon": "15m"},
         "null_verdict": "skip"},
        {"id": "fare_cap",
         "measure": {"id": "max", "column": "fare"},
         "constraint": {"op": "<=", "bound": 500.0},
         "reference": {"table": "caps", "key": "hour_of(window_start)"},
         "key_by": "zone"},
        {"id": "fare_band",
         "measure": {"id": "valid_range", "column": "fare", "lo": 0.0},
         "constraint": {"range": [0.9, 1.0], "inclusive": [False, True]},
         "emit_per_element": True},
    ]
    obj["secondary_source"] = {
        "kind": "jsonl", "path": "other.jsonl", "event_time": "t",
        "schema": [{"name": "t", "type": "timestamp"},
                   {"name": "zone", "type": "text"}]}
    obj["references"] = [{"id": "caps", "path": "caps.csv", "key": "hour"}]
    obj["detectors"] = {"dead": {"threshold": "5m"},
                        "frozen": [{"column": "fare", "windows": 4}]}
    obj["sinks"] = {"meta": "meta.jsonl", "side": "side.jsonl"}
    obj["engine"] = {"hash_seed": 11}
    return obj


# One value of each JSON kind, and the awkward ones: a value of any of
# these in any place of a config is an answer or a ConfigError.
FUZZ_VALUES = [None, True, 0, -1, 2.5, float("inf"), "", "x", "1m", [], [1], {}, {"a": 1}]


def _places(node, path=()):
    """The path of every key (and list index) of a JSON value, at every depth."""
    items = node.items() if isinstance(node, dict) else (
        enumerate(node) if isinstance(node, list) else ())
    for key, child in items:
        yield path + (key,)
        yield from _places(child, path + (key,))


def _replaced(obj, path, value):
    obj = json.loads(json.dumps(obj))
    node = obj
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return obj


def test_every_value_of_every_kind_in_every_place_is_an_answer_or_a_config_error(tmp_path):
    """A wrong JSON kind anywhere in a config is a ConfigError, never an
    AttributeError or TypeError, and semantic_errors of whatever parses is
    a list: `streamqc validate` never prints a traceback."""
    (tmp_path / "caps.csv").write_text("hour,cap\n11,10.0\n")
    (tmp_path / "other.jsonl").write_text(
        '{"t": "2015-05-07T11:00:00.000Z", "zone": "airport"}\n')
    cfg_path = str(tmp_path / "config.json")
    base = maximal_config()
    places = list(_places(base))
    assert len(places) > 80
    parsed = 0
    for path in places:
        for value in FUZZ_VALUES:
            obj = _replaced(base, path, value)
            try:
                cfg = parse_config(obj)
            except ConfigError as exc:
                assert exc.errors and all(isinstance(e, str) for e in exc.errors), (path, value)
                continue
            parsed += 1
            assert isinstance(semantic_errors(cfg, cfg_path), list), (path, value)
    assert parsed > 0


@pytest.mark.parametrize("path,value", [
    (("window", "origin"), 5),
    (("checks", 0, "context", "horizon"), []),
    (("source", "schema", 1, "name"), ["fare"]),
], ids=["origin-number", "horizon-list", "column-name-list"])
def test_cli_validate_of_a_wrong_json_kind_prints_only_error_lines(tmp_path, capsys, path, value):
    cfg_path = write_config(tmp_path, _replaced(maximal_config(), path, value))
    assert main(["validate", cfg_path]) == 1
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert lines and all(line.startswith("error: ") for line in lines), lines
    assert captured.out == ""


def test_readme_configuration_names_every_key_of_every_config_table():
    """Each key a config section's table accepts is named in README's
    `## Configuration` section, as "key" or `key`."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Configuration\n", 1)[1].split("\n## ", 1)[0]
    tables = [table for table in vars(config).values()
              if isinstance(table, dict) and table
              and all(isinstance(param, Param) for param in table.values())]
    assert len(tables) >= 15
    missing = sorted({key for table in tables for key in table
                      if f'"{key}"' not in section and f"`{key}`" not in section})
    assert missing == []


def test_resolve_path():
    assert resolve_path("/etc/suite/config.json", "data.csv") == "/etc/suite/data.csv"
    assert resolve_path("/etc/suite/config.json", "/var/data.csv") == "/var/data.csv"


# ---------------------------------------------------------------------------
# Semantic validation


def write_config(tmp_path, obj, name="config.json"):
    p = tmp_path / name
    p.write_text(json.dumps(obj))
    return str(p)


def stream_rows(n=10, start_s=0, step_s=10, fare=lambda i: 5.0 + i):
    rows = []
    for i in range(n):
        s = start_s + i * step_s
        rows.append([f"2015-05-07T11:{s // 60:02d}:{s % 60:02d}.000Z",
                     f"{fare(i)}", "uptown" if i % 2 else "airport"])
    return rows


def write_stream(tmp_path, rows=None, name="stream.csv"):
    p = tmp_path / name
    with open(p, "w", newline="") as fp:
        w = csv.writer(fp)
        w.writerow(["t", "fare", "zone"])
        w.writerows(rows or stream_rows())
    return str(p)


def test_semantic_errors_clean(tmp_path):
    write_stream(tmp_path)
    cfg_path = write_config(tmp_path, base_config())
    assert semantic_errors(load_config(cfg_path), cfg_path) == []


def test_semantic_errors_catch_suite_problems(tmp_path):
    obj = base_config()
    obj["checks"][0]["measure"] = {"id": "mean", "column": "ghost"}
    cfg_path = write_config(tmp_path, obj)
    errors = semantic_errors(load_config(cfg_path), cfg_path)
    assert any("ghost" in e for e in errors)


def test_semantic_errors_load_references(tmp_path):
    (tmp_path / "caps.csv").write_text("hour,cap\n11,10.0\n")
    obj = base_config()
    obj["checks"][0]["constraint"] = {"predicate": "value <= ref_cap"}
    obj["checks"][0]["reference"] = {"table": "caps", "key": "hour_of(window_start)"}
    obj["references"] = [{"id": "caps", "path": "caps.csv", "key": "hour"}]
    cfg_path = write_config(tmp_path, obj)
    assert semantic_errors(load_config(cfg_path), cfg_path) == []
    # A broken table file surfaces as a message, not an exception.
    (tmp_path / "caps.csv").write_text("hour,cap\n")
    assert semantic_errors(load_config(cfg_path), cfg_path)


def test_semantic_errors_reject_secondary_with_sessions(tmp_path):
    obj = maximal_config()
    obj["window"] = {"kind": "session", "gap": "1m"}
    obj["checks"] = [{"id": "m", "measure": {"id": "match_ratio", "on": "zone"},
                      "constraint": {"op": ">=", "bound": 0.9}}]
    del obj["detectors"]  # dead-stream detection is grid-only as well
    (tmp_path / "caps.csv").write_text("hour,cap\n11,10.0\n")
    cfg_path = write_config(tmp_path, obj)
    errors = semantic_errors(load_config(cfg_path), cfg_path)
    assert any("secondary sources require" in e for e in errors)


# ---------------------------------------------------------------------------
# CLI


def cli_setup(tmp_path, config_mutator=None, rows=None):
    write_stream(tmp_path, rows=rows)
    obj = base_config()
    if config_mutator:
        config_mutator(obj)
    return write_config(tmp_path, obj)


def test_cli_validate_ok(tmp_path, capsys):
    cfg_path = cli_setup(tmp_path)
    assert main(["validate", cfg_path]) == 0
    err = capsys.readouterr().err
    assert "ok: 1 check" in err and "tumbling windows" in err


def test_cli_validate_bad_config(tmp_path, capsys):
    cfg_path = cli_setup(tmp_path, lambda o: o["checks"][0]["measure"].update(
        {"id": "meen"}))
    assert main(["validate", cfg_path]) == 1
    assert "error:" in capsys.readouterr().err


def test_cli_validate_missing_file(tmp_path, capsys):
    assert main(["validate", str(tmp_path / "nope.json")]) == 1
    assert "error:" in capsys.readouterr().err


def test_cli_validate_invalid_json(tmp_path, capsys):
    p = tmp_path / "bad.json"
    p.write_text("{not json")
    assert main(["validate", str(p)]) == 1
    assert "invalid JSON" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["validate", "run", "generate"])
def test_cli_config_that_is_not_utf8_is_an_error_line(tmp_path, capsys, command):
    p = tmp_path / "bad.json"
    p.write_bytes(b'{"seed": "\xff"}')
    argv = [command, str(p)]
    if command == "generate":
        argv += ["--out", str(tmp_path / "o.csv"), "--manifest", str(tmp_path / "m.jsonl")]
    assert main(argv) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and "invalid JSON" in err[0]
    assert "can't decode byte 0xff" in err[0]


# A stream whose text cells hold bytes that are not UTF-8 (and, in JSONL, a
# lone-surrogate escape), checked on a session key, exact and approx
# distinct counts and uniqueness of the same column; one fare cell is a
# byte that is not UTF-8 as well.
HOSTILE_ROWS = [(b"11:00:00", b"\xed", b"1.0"), (b"11:00:01", b"a\xffb", b"2.0"),
                (b"11:00:02", b"a\xffb", b"\xff"), (b"11:00:03", b"\xfe", b"3.0")]


@pytest.mark.parametrize("kind", ["csv", "jsonl"])
def test_cli_run_assesses_text_that_is_not_utf8(tmp_path, capsys, kind):
    if kind == "csv":
        body = b"t,zone,fare\n" + b"".join(b"2015-05-07T%sZ,%s,%s\n" % row for row in HOSTILE_ROWS)
        lone = "\udced"
    else:
        body = b"".join(b'{"t": "2015-05-07T%sZ", "zone": "%s", "fare": %s}\n'
                        % (t, b"\\ud800" if zone == b"\xed" else zone,
                           fare if fare[0] != 0xff else b'"\xff"')
                        for t, zone, fare in HOSTILE_ROWS)
        lone = "\ud800"
    (tmp_path / f"s.{kind}").write_bytes(body)
    obj = base_config()
    obj["source"].update(kind=kind, path=f"s.{kind}")
    obj["window"] = {"kind": "session", "gap": "1m", "key_by": "zone"}
    obj["checks"] = [{"id": cid, "measure": dict(measure, column="zone"),
                      "constraint": {"op": ">=", "bound": 0}}
                     for cid, measure in [("exact", {"id": "distinct_count"}),
                                          ("approx", {"id": "distinct_count", "mode": "approx"}),
                                          ("unique", {"id": "uniqueness"})]]
    meta = tmp_path / "meta.jsonl"
    assert main(["run", write_config(tmp_path, obj), "--meta", str(meta), "--json"]) == 0
    stats = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert stats["read"] == stats["assigned"] == 4
    assert stats["parse_failures"] == {"fare": 1}
    records = [json.loads(line) for line in meta.read_bytes().decode("ascii").splitlines()]
    values = {(r["key"], r["check"]): r["value"] for r in records
              if r["check"] in ("exact", "approx", "unique")}
    keys = (lone, "a\udcffb", "\udcfe")
    assert {key for key, _ in values} == set(keys)
    for key in keys:
        assert values[key, "exact"] == 1 and round(values[key, "approx"]) == 1
        assert values[key, "unique"] == (0.0 if key == "a\udcffb" else 1.0)


def test_cli_run_writes_meta(tmp_path, capsys):
    cfg_path = cli_setup(tmp_path)
    meta = tmp_path / "meta.jsonl"
    assert main(["run", cfg_path, "--meta", str(meta)]) == 0
    lines = meta.read_text().splitlines()
    assert lines
    first = json.loads(lines[0])
    assert list(first) == ["window_start", "window_end", "key", "check",
                           "value", "ok", "detail"]
    checks = {json.loads(l)["check"] for l in lines}
    assert checks == {"fare_mean", "_late_discards"}
    err = capsys.readouterr().err
    assert "read=10" in err


def test_cli_run_reads_each_reference_table_once(tmp_path, monkeypatch):
    (tmp_path / "caps.csv").write_text("hour,cap\n11,10.0\n")
    (tmp_path / "zones.csv").write_text("zone,cap\nuptown,9.0\nairport,99.0\n")

    def mutate(obj):
        obj["checks"][0]["constraint"] = {"predicate": "value <= ref_cap"}
        obj["checks"][0]["reference"] = {"table": "caps", "key": "hour_of(window_start)"}
        obj["references"] = [{"id": "caps", "path": "caps.csv", "key": "hour"},
                             {"id": "zones", "path": "zones.csv", "key": "zone"}]
    cfg_path = cli_setup(tmp_path, mutate)
    loads = []
    load = connectors.load_reference

    def counting(table_id, path, key):
        loads.append(table_id)
        return load(table_id, path, key)
    monkeypatch.setattr(connectors, "load_reference", counting)
    monkeypatch.setattr(cli, "load_reference", counting, raising=False)
    meta = tmp_path / "meta.jsonl"
    assert main(["run", cfg_path, "--meta", str(meta)]) == 0
    assert sorted(loads) == ["caps", "zones"]
    assert any(json.loads(l)["check"] == "fare_mean" for l in meta.read_text().splitlines())


@pytest.mark.parametrize("measure,param", [
    ({"id": "completeness", "column": "fare", "missing_tokens": [[1]]}, "missing_tokens"),
    ({"id": "placeholder_report", "column": "zone", "tokens": ["-", {"a": 1}]}, "tokens"),
    ({"id": "valid_range", "column": "fare", "lo": {"x": 1}}, "lo"),
])
def test_cli_validate_and_run_reject_non_scalar_params(tmp_path, capsys, measure, param):
    def mutate(obj):
        obj["checks"][0]["measure"] = measure
        obj["checks"][0]["constraint"] = {"op": ">=", "bound": 0}
    cfg_path = cli_setup(tmp_path, mutate)
    meta = tmp_path / "meta.jsonl"
    for argv in (["validate", cfg_path], ["run", cfg_path, "--meta", str(meta)]):
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert "Traceback" not in err
        lines = err.splitlines()
        assert lines and all(line.startswith("error: ") for line in lines)
        assert any("check 'fare_mean'" in line and f"'{param}'" in line for line in lines)
    assert not meta.exists()


PARSED_TEXTS = ("fare > -2.5 and zone != 'nowhere'", "value >= 0.5 and value <= ref_cap",
                "hour_of(window_start)")


def parse_count_setup(tmp_path, monkeypatch):
    """A suite with a conforms text, a predicate and a reference key, and the
    list every expression.parse call appends its text to."""
    conforms, predicate, key = PARSED_TEXTS
    (tmp_path / "caps.csv").write_text("hour,cap\n11,10.0\n")

    def mutate(obj):
        obj["checks"][0]["measure"] = {"id": "conforms", "expression": conforms}
        obj["checks"][0]["constraint"] = {"predicate": predicate}
        obj["checks"][0]["reference"] = {"table": "caps", "key": key}
        obj["references"] = [{"id": "caps", "path": "caps.csv", "key": "hour"}]
    cfg_path = cli_setup(tmp_path, mutate, rows=stream_rows(n=40, step_s=20))
    calls = []
    parse = expression.parse
    monkeypatch.setattr(expression, "parse", lambda source: calls.append(source) or parse(source))
    return cfg_path, calls


def test_cli_run_parses_a_conforms_text_once(tmp_path, monkeypatch):
    """The suite is validated and compiled in one build, and a pane parses
    nothing: each conforms, predicate and reference-key text is parsed once."""
    cfg_path, calls = parse_count_setup(tmp_path, monkeypatch)
    assert main(["run", cfg_path, "--meta", str(tmp_path / "meta.jsonl")]) == 0
    assert [calls.count(text) for text in PARSED_TEXTS] == [1, 1, 1]


def test_cli_validate_parses_each_text_once(tmp_path, monkeypatch):
    cfg_path, calls = parse_count_setup(tmp_path, monkeypatch)
    assert main(["validate", cfg_path]) == 0
    assert [calls.count(text) for text in PARSED_TEXTS] == [1, 1, 1]


# (pane start minute, match_ratio value, ok, secondary_volume) for the run below
SECONDARY_PANES = [(59, 0.0, False, 0), (0, 0.5, True, 2), (1, 1.0, True, 3),
                   (2, 0.5, True, 1), (3, 0.0, False, 0), (4, 0.0, False, 0),
                   (5, 0.5, True, 2), (6, 0.5, True, 2), (7, 0.0, False, 0),
                   (8, 0.0, False, 0), (9, 0.0, False, 0)]


def test_cli_run_with_a_secondary_source(tmp_path):
    """match_ratio over 2m/1m sliding panes. The secondary rows arrive out of
    order; panes 11:03 and 11:04 fall in a gap of the secondary stream and
    the first and last lie outside it, and all of them measure as empty."""
    write_stream(tmp_path, rows=[["2015-05-07T11:01:30.000Z", "1.0", "uptown"],
                                 ["2015-05-07T11:06:50.000Z", "2.0", "downtown"],
                                 ["2015-05-07T11:02:10.000Z", "3.0", "airport"],
                                 ["2015-05-07T11:06:20.000Z", "4.0", "uptown"],
                                 ["2015-05-07T11:01:50.000Z", "5.0", "midtown"]],
                 name="secondary.csv")
    write_stream(tmp_path, rows=stream_rows(n=60, step_s=10))
    obj = base_config()
    obj["secondary_source"] = dict(obj["source"], path="secondary.csv")
    obj["window"] = {"kind": "sliding", "duration": "2m", "slide": "1m"}
    obj["checks"] = [{"id": "zone_match", "measure": {"id": "match_ratio", "on": "zone"},
                      "constraint": {"op": ">=", "bound": 0.5}}]
    meta = tmp_path / "meta.jsonl"
    assert main(["run", write_config(tmp_path, obj), "--meta", str(meta)]) == 0

    def bounds(minute):
        start = parse_ts(f"2015-05-07T{10 if minute == 59 else 11}:{minute:02d}:00Z")
        return (f'"window_start":"{format_ts(start)}",'
                f'"window_end":"{format_ts(start + timedelta(minutes=2))}","key":null')
    want = []
    for minute, value, ok, volume in SECONDARY_PANES:
        want.append(f'{{{bounds(minute)},"check":"_late_discards","value":0,"ok":true,'
                    f'"detail":null}}')
        want.append(f'{{{bounds(minute)},"check":"zone_match","value":{value},'
                    f'"ok":{json.dumps(ok)},"detail":{{"secondary_volume":{volume}}}}}')
    assert meta.read_text().splitlines() == want


def test_cli_run_secondary_gap_builds_no_empty_panes(tmp_path):
    """A secondary row a year after the rest costs neither time nor memory:
    the secondary is looked up by bisection, not windowed into every pane
    of the gap (about 527,000 one-minute panes)."""
    write_stream(tmp_path, rows=stream_rows(n=60, step_s=10)
                 + [["2016-05-07T11:00:00.000Z", "1.0", "uptown"]], name="secondary.csv")
    write_stream(tmp_path, rows=stream_rows(n=60, step_s=10))
    obj = base_config()
    obj["secondary_source"] = dict(obj["source"], path="secondary.csv")
    obj["checks"] = [{"id": "zone_match", "measure": {"id": "match_ratio", "on": "zone"},
                      "constraint": {"op": ">=", "bound": 0.5}}]
    meta = tmp_path / "meta.jsonl"
    proc, wall, rss_kb = run_cli_child(["run", write_config(tmp_path, obj), "--meta", str(meta)],
                                       timeout=120)
    assert proc.returncode == 0, proc.stderr
    print(f"  secondary gap run: {wall:.2f}s, peak rss {rss_kb / 1024:.1f} MiB")
    assert wall < 1.0 and rss_kb < 50 * 1024, (wall, rss_kb)
    matches = [json.loads(l) for l in meta.read_text().splitlines()
               if json.loads(l)["check"] == "zone_match"]
    assert len(matches) == 10 and all(r["value"] == 1.0 for r in matches)


MATCH_CHECK = {"id": "m", "measure": {"id": "match_ratio", "on": "zone"},
               "constraint": {"op": ">=", "bound": 0.5}}


def _missing_secondary(obj):
    obj["secondary_source"] = dict(obj["source"], path="nowhere.csv")
    obj["checks"] = [MATCH_CHECK]


def _missing_reference(obj):
    obj["checks"][0]["constraint"] = {"predicate": "value <= ref_cap"}
    obj["checks"][0]["reference"] = {"table": "caps", "key": "hour_of(window_start)"}
    obj["references"] = [{"id": "caps", "path": "nowhere.csv", "key": "hour"}]


def _session_secondary(obj):
    obj["secondary_source"] = dict(obj["source"])
    obj["window"] = {"kind": "session", "gap": "1m"}


@pytest.mark.parametrize("mutate,env,expected", [
    (_missing_secondary, None, ["secondary_source: "]),
    (None, "x", [f"{HASH_SEED_ENV} must be an integer, got 'x'"]),
    (_missing_reference, None, ["reference 'caps': ", "unknown reference table 'caps'",
                                "unknown names ['ref_cap']"]),
    (lambda o: o.update(checks=[MATCH_CHECK]), None,
     ["check 'm': match_ratio requires a secondary source"]),
    (_session_secondary, None, ["secondary sources require tumbling or sliding windows"]),
    (lambda o: o["checks"][0]["measure"].update(column="ghost"), None, ["'ghost'"]),
], ids=["missing-secondary", "bad-hash-seed-env", "missing-reference",
        "match-ratio-without-secondary", "session-with-secondary", "unknown-column"])
def test_cli_validate_and_run_agree(tmp_path, capsys, monkeypatch, mutate, env, expected):
    """What validate rejects, run rejects with the same lines, before any
    sink is opened; and what run rejects, validate does."""
    if env is None:
        monkeypatch.delenv(HASH_SEED_ENV, raising=False)
    else:
        monkeypatch.setenv(HASH_SEED_ENV, env)
    cfg_path = cli_setup(tmp_path, mutate)
    meta = tmp_path / "meta.jsonl"
    outputs = []
    for argv in (["validate", cfg_path], ["run", cfg_path, "--meta", str(meta)]):
        assert main(argv) == 1
        outputs.append(capsys.readouterr().err.splitlines())
    validate_lines, run_lines = outputs
    assert validate_lines == run_lines
    assert all(line.startswith("error: ") for line in validate_lines)
    assert len(validate_lines) == len(expected)
    assert all(want in line for want, line in zip(expected, validate_lines)), validate_lines
    assert not meta.exists()


def _header_without_zone(tmp_path):
    (tmp_path / "stream.csv").write_text("t,fare\n2015-05-07T11:00:00Z,1.0\n")
    return "csv header is missing schema columns: ['zone']"


def _empty_csv(tmp_path):
    (tmp_path / "stream.csv").write_text("")
    return "csv source is empty"


def _socket_source(tmp_path, address):
    obj = json.loads((tmp_path / "config.json").read_text())
    obj["source"] = dict(obj["source"], kind="socket", address=address)
    del obj["source"]["path"]
    write_config(tmp_path, obj)


def _bad_socket_address(tmp_path):
    _socket_source(tmp_path, "nowhere")
    return "socket address must be host:port, got 'nowhere'"


def _socket_port_out_of_range(tmp_path):
    _socket_source(tmp_path, "tcp://127.0.0.1:99999")  # would wrap to port 34463
    return "socket port must be in 1-65535, got '127.0.0.1:99999'"


def _socket_port_not_ascii_digits(tmp_path):
    _socket_source(tmp_path, "127.0.0.1:\u00b2")  # str.isdigit, but no int
    return "socket address must be host:port, got '127.0.0.1:\u00b2'"


def _missing_csv(tmp_path):
    (tmp_path / "stream.csv").unlink()
    return "No such file or directory"


def _missing_jsonl(tmp_path):
    obj = json.loads((tmp_path / "config.json").read_text())
    obj["source"] = dict(obj["source"], kind="jsonl", path="stream.jsonl")
    write_config(tmp_path, obj)
    return "No such file or directory"


@pytest.mark.parametrize("command", ["run"])
@pytest.mark.parametrize("break_source", [_header_without_zone, _empty_csv, _missing_csv,
                                          _missing_jsonl, _bad_socket_address,
                                          _socket_port_out_of_range,
                                          _socket_port_not_ascii_digits])
def test_cli_source_errors_are_error_lines(tmp_path, capsys, command, break_source):
    """A source that cannot be opened as configured is an `error:` line and
    exit 1, found before any row is processed, never a traceback."""
    cfg_path = cli_setup(tmp_path)
    expected = break_source(tmp_path)
    meta = tmp_path / "meta.jsonl"
    assert main([command, cfg_path, "--meta", str(meta)]) == 1
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ") and expected in lines[0], lines
    assert captured.out == ""
    assert not meta.exists()


def test_cli_run_meta_sink_port_out_of_range_is_an_error_line(tmp_path, capsys):
    """A sink port past 65535 is an `error:` line and exit 1, not a
    connection to the port it wraps to."""
    cfg_path = cli_setup(tmp_path)
    assert main(["run", cfg_path, "--meta", "tcp://127.0.0.1:70000"]) == 1
    assert capsys.readouterr().err.splitlines() == [
        "error: socket port must be in 1-65535, got '127.0.0.1:70000'"]


def test_cli_run_side_sink_that_fails_to_open_closes_the_meta_sink(tmp_path):
    """A side destination that cannot be opened is one `error:` line and
    exit 1, and the meta sink that did open is closed: under -X dev an
    unclosed file would print a ResourceWarning."""
    cfg_path = cli_setup(tmp_path)
    proc = subprocess.run(
        [sys.executable, "-X", "dev", "-m", "streamqc", "run", cfg_path,
         "--meta", str(tmp_path / "meta.jsonl"), "--side", str(tmp_path / "missing" / "s.jsonl")],
        capture_output=True, text=True, timeout=60)
    assert proc.returncode == 1
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ") and "s.jsonl" in lines[0], lines
    assert "ResourceWarning" not in proc.stderr


def test_cli_run_mean_over_both_infinities_is_null(tmp_path):
    """A pane whose float column holds inf and -inf measures a Null mean:
    the run neither dies nor writes a NaN."""
    rows = stream_rows(n=6, fare=lambda i: ["inf", "-inf", "1.5"][i % 3])
    cfg_path = cli_setup(tmp_path, rows=rows)
    meta = tmp_path / "meta.jsonl"
    assert main(["run", cfg_path, "--meta", str(meta)]) == 0
    records = [json.loads(line) for line in meta.read_text().splitlines()]
    assert [(r["value"], r["ok"]) for r in records if r["check"] == "fare_mean"] == [(None, False)]


def test_cli_run_mean_over_an_int_beyond_the_float_range_is_infinite(tmp_path):
    """A 401-digit int cell counts as an infinity of its sign: the mean over
    it is Infinity, and the run neither dies nor writes a NaN."""
    def as_int_column(obj):
        obj["source"]["schema"][1]["type"] = "int"
    huge = 10 ** 400
    rows = stream_rows(n=6, fare=lambda i: [huge, 1][i % 2])
    cfg_path = cli_setup(tmp_path, as_int_column, rows=rows)
    meta = tmp_path / "meta.jsonl"
    assert main(["run", cfg_path, "--meta", str(meta)]) == 0
    records = [json.loads(line) for line in meta.read_text().splitlines()]
    assert [(r["value"], r["ok"]) for r in records if r["check"] == "fare_mean"] == \
        [("Infinity", False)]


def _run_volume(tmp_path, capsys, window, times):
    """`streamqc run` of one volume check over one row per time: the exit
    code, the stats and the check's (window_start, window_end, value)s."""
    def mutate(obj):
        obj["window"] = window
        obj["checks"] = [{"id": "rows", "measure": {"id": "volume"},
                          "constraint": {"op": ">=", "bound": 0}}]
    cfg_path = cli_setup(tmp_path, mutate, rows=[[t, "1.0", "uptown"] for t in times])
    meta = tmp_path / "meta.jsonl"
    code = main(["run", cfg_path, "--meta", str(meta), "--json"])
    stats = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    records = [json.loads(line) for line in meta.read_text().splitlines()]
    return code, stats, [(r["window_start"], r["window_end"], r["value"])
                         for r in records if r["check"] == "rows"]


@pytest.mark.parametrize("time", [
    "0001-01-01T00:00:30.000Z", "9999-12-31T23:59:00.000Z", "9999-12-31T23:59:59.999Z"])
@pytest.mark.parametrize("window", [
    {"kind": "tumbling", "duration": "5m"},
    {"kind": "sliding", "duration": "5m", "slide": "2m"},
    {"kind": "session", "gap": "1m"},
])
def test_cli_run_at_the_ends_of_time(tmp_path, capsys, window, time):
    """A row within one pane of the first or last representable instant: the
    run exits 0, pane bounds beyond the range render clamped, and the row
    lies in every pane the reference assignment gives it."""
    code, stats, got = _run_volume(tmp_path, capsys, window, [time])
    assert code == 0 and stats["assigned"] == 1
    t = parse_ts(time)
    if window["kind"] == "session":
        end = ("9999-12-31T23:59:59.999Z" if time.startswith("9999")
               else format_ts(t + timedelta(minutes=1)))
        assert got == [(time, end, 1)]
        return
    spec = WindowSpec(window["kind"], duration=timedelta(minutes=5),
                      slide=timedelta(minutes=2) if "slide" in window else None)
    panes = assign_sliding(t, spec) if "slide" in window else [assign_tumbling(t, spec)]
    assert sorted(got) == sorted((format_ts(s), format_ts(e), 1) for s, e in panes)
    assert stats["panes_closed"] == len(panes) >= 1
    assert any("0001-01-01T00:00:00.000Z" == s or "9999-12-31T23:59:59.999Z" == e
               for s, e, _ in got)


def test_cli_run_pane_ending_past_the_last_instant(tmp_path, capsys):
    """A 2015 row under a 4,000,000-day pane: its end renders clamped."""
    code, stats, got = _run_volume(tmp_path, capsys, {"kind": "tumbling", "duration": "4000000d"},
                                   ["2015-05-07T11:00:00.000Z"])
    assert code == 0
    assert got == [("1970-01-01T00:00:00.000Z", "9999-12-31T23:59:59.999Z", 1)]


@pytest.mark.parametrize("command", ["validate", "run"])
@pytest.mark.parametrize("window,expected", [
    ({"kind": "tumbling", "duration": "9999999999d"},
     "window.duration: invalid duration '9999999999d': longer than"),
    ({"kind": "tumbling", "duration": "999999999d", "allowed_lateness": "999999999d"},
     "window duration plus allowed_lateness must be at most"),
    ({"kind": "sliding", "duration": "400000000d", "slide": "1d",
      "allowed_lateness": "100000000d"},
     "window duration plus allowed_lateness must be at most"),
    ({"kind": "session", "gap": "999999999d", "allowed_lateness": "1d"},
     "window gap plus allowed_lateness must be at most"),
], ids=["duration-past-timedelta", "duration-plus-lateness-past-timedelta",
        "sliding-reach", "session-reach"])
def test_cli_durations_past_the_engine_range_are_config_errors(
        tmp_path, capsys, command, window, expected):
    """A duration, or a duration or gap plus allowed_lateness, too long for
    the engine's time arithmetic is one `error:` line and exit 1 from both
    validate and run, never a traceback."""
    def mutate(obj):
        obj["window"] = window
    cfg_path = cli_setup(tmp_path, mutate)
    meta = tmp_path / "meta.jsonl"
    argv = [command, cfg_path] + (["--meta", str(meta)] if command == "run" else [])
    assert main(argv) == 1
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ") and expected in lines[0], lines
    assert "Traceback" not in captured.err and captured.out == ""
    assert not meta.exists()


@pytest.mark.parametrize("command", ["validate", "run"])
def test_cli_sliding_window_of_too_many_panes_per_row_is_a_config_error(
        tmp_path, capsys, command):
    """A sliding duration of more than MAX_PANES_PER_ROW slides would put
    every row in that many panes (400,000,000d/1d ran without end): it is
    one `error:` line and exit 1 from validate and run, found at once."""
    def mutate(obj):
        obj["window"] = {"kind": "sliding", "duration": "400000000d", "slide": "1d"}
    cfg_path = cli_setup(tmp_path, mutate)
    meta = tmp_path / "meta.jsonl"
    argv = [command, cfg_path] + (["--meta", str(meta)] if command == "run" else [])
    began = time.process_time()
    assert main(argv) == 1
    assert time.process_time() - began < 2.0
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and "at most 10000 slides" in lines[0], lines
    assert not meta.exists()
    assert MAX_PANES_PER_ROW == 10_000
    slide = timedelta(minutes=1)
    assert len(assign_sliding(T0, WindowSpec("sliding", duration=10_000 * slide,
                                             slide=slide))) == 10_000
    with pytest.raises(ModelError, match="slides"):
        WindowSpec("sliding", duration=10_000 * slide + timedelta(seconds=1), slide=slide)


@pytest.mark.parametrize("command", ["validate", "run"])
def test_cli_dead_stream_detector_over_a_keyed_window_is_a_config_error(
        tmp_path, capsys, command):
    """A keyed window makes no empty pane, so a dead-stream detector over it
    would never fire: one `error:` line and exit 1 from validate and run."""
    def mutate(obj):
        obj["window"]["key_by"] = "zone"
        obj["detectors"] = {"dead": {"threshold": "2m"}}
    cfg_path = cli_setup(tmp_path, mutate)
    meta = tmp_path / "meta.jsonl"
    argv = [command, cfg_path] + (["--meta", str(meta)] if command == "run" else [])
    assert main(argv) == 1
    lines = capsys.readouterr().err.splitlines()
    assert lines == ["error: dead-stream detection needs an unkeyed window "
                     "(window.key_by is set)"], lines
    assert not meta.exists()


@pytest.mark.parametrize("command", ["validate", "run"])
def test_cli_match_ratio_over_a_keyed_window_is_a_config_error(tmp_path, capsys, command):
    """A secondary source's panes are never keyed, so match_ratio over a
    keyed window would read 0.0 on every pane, even against its own
    stream: one `error:` line and exit 1 from validate and run."""
    def mutate(obj):
        obj["window"]["key_by"] = "zone"
        obj["secondary_source"] = dict(obj["source"])
        obj["checks"] = [MATCH_CHECK]
    cfg_path = cli_setup(tmp_path, mutate)
    meta = tmp_path / "meta.jsonl"
    argv = [command, cfg_path] + (["--meta", str(meta)] if command == "run" else [])
    assert main(argv) == 1
    assert capsys.readouterr().err.splitlines() == [
        "error: check 'm': match_ratio needs an unkeyed window (window.key_by is set)"]
    assert not meta.exists()


@pytest.mark.parametrize("command", ["validate", "run"])
@pytest.mark.parametrize("sink", ["meta", "side"])
def test_cli_tcp_sink_address_in_the_config_is_checked_with_it(tmp_path, capsys, command, sink):
    """A tcp:// sink address parse_address rejects is a config error, as a
    socket source's is: one `error:` line and exit 1, and no sink opens."""
    cfg_path = cli_setup(tmp_path, lambda o: o.update(sinks={sink: "tcp://127.0.0.1:70000"}))
    meta = tmp_path / "meta.jsonl"
    argv = [command, cfg_path] + (["--meta", str(meta)] if (command, sink) == ("run", "side")
                                  else [])
    assert main(argv) == 1
    assert capsys.readouterr().err.splitlines() == [
        f"error: sinks.{sink}: socket port must be in 1-65535, got '127.0.0.1:70000'"]
    assert not meta.exists()


def test_cli_run_side_override_with_a_bad_tcp_address_opens_no_sink(tmp_path, capsys):
    """--side tcp://... with a port past 65535 fails before the meta sink
    opens: one `error:` line, exit 1, and no meta file left behind."""
    cfg_path = cli_setup(tmp_path)
    meta = tmp_path / "meta.jsonl"
    assert main(["run", cfg_path, "--meta", str(meta), "--side", "tcp://127.0.0.1:70000"]) == 1
    assert capsys.readouterr().err.splitlines() == [
        "error: socket port must be in 1-65535, got '127.0.0.1:70000'"]
    assert not meta.exists()


def test_cli_run_context_horizon_longer_than_the_timestamp_range(tmp_path):
    """A context horizon reaching back past the first instant: every pane
    is warming, and the run exits 0."""
    def mutate(obj):
        obj["checks"][0]["context"] = {"horizon": "999999999d"}
        obj["checks"][0]["constraint"] = {"predicate": "value >= mu_H"}
    cfg_path = cli_setup(tmp_path, mutate)
    meta = tmp_path / "meta.jsonl"
    assert main(["run", cfg_path, "--meta", str(meta)]) == 0
    records = [json.loads(line) for line in meta.read_text().splitlines()
               if not json.loads(line)["check"].startswith("_")]
    assert len(records) == 2 and all(r["detail"] == {"warming": True} for r in records)


def test_cli_run_end_of_stream_closes_panes_whose_lateness_runs_past_the_last_instant(
        tmp_path, capsys):
    """end + allowed_lateness lies beyond the last instant, so no watermark
    closes these panes; the end of the stream must, or both rows are lost
    with exit 0."""
    window = {"kind": "tumbling", "duration": "1m", "allowed_lateness": "3000000d"}
    code, stats, got = _run_volume(tmp_path, capsys, window,
                                   ["2015-05-07T11:00:00.000Z", "2015-05-07T11:05:00.000Z"])
    assert code == 0 and stats["assigned"] == 2 and stats["panes_closed"] == 6
    assert [value for _, _, value in got] == [1, 0, 0, 0, 0, 1]


def test_cli_run_failures_do_not_change_exit(tmp_path):
    # Means rise to 13+: the constraint fails but the run still succeeds.
    cfg_path = cli_setup(tmp_path, rows=stream_rows(fare=lambda i: 20.0))
    meta = tmp_path / "meta.jsonl"
    assert main(["run", cfg_path, "--meta", str(meta)]) == 0
    records = [json.loads(l) for l in meta.read_text().splitlines()]
    assert any(r["ok"] is False for r in records)


def test_cli_run_json_stats(tmp_path, capsys):
    cfg_path = cli_setup(tmp_path)
    assert main(["run", cfg_path, "--meta", str(tmp_path / "m.jsonl"), "--json"]) == 0
    stats = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert stats["read"] == 10
    assert stats["panes_closed"] == 2  # 10 rows x 10s span two minutes


def test_cli_run_limit(tmp_path, capsys):
    cfg_path = cli_setup(tmp_path)
    assert main(["run", cfg_path, "--meta", str(tmp_path / "m.jsonl"),
                 "--limit", "3", "--json"]) == 0
    stats = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert stats["read"] == 3


def test_cli_run_window_override(tmp_path, capsys):
    cfg_path = cli_setup(tmp_path)
    meta = tmp_path / "m.jsonl"
    assert main(["run", cfg_path, "--meta", str(meta),
                 "--window-duration", "30s"]) == 0
    records = [json.loads(l) for l in meta.read_text().splitlines()
               if json.loads(l)["check"] == "fare_mean"]
    spans = {(r["window_start"], r["window_end"]) for r in records}
    assert ("2015-05-07T11:00:00.000Z", "2015-05-07T11:00:30.000Z") in spans
    capsys.readouterr()


def test_cli_run_slide_override_implies_sliding(tmp_path):
    cfg_path = cli_setup(tmp_path)
    meta = tmp_path / "m.jsonl"
    assert main(["run", cfg_path, "--meta", str(meta), "--slide", "30s"]) == 0
    starts = sorted({json.loads(l)["window_start"]
                     for l in meta.read_text().splitlines()})
    assert "2015-05-07T10:59:30.000Z" in starts  # overlapping panes appeared


def test_cli_run_side_output(tmp_path):
    def add_pe(obj):
        obj["checks"].append({
            "id": "fare_pos",
            "measure": {"id": "valid_range", "column": "fare", "lo": 0.0},
            "constraint": {"op": ">=", "bound": 1.0},
            "emit_per_element": True})

    cfg_path = cli_setup(tmp_path, add_pe, rows=stream_rows(fare=lambda i: -1.0))
    side = tmp_path / "side.jsonl"
    assert main(["run", cfg_path, "--meta", str(tmp_path / "m.jsonl"),
                 "--side", str(side)]) == 0
    side_lines = [json.loads(l) for l in side.read_text().splitlines()]
    assert len(side_lines) == 10
    assert side_lines[0]["checks"] == ["fare_pos"]


def test_cli_run_twice_byte_identical(tmp_path):
    cfg_path = cli_setup(tmp_path)
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    assert main(["run", cfg_path, "--meta", str(a)]) == 0
    assert main(["run", cfg_path, "--meta", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_cli_generate_and_run(tmp_path, capsys):
    gen_cfg = write_config(tmp_path, {
        "seed": 3, "start": "2015-05-07T11:00:00Z", "rate_per_sec": 1,
        "duration": "2m",
        "columns": [{"name": "fare", "kind": "uniform_float", "lo": 1.0,
                     "hi": 20.0, "round": 2}],
    }, name="gen.json")
    out = tmp_path / "gen.csv"
    manifest = tmp_path / "manifest.jsonl"
    assert main(["generate", gen_cfg, "--out", str(out),
                 "--manifest", str(manifest)]) == 0
    assert len(out.read_text().splitlines()) == 121  # header + 120 rows
    run_cfg = write_config(tmp_path, {
        "source": {"kind": "csv", "path": "gen.csv", "event_time": "event_time",
                   "schema": [{"name": "event_time", "type": "timestamp"},
                              {"name": "fare", "type": "float"}]},
        "window": {"kind": "tumbling", "duration": "1m"},
        "checks": [{"id": "vol", "measure": {"id": "volume"},
                    "constraint": {"op": ">=", "bound": 1}}],
    }, name="run.json")
    assert main(["run", run_cfg, "--meta", str(tmp_path / "m.jsonl"),
                 "--json"]) == 0
    stats = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert stats["read"] == 120 and stats["panes_closed"] == 2


def test_cli_generate_rejects_unknown_keys(tmp_path, capsys):
    gen_cfg = write_config(tmp_path, {
        "seed": 1, "start": "2015-05-07T11:00:00Z", "rate_per_sec": 1,
        "duration": "1m", "columns": [], "shape": "wide"}, name="gen.json")
    assert main(["generate", gen_cfg, "--out", str(tmp_path / "o.csv"),
                 "--manifest", str(tmp_path / "m.jsonl")]) == 1
    assert "unknown key 'shape'" in capsys.readouterr().err


@pytest.mark.parametrize("rate", [0, -5, 1e400, float("nan")])
def test_cli_generate_rejects_a_rate_not_finite_and_positive(tmp_path, capsys, rate):
    """A rate of 0 or 1e400 (infinity) raised a traceback, and -5 wrote 0
    rows: each is one `error:` line and exit 1, and nothing is written."""
    gen_cfg = write_config(tmp_path, {
        "seed": 1, "start": "2015-05-07T11:00:00Z", "rate_per_sec": rate,
        "duration": "1m", "columns": []}, name="gen.json")
    out = tmp_path / "o.csv"
    assert main(["generate", gen_cfg, "--out", str(out),
                 "--manifest", str(tmp_path / "m.jsonl")]) == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(
        "error: generator config: rate_per_sec must be finite and > 0"), lines
    assert not out.exists()


@pytest.mark.parametrize("change,expected", [
    ({"seed": "7"}, "seed must be an integer, got '7'"),
    ({"seed": 7.9}, "seed must be an integer, got 7.9"),
    ({"seed": True}, "seed must be an integer, got True"),
    ({"injections": {"a": 1}}, "injections must be a list of objects"),
    ({"injections": ["missing_burst"]}, "injections must be a list of objects"),
    ({"duration": None}, "invalid duration None"),
], ids=["seed-text", "seed-fraction", "seed-bool", "injections-object", "injections-text",
        "duration-null"])
def test_cli_generate_rejects_a_value_of_the_wrong_kind(tmp_path, capsys, change, expected):
    """A seed that is not a JSON integer was read through int(), and an
    injections object or a null duration raised a traceback: each is one
    `error:` line and exit 1, and nothing is written."""
    gen_cfg = write_config(tmp_path, {
        "seed": 1, "start": "2015-05-07T11:00:00Z", "rate_per_sec": 1,
        "duration": "1m", "columns": [], **change}, name="gen.json")
    out = tmp_path / "o.csv"
    assert main(["generate", gen_cfg, "--out", str(out),
                 "--manifest", str(tmp_path / "m.jsonl")]) == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: generator config: ") \
        and expected in lines[0], lines
    assert not out.exists()


def generator_config():
    """A generator config that uses every column kind, every injection type
    and every optional key: an int rate, a weighted choice over every JSON
    scalar kind, an absolute span, overlapping reorder spans and a spike
    of an int column."""
    return {
        "seed": 11, "start": "2015-05-07T11:00:00.000Z", "rate_per_sec": 4,
        "duration": "1m", "event_time": "ts",
        "columns": [
            {"name": "id", "kind": "sequence", "prefix": "R"},
            {"name": "n", "kind": "sequence"},
            {"name": "count", "kind": "uniform_int", "lo": -3, "hi": 40},
            {"name": "fare", "kind": "uniform_float", "lo": 1, "hi": 20.5, "round": 2},
            {"name": "raw", "kind": "uniform_float", "lo": 0.0, "hi": 1.0},
            {"name": "temp", "kind": "normal", "mean": 10, "std": 2.5, "round": 1},
            {"name": "noise", "kind": "normal", "mean": 0.0, "std": 1.0},
            {"name": "zone", "kind": "choice", "values": ["a", "b", "c"]},
            {"name": "level", "kind": "choice", "values": ["low", 2, 3.5, True, None],
             "weights": [5, 1, 0.5, 2, 1]},
            {"name": "plate", "kind": "pattern", "pattern": "@@-###x"},
        ],
        "injections": [
            {"type": "missing_burst", "column": "fare", "start": "5s", "end": "10s"},
            {"type": "placeholder_burst", "column": "zone",
             "start": "2015-05-07T11:00:12.000Z", "end": "2015-05-07T11:00:16Z"},
            {"type": "placeholder_burst", "column": "count", "start": "17s", "end": "19s",
             "token": 99},
            {"type": "duplicate_burst", "column": "id", "start": "20s", "end": "24s"},
            {"type": "out_of_order", "start": "25s", "end": "30s"},
            {"type": "out_of_order", "column": "ts", "start": "28s", "end": "33s"},
            {"type": "frozen", "column": "temp", "start": "35s", "end": "40s"},
            {"type": "fare_spike", "column": "count", "start": "42s", "end": "45s"},
            {"type": "fare_spike", "column": "fare", "start": "50s", "factor": 3},
        ],
    }


def _generate(tmp_path, obj):
    """streamqc generate of obj: its exit status and the paths it may write."""
    out, manifest = tmp_path / "gen.csv", tmp_path / "gen.jsonl"
    status = main(["generate", write_config(tmp_path, obj, name="gen.json"),
                   "--out", str(out), "--manifest", str(manifest)])
    return status, out, manifest


def test_generate_writes_the_pinned_bytes_for_every_kind_and_type(tmp_path):
    """The CSV and manifest of a config using every column kind and
    injection type, pinned to the bytes the generator wrote before its spec
    was parsed by tables."""
    status, out, manifest = _generate(tmp_path, generator_config())
    assert status == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == GENERATED_CSV_SHA256
    assert hashlib.sha256(manifest.read_bytes()).hexdigest() == GENERATED_MANIFEST_SHA256


GENERATED_CSV_SHA256 = "e1bad821abff8daa803b88a64d69baf7bd5146f01975fc6efe5ea2b1c341de4c"
GENERATED_MANIFEST_SHA256 = "9bb91ce1d0cefdfb0650b6ebaa8ce1fb7532a99b10d1ec109bd52d2aca0f1adb"


def _typo(obj: dict, key: str, typo: str) -> None:
    obj[typo] = obj.pop(key)


# One-key mutations of generator_config(), each of which once wrote a CSV
# (with wrong data, or only a header) or was read some other way.
GENERATOR_PROBES = {
    "column-key-typo": lambda c: _typo(c["columns"][3], "round", "rond"),
    "values-text": lambda c: c["columns"][7].update(values="abc"),
    "mean-text": lambda c: c["columns"][5].update(mean="10"),
    "columns-object": lambda c: c.update(columns={"name": "fare", "kind": "sequence"}),
    "name-number": lambda c: c["columns"][0].update(name=5),
    "injection-on-missing-column": lambda c: c["injections"][0].update(column="ghost"),
    "frozen-on-missing-column": lambda c: c["injections"][6].update(column="ghost"),
    "injection-without-column": lambda c: c["injections"][0].pop("column"),
    "injection-key-typo": lambda c: _typo(c["injections"][0], "start", "strat"),
    "weights-length": lambda c: c["columns"][8]["weights"].pop(),
    "lo-over-hi": lambda c: c["columns"][2].update(lo=50),
    "round-fraction": lambda c: c["columns"][3].update(round=2.5),
    "rate-bool": lambda c: c.update(rate_per_sec=True),
    "rate-text": lambda c: c.update(rate_per_sec="2"),
    "event-time-number": lambda c: c.update(event_time=5),
    "span-start-number": lambda c: c["injections"][0].update(start=5),
    "duplicate-column-name": lambda c: c["columns"][1].update(name="id"),
    "factor-text": lambda c: c["injections"][8].update(factor="x"),
    "token-list": lambda c: c["injections"][1].update(token=[1]),
}


@pytest.mark.parametrize("probe", GENERATOR_PROBES)
def test_generate_rejects_each_probe_before_writing(tmp_path, capsys, probe):
    obj = generator_config()
    GENERATOR_PROBES[probe](obj)
    status, out, manifest = _generate(tmp_path, obj)
    lines = capsys.readouterr().err.splitlines()
    assert status == 1
    assert len(lines) == 1 and lines[0].startswith("error: generator config: "), lines
    assert not out.exists() and not manifest.exists()


def test_generate_of_any_value_in_any_place_writes_or_prints_only_errors(tmp_path, capsys):
    """Each key (and list item) of generator_config(), at every depth, given
    each value of GENERATOR_FUZZ in turn: the run succeeds, or prints only
    `error:` lines and writes no file."""
    base = generator_config()
    places = list(_places(base))
    assert len(places) > 80
    written = 0
    for path in places:
        for value in GENERATOR_FUZZ:
            status, out, manifest = _generate(tmp_path, _replaced(base, path, value))
            lines = capsys.readouterr().err.splitlines()
            if status == 0:
                written += 1
                out.unlink()
                manifest.unlink()
                continue
            assert status == 1 and lines, (path, value)
            assert all(line.startswith("error: ") for line in lines), (path, value, lines)
            assert not out.exists() and not manifest.exists(), (path, value)
    assert written > 0


GENERATOR_FUZZ = [None, True, 0, -1, 2.5, "", "x", "1m", [], [1], {}, {"a": 1}]


def test_readme_generator_names_every_key_kind_and_type():
    """Each key of every generator table, and each column kind and injection
    type, is named in README's `### generator` section."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n### generator\n", 1)[1].split("\n## ", 1)[0]

    def is_table(value):
        return isinstance(value, dict) and value and all(
            isinstance(param, Param) for param in value.values())

    names = set()
    for value in vars(connectors).values():
        if is_table(value):
            names |= set(value)
        elif isinstance(value, dict) and value and all(map(is_table, value.values())):
            names |= set(value) | {key for table in value.values() for key in table}
    assert {"seed", "sequence", "fare_spike", "weights", "token"} <= names
    missing = sorted(name for name in names
                     if f'"{name}"' not in section and f"`{name}`" not in section)
    assert missing == []


def test_readme_cli_block_matches_the_parser():
    """The README's `## CLI` block names exactly the subcommands, and each
    one's long flags, that the argument parser defines."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("\n## CLI\n", 1)[1].split("```", 2)[1]
    documented: dict[str, set[str]] = {}
    for line in block.strip().splitlines():
        if line.startswith("streamqc "):
            command = line.split()[1]
            documented[command] = set()
        documented[command] |= set(re.findall(r"--[a-z][a-z-]*", line))
    subparsers = next(a for a in cli._build_parser()._actions
                      if isinstance(a, argparse._SubParsersAction))
    defined = {name: {flag for action in sub._actions for flag in action.option_strings
                      if flag.startswith("--") and flag != "--help"}
               for name, sub in subparsers.choices.items()}
    assert documented == defined


# ---------------------------------------------------------------------------
# Hash seed precedence


def test_hash_seed_precedence(tmp_path, monkeypatch):
    plain = write_config(tmp_path, base_config(), name="plain.json")
    with_seed = base_config()
    with_seed["engine"] = {"hash_seed": 5}
    pinned = write_config(tmp_path, with_seed, name="pinned.json")

    monkeypatch.delenv(HASH_SEED_ENV, raising=False)
    assert _hash_seed(load_config(plain)) == 0
    assert _hash_seed(load_config(pinned)) == 5
    monkeypatch.setenv(HASH_SEED_ENV, "9")
    assert _hash_seed(load_config(plain)) == 9   # env fills the gap
    assert _hash_seed(load_config(pinned)) == 5  # config still wins
    monkeypatch.setenv(HASH_SEED_ENV, "banana")
    with pytest.raises(ConfigError):
        _hash_seed(load_config(plain))


def test_pinned_hash_seed_survives_dump_and_parse(monkeypatch):
    """A seed pinned in the config, even the default 0, beats the environment."""
    obj = base_config()
    obj["engine"] = {"hash_seed": 0}  # pinned to the default value
    monkeypatch.setenv(HASH_SEED_ENV, "9")
    assert _hash_seed(parse_config(obj)) == 0
    assert _hash_seed(parse_config(base_config())) == 9


def test_engine_workers_is_an_unknown_key():
    obj = base_config()
    obj["engine"] = {"workers": 2}
    assert any("unknown key 'workers'" in m for m in parse_errors(obj))
