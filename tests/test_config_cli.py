"""Config parsing, normalization round trips, and the command line."""

import copy
import csv
import json
from datetime import timedelta

import pytest

from streamqc import cli, connectors
from streamqc.cli import HASH_SEED_ENV, _hash_seed, main
from streamqc.config import (
    ConfigError,
    dump_config,
    load_config,
    parse_config,
    resolve_path,
    semantic_errors,
)
from streamqc.model import Predicate, Threshold, ValueRange, WindowSpec, parse_ts


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


def test_dump_parse_fixpoint():
    cfg = parse_config(maximal_config())
    dumped = dump_config(cfg)
    assert parse_config(dumped) == cfg
    assert parse_config(copy.deepcopy(dumped)) == cfg
    # And the dump itself is stable.
    assert dump_config(parse_config(dumped)) == dumped


def test_dump_omits_defaults():
    dumped = dump_config(parse_config(base_config()))
    assert "secondary_source" not in dumped
    assert "origin" not in dumped["window"]
    assert "engine" not in dumped or dumped["engine"].get("hash_seed", 0) == 0


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
    assert "unknown keys" in capsys.readouterr().err


def test_cli_bench_json(tmp_path, capsys):
    write_stream(tmp_path, rows=stream_rows(n=200, step_s=1))
    cfg_path = write_config(tmp_path, base_config())
    assert main(["bench", cfg_path, "--sizes", "50,100", "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert [row["records"] for row in report["sizes"]] == [50, 100]
    for row in report["sizes"]:
        assert row["wall_seconds"] > 0
        assert row["throughput"] > 0
        assert "pane_ms" in row
    assert "wall_ratio_last_to_first" in report


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
    obj = base_config()
    obj["engine"] = {"hash_seed": 0}  # pinned to the default value
    reparsed = parse_config(dump_config(parse_config(obj)))
    monkeypatch.setenv(HASH_SEED_ENV, "9")
    assert _hash_seed(reparsed) == 0
    assert _hash_seed(parse_config(base_config())) == 9


def test_engine_workers_is_an_unknown_key():
    obj = base_config()
    obj["engine"] = {"workers": 2}
    assert any("unknown key 'workers'" in m for m in parse_errors(obj))
