"""Seeded inputs for the three benchmark workloads.

Each workload is a suite config plus the files it reads, built from the
workload seed alone. The engine sees only these files, exactly as
`streamqc run` would. Inputs are cached per (workload, seed) so generation
never runs inside a timed region and a second run on the same seed reuses
them.
"""

from __future__ import annotations

import csv
import json
import os
import random
import shutil
from datetime import timedelta

from streamqc.connectors import generate_stream
from streamqc.model import parse_ts

START = parse_ts("2015-05-07T00:00:00.000Z")

# Rows per replay, sized so one replay takes one to two seconds and a run
# holds a dozen of them. Tumbling and sliding run at 20 rows/s of event time,
# so a 1m pane holds 1200 rows and a replay closes 40 (tumbling) or 24
# (sliding) panes; the session stream runs at 100 rows/s over 2000 devices.
ROWS = {"tumbling_csv": 48_000, "sliding_keyed_csv": 24_000,
        "sessions_conformance_jsonl": 10_000}
NAMES = tuple(ROWS)
_CACHE_ENTRIES = 4  # newest input sets kept besides the ones in use

_RIDE_COLUMNS = [
    {"name": "ride_id", "kind": "sequence", "prefix": "R"},
    {"name": "fare", "kind": "normal", "mean": 10.0, "std": 2.0, "round": 2},
    {"name": "zone", "kind": "choice", "values": ["a", "b", "c", "d", "e"]},
    {"name": "sensor", "kind": "uniform_float", "lo": 0.0, "hi": 50.0, "round": 3},
]
_RIDE_SCHEMA = [
    {"name": "event_time", "type": "timestamp"},
    {"name": "ride_id", "type": "text"},
    {"name": "fare", "type": "float", "nullable": True},
    {"name": "zone", "type": "text"},
    {"name": "sensor", "type": "float"},
]
# The five checks of the 500k-row acceptance throughput test.
_BASE_CHECKS = [
    {"id": "fare_mean", "measure": {"id": "mean", "column": "fare"},
     "constraint": {"op": "<=", "bound": 100.0}},
    {"id": "fare_complete", "measure": {"id": "completeness", "column": "fare"},
     "constraint": {"op": ">=", "bound": 0.5}},
    {"id": "zone_distinct", "measure": {"id": "distinct_count", "column": "zone"},
     "constraint": {"op": ">", "bound": 0}},
    {"id": "ride_unique", "measure": {"id": "uniqueness", "column": "ride_id"},
     "constraint": {"op": ">=", "bound": 0.9}},
    {"id": "sensor_spread", "measure": {"id": "std", "column": "sensor"},
     "constraint": {"op": ">=", "bound": 0.0}},
]
_SLIDING_EXTRA_CHECKS = [
    {"id": "zone_fare_mean", "measure": {"id": "mean", "column": "fare"},
     "key_by": "zone", "context": {"horizon": "30m"},
     "constraint": {"predicate":
                    "value >= mu_H - 4 * sigma_H and value <= mu_H + 4 * sigma_H"}},
    {"id": "hour_volume", "measure": {"id": "volume"},
     "reference": {"table": "hours", "key": "hour_of(window_start)"},
     "constraint": {"predicate": "value >= ref_min_volume and value <= ref_max_volume"}},
    {"id": "ride_distinct_approx",
     "measure": {"id": "distinct_count", "column": "ride_id", "mode": "approx"},
     "constraint": {"op": ">", "bound": 0}},
]

_DEVICES = [f"D{i:04d}" for i in range(2000)]
_SESSION_COLUMNS = [
    {"name": "device", "kind": "choice", "values": _DEVICES},
    {"name": "temp", "kind": "normal", "mean": 20.0, "std": 8.0, "round": 2},
    {"name": "status", "kind": "choice", "values": ["ok", "warn", "fail"],
     "weights": [8, 1, 1]},
    {"name": "serial", "kind": "pattern", "pattern": "SN-####-@@"},
]
_SESSION_SCHEMA = [
    {"name": "event_time", "type": "timestamp"},
    {"name": "device", "type": "text"},
    {"name": "temp", "type": "float", "nullable": True},
    {"name": "status", "type": "text", "nullable": True},
    {"name": "serial", "type": "text"},
]
_SESSION_CHECKS = [
    {"id": "temp_range",
     "measure": {"id": "valid_range", "column": "temp", "lo": -10.0, "hi": 50.0},
     "constraint": {"op": ">=", "bound": 0.95}, "emit_per_element": True},
    {"id": "temp_complete", "measure": {"id": "completeness", "column": "temp"},
     "constraint": {"op": ">=", "bound": 0.9}, "emit_per_element": True},
    {"id": "status_known",
     "measure": {"id": "in_set", "column": "status", "allowed": ["ok", "warn", "fail"]},
     "constraint": {"op": ">=", "bound": 0.9}, "emit_per_element": True},
    {"id": "serial_format",
     "measure": {"id": "matches_pattern", "column": "serial",
                 "pattern": "SN-[0-9]{4}-[A-Z]{2}"},
     "constraint": {"op": ">=", "bound": 0.99}, "emit_per_element": True},
    {"id": "reading_conforms",
     "measure": {"id": "conforms",
                 "expression": "temp > -20 and temp < 60 and status != 'fail'"},
     "constraint": {"op": ">=", "bound": 0.8}, "emit_per_element": True},
]
CHECK_IDS = tuple(c["id"] for c in _BASE_CHECKS + _SLIDING_EXTRA_CHECKS + _SESSION_CHECKS)


def _session_injections(duration_s: float) -> list[dict]:
    """Bursts at fixed fractions of the run, so every size sees each kind."""
    def span(kind: str, lo: float, hi: float, **extra) -> dict:
        return {"type": kind, "start": f"{duration_s * lo:.3f}s",
                "end": f"{duration_s * hi:.3f}s", **extra}

    return [
        span("missing_burst", 0.20, 0.24, column="temp"),
        span("missing_burst", 0.70, 0.73, column="temp"),
        span("placeholder_burst", 0.40, 0.43, column="status", token="N/A"),
        span("placeholder_burst", 0.55, 0.57, column="serial", token="UNKNOWN"),
        # Reversed 20s spans: with a 5s watermark delay and 10s lateness the
        # tail of each span is on time, the middle late, the head discarded.
        {"type": "out_of_order", "start": f"{duration_s * 0.30:.3f}s",
         "end": f"{duration_s * 0.30 + 20:.3f}s"},
        {"type": "out_of_order", "start": f"{duration_s * 0.80:.3f}s",
         "end": f"{duration_s * 0.80 + 20:.3f}s"},
    ]


def _write_hours(path: str, seed: int) -> None:
    """Per-hour volume bounds around the 6000 rows of a full 5m pane."""
    rng = random.Random(seed * 7919 + 1)
    with open(path, "w", encoding="utf-8", newline="") as fp:
        writer = csv.writer(fp)
        writer.writerow(["hour", "min_volume", "max_volume"])
        for hour in range(24):
            writer.writerow([hour, 5000 + rng.randint(0, 1500), 6500 + rng.randint(0, 1500)])


def _csv_to_jsonl(csv_path: str, jsonl_path: str) -> None:
    """Typed JSON objects, one per CSV row; empty cells become null."""
    with open(csv_path, "r", encoding="utf-8", newline="") as src, \
            open(jsonl_path, "w", encoding="utf-8", newline="\n") as dst:
        for row in csv.DictReader(src):
            temp = row["temp"]
            obj = {"event_time": row["event_time"], "device": row["device"],
                   "temp": float(temp) if temp else None,
                   "status": row["status"] or None, "serial": row["serial"]}
            dst.write(json.dumps(obj, separators=(",", ":")) + "\n")


def build(name: str, seed: int, out: str, rows: int) -> None:
    """Write config.json and the inputs it names into the directory `out`."""
    manifest = os.path.join(out, "manifest.jsonl")
    config: dict = {"engine": {"hash_seed": 0}}
    if name == "sessions_conformance_jsonl":
        rate = 100.0
        duration_s = rows / rate
        tmp_csv = os.path.join(out, "stream.csv")
        generate_stream(tmp_csv, manifest, seed=seed, start=START, rate_per_sec=rate,
                        duration=timedelta(seconds=duration_s),
                        columns=_SESSION_COLUMNS,
                        injections=_session_injections(duration_s))
        _csv_to_jsonl(tmp_csv, os.path.join(out, "stream.jsonl"))
        os.remove(tmp_csv)
        config.update({
            "source": {"kind": "jsonl", "path": "stream.jsonl",
                       "event_time": "event_time", "watermark_delay": "5s",
                       "schema": _SESSION_SCHEMA},
            "window": {"kind": "session", "gap": "30s", "key_by": "device",
                       "allowed_lateness": "10s"},
            "checks": _SESSION_CHECKS,
        })
    else:
        rate = 20.0
        generate_stream(os.path.join(out, "stream.csv"), manifest, seed=seed,
                        start=START, rate_per_sec=rate,
                        duration=timedelta(seconds=rows / rate), columns=_RIDE_COLUMNS)
        config["source"] = {"kind": "csv", "path": "stream.csv",
                            "event_time": "event_time", "schema": _RIDE_SCHEMA}
        if name == "tumbling_csv":
            config["window"] = {"kind": "tumbling", "duration": "1m"}
            config["checks"] = _BASE_CHECKS
        else:
            _write_hours(os.path.join(out, "hours.csv"), seed)
            config["window"] = {"kind": "sliding", "duration": "5m", "slide": "1m"}
            config["checks"] = _BASE_CHECKS + _SLIDING_EXTRA_CHECKS
            config["references"] = [{"id": "hours", "path": "hours.csv", "key": "hour"}]
    with open(os.path.join(out, "config.json"), "w", encoding="utf-8") as fp:
        json.dump(config, fp, indent=1)


def prepare(name: str, seed: int, cache_root: str, rows: int,
            keep: tuple[str, ...] = ()) -> str:
    """Directory holding config.json and its inputs for (name, seed, rows).

    Builds into a temporary directory and renames it into place, so an
    interrupted build never leaves a half-written cache entry. Other cached
    entries are pruned except the newest few and those named in `keep`.
    """
    if name not in ROWS:
        raise ValueError(f"unknown workload {name!r} (expected one of {NAMES})")
    final = os.path.join(cache_root, f"{name}-{seed}-{rows}")
    if not os.path.isfile(os.path.join(final, "config.json")):
        tmp = f"{final}.tmp{os.getpid()}"
        shutil.rmtree(tmp, ignore_errors=True)
        os.makedirs(tmp)
        build(name, seed, tmp, rows)
        shutil.rmtree(final, ignore_errors=True)
        os.replace(tmp, final)
    _prune(cache_root, keep=(os.path.basename(final),) + keep)
    return final


def _prune(cache_root: str, keep: tuple[str, ...]) -> None:
    entries = sorted((e for e in os.scandir(cache_root) if e.is_dir()),
                     key=lambda e: e.stat().st_mtime, reverse=True)
    for entry in entries[_CACHE_ENTRIES:]:
        if entry.name not in keep:
            shutil.rmtree(entry.path, ignore_errors=True)


def manifest(directory: str) -> list[dict]:
    with open(os.path.join(directory, "manifest.jsonl"), encoding="utf-8") as fp:
        return [json.loads(line) for line in fp if line.strip()]
