"""Sources, sinks, reference loading, and the synthetic stream generator."""

import csv
import json
import logging
import math
import os
import random
import socket
import tempfile
import threading
import time
from datetime import datetime, timedelta, timezone

import pytest
from hypothesis import given, settings, strategies as st

import streamqc
from streamqc import model, monitor
from streamqc.connectors import (
    FileSink,
    SocketSink,
    SourceCounters,
    StdoutSink,
    coerce_csv_cell,
    coerce_json_value,
    generate_stream,
    iter_csv,
    iter_jsonl,
    iter_socket,
    load_reference,
    open_sink,
    paced,
    parse_time,
    _row_decoder,
)
from streamqc.model import ColumnSpec, canonical_bytes, parse_iso, parse_ts, ts, value_from_json

from helpers import T0

SCHEMA = [
    ColumnSpec("t", "timestamp"),
    ColumnSpec("fare", "float", nullable=True),
    ColumnSpec("zone", "text", nullable=True),
    ColumnSpec("n", "int", nullable=True),
    ColumnSpec("flag", "bool", nullable=True),
]


# ---------------------------------------------------------------------------
# Cell coercion


def test_parse_time_formats():
    assert parse_time("2015-05-07T11:35:00Z", "iso") == ts(2015, 5, 7, 11, 35)
    assert parse_time("2015-05-07T13:35:00+02:00", "iso") == ts(2015, 5, 7, 11, 35)
    assert parse_time(1431000900, "epoch_s") == ts(2015, 5, 7, 12, 15)
    assert parse_time(1431000900123, "epoch_ms").microsecond == 123000
    assert parse_time("07/05/2015 11:35", "%d/%m/%Y %H:%M") == ts(2015, 5, 7, 11, 35)
    assert parse_time("not a time", "iso") is None
    assert parse_time("nan", "epoch_s") is None
    assert parse_time(True, "epoch_s") is None and parse_time(False, "epoch_ms") is None
    assert parse_time(1431000000.7, "epoch_ms") is None
    assert parse_time(1431000000123.0, "epoch_ms") == parse_time(1431000000123, "epoch_ms")


def test_parse_time_truncates_to_ms():
    got = parse_time("2015-05-07T11:35:00.123456Z", "iso")
    assert got.microsecond == 123000


def test_coerce_csv_cell_empty_string():
    assert coerce_csv_cell("", "text") == ("", True)
    assert coerce_csv_cell("", "float") == (None, True)
    assert coerce_csv_cell("", "timestamp") == (None, True)


def test_coerce_csv_cell_types():
    assert coerce_csv_cell("3.5", "float") == (3.5, True)
    assert coerce_csv_cell("42", "int") == (42, True)
    assert coerce_csv_cell("true", "bool") == (True, True)
    assert coerce_csv_cell("False", "bool") == (False, True)
    assert coerce_csv_cell("yes", "bool") == (None, False)  # strict spelling
    assert coerce_csv_cell("4.2", "int") == (None, False)
    assert coerce_csv_cell("x", "float") == (None, False)
    assert coerce_csv_cell("nan", "float") == (None, True)  # NaN is not a value
    assert coerce_csv_cell("-inf", "float") == (-math.inf, True)
    assert coerce_csv_cell(" 3.5 ", "float") == (3.5, True)
    assert coerce_csv_cell("1_000", "int") == (1000, True)
    assert coerce_csv_cell(" ", "int") == (None, False)
    assert coerce_csv_cell(" ", "text") == (" ", True)


def test_coerce_json_value_strictness():
    assert coerce_json_value(None, "float") == (None, True)
    assert coerce_json_value(3, "float") == (3.0, True)  # int widens
    assert coerce_json_value(True, "int") == (None, False)  # bool is not int
    assert coerce_json_value(1, "bool") == (None, False)
    assert coerce_json_value("5", "int") == (None, False)  # no string casts
    assert coerce_json_value(math.nan, "float") == (None, True)
    assert coerce_json_value(10 ** 400, "float") == (None, False)
    assert coerce_json_value(1, "text") == (None, False)
    assert coerce_json_value("2015-05-07T11:35:00Z", "timestamp") == \
        (ts(2015, 5, 7, 11, 35), True)


# ---------------------------------------------------------------------------
# CSV source


def write_csv(path, rows, header=("t", "fare", "zone", "n", "flag")):
    with open(path, "w", newline="") as fp:
        w = csv.writer(fp)
        w.writerow(header)
        w.writerows(rows)


def test_iter_csv_roundtrip(tmp_path):
    p = tmp_path / "in.csv"
    write_csv(p, [
        ["2015-05-07T11:00:00Z", "9.5", "uptown", "3", "true"],
        ["2015-05-07T11:00:01Z", "", "", "", ""],
    ])
    counters = SourceCounters()
    out = list(iter_csv(str(p), SCHEMA, "t", counters=counters))
    assert len(out) == 2
    assert out[0].arrival_seq == 0 and out[1].arrival_seq == 1
    assert out[0].event_time == T0
    assert out[0].attrs == {"t": T0, "fare": 9.5, "zone": "uptown",
                            "n": 3, "flag": True}
    # Empty cells: Null for typed columns, empty string for text.
    assert out[1].attrs["fare"] is None and out[1].attrs["zone"] == ""
    assert counters.skipped_bad_time == 0 and counters.parse_failures == {}


def test_iter_csv_skips_rows_without_event_time(tmp_path):
    p = tmp_path / "in.csv"
    write_csv(p, [
        ["garbage", "1.0", "a", "1", "true"],
        ["2015-05-07T11:00:00Z", "1.0", "a", "1", "true"],
    ])
    counters = SourceCounters()
    out = list(iter_csv(str(p), SCHEMA, "t", counters=counters))
    assert len(out) == 1
    assert out[0].arrival_seq == 0  # seq counts yielded elements only
    assert counters.skipped_bad_time == 1
    assert counters.parse_failures.get("t") == 1


def test_iter_csv_counts_bad_cells_but_keeps_row(tmp_path):
    p = tmp_path / "in.csv"
    write_csv(p, [["2015-05-07T11:00:00Z", "cheap", "a", "1", "true"]])
    counters = SourceCounters()
    out = list(iter_csv(str(p), SCHEMA, "t", counters=counters))
    assert out[0].attrs["fare"] is None
    assert counters.parse_failures == {"fare": 1}


def test_iter_csv_extra_columns_ride_along(tmp_path):
    p = tmp_path / "in.csv"
    write_csv(p, [["2015-05-07T11:00:00Z", "1.0", "a", "1", "true", "extra!"]],
              header=("t", "fare", "zone", "n", "flag", "note"))
    out = list(iter_csv(str(p), SCHEMA, "t"))
    assert out[0].attrs["note"] == "extra!"


def test_iter_csv_missing_schema_column(tmp_path):
    p = tmp_path / "in.csv"
    write_csv(p, [], header=("t", "fare"))
    with pytest.raises(ValueError, match="missing schema columns"):
        list(iter_csv(str(p), SCHEMA, "t"))


def test_iter_csv_empty_file(tmp_path):
    p = tmp_path / "in.csv"
    p.write_text("")
    with pytest.raises(ValueError, match="no header"):
        list(iter_csv(str(p), SCHEMA, "t"))


def test_iter_csv_limit(tmp_path):
    p = tmp_path / "in.csv"
    write_csv(p, [[f"2015-05-07T11:00:{i:02d}Z", "1.0", "a", "1", "true"]
                  for i in range(10)])
    assert len(list(iter_csv(str(p), SCHEMA, "t", limit=4))) == 4


def test_iter_csv_non_nullable_violation_counts(tmp_path):
    schema = [ColumnSpec("t", "timestamp"), ColumnSpec("fare", "float", nullable=False)]
    p = tmp_path / "in.csv"
    write_csv(p, [["2015-05-07T11:00:00Z", ""]], header=("t", "fare"))
    counters = SourceCounters()
    out = list(iter_csv(str(p), schema, "t", counters=counters))
    assert out[0].attrs["fare"] is None  # row survives; the gap is counted
    assert counters.parse_failures == {"fare": 1}


# ---------------------------------------------------------------------------
# JSONL source


def test_iter_jsonl_typed_and_resilient(tmp_path):
    p = tmp_path / "in.jsonl"
    lines = [
        json.dumps({"t": "2015-05-07T11:00:00.000Z", "fare": 9.5, "zone": "up",
                    "n": 3, "flag": True, "extra": [1, 2]}),
        "this is not json",
        json.dumps(["not", "a", "dict"]),
        json.dumps({"t": "2015-05-07T11:00:02.000Z", "fare": None, "zone": "dn",
                    "n": 1, "flag": False}),
    ]
    p.write_text("\n".join(lines) + "\n")
    counters = SourceCounters()
    out = list(iter_jsonl(str(p), SCHEMA, "t", counters=counters))
    assert len(out) == 2
    assert out[0].attrs["fare"] == 9.5
    assert out[0].attrs["extra"] == "[1,2]"  # nested payloads kept as text
    assert counters.skipped_bad_time == 2  # unparseable lines count here too


def test_iter_jsonl_out_of_range_float_is_a_parse_failure(tmp_path):
    p = tmp_path / "in.jsonl"
    p.write_text('{"t": "2015-05-07T11:00:00Z", "fare": 1' + "0" * 400 + '}\n')
    counters = SourceCounters()
    out = list(iter_jsonl(str(p), SCHEMA, "t", counters=counters))
    assert out[0].attrs["fare"] is None
    assert counters.parse_failures == {"fare": 1}


def test_sources_read_bytes_that_are_not_utf8_as_lone_surrogates(tmp_path):
    """A byte that is not UTF-8 decodes to a lone surrogate (surrogateescape),
    so its row is read, counted or skipped like any other: in a text cell it
    is text, in a typed cell a parse failure, in a JSON number a skipped
    line. A JSON escape of a lone surrogate is text as well."""
    csv_path = tmp_path / "in.csv"
    csv_path.write_bytes(b"t,fare,zone,n,flag\n"
                         b"2015-05-07T11:00:00Z,1.5,a\xffb,1,true\n"
                         b"2015-05-07T11:00:01Z,\xff,\xfe,\xc3,\xff\n"
                         b"\xff2015-05-07T11:00:02Z,1.0,z,1,true\n")
    counters = SourceCounters()
    out = list(iter_csv(str(csv_path), SCHEMA, "t", counters=counters))
    assert [e.attrs["zone"] for e in out] == ["a\udcffb", "\udcfe"]
    assert out[1].attrs["fare"] is None and out[1].attrs["n"] is None
    assert counters.parse_failures == {"t": 1, "fare": 1, "n": 1, "flag": 1}
    assert counters.skipped_bad_time == 1

    jsonl_path = tmp_path / "in.jsonl"
    jsonl_path.write_bytes(b'{"t": "2015-05-07T11:00:00Z", "zone": "\\ud800", "fare": 1.0}\n'
                           b'{"t": "2015-05-07T11:00:01Z", "zone": "a\xffb", "n": 2}\n'
                           b'{"t": "2015-05-07T11:00:02Z", "fare": \xff}\n'
                           b'{"t": "2015-05-07T11:00:03Z\xff", "zone": "z"}\n')
    counters = SourceCounters()
    out = list(iter_jsonl(str(jsonl_path), SCHEMA, "t", counters=counters))
    assert [e.attrs["zone"] for e in out] == ["\ud800", "a\udcffb"]
    assert counters.skipped_bad_time == 2  # not JSON, and not a timestamp
    encodings = {canonical_bytes(e.attrs["zone"]) for e in out}
    assert len(encodings) == 2 and canonical_bytes("a\udcffb") != canonical_bytes("ab")


def test_iter_socket_reads_bytes_that_are_not_utf8(tmp_path):
    server = socket.create_server(("127.0.0.1", 0))
    port = server.getsockname()[1]

    def serve():
        conn, _ = server.accept()
        with conn:
            conn.sendall(b'{"t": "2015-05-07T11:00:00Z", "zone": "a\xffb"}\n'
                         b'{"t": "2015-05-07T11:00:01Z", "fare": \xff}\n')
        server.close()

    thread = threading.Thread(target=serve, daemon=True)
    thread.start()
    counters = SourceCounters()
    out = list(iter_socket(f"tcp://127.0.0.1:{port}", SCHEMA, "t", counters=counters))
    thread.join(timeout=5)
    assert [e.attrs["zone"] for e in out] == ["a\udcffb"]
    assert counters.skipped_bad_time == 1


def test_iter_jsonl_skips_lines_json_cannot_represent(tmp_path):
    p = tmp_path / "in.jsonl"
    good = json.dumps({"t": "2015-05-07T11:00:00Z", "fare": 1.0})
    p.write_text("\n".join([
        '{"t": "2015-05-07T11:00:00Z", "n": 1' + "0" * 5000 + "}",  # too many digits
        "[" * 100_000,  # nested too deep
        good,
    ]) + "\n")
    counters = SourceCounters()
    out = list(iter_jsonl(str(p), SCHEMA, "t", counters=counters))
    assert [e.attrs["fare"] for e in out] == [1.0]
    assert counters.skipped_bad_time == 2


@pytest.mark.parametrize("fmt,kept_ms", [
    ("epoch_s", [1431000000700, 1431000000000, 1431000000000, 1431000000000, 1431000000700]),
    ("epoch_ms", [1431000000, 1431000000, 1431000000]),
])
def test_jsonl_epoch_event_time_is_never_a_bool_nor_cut_down(tmp_path, fmt, kept_ms):
    """A JSON bool is not an epoch time, and epoch_ms does not cut a
    fraction off a number (the CSV text 1431000000.7 does not parse either):
    each such row is skipped. A whole number reads, as a float too."""
    cells = [True, False, 1431000000.7, 1431000000, 1431000000.0, "1431000000", "1431000000.7"]
    p = tmp_path / "in.jsonl"
    p.write_text("".join(json.dumps({"t": cell}) + "\n" for cell in cells))
    counters = SourceCounters()
    out = list(iter_jsonl(str(p), [ColumnSpec("t", "timestamp")], "t", {"t": fmt}, counters))
    assert [model.epoch_millis(e.event_time) for e in out] == kept_ms
    assert counters.skipped_bad_time == len(cells) - len(kept_ms)
    assert counters.parse_failures == {"t": len(cells) - len(kept_ms)}


def test_lowercase_z_event_time_is_utc_in_both_sources(tmp_path):
    # The one ISO parser: sources accept what config and wire input accept.
    assert parse_time("2015-05-07T11:00:00.000z", "iso") == parse_ts("2015-05-07T11:00:00.000z") == T0
    p = tmp_path / "in.csv"
    write_csv(p, [["2015-05-07T11:00:00.000z", "1.0", "a", "1", "true"]])
    counters = SourceCounters()
    assert [e.event_time for e in iter_csv(str(p), SCHEMA, "t", counters=counters)] == [T0]
    assert counters.skipped_bad_time == 0 and counters.parse_failures == {}
    p = tmp_path / "in.jsonl"
    p.write_text(json.dumps({"t": "2015-05-07T11:00:00.000z", "fare": 1.0}) + "\n")
    counters = SourceCounters()
    assert [e.event_time for e in iter_jsonl(str(p), SCHEMA, "t", counters=counters)] == [T0]
    assert counters.skipped_bad_time == 0 and counters.parse_failures == {}


# ---------------------------------------------------------------------------
# Decoder oracle: the compiled plans against one coercion call per cell


ORACLE_SCHEMA = [
    ColumnSpec("t", "timestamp", nullable=False),
    ColumnSpec("fare", "float"),
    ColumnSpec("n", "int", nullable=False),
    ColumnSpec("flag", "bool"),
    ColumnSpec("zone", "text", nullable=False),
    ColumnSpec("s", "timestamp"),
    ColumnSpec("ms", "timestamp", nullable=False),
    ColumnSpec("d", "timestamp"),
]
ORACLE_FORMATS = {"s": "epoch_s", "ms": "epoch_ms", "d": "%d/%m/%Y %H:%M"}


def _reference_decode(records, from_csv):
    """Decode raw records (dicts of cells) one public coercion call per cell.

    Schema columns come first, in schema order, then the others in record
    order; a bad cell or a non-nullable Null counts a failure; a record
    without a timestamp event time is skipped.
    """
    coerce = coerce_csv_cell if from_csv else coerce_json_value
    names = {col.name for col in ORACLE_SCHEMA}
    counters = SourceCounters()
    out = []
    for raw in records:
        if raw is None:  # a line that is not a JSON object
            counters.skipped_bad_time += 1
            continue
        row = {}
        for col in ORACLE_SCHEMA:
            value, ok = (coerce(raw[col.name], col.type, ORACLE_FORMATS.get(col.name, "iso"))
                         if col.name in raw else (None, True))
            if not ok or (value is None and not col.nullable):
                counters.fail(col.name)
            row[col.name] = value
        for name, cell in raw.items():
            if name in names:
                continue
            if from_csv:
                row[name] = cell if cell != "" else None
            elif isinstance(cell, (list, dict)):
                row[name] = json.dumps(cell, separators=(",", ":"))
            else:
                row[name] = value_from_json(cell)
        t = row.get("t")
        if not isinstance(t, datetime):
            counters.skipped_bad_time += 1
            continue
        out.append((t, len(out), row))
    return out, counters


def _typed(decoded):
    """Elements as comparable tuples that keep attr order and value types."""
    return [(t, seq, [(k, type(v).__name__, repr(v)) for k, v in row.items()])
            for t, seq, row in decoded]


def _assert_same_decoding(elements, counters, reference):
    expected, ref_counters = reference
    got = [(e.event_time, e.arrival_seq, e.attrs) for e in elements]
    assert _typed(got) == _typed(expected)
    assert list(counters.parse_failures.items()) == list(ref_counters.parse_failures.items())
    assert counters.skipped_bad_time == ref_counters.skipped_bad_time


ORACLE_CELLS = [
    "", " ", "x", "1", "-3", " 42 ", "1_000", "4.2", " 3.5 ", "nan", "NaN", "inf",
    "-Infinity", "1e400", "true", "True", "FALSE", "yes", "0",
    "2015-05-07T11:00:00Z", "2015-05-07T11:00:00.000z", "2015-05-07T13:00:00+02:00",
    "2015-05-07T11:00:00.123456Z", "2015-05-07T11:00:00.999999-00:30",
    "2015-05-07 11:00:00", "2015-05-07", "not a time", "1431000900", "1431000900.5",
    "1431000900123", "07/05/2015 11:35",
]


def test_csv_plan_matches_per_cell_coercion(tmp_path):
    header = ["note", "t", "fare", "n", "flag", "zone", "s", "ms", "d", "note", "fare"]
    rows = [
        ["a", "2015-05-07T11:00:00Z", "3.5", "1", "true", "up", "1431000900",
         "1431000900123", "07/05/2015 11:35", "b", "4.5"],  # duplicates: the last cell wins
        ["a", "2015-05-07T11:00:01.5Z"],  # short row: the rest are empty
        ["", "2015-05-07T13:00:02+02:00", "nan", "1_000", "FALSE", "", "1431000900.25",
         "12", "", "", " 7 ", "extra", "cells"],  # extra cells are dropped
        ["", "2015-05-07T11:00:03", "inf", " 42 ", "", "z", "", "", "07/05/2015 11:35"],
        ["", "2015-05-07T11:00:04.123999Z", "-inf", "", "yes", "z", "x", "x", "x", "", " 3.5 "],
        ["", "not a time", "1", "1", "true", "z", "", "", ""],  # skipped, failures counted
        ["", "", "1", "1", "true", "z", "", "", ""],  # empty event time
        ["", "2015-05-07T11:00:05.000z", "1e400", "4.2", "True", "z", "nan", "1.5", "", ""],
    ]
    rng = random.Random(11)
    for _ in range(400):
        width = rng.choice([len(header)] * 5 + [0, 1, 4, len(header) + 2])
        rows.append([rng.choice(ORACLE_CELLS) for _ in range(width)])
    p = tmp_path / "in.csv"
    write_csv(p, rows, header=header)
    with open(p, newline="") as fp:
        reader = csv.reader(fp)
        names = next(reader)
        raws = [{name: cells[i] if i < len(cells) else "" for i, name in enumerate(names)}
                for cells in reader]
    counters = SourceCounters()
    elements = list(iter_csv(str(p), ORACLE_SCHEMA, "t", ORACLE_FORMATS, counters))
    _assert_same_decoding(elements, counters, _reference_decode(raws, from_csv=True))
    assert counters.skipped_bad_time > 0 and set(counters.parse_failures) == {
        "t", "fare", "n", "flag", "s", "ms", "d"}  # text never fails
    first = elements[0].attrs
    assert list(first) == ["t", "fare", "n", "flag", "zone", "s", "ms", "d", "note"]
    assert first["fare"] == 4.5 and first["note"] == "b"


def test_jsonl_plan_matches_per_field_coercion(tmp_path):
    lines = [
        {"t": "2015-05-07T11:00:00Z", "fare": 3, "n": 2, "flag": True, "zone": "up",
         "s": 1431000900, "ms": 1431000900123, "d": "07/05/2015 11:35", "tags": ["a"],
         "meta": {"k": 1}, "seen": "2015-05-07T11:00:00.000Z", "big": "Infinity"},
        {"t": "2015-05-07T11:00:01.000z"},  # every other field missing
        {"t": "2015-05-07T11:00:02Z", "n": True, "flag": 1, "fare": False, "zone": 5},
        {"t": "2015-05-07T13:00:03.123456+02:00", "fare": None, "n": 1.0, "ms": "12",
         "s": "1431000900.5", "zone": None, "d": 5},
        {"t": 1431000900, "fare": 1.0},  # an ISO event time must be text
        {"t": "2015-05-07T11:00:04", "fare": 10 ** 400, "extra": None},
    ]
    rng = random.Random(12)
    pool = [None, True, False, 0, 7, -1.5, 2 ** 70, "x", "1", [1, [2]], {"a": None},
            *ORACLE_CELLS]
    keys = [col.name for col in ORACLE_SCHEMA] + ["extra", "other"]
    for _ in range(400):
        lines.append({k: rng.choice(pool) for k in rng.sample(keys, rng.randint(0, len(keys)))})
    text = [json.dumps(obj) for obj in lines]
    text[3:3] = ["", "not json", json.dumps([1, 2]), json.dumps("text"), "null"]
    p = tmp_path / "in.jsonl"
    p.write_text("\n".join(text) + "\n")
    raws = []
    for line in text:
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
        except ValueError:
            obj = None
        raws.append(obj if isinstance(obj, dict) else None)
    counters = SourceCounters()
    elements = list(iter_jsonl(str(p), ORACLE_SCHEMA, "t", ORACLE_FORMATS, counters))
    _assert_same_decoding(elements, counters, _reference_decode(raws, from_csv=False))
    first = elements[0].attrs
    assert list(first)[8:] == ["tags", "meta", "seen", "big"]
    assert first["fare"] == 3.0 and isinstance(first["fare"], float)
    assert first["meta"] == '{"k":1}' and first["seen"] == T0 and first["big"] == math.inf


# ---------------------------------------------------------------------------
# The compiled row's inline cells against the per-cell coercers


def _iso_texts():
    """ISO-like texts: every shape parse_iso reads, and near misses."""
    moment = st.one_of(
        st.datetimes(min_value=datetime(1, 1, 1), max_value=datetime(9999, 12, 31, 23, 59, 59)),
        st.sampled_from([datetime(2016, 2, 29, 23, 59, 59, 999000), datetime(2000, 2, 29),
                         datetime(1, 1, 1), datetime(9999, 12, 31, 23, 59, 59, 999999)]))
    fraction = st.sampled_from(["", ".000", ".123", ".999", ".5", ".123456", ".000999",
                                ".1234567", ",250"])
    zone = st.one_of(
        st.sampled_from(["Z", "Z", "Z", "z", "", "+00:00", "-00:00", "+05:30", "-23:59", "+0000",
                         "+00", "+00:00:00.000001", "ZZ", " Z"]),
        st.builds(lambda minutes: "%s%02d:%02d" % ("+-"[minutes < 0], abs(minutes) // 60,
                                                   abs(minutes) % 60),
                  st.integers(-1439, 1439)))
    pad = st.sampled_from([""] * 8 + [" ", "\t", "\n"])

    def render(when, separator, fraction, zone, before, after, date_only):
        text = f"{when.year:04d}-{when.month:02d}-{when.day:02d}"
        if not date_only:
            text += f"{separator}{when.hour:02d}:{when.minute:02d}:{when.second:02d}"
            text += fraction + zone
        return before + text + after

    built = st.builds(render, moment, st.sampled_from(["T", "T", "T", " ", "t"]), fraction,
                      zone, pad, pad, st.sampled_from([False] * 5 + [True]))
    return st.one_of(built, st.text(max_size=30) | st.sampled_from(["", "2015", "Z"]))


@settings(max_examples=600, deadline=None)
@given(st.lists(_iso_texts(), min_size=1, max_size=8))
def test_inline_iso_cell_matches_parse_iso(texts):
    """An ISO event-time cell is read by fromisoformat inline, and kept only
    when it is what parse_iso makes of the text; every other text takes
    parse_iso. In both sources the value, the failure count and the skip
    are parse_iso's."""
    schema = [ColumnSpec("t", "timestamp", nullable=False)]
    csv_counters, json_counters = SourceCounters(), SourceCounters()
    csv_row = _row_decoder(schema, {}, "t", csv_counters, header=["t"])
    json_row = _row_decoder(schema, {}, "t", json_counters)
    failures = 0
    for seq, text in enumerate(texts):
        try:
            want = parse_iso(text)
        except (ValueError, OverflowError):
            want = None
            failures += 1
        else:
            assert want.tzinfo is timezone.utc
        for row in (csv_row([text], seq), json_row({"t": text}, seq)):
            if want is None:
                assert row is None, text
            else:
                assert row.event_time == want and row.attrs == {"t": want}, text
                assert row.event_time.tzinfo is timezone.utc
    # An empty CSV cell is a Null, a failure of the non-nullable column.
    assert csv_counters.parse_failures.get("t", 0) == failures
    assert json_counters.parse_failures.get("t", 0) == failures


HOSTILE_CELLS = ["", " ", "nan", "-nan", "NaN", "inf", "-inf", "Infinity", "1e400", "-1e400",
                 "1e-400", " 1.0", "1.0 ", "\t2\n", "+1", "-0", "-0.0", "0x10", "1_0",
                 "1__0", "\u0661\u0662", "12" * 3000, "true", "TRUE", "t", "\x00",
                 "2015-05-07T11:00:00Z", "2015-05-07T11:00:00.000-00:00",
                 "2015-05-07T11:00:00.0001Z", "2015-05-07", "1431000900"]


# JSON values beside text: Null, bools, numbers of each kind, NaN and the
# infinities, an int past the float range, and nested values.
HOSTILE_VALUES = [None, True, False, 0, 7, -1.5, 2.0, math.nan, math.inf, -math.inf,
                  10 ** 400, [1], {"a": None}]


@settings(max_examples=150, deadline=None)
@given(st.lists(st.tuples(
    st.booleans(),
    st.lists(st.sampled_from(HOSTILE_CELLS) | st.text(max_size=6)
             | st.sampled_from(HOSTILE_VALUES), max_size=12)), min_size=1, max_size=12))
def test_compiled_row_matches_per_cell_coercion_on_hostile_cells(rows):
    """Empty, NaN, infinite and out-of-range numbers, padded numbers, short
    and long rows and ride-along columns: the compiled CSV and JSONL rows
    equal one coercion call per cell, with the same parse_failures and
    skipped_bad_time. Most rows keep a good event time, so their cells are
    compared, not skipped."""
    header = ["note", "t", "fare", "n", "flag", "zone", "s", "ms", "d", "tail"]
    rows = [cells[:1] + ["2015-05-07T11:00:00Z"] + cells[2:] if timed else cells
            for timed, cells in rows]
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "in.csv")
        write_csv(path, rows, header=header)
        with open(path, newline="") as fp:
            reader = csv.reader(fp)
            next(reader)
            raws = [{name: cells[i] if i < len(cells) else "" for i, name in enumerate(header)}
                    for cells in reader]
        counters = SourceCounters()
        elements = list(iter_csv(path, ORACLE_SCHEMA, "t", ORACLE_FORMATS, counters))
        _assert_same_decoding(elements, counters, _reference_decode(raws, from_csv=True))
        path = os.path.join(tmp, "in.jsonl")
        objects = [{name: cell for name, cell in zip(header, cells)} for cells in rows]
        with open(path, "w") as fp:
            fp.writelines(json.dumps(obj) + "\n" for obj in objects)
        counters = SourceCounters()
        elements = list(iter_jsonl(path, ORACLE_SCHEMA, "t", ORACLE_FORMATS, counters))
        _assert_same_decoding(elements, counters, _reference_decode(objects, from_csv=False))


def test_iter_socket(tmp_path):
    rows = [json.dumps({"t": f"2015-05-07T11:00:0{i}.000Z", "fare": float(i),
                        "zone": "z", "n": i, "flag": True}) for i in range(3)]
    server = socket.create_server(("127.0.0.1", 0))
    port = server.getsockname()[1]

    def serve():
        conn, _ = server.accept()
        with conn:
            conn.sendall(("\n".join(rows) + "\n").encode())
        server.close()

    thread = threading.Thread(target=serve, daemon=True)
    thread.start()
    out = list(iter_socket(f"tcp://127.0.0.1:{port}", SCHEMA, "t"))
    thread.join(timeout=5)
    assert [e.attrs["fare"] for e in out] == [0.0, 1.0, 2.0]


def test_paced_sleeps_by_event_delta(tmp_path):
    p = tmp_path / "in.csv"
    write_csv(p, [
        ["2015-05-07T11:00:00Z", "1.0", "a", "1", "true"],
        ["2015-05-07T11:00:01Z", "1.0", "a", "1", "true"],  # 1s gap
    ])
    t0 = time.monotonic()
    out = list(paced(iter_csv(str(p), SCHEMA, "t"), factor=20.0))
    elapsed = time.monotonic() - t0
    assert len(out) == 2
    assert elapsed >= 0.05  # 1s / 20
    assert elapsed < 2.0


# ---------------------------------------------------------------------------
# Reference loading


def test_load_reference_csv_sniffing(tmp_path):
    p = tmp_path / "ref.csv"
    p.write_text("hour,max_mean,label\n11,10.5,morning\n12,12.0,noon\n*,99.0,any\n")
    table = load_reference("hourly", str(p), "hour")
    assert table.columns == ("hour", "max_mean", "label")
    # hour stays int-typed despite the "*" default marker row.
    row = table.lookup(11)
    assert row == {"hour": 11, "max_mean": 10.5, "label": "morning"}
    assert table.lookup(99) == {"hour": "*", "max_mean": 99.0, "label": "any"}
    assert table.lookup("11") is table.default_row  # text key misses int rows


def test_load_reference_types_each_csv_column_by_the_cell_rule(tmp_path):
    """A column is int when every cell but "" and "*" reads as an int, else
    float when every such cell reads as a float (a nan one reads as Null),
    else text. An empty cell is Null in every column, and "*" stays text."""
    p = tmp_path / "ref.csv"
    p.write_text("key,count,rate,ratio,blank,label\n"
                 "1,10,1.5,nan,,x\n"
                 "2,,2,0.5,,7\n"
                 " 3 ,-4,inf,,,\n"
                 "*,*,*,*,*,*\n")
    table = load_reference("mixed", str(p), "key")

    def typed(row):
        return {name: (type(v).__name__, v) for name, v in row.items()}
    assert [typed(row) for row in table.rows.values()] == [
        {"key": ("int", 1), "count": ("int", 10), "rate": ("float", 1.5),
         "ratio": ("NoneType", None), "blank": ("NoneType", None), "label": ("str", "x")},
        {"key": ("int", 2), "count": ("NoneType", None), "rate": ("float", 2.0),
         "ratio": ("float", 0.5), "blank": ("NoneType", None), "label": ("str", "7")},
        {"key": ("int", 3), "count": ("int", -4), "rate": ("float", math.inf),
         "ratio": ("NoneType", None), "blank": ("NoneType", None), "label": ("NoneType", None)}]
    assert list(table.rows) == [canonical_bytes(1), canonical_bytes(2), canonical_bytes(3)]
    assert typed(table.default_row) == {name: ("str", "*") for name in table.columns}


def test_reference_table_is_one_class_under_its_three_names():
    """The table type lives in model, below connectors, and the package
    and monitor re-export it."""
    assert streamqc.ReferenceTable is monitor.ReferenceTable is model.ReferenceTable


def test_load_reference_without_default(tmp_path):
    p = tmp_path / "ref.csv"
    p.write_text("zone,cap\nuptown,10\n")
    table = load_reference("caps", str(p), "zone")
    assert table.lookup("uptown") == {"zone": "uptown", "cap": 10}
    assert table.lookup("ghost") is None


def test_load_reference_duplicate_keys_warn_last_wins(tmp_path, caplog):
    p = tmp_path / "ref.csv"
    p.write_text("zone,cap\na,1\na,2\n")
    with caplog.at_level(logging.WARNING):
        table = load_reference("caps", str(p), "zone")
    assert table.lookup("a")["cap"] == 2
    assert any("duplicate" in r.message for r in caplog.records)


def test_load_reference_jsonl_keeps_json_types(tmp_path):
    p = tmp_path / "ref.jsonl"
    p.write_text(json.dumps({"hour": 11, "cap": 10.5}) + "\n")
    table = load_reference("hourly", str(p), "hour")
    assert table.lookup(11) == {"hour": 11, "cap": 10.5}
    assert canonical_bytes(11) in table.rows


def test_load_reference_errors(tmp_path):
    empty = tmp_path / "ref.csv"
    empty.write_text("zone,cap\n")
    with pytest.raises(ValueError):
        load_reference("caps", str(empty), "zone")
    missing_key = tmp_path / "ref2.csv"
    missing_key.write_text("zone,cap\na,1\n")
    with pytest.raises(ValueError):
        load_reference("caps", str(missing_key), "ghost")


# ---------------------------------------------------------------------------
# Synthetic stream generator


GEN_COLUMNS = [
    {"name": "ride_id", "kind": "sequence", "prefix": "R"},
    {"name": "fare", "kind": "normal", "mean": 10.0, "std": 2.0, "round": 2},
    {"name": "zone", "kind": "choice", "values": ["a", "b", "c"]},
]


def generate(tmp_path, injections=None, seed=7, rate=2.0, minutes=5):
    tmp_path.mkdir(parents=True, exist_ok=True)
    csv_path = tmp_path / "stream.csv"
    manifest = tmp_path / "manifest.jsonl"
    n = generate_stream(str(csv_path), str(manifest), seed=seed, start=T0,
                        rate_per_sec=rate, duration=timedelta(minutes=minutes),
                        columns=GEN_COLUMNS, injections=injections or [])
    return csv_path, manifest, n


def read_rows(csv_path):
    with open(csv_path, newline="") as fp:
        return list(csv.DictReader(fp))


def test_generate_row_count_and_spacing(tmp_path):
    csv_path, _, n = generate(tmp_path, rate=2.0, minutes=5)
    rows = read_rows(csv_path)
    assert n == len(rows) == 600
    assert rows[0]["event_time"] == "2015-05-07T11:00:00.000Z"
    assert rows[1]["event_time"] == "2015-05-07T11:00:00.500Z"
    assert rows[2]["event_time"] == "2015-05-07T11:00:01.000Z"


def test_generate_is_deterministic(tmp_path):
    a_csv, a_man, _ = generate(tmp_path / "a", seed=99)
    b_csv, b_man, _ = generate(tmp_path / "b", seed=99)
    assert a_csv.read_bytes() == b_csv.read_bytes()
    assert a_man.read_bytes() == b_man.read_bytes()
    c_csv, _, _ = generate(tmp_path / "c", seed=100)
    assert a_csv.read_bytes() != c_csv.read_bytes()


def test_generate_manifest_shape(tmp_path):
    inj = [{"type": "missing_burst", "column": "fare",
            "start": "1m", "end": "2m"}]
    _, manifest, _ = generate(tmp_path, injections=inj)
    lines = [json.loads(l) for l in manifest.read_text().splitlines()]
    assert lines[0]["type"] == "run"
    assert lines[0]["seed"] == 7 and lines[0]["rows"] == 600
    assert lines[1] == {
        "type": "missing_burst", "column": "fare",
        "start": "2015-05-07T11:01:00.000Z", "end": "2015-05-07T11:02:00.000Z",
        "seed": 7,
    }


def span_rows(rows, lo_s, hi_s):
    inside, outside = [], []
    for r in rows:
        t = r["event_time"]
        target = inside if (
            "2015-05-07T11:0" <= t and
            ts_sec(t) >= lo_s and ts_sec(t) < hi_s) else outside
        target.append(r)
    return inside, outside


def ts_sec(iso):
    from streamqc.model import parse_ts

    return (parse_ts(iso) - T0) / timedelta(seconds=1)


def test_injection_missing_burst(tmp_path):
    inj = [{"type": "missing_burst", "column": "fare", "start": "1m", "end": "2m"}]
    csv_path, _, _ = generate(tmp_path, injections=inj)
    inside, outside = span_rows(read_rows(csv_path), 60, 120)
    assert inside and all(r["fare"] == "" for r in inside)
    assert all(r["fare"] != "" for r in outside)


def test_injection_placeholder_burst(tmp_path):
    inj = [{"type": "placeholder_burst", "column": "zone",
            "start": "0s", "end": "1m", "token": "99"}]
    csv_path, _, _ = generate(tmp_path, injections=inj)
    inside, outside = span_rows(read_rows(csv_path), 0, 60)
    assert inside and all(r["zone"] == "99" for r in inside)
    assert all(r["zone"] in ("a", "b", "c") for r in outside)


def test_injection_duplicate_burst(tmp_path):
    inj = [{"type": "duplicate_burst", "column": "ride_id",
            "start": "1m", "end": "2m"}]
    csv_path, _, n = generate(tmp_path, injections=inj)
    rows = read_rows(csv_path)
    assert n == len(rows) == 600 + 120  # 2/s for one minute, each doubled
    inside, _ = span_rows(rows, 60, 120)
    ids = [r["ride_id"] for r in inside]
    assert len(ids) == 240
    assert ids[0] == ids[1] and ids[2] == ids[3]  # back-to-back copies


def test_injection_out_of_order(tmp_path):
    inj = [{"type": "out_of_order", "column": "event_time",
            "start": "1m", "end": "2m"}]
    csv_path, _, _ = generate(tmp_path, injections=inj)
    plain_csv, _, _ = generate(tmp_path / "plain")
    rows = read_rows(csv_path)
    plain = read_rows(plain_csv)
    # Same multiset of rows, span emitted in reverse arrival order.
    assert sorted(r["event_time"] for r in rows) == \
        sorted(r["event_time"] for r in plain)
    times = [r["event_time"] for r in rows]
    assert times != sorted(times)
    inside, _ = span_rows(rows, 60, 120)
    inside_times = [r["event_time"] for r in inside]
    assert inside_times == sorted(inside_times, reverse=True)


def test_injection_frozen(tmp_path):
    inj = [{"type": "frozen", "column": "fare", "start": "2m", "end": "4m"}]
    csv_path, _, _ = generate(tmp_path, injections=inj)
    inside, outside = span_rows(read_rows(csv_path), 120, 240)
    frozen_values = {r["fare"] for r in inside}
    assert len(frozen_values) == 1
    assert len({r["fare"] for r in outside}) > 1


def test_injection_fare_spike(tmp_path):
    inj = [{"type": "fare_spike", "column": "fare",
            "start": "1m", "end": "2m", "factor": 10.0}]
    csv_path, _, _ = generate(tmp_path, injections=inj)
    plain_csv, _, _ = generate(tmp_path / "plain")
    inside, _ = span_rows(read_rows(csv_path), 60, 120)
    plain_inside, _ = span_rows(read_rows(plain_csv), 60, 120)
    for spiked, base in zip(inside, plain_inside):
        assert float(spiked["fare"]) == pytest.approx(float(base["fare"]) * 10.0,
                                                      abs=1e-4)


def test_generate_rejects_unknown_injection(tmp_path):
    with pytest.raises(ValueError, match="unknown injection"):
        generate(tmp_path, injections=[{"type": "gremlins"}])


def test_generated_stream_feeds_csv_source(tmp_path):
    csv_path, _, n = generate(tmp_path)
    schema = [ColumnSpec("event_time", "timestamp"),
              ColumnSpec("ride_id", "text"),
              ColumnSpec("fare", "float", nullable=True),
              ColumnSpec("zone", "text")]
    counters = SourceCounters()
    out = list(iter_csv(str(csv_path), schema, "event_time", counters=counters))
    assert len(out) == n
    assert counters.skipped_bad_time == 0 and counters.parse_failures == {}


# ---------------------------------------------------------------------------
# Sinks


def test_file_sink_writes_lines(tmp_path):
    p = tmp_path / "meta.jsonl"
    sink = FileSink(str(p))
    sink.write_line('{"a":1}')
    sink.write_line('{"b":2}')
    sink.close()
    assert p.read_text() == '{"a":1}\n{"b":2}\n'


def test_stdout_sink(capsys):
    sink = StdoutSink()
    sink.write_line("hello")
    sink.close()
    assert capsys.readouterr().out == "hello\n"


def test_socket_sink():
    server = socket.create_server(("127.0.0.1", 0))
    port = server.getsockname()[1]
    received = []

    def serve():
        conn, _ = server.accept()
        with conn:
            received.append(conn.makefile("r").read())
        server.close()

    thread = threading.Thread(target=serve, daemon=True)
    thread.start()
    sink = SocketSink(f"tcp://127.0.0.1:{port}")
    sink.write_line("one")
    sink.write_line("two")
    sink.close()
    thread.join(timeout=5)
    assert received == ["one\ntwo\n"]


def test_open_sink_dispatch(tmp_path):
    assert isinstance(open_sink("-"), StdoutSink)
    file_sink = open_sink(str(tmp_path / "x.jsonl"))
    assert isinstance(file_sink, FileSink)
    file_sink.close()
