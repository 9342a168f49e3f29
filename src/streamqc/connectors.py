"""Sources, sinks, reference loading, and the synthetic stream generator.

Sources turn CSV/JSONL/socket lines into StreamElements under a declared
schema. Cell coercion never raises: an unparseable cell becomes Null and
bumps a per-column counter, while a record whose event-time cell is missing
or unparseable is skipped entirely. Sinks are line-oriented and fail-stop.

The coercers are the package's one rule for reading a cell as a type: the
compiled source decoders, type_check (through reads_as) and the typing of
reference CSV columns all use them. This module imports only model.

A source decodes its bytes as UTF-8, and a byte that is not UTF-8 becomes a
lone surrogate (errors="surrogateescape"), so such a cell is read, counted
or skipped like any other: its text keeps a distinct encoding
(canonical_bytes) and the wire form escapes it. socket and logging are
imported where they are used, so a run that opens no socket and logs
nothing does not load them.
"""

from __future__ import annotations

import csv
import functools
import io
import json
import math
import random
import sys
import time
from dataclasses import dataclass, field
from datetime import datetime, timedelta, timezone
from typing import Any, Callable, Iterable, Iterator, Sequence

from .model import (
    TS_MAX,
    BadValue,
    ColumnSpec,
    ModelError,
    Param,
    Parser,
    ReferenceTable,
    StreamElement,
    Value,
    canonical_bytes,
    epoch_millis,
    format_ts,
    from_epoch_millis,
    from_model,
    is_number,
    list_of,
    number,
    parse_duration,
    parse_fields,
    parse_iso,
    parse_ts,
    string,
    text,
    utc_ms,
    value_from_json,
)

__all__ = [
    "SourceError", "SourceCounters", "coerce_csv_cell", "coerce_json_value", "reads_as",
    "parse_time", "parse_address", "iter_csv", "iter_jsonl", "iter_socket", "paced",
    "load_reference", "GENERATOR", "generate_stream",
    "FileSink", "StdoutSink", "SocketSink", "open_sink",
]

# ---------------------------------------------------------------------------
# Coercion


class SourceError(ValueError):
    """A source or sink that cannot be opened as configured (an empty CSV, a
    CSV header without a schema column, a malformed socket address)."""


@dataclass
class SourceCounters:
    """Parse-quality counters a source fills in while reading."""

    skipped_bad_time: int = 0
    parse_failures: dict[str, int] = field(default_factory=dict)

    def fail(self, column: str) -> None:
        self.parse_failures[column] = self.parse_failures.get(column, 0) + 1


# A coercer maps one raw cell to a value, or to _BAD when the cell does not
# parse. Coercers are built once per (type, format) and shared by the
# per-cell functions below and by the compiled source decoders.
_BAD = object()


@functools.lru_cache(maxsize=128)
def _time_parser(fmt: str) -> Callable[[Any], datetime | None]:
    """The parser of one timestamp format; it returns None for a bad cell."""
    if fmt == "iso":
        def parse(raw: Any) -> datetime | None:
            if not isinstance(raw, str):
                return None
            try:
                return parse_iso(raw)
            except (ValueError, OverflowError):
                return None
    elif fmt == "epoch_s":
        def parse(raw: Any) -> datetime | None:
            if isinstance(raw, bool):
                return None
            try:
                return from_epoch_millis(round(float(raw) * 1000.0))
            except (ValueError, TypeError, OverflowError):
                return None
    elif fmt == "epoch_ms":
        def parse(raw: Any) -> datetime | None:
            if isinstance(raw, bool) or isinstance(raw, float) and not raw.is_integer():
                return None  # a JSON bool, or a number int() would cut down
            try:
                return from_epoch_millis(int(raw))
            except (ValueError, TypeError, OverflowError):
                return None
    else:
        def parse(raw: Any) -> datetime | None:
            if not isinstance(raw, str):
                return None
            try:
                dt = datetime.strptime(raw, fmt)
                if dt.tzinfo is None:
                    dt = dt.replace(tzinfo=timezone.utc)
                return utc_ms(dt)
            except (ValueError, TypeError, OverflowError):
                return None
    return parse


def parse_time(raw: Any, fmt: str) -> datetime | None:
    """Parse one timestamp cell; None means unparseable.

    fmt is "iso", "epoch_s", "epoch_ms", or a strptime pattern. Naive results
    are taken as UTC; everything is truncated to millisecond precision. An
    epoch time is a number or its text, never a bool, and whole under epoch_ms.
    """
    return _time_parser(fmt)(raw)


@functools.lru_cache(maxsize=128)
def _csv_coercer(type_name: str, fmt: str) -> Callable[[str], Value] | None:
    """The coercer of a CSV column; None for text, whose cell is its value.

    Empty cells are Null for every other type.
    """
    if type_name == "text":
        return None
    if type_name == "bool":
        def coerce(text: str) -> Value:
            low = text.lower()
            if low == "true":
                return True
            if low == "false":
                return False
            return None if text == "" else _BAD
    elif type_name == "int":
        def coerce(text: str) -> Value:
            try:
                return int(text)
            except ValueError:
                return None if text == "" else _BAD
    elif type_name == "float":
        def coerce(text: str) -> Value:
            try:
                value = float(text)
            except ValueError:
                return None if text == "" else _BAD
            return None if math.isnan(value) else value
    elif type_name == "timestamp":
        parse = _time_parser(fmt)

        def coerce(text: str) -> Value:
            if text == "":
                return None
            dt = parse(text)
            return _BAD if dt is None else dt
    else:
        raise ValueError(f"unknown column type {type_name!r}")
    return coerce


@functools.lru_cache(maxsize=128)
def _json_coercer(type_name: str, fmt: str) -> Callable[[Any], Value]:
    """The coercer of a JSON field. Null stays Null; type mismatches fail,
    they are never silently reinterpreted; the one widening is int -> float."""
    if type_name == "bool":
        def coerce(raw: Any) -> Value:
            return raw if raw is True or raw is False or raw is None else _BAD
    elif type_name == "int":
        def coerce(raw: Any) -> Value:
            if isinstance(raw, int) and not isinstance(raw, bool):
                return raw
            return None if raw is None else _BAD
    elif type_name == "float":
        def coerce(raw: Any) -> Value:
            if is_number(raw):
                try:
                    value = float(raw)
                except OverflowError:  # an int beyond the float range
                    return _BAD
                return None if math.isnan(value) else value
            return None if raw is None else _BAD
    elif type_name == "text":
        def coerce(raw: Any) -> Value:
            return raw if raw is None or isinstance(raw, str) else _BAD
    elif type_name == "timestamp":
        parse = _time_parser(fmt)

        def coerce(raw: Any) -> Value:
            if raw is None:
                return None
            dt = parse(raw)
            return _BAD if dt is None else dt
    else:
        raise ValueError(f"unknown column type {type_name!r}")
    return coerce


def coerce_csv_cell(text: str, type_name: str, fmt: str = "iso") -> tuple[Value, bool]:
    """(value, ok). Empty cells are Null for every type except text."""
    coerce = _csv_coercer(type_name, fmt)
    value = text if coerce is None else coerce(text)
    return (None, False) if value is _BAD else (value, True)


def coerce_json_value(raw: Any, type_name: str, fmt: str = "iso") -> tuple[Value, bool]:
    """(value, ok) for a decoded JSON field. Type mismatches fail, they are
    never silently reinterpreted; the one widening is int -> float."""
    value = _json_coercer(type_name, fmt)(raw)
    return (None, False) if value is _BAD else (value, True)


def reads_as(type_name: str, formats: Sequence[str]) -> Callable[[Value], bool]:
    """The test of whether a non-Null value reads as type_name, by the rule
    a source decodes a cell with: text by its CSV coercer, any other value
    by its JSON coercer. So an int passes as a float only within the float
    range, and a bool passes only as a bool. A timestamp's text or number
    passes when parse_time reads it under one of formats."""
    if type_name == "timestamp":
        parsers = [_time_parser(fmt) for fmt in formats]

        def test(v: Value) -> bool:
            if isinstance(v, datetime):
                return True
            return any(parse(v) is not None for parse in parsers)
        return test
    from_value = _json_coercer(type_name, "iso")
    from_text = _csv_coercer(type_name, "iso") or from_value

    def test(v: Value) -> bool:
        value = (from_text if type(v) is str else from_value)(v)
        return value is not None and value is not _BAD
    return test


# ---------------------------------------------------------------------------
# Sources
#
# Each source compiles its schema once into one row function, generated as
# Python source the way dataclasses builds __init__. A record's attrs are
# the schema columns in schema order, then the columns outside the schema,
# which ride along untyped, in source order. A typed cell of a common shape
# is converted inline; any cell that shape rejects goes to its column's
# coercer. A cell that does not parse, or a Null in a non-nullable column,
# becomes Null and counts as a parse failure of its column; a record whose
# event time is not a timestamp is skipped.

# The inline shapes, by (source, type): the conversion of the raw cell c
# (None: c as it is) and the test its result {v} must pass. A conversion
# that raises ValueError or TypeError, or a result that fails the test, goes
# to the coercer. An ISO timestamp from fromisoformat is kept only when it
# is what parse_iso makes of the text: UTC at whole milliseconds. A nonzero
# offset, a naive or a sub-millisecond time and a lowercase z (which
# fromisoformat rejects, as Python 3.10 rejects any Z) take parse_iso.
_INLINE = {
    ("csv", "float"): ("float(c)", "{v} == {v}"),  # NaN is Null: the coercer's case
    ("csv", "int"): ("int(c)", None),
    ("json", "float"): (None, "type({v}) is float and {v} == {v}"),
    ("json", "int"): (None, "type({v}) is int"),
    ("json", "text"): (None, "type({v}) is str"),
}
_INLINE_ISO = ("fromisoformat(c)", "{v}.tzinfo is utc and not {v}.microsecond % 1000")


def _cell_coercer(name: str, coerce: Callable[[Any], Value], nullable: bool,
                  fail: Callable[[str], None]) -> Callable[[Any], Value]:
    """A column's coercer with its failure rule: a cell that does not
    parse is Null, and it or a Null in a non-nullable column is counted."""
    def cell(raw: Any) -> Value:
        value = coerce(raw)
        if value is _BAD:
            fail(name)
            return None
        if value is None and not nullable:
            fail(name)
        return value
    return cell


def _row_decoder(schema: list[ColumnSpec], formats: dict[str, str], event_time: str,
                 counters: SourceCounters, header: list[str] | None = None
                 ) -> Callable[[Any, int], StreamElement | None]:
    """The row function of a source: (raw record, arrival seq) -> its
    element, or None when its event time is not a timestamp.

    With a header the record is a CSV row's list of cells, a name repeated
    in the header taking its last cell; without, it is a JSON object."""
    csv_source = header is not None
    source = "csv" if csv_source else "json"
    known = frozenset(col.name for col in schema)
    namespace: dict[str, Any] = {
        "fromisoformat": datetime.fromisoformat, "utc": timezone.utc,
        "datetime": datetime, "Element": StreamElement, "known": known,
        "ride_along": _ride_along}
    index = {name: i for i, name in enumerate(header or ())}
    lines = [] if csv_source else ["get = raw.get"]
    fields: list[str] = []
    for n, col in enumerate(schema):
        fmt = formats.get(col.name, "iso")
        cell = f"cells[{index[col.name]}]" if csv_source else f"get({col.name!r})"
        if csv_source and col.type == "text":
            fields.append(f"{col.name!r}: {cell}")
            continue
        var = f"v{n}"
        fields.append(f"{col.name!r}: {var}")
        coerce = (_csv_coercer if csv_source else _json_coercer)(col.type, fmt)
        namespace[f"cell{n}"] = _cell_coercer(col.name, coerce, col.nullable, counters.fail)
        form = (_INLINE_ISO if col.type == "timestamp" and fmt == "iso"
                else _INLINE.get((source, col.type)))
        if form is None:
            lines.append(f"{var} = cell{n}({cell})")
            continue
        conversion, test = form
        lines.append(f"c = {cell}")
        if conversion is None:
            lines.append(f"{var} = c if {test.format(v='c')} else cell{n}(c)")
            continue
        lines += ["try:", f"    {var} = {conversion}",
                  "except (ValueError, TypeError):", f"    {var} = cell{n}(c)"]
        if test is not None:
            lines += ["else:", f"    if not ({test.format(v=var)}):", f"        {var} = cell{n}(c)"]
    fields += [f"{name!r}: cells[{i}] or None" for name, i in index.items() if name not in known]
    lines.append("row = {" + ", ".join(fields) + "}")
    if not csv_source:
        lines += ["if not raw.keys() <= known:", "    ride_along(raw, known, row)"]
    lines += [f"t = row.get({event_time!r})", "if not isinstance(t, datetime):",
              "    return None", "return Element(t, seq, row)"]
    text = (f"def decode({'cells' if csv_source else 'raw'}, seq):\n"
            + "".join(f"    {line}\n" for line in lines))
    exec(text, namespace)
    return namespace["decode"]


def _ride_along(raw: dict[str, Any], known: frozenset[str], row: dict[str, Value]) -> None:
    """Add a JSON record's fields outside the schema to its row, in record order."""
    for name, raw_value in raw.items():
        if name in known:
            continue
        if isinstance(raw_value, (list, dict)):
            # Nested payloads are out of the value domain; keep them readable.
            row[name] = json.dumps(raw_value, separators=(",", ":"), ensure_ascii=True)
        else:
            row[name] = value_from_json(raw_value)


def iter_csv(path: str, schema: list[ColumnSpec], event_time: str,
             formats: dict[str, str] | None = None,
             counters: SourceCounters | None = None,
             limit: int | None = None) -> Iterator[StreamElement]:
    """Stream a CSV file in arrival order. The header row is required and
    must contain every schema column. It is read and checked at the call,
    so a bad header raises SourceError before any row is read."""
    rows = _iter_csv_rows(path, schema, event_time, formats or {},
                          counters if counters is not None else SourceCounters(), limit)
    next(rows)  # runs up to the check of the header
    return rows


def _iter_csv_rows(path, schema, event_time, formats, counters, limit
                   ) -> Iterator[StreamElement | None]:
    """None once the header is checked, then iter_csv's rows."""
    with open(path, "r", encoding="utf-8", errors="surrogateescape", newline="") as fp:
        reader = csv.reader(fp)
        header = next(reader, None)
        if header is None:
            raise SourceError("csv source is empty (no header row)")
        missing = [c.name for c in schema if c.name not in header]
        if missing:
            raise SourceError(f"csv header is missing schema columns: {missing}")
        decode = _row_decoder(schema, formats, event_time, counters, header)
        width = len(header)
        yield None
        stop = math.inf if limit is None else limit
        seq = 0
        for cells in reader:
            if seq >= stop:
                return
            if len(cells) < width:
                cells += [""] * (width - len(cells))  # a short row's missing cells are empty
            e = decode(cells, seq)
            if e is None:
                counters.skipped_bad_time += 1
                continue
            yield e
            seq += 1


def iter_jsonl(path: str, schema: list[ColumnSpec], event_time: str,
               formats: dict[str, str] | None = None,
               counters: SourceCounters | None = None,
               limit: int | None = None) -> Iterator[StreamElement]:
    """Stream a JSONL file in arrival order. The file is opened at the call,
    so a missing file raises before any row is read."""
    rows = _iter_jsonl_file(path, schema, event_time, formats or {},
                            counters if counters is not None else SourceCounters(), limit)
    next(rows)  # opens the file
    return rows


def _iter_jsonl_file(path, *args) -> Iterator[StreamElement | None]:
    """None once the file is open, then iter_jsonl's rows."""
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as fp:
        yield None
        yield from _iter_jsonl_lines(fp, *args)


def _iter_jsonl_lines(lines: Iterable[str], schema, event_time, formats,
                      counters, limit) -> Iterator[StreamElement]:
    decode = _row_decoder(schema, formats, event_time, counters)
    loads = json.loads
    stop = math.inf if limit is None else limit
    seq = 0
    for line in lines:
        if seq >= stop:
            return
        line = line.strip()
        if not line:
            continue
        try:
            raw = loads(line)
        except (ValueError, RecursionError):  # also too many digits, too deep
            counters.skipped_bad_time += 1
            continue
        e = decode(raw, seq) if type(raw) is dict else None
        if e is None:
            counters.skipped_bad_time += 1
            continue
        yield e
        seq += 1


def parse_address(address: str) -> tuple[str, int]:
    if address.startswith("tcp://"):
        address = address[len("tcp://"):]
    host, sep, port = address.rpartition(":")
    if not sep or not (port.isascii() and port.isdigit()):
        raise SourceError(f"socket address must be host:port, got {address!r}")
    if not 1 <= int(port) <= 65535:
        raise SourceError(f"socket port must be in 1-65535, got {address!r}")
    return host or "127.0.0.1", int(port)


def iter_socket(address: str, schema: list[ColumnSpec], event_time: str,
                formats: dict[str, str] | None = None,
                counters: SourceCounters | None = None,
                limit: int | None = None) -> Iterator[StreamElement]:
    """Consume newline-delimited JSON records from a TCP endpoint until the
    peer closes the connection."""
    import socket

    host, port = parse_address(address)
    with socket.create_connection((host, port)) as sock:
        with sock.makefile("r", encoding="utf-8", errors="surrogateescape", newline="\n") as fp:
            yield from _iter_jsonl_lines(fp, schema, event_time, formats or {},
                                         counters if counters is not None else SourceCounters(),
                                         limit)


def paced(elements: Iterator[StreamElement], factor: float) -> Iterator[StreamElement]:
    """Replay with inter-record sleeps of event-time delta / factor."""
    prev: datetime | None = None
    for element in elements:
        if prev is not None and element.event_time > prev:
            delay = (element.event_time - prev) / timedelta(seconds=1) / factor
            if delay > 0:
                time.sleep(delay)
        prev = element.event_time
        yield element


# ---------------------------------------------------------------------------
# Reference tables


def load_reference(table_id: str, path: str, key_column: str) -> ReferenceTable:
    """Load a keyed reference table from CSV or JSONL.

    A row whose key is the literal "*" becomes the default row for lookup
    misses. Duplicate keys keep the last row and log a warning. CSV columns
    are typed by sniffing (_sniff_caster), by the same cell rule as a CSV
    source: all-int, else all-float, else text.
    """
    if path.endswith(".jsonl"):
        raw_rows = _read_jsonl_rows(path)
    else:
        raw_rows = _read_csv_rows(path)
    if not raw_rows:
        raise ValueError(f"reference table {table_id!r} at {path} is empty")
    columns = list(raw_rows[0].keys())
    if key_column not in columns:
        raise ValueError(f"reference table {table_id!r} has no key column {key_column!r}")
    rows: dict[bytes, dict[str, Value]] = {}
    default_row: dict[str, Value] | None = None
    for row in raw_rows:
        key = row[key_column]
        if key == "*":
            if default_row is not None:
                _warn("reference %s: duplicate default row, keeping the last", table_id)
            default_row = row
            continue
        enc = canonical_bytes(key)
        if enc in rows:
            _warn("reference %s: duplicate key %r, keeping the last", table_id, key)
        rows[enc] = row
    return ReferenceTable(table_id=table_id, key_column=key_column,
                          columns=tuple(columns), rows=rows, default_row=default_row)


def _warn(message: str, *args: Any) -> None:
    import logging

    logging.getLogger("streamqc.connectors").warning(message, *args)


def _read_jsonl_rows(path: str) -> list[dict[str, Value]]:
    rows: list[dict[str, Value]] = []
    with open(path, "r", encoding="utf-8") as fp:
        for line in fp:
            line = line.strip()
            if not line:
                continue
            obj = json.loads(line)
            if not isinstance(obj, dict):
                raise ValueError(f"reference row must be an object: {line[:80]}")
            rows.append({k: value_from_json(v) for k, v in obj.items()})
    return rows


def _read_csv_rows(path: str) -> list[dict[str, Value]]:
    with open(path, "r", encoding="utf-8", newline="") as fp:
        reader = csv.reader(fp)
        try:
            header = next(reader)
        except StopIteration:
            return []
        grid = [cells + [""] * (len(header) - len(cells)) for cells in reader]
    typed: list[dict[str, Value]] = [{} for _ in grid]
    for i, name in enumerate(header):
        cells = [row[i] for row in grid]
        caster = _sniff_caster(cells)
        for row_out, cell in zip(typed, cells):
            row_out[name] = caster(cell)
    return typed


def _sniff_caster(cells: list[str]) -> Callable[[str], Value]:
    """Column-wide CSV typing by a CSV source's cell rule: int if its
    coercer reads every cell but "" and "*", else likewise float, else text.
    An empty cell is Null, and "*" stays text."""
    candidates = [c for c in cells if c not in ("", "*")]
    for type_name in ("int", "float"):
        coerce = _csv_coercer(type_name, "iso")
        if candidates and all(coerce(c) is not _BAD for c in candidates):
            return lambda c: c if c == "*" else coerce(c)
    return lambda c: c or None


# ---------------------------------------------------------------------------
# Synthetic generator


# A generator spec is parameter tables, as a suite config is: the root
# (GENERATOR), and one table per column kind and per injection type.


def _seed(raw, columns) -> int:
    if isinstance(raw, bool) or not isinstance(raw, int):
        raise BadValue(f"must be an integer, got {raw!r}")
    return raw


def _objects(raw, columns) -> list[dict]:
    if not isinstance(raw, list) or not all(isinstance(item, dict) for item in raw):
        raise BadValue("must be a list of objects")
    return raw


def _bound(raw, columns) -> timedelta | datetime:
    """A span bound: an offset into the run (a duration text such as "3m"),
    or an ISO-8601 timestamp."""
    try:
        return parse_duration(string(raw, columns))
    except (BadValue, ModelError):
        try:
            return parse_ts(raw)
        except ModelError:
            raise BadValue("must be an offset such as '3m' or an ISO-8601 timestamp") from None


def _cell(raw, columns) -> Value:  # a JSON scalar, written as _csv_cell writes it
    if raw is not None and not isinstance(raw, (str, int, float)):
        raise BadValue("must be a string, number, boolean or null")
    return raw


def _as_float(what: str, ok: Callable[[float], bool]) -> Parser:
    """A number, as a float, so an int draws and scales as the float it equals."""
    parse = number(what, ok)
    return lambda raw, columns: float(parse(raw, columns))


_FLOAT = _as_float("a finite number", lambda x: abs(x) <= sys.float_info.max)
_INTEGER = number("an integer", lambda n: True, integer=True)

GENERATOR = {"seed": Param(_seed), "start": Param(from_model(parse_ts)),
             "rate_per_sec": Param(_as_float("finite and > 0",
                                             lambda r: 0 < r <= sys.float_info.max)),
             "duration": Param(from_model(parse_duration)), "columns": Param(_objects),
             "injections": Param(_objects, []), "event_time": Param(text, "event_time")}
# What generate_stream parses: start and duration come to it parsed.
_RUN = {key: param for key, param in GENERATOR.items() if key not in ("start", "duration")}

_COLUMNS = {kind: {"name": Param(text), "kind": Param(text), **table} for kind, table in {
    "sequence": {"prefix": Param(string, None)},
    "uniform_int": {"lo": Param(_INTEGER), "hi": Param(_INTEGER)},
    "uniform_float": {"lo": Param(_FLOAT), "hi": Param(_FLOAT), "round": Param(_INTEGER, None)},
    "normal": {"mean": Param(_FLOAT), "std": Param(_FLOAT), "round": Param(_INTEGER, None)},
    "choice": {"values": Param(list_of(_cell, nonempty=True)),
               "weights": Param(list_of(number("a finite number >= 0",
                                               lambda w: 0 <= w <= sys.float_info.max)), None)},
    "pattern": {"pattern": Param(string)},
}.items()}

# The injections that rewrite a cell of their column (a generated column).
_REWRITES = ("missing_burst", "placeholder_burst", "frozen", "fare_spike")
_INJECTIONS = {kind: {"type": Param(text), "start": Param(_bound, None),
                      "end": Param(_bound, None),
                      "column": Param(text) if kind in _REWRITES else Param(text, None),
                      **table} for kind, table in {
    "missing_burst": {}, "placeholder_burst": {"token": Param(_cell, "N/A")},
    "duplicate_burst": {}, "out_of_order": {}, "frozen": {},
    "fare_spike": {"factor": Param(_FLOAT, 10.0)},
}.items()}


def _picked(items: list[dict], where: str, field: str, tables: dict[str, dict[str, Param]],
            unknown: str, problems: list[str]) -> list[dict[str, Any]]:
    """Each object of items run through the table its field names."""
    parsed = []
    for i, raw in enumerate(items):
        name = raw.get(field)
        if not (isinstance(name, str) and name in tables):
            problems.append(f"{where}[{i}]: {unknown} {name!r} "
                            f"(expected one of {'/'.join(tables)})")
            continue
        values, found = parse_fields(raw, tables[name], None)
        problems.extend(f"{where}[{i}].{key} {message}" if key else f"{where}[{i}]: {message}"
                        for key, message in found)
        parsed.append(values)
    return parsed


def _column_maker(spec: dict[str, Any], rng: random.Random) -> Callable[[int], Value]:
    kind = spec["kind"]
    if kind == "sequence":
        prefix = spec["prefix"]
        return (lambda i: i + 1) if prefix is None else (lambda i: f"{prefix}{i + 1}")
    if kind == "uniform_int":
        lo, hi = spec["lo"], spec["hi"]
        return lambda i: rng.randint(lo, hi)
    if kind == "choice":
        values, weights = spec["values"], spec["weights"]
        return ((lambda i: rng.choice(values)) if weights is None
                else (lambda i: rng.choices(values, weights=weights, k=1)[0]))
    if kind == "pattern":  # each # a random digit, each @ a random capital letter
        pattern = spec["pattern"]
        return lambda i: "".join(str(rng.randint(0, 9)) if ch == "#" else
                                 chr(rng.randint(ord("A"), ord("Z"))) if ch == "@" else ch
                                 for ch in pattern)
    draw, a, b = ((rng.uniform, spec["lo"], spec["hi"]) if kind == "uniform_float"
                  else (rng.gauss, spec["mean"], spec["std"]))
    digits = spec["round"]
    if digits is None:
        return lambda i: draw(a, b)
    return lambda i: round(draw(a, b), digits)


def generate_stream(csv_path: str, manifest_path: str, *, seed: int, start: datetime,
                    rate_per_sec: float, duration: timedelta, columns: list[dict[str, Any]],
                    injections: list[dict[str, Any]] | None = None,
                    event_time: str = "event_time") -> int:
    """Write a reproducible synthetic CSV stream and its injection manifest,
    and return the rows written; a spec with any problem raises ModelError
    before a file opens. Rows are spaced 1/rate seconds apart, and each
    injection applies to the rows in [start, end), absolute in the manifest."""
    start = utc_ms(start)
    spec, columns, spans = _parsed({"seed": seed, "rate_per_sec": rate_per_sec,
                                    "columns": columns, "injections": injections,
                                    "event_time": event_time}, start, duration)
    rate_per_sec, event_time = spec["rate_per_sec"], spec["event_time"]
    rng = random.Random(seed)
    makers = [(c["name"], _column_maker(c, rng)) for c in columns]
    names = [name for name, _ in makers]
    total = int(rate_per_sec * (duration / timedelta(seconds=1)))
    step_ms = 1000.0 / rate_per_sec
    frozen_cache: dict[int, Value] = {}
    written = 0

    with open(csv_path, "w", encoding="utf-8", newline="") as fp:
        writer = csv.writer(fp)
        writer.writerow([event_time] + names)
        held: list[list[str]] = []  # an out_of_order span's rows, written reversed after it
        for i in range(total):
            t = from_epoch_millis(epoch_millis(start) + round(i * step_ms))
            row: dict[str, Value] = {name: maker(i) for name, maker in makers}
            duplicate = in_reorder_span = False
            for idx, (inj, lo, hi) in enumerate(spans):
                if not (lo <= t < hi):
                    continue
                kind, column = inj["type"], inj["column"]
                if kind == "missing_burst":
                    row[column] = None
                elif kind == "placeholder_burst":
                    row[column] = inj["token"]
                elif kind == "frozen":
                    row[column] = frozen_cache.setdefault(idx, row[column])
                elif kind == "fare_spike":
                    base = row[column]
                    if is_number(base):
                        row[column] = round(base * inj["factor"], 4)
                elif kind == "duplicate_burst":
                    duplicate = True
                else:
                    in_reorder_span = True
            cells = [format_ts(t)] + [_csv_cell(row[name]) for name in names]
            copies = [cells, cells] if duplicate else [cells]
            written += len(copies)
            if in_reorder_span:
                held += copies
            else:
                writer.writerows([*reversed(held), *copies])
                held.clear()
        writer.writerows(reversed(held))

    lines = [{"type": "run", "seed": seed, "start": format_ts(start), "rate_per_sec": rate_per_sec,
              "duration_seconds": duration / timedelta(seconds=1), "rows": written}]
    lines += [{"type": inj["type"], "column": inj["column"], "start": format_ts(lo),
               "end": format_ts(hi), "seed": seed} for inj, lo, hi in spans]
    with open(manifest_path, "w", encoding="utf-8") as mfp:
        mfp.writelines(json.dumps(line, separators=(",", ":")) + "\n" for line in lines)
    return written


def _parsed(raw: dict[str, Any], start: datetime, duration: timedelta) -> tuple:
    """generate_stream's JSON values run through their tables and the rules
    that span fields: the root's values, the columns, and each injection
    with its span in absolute time. Every problem is raised as one
    ModelError, a level's before the next level is read."""
    spec, found = parse_fields(raw, _RUN, None)
    _raise([f"{key} {message}" for key, message in found])
    problems: list[str] = []
    columns = _picked(spec["columns"], "columns", "kind", _COLUMNS,
                      "unknown generator column kind", problems)
    injections = _picked(spec["injections"], "injections", "type", _INJECTIONS,
                         "unknown injection type", problems)
    _raise(problems)
    if duration > TS_MAX - start:
        problems.append("duration runs past the last timestamp")
    names: list[str] = []
    for i, column in enumerate(columns):
        where, name = f"columns[{i}]", column["name"]
        if name == spec["event_time"]:
            problems.append(f"{where}: column name {name!r} is reserved for the event time")
        elif name in names:
            problems.append(f"{where}: column name {name!r} is given twice")
        names.append(name)
        if "lo" in column and column["lo"] > column["hi"]:
            problems.append(f"{where}: lo must be <= hi")
        if column["kind"] == "choice" and column["weights"] is not None and (
                len(column["weights"]) != len(column["values"]) or not any(column["weights"])):
            problems.append(f"{where}: weights must be one number per value, not all 0")
    spans = []
    for i, inj in enumerate(injections):
        where = f"injections[{i}]"
        if inj["type"] in _REWRITES and inj["column"] not in names:
            problems.append(f"{where}: column {inj['column']!r} is not a generated column")
        try:
            lo, hi = (start + at if isinstance(at, timedelta) else at
                      for at in (inj["start"] or timedelta(0),
                                 duration if inj["end"] is None else inj["end"]))
        except OverflowError:
            problems.append(f"{where}: span lies past the last timestamp")
            continue
        if hi <= lo:
            problems.append(f"{where}: span must be non-empty")
        spans.append((inj, lo, hi))
    _raise(problems)
    return spec, columns, spans


def _raise(problems: list[str]) -> None:
    if problems:
        raise ModelError("; ".join(problems))


def _csv_cell(value: Value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, datetime):
        return format_ts(value)
    if isinstance(value, float):
        return repr(value)
    return str(value)


# ---------------------------------------------------------------------------
# Sinks


class FileSink:
    """Line sink over a file; newline-terminated UTF-8, errors propagate."""

    def __init__(self, path: str):
        self._fp = open(path, "w", encoding="utf-8", newline="\n")

    def write_line(self, line: str) -> None:
        self._fp.write(line + "\n")

    def close(self) -> None:
        self._fp.close()


class StdoutSink:
    def __init__(self, stream: io.TextIOBase | None = None):
        self._fp = stream if stream is not None else sys.stdout

    def write_line(self, line: str) -> None:
        self._fp.write(line + "\n")

    def close(self) -> None:
        self._fp.flush()


class SocketSink:
    def __init__(self, address: str):
        import socket

        host, port = parse_address(address)
        self._sock = socket.create_connection((host, port))

    def write_line(self, line: str) -> None:
        self._sock.sendall(line.encode("utf-8") + b"\n")

    def close(self) -> None:
        self._sock.close()


def open_sink(dest: str):
    """"-" for stdout, tcp://host:port for a socket, anything else a file."""
    if dest == "-":
        return StdoutSink()
    if dest.startswith("tcp://"):
        return SocketSink(dest)
    return FileSink(dest)
