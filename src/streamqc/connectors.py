"""Sources, sinks, reference loading, and the synthetic stream generator.

Sources turn CSV/JSONL/socket lines into StreamElements under a declared
schema. Cell coercion never raises: an unparseable cell becomes Null and
bumps a per-column counter, while a record whose event-time cell is missing
or unparseable is skipped entirely. Sinks are line-oriented and fail-stop.

The coercers are the package's one rule for reading a cell as a type: the
compiled source decoders, type_check (through reads_as) and the typing of
reference CSV columns all use them. This module imports only model.
"""

from __future__ import annotations

import csv
import functools
import io
import json
import logging
import math
import random
import socket
import sys
import time
from dataclasses import dataclass, field
from datetime import datetime, timedelta, timezone
from typing import Any, Callable, Iterable, Iterator, Sequence

from .model import (
    ColumnSpec,
    ReferenceTable,
    StreamElement,
    Value,
    canonical_bytes,
    epoch_millis,
    format_ts,
    from_epoch_millis,
    parse_duration,
    parse_iso,
    utc_ms,
    value_from_json,
)

__all__ = [
    "SourceError", "SourceCounters", "coerce_csv_cell", "coerce_json_value", "reads_as",
    "parse_time", "parse_address", "iter_csv", "iter_jsonl", "iter_socket", "paced",
    "load_reference", "generate_stream",
    "FileSink", "StdoutSink", "SocketSink", "open_sink",
]

log = logging.getLogger("streamqc.connectors")


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
            if isinstance(raw, (int, float)) and not isinstance(raw, bool):
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
    with open(path, "r", encoding="utf-8", newline="") as fp:
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
    with open(path, "r", encoding="utf-8") as fp:
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
    host, port = parse_address(address)
    with socket.create_connection((host, port)) as sock:
        with sock.makefile("r", encoding="utf-8", newline="\n") as fp:
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
                log.warning("reference %s: duplicate default row, keeping the last", table_id)
            default_row = row
            continue
        enc = canonical_bytes(key)
        if enc in rows:
            log.warning("reference %s: duplicate key %r, keeping the last", table_id, key)
        rows[enc] = row
    return ReferenceTable(table_id=table_id, key_column=key_column,
                          columns=tuple(columns), rows=rows, default_row=default_row)


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


_COLUMN_KINDS = ("sequence", "uniform_int", "uniform_float", "normal", "choice", "pattern")
_INJECTION_KINDS = ("missing_burst", "placeholder_burst", "duplicate_burst",
                    "out_of_order", "frozen", "fare_spike")


def _column_maker(spec: dict[str, Any], rng: random.Random) -> Callable[[int], Value]:
    kind = spec.get("kind")
    if kind == "sequence":
        prefix = spec.get("prefix")
        if prefix is None:
            return lambda i: i + 1
        return lambda i: f"{prefix}{i + 1}"
    if kind == "uniform_int":
        lo, hi = int(spec["lo"]), int(spec["hi"])
        return lambda i: rng.randint(lo, hi)
    if kind == "uniform_float":
        lo, hi = float(spec["lo"]), float(spec["hi"])
        digits = spec.get("round")
        if digits is None:
            return lambda i: rng.uniform(lo, hi)
        return lambda i: round(rng.uniform(lo, hi), int(digits))
    if kind == "normal":
        mean, std = float(spec["mean"]), float(spec["std"])
        digits = spec.get("round")
        if digits is None:
            return lambda i: rng.gauss(mean, std)
        return lambda i: round(rng.gauss(mean, std), int(digits))
    if kind == "choice":
        values = list(spec["values"])
        weights = spec.get("weights")
        if weights is None:
            return lambda i: rng.choice(values)
        return lambda i: rng.choices(values, weights=weights, k=1)[0]
    if kind == "pattern":
        pattern = str(spec["pattern"])

        def fill(i: int) -> str:
            out = []
            for ch in pattern:
                if ch == "#":
                    out.append(str(rng.randint(0, 9)))
                elif ch == "@":
                    out.append(chr(rng.randint(ord("A"), ord("Z"))))
                else:
                    out.append(ch)
            return "".join(out)

        return fill
    raise ValueError(f"unknown generator column kind {kind!r} "
                     f"(expected one of {_COLUMN_KINDS})")


def _span(inj: dict[str, Any], start: datetime, duration: timedelta) -> tuple[datetime, datetime]:
    """Injection span from absolute ISO bounds or offsets into the run."""
    def bound(which: str, default: datetime) -> datetime:
        raw = inj.get(which)
        if raw is None:
            return default
        try:
            return start + parse_duration(raw)
        except ValueError:
            pass
        dt = parse_time(raw, "iso") if isinstance(raw, str) else None
        if dt is None:
            raise ValueError(f"injection {which} is not a duration or timestamp: {raw!r}")
        return dt

    lo = bound("start", start)
    hi = bound("end", start + duration)
    if hi <= lo:
        raise ValueError("injection span must be non-empty")
    return lo, hi


def generate_stream(csv_path: str, manifest_path: str, *,
                    seed: int,
                    start: datetime,
                    rate_per_sec: float,
                    duration: timedelta,
                    columns: list[dict[str, Any]],
                    injections: list[dict[str, Any]] | None = None,
                    event_time: str = "event_time") -> int:
    """Write a reproducible synthetic CSV stream plus an injection manifest.

    Rows are evenly spaced at 1/rate seconds. Every injection is applied to
    rows whose event time falls in [start, end) and is recorded in the
    manifest with absolute bounds, so a consumer can assert which windows
    were corrupted. Returns the number of rows written.
    """
    if not 0 < rate_per_sec < math.inf:
        raise ValueError(f"rate_per_sec must be finite and > 0, got {rate_per_sec!r}")
    if isinstance(seed, bool) or not isinstance(seed, int):
        raise ValueError(f"seed must be an integer, got {seed!r}")
    injections = [] if injections is None else injections
    if not isinstance(injections, list) or not all(isinstance(inj, dict) for inj in injections):
        raise ValueError(f"injections must be a list of objects, got {injections!r}")
    rng = random.Random(seed)
    start = utc_ms(start)
    makers = [(str(c["name"]), _column_maker(c, rng)) for c in columns]
    names = [name for name, _ in makers]
    if event_time in names:
        raise ValueError(f"column name {event_time!r} is reserved for the event time")
    spans = []
    for inj in injections:
        kind = inj.get("type")
        if kind not in _INJECTION_KINDS:
            raise ValueError(f"unknown injection type {kind!r} "
                             f"(expected one of {_INJECTION_KINDS})")
        lo, hi = _span(inj, start, duration)
        spans.append((kind, inj, lo, hi))

    total = int(rate_per_sec * (duration / timedelta(seconds=1)))
    step_ms = 1000.0 / rate_per_sec
    frozen_cache: dict[int, Value] = {}
    written = 0

    with open(csv_path, "w", encoding="utf-8", newline="") as fp:
        writer = csv.writer(fp)
        writer.writerow([event_time] + names)
        reorder_buf: list[list[str]] = []

        def flush_reorder() -> None:
            nonlocal written
            for cells in reversed(reorder_buf):
                writer.writerow(cells)
                written += 1
            reorder_buf.clear()

        for i in range(total):
            t = from_epoch_millis(epoch_millis(start) + round(i * step_ms))
            row: dict[str, Value] = {name: maker(i) for name, maker in makers}
            duplicate = False
            in_reorder_span = False
            for idx, (kind, inj, lo, hi) in enumerate(spans):
                if not (lo <= t < hi):
                    continue
                column = inj.get("column")
                if kind == "missing_burst":
                    row[column] = None
                elif kind == "placeholder_burst":
                    row[column] = inj.get("token", "N/A")
                elif kind == "frozen":
                    if idx not in frozen_cache:
                        frozen_cache[idx] = row[column]
                    row[column] = frozen_cache[idx]
                elif kind == "fare_spike":
                    base = row[column]
                    if isinstance(base, (int, float)) and not isinstance(base, bool):
                        row[column] = round(base * float(inj.get("factor", 10.0)), 4)
                elif kind == "duplicate_burst":
                    duplicate = True
                elif kind == "out_of_order":
                    in_reorder_span = True
            cells = [format_ts(t)] + [_csv_cell(row[name]) for name in names]
            if in_reorder_span:
                reorder_buf.append(cells)
                if duplicate:
                    reorder_buf.append(list(cells))
            else:
                if reorder_buf:
                    flush_reorder()
                writer.writerow(cells)
                written += 1
                if duplicate:
                    writer.writerow(cells)
                    written += 1
        if reorder_buf:
            flush_reorder()

    with open(manifest_path, "w", encoding="utf-8") as mfp:
        head = {"type": "run", "seed": seed, "start": format_ts(start),
                "rate_per_sec": rate_per_sec,
                "duration_seconds": duration / timedelta(seconds=1),
                "rows": written}
        mfp.write(json.dumps(head, separators=(",", ":")) + "\n")
        for kind, inj, lo, hi in spans:
            line = {"type": kind, "column": inj.get("column"),
                    "start": format_ts(lo), "end": format_ts(hi), "seed": seed}
            mfp.write(json.dumps(line, separators=(",", ":")) + "\n")
    return written


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
