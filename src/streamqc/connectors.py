"""Sources, sinks, reference loading, and the synthetic stream generator.

Sources turn CSV/JSONL/socket lines into StreamElements under a declared
schema. Cell coercion never raises: an unparseable cell becomes Null and
bumps a per-column counter, while a record whose event-time cell is missing
or unparseable is skipped entirely. Sinks are line-oriented and fail-stop.
"""

from __future__ import annotations

import csv
import io
import json
import logging
import random
import socket
import sys
import time
from dataclasses import dataclass, field
from datetime import datetime, timedelta, timezone
from typing import Any, Callable, Iterable, Iterator

from .model import (
    ColumnSpec,
    StreamElement,
    Value,
    canonical_bytes,
    ensure_value,
    epoch_millis,
    format_ts,
    from_epoch_millis,
    parse_duration,
    utc_ms,
    value_from_json,
)
from .monitor import ReferenceTable

__all__ = [
    "SourceCounters", "coerce_csv_cell", "coerce_json_value", "parse_time",
    "iter_csv", "iter_jsonl", "iter_socket", "paced",
    "load_reference", "generate_stream",
    "FileSink", "StdoutSink", "SocketSink", "open_sink",
]

log = logging.getLogger("streamqc.connectors")


# ---------------------------------------------------------------------------
# Coercion


@dataclass
class SourceCounters:
    """Parse-quality counters a source fills in while reading."""

    skipped_bad_time: int = 0
    parse_failures: dict[str, int] = field(default_factory=dict)

    def fail(self, column: str) -> None:
        self.parse_failures[column] = self.parse_failures.get(column, 0) + 1


def parse_time(raw: Any, fmt: str) -> datetime | None:
    """Parse one timestamp cell; None means unparseable.

    fmt is "iso", "epoch_s", "epoch_ms", or a strptime pattern. Naive results
    are taken as UTC; everything is truncated to millisecond precision.
    """
    try:
        if fmt == "iso":
            if not isinstance(raw, str):
                return None
            text = raw[:-1] + "+00:00" if raw.endswith("Z") else raw
            dt = datetime.fromisoformat(text)
        elif fmt == "epoch_s":
            number = float(raw)
            return from_epoch_millis(round(number * 1000.0))
        elif fmt == "epoch_ms":
            return from_epoch_millis(int(raw))
        else:
            if not isinstance(raw, str):
                return None
            dt = datetime.strptime(raw, fmt)
    except (ValueError, TypeError, OverflowError):
        return None
    if dt.tzinfo is None:
        dt = dt.replace(tzinfo=timezone.utc)
    try:
        return utc_ms(dt)
    except Exception:
        return None


def coerce_csv_cell(text: str, type_name: str, fmt: str = "iso") -> tuple[Value, bool]:
    """(value, ok). Empty cells are Null for every type except text."""
    if text == "":
        return ("", True) if type_name == "text" else (None, True)
    if type_name == "text":
        return text, True
    if type_name == "bool":
        low = text.lower()
        if low == "true":
            return True, True
        if low == "false":
            return False, True
        return None, False
    if type_name == "int":
        try:
            return int(text), True
        except ValueError:
            return None, False
    if type_name == "float":
        try:
            return ensure_value(float(text)), True
        except ValueError:
            return None, False
    if type_name == "timestamp":
        dt = parse_time(text, fmt)
        return (dt, True) if dt is not None else (None, False)
    raise ValueError(f"unknown column type {type_name!r}")


def coerce_json_value(raw: Any, type_name: str, fmt: str = "iso") -> tuple[Value, bool]:
    """(value, ok) for a decoded JSON field. Type mismatches fail, they are
    never silently reinterpreted; the one widening is int -> float."""
    if raw is None:
        return None, True
    if type_name == "bool":
        return (raw, True) if isinstance(raw, bool) else (None, False)
    if type_name == "int":
        if isinstance(raw, bool) or not isinstance(raw, int):
            return None, False
        return raw, True
    if type_name == "float":
        if isinstance(raw, bool) or not isinstance(raw, (int, float)):
            return None, False
        return ensure_value(float(raw)), True
    if type_name == "text":
        return (raw, True) if isinstance(raw, str) else (None, False)
    if type_name == "timestamp":
        dt = parse_time(raw, fmt)
        return (dt, True) if dt is not None else (None, False)
    raise ValueError(f"unknown column type {type_name!r}")


# ---------------------------------------------------------------------------
# Sources


def _element(seq: int, row: dict[str, Value], event_time: datetime) -> StreamElement:
    return StreamElement(event_time=event_time, arrival_seq=seq, attrs=row)


def _coerce_row(raw: dict[str, Any], schema: list[ColumnSpec], event_time: str,
                formats: dict[str, str], counters: SourceCounters,
                from_csv: bool) -> tuple[dict[str, Value], datetime] | None:
    """Coerce one raw record; None means skip (bad event time)."""
    coerce = coerce_csv_cell if from_csv else coerce_json_value
    row: dict[str, Value] = {}
    for col in schema:
        fmt = formats.get(col.name, "iso")
        if col.name not in raw:
            value, ok = None, True
        else:
            value, ok = coerce(raw[col.name], col.type, fmt)
        if not ok or (value is None and not col.nullable):
            counters.fail(col.name)
        row[col.name] = value
    known = {col.name for col in schema}
    for name, raw_value in raw.items():
        if name in known:
            continue
        # Columns outside the schema ride along untyped.
        if from_csv:
            row[name] = raw_value if raw_value != "" else None
        elif isinstance(raw_value, (list, dict)):
            # Nested payloads are out of the value domain; keep them readable.
            row[name] = json.dumps(raw_value, separators=(",", ":"), ensure_ascii=True)
        else:
            row[name] = value_from_json(raw_value)
    t = row.get(event_time)
    if not isinstance(t, datetime):
        counters.skipped_bad_time += 1
        return None
    return row, t


def iter_csv(path: str, schema: list[ColumnSpec], event_time: str,
             formats: dict[str, str] | None = None,
             counters: SourceCounters | None = None,
             limit: int | None = None) -> Iterator[StreamElement]:
    """Stream a CSV file in arrival order. The header row is required and
    must contain every schema column."""
    formats = formats or {}
    counters = counters if counters is not None else SourceCounters()
    with open(path, "r", encoding="utf-8", newline="") as fp:
        yield from _iter_csv_fp(fp, schema, event_time, formats, counters, limit)


def _iter_csv_fp(fp, schema, event_time, formats, counters, limit) -> Iterator[StreamElement]:
    reader = csv.reader(fp)
    try:
        header = next(reader)
    except StopIteration:
        raise ValueError("csv source is empty (no header row)") from None
    missing = [c.name for c in schema if c.name not in header]
    if missing:
        raise ValueError(f"csv header is missing schema columns: {missing}")
    seq = 0
    for cells in reader:
        if limit is not None and seq >= limit:
            return
        raw = {name: cells[i] if i < len(cells) else "" for i, name in enumerate(header)}
        coerced = _coerce_row(raw, schema, event_time, formats, counters, from_csv=True)
        if coerced is None:
            continue
        row, t = coerced
        yield _element(seq, row, t)
        seq += 1


def iter_jsonl(path: str, schema: list[ColumnSpec], event_time: str,
               formats: dict[str, str] | None = None,
               counters: SourceCounters | None = None,
               limit: int | None = None) -> Iterator[StreamElement]:
    with open(path, "r", encoding="utf-8") as fp:
        yield from _iter_jsonl_lines(fp, schema, event_time, formats or {},
                                     counters if counters is not None else SourceCounters(),
                                     limit)


def _iter_jsonl_lines(lines: Iterable[str], schema, event_time, formats,
                      counters, limit) -> Iterator[StreamElement]:
    seq = 0
    for line in lines:
        if limit is not None and seq >= limit:
            return
        line = line.strip()
        if not line:
            continue
        try:
            raw = json.loads(line)
        except json.JSONDecodeError:
            counters.skipped_bad_time += 1
            continue
        if not isinstance(raw, dict):
            counters.skipped_bad_time += 1
            continue
        coerced = _coerce_row(raw, schema, event_time, formats, counters, from_csv=False)
        if coerced is None:
            continue
        row, t = coerced
        yield _element(seq, row, t)
        seq += 1


def _parse_address(address: str) -> tuple[str, int]:
    if address.startswith("tcp://"):
        address = address[len("tcp://"):]
    host, sep, port = address.rpartition(":")
    if not sep or not port.isdigit():
        raise ValueError(f"socket address must be host:port, got {address!r}")
    return host or "127.0.0.1", int(port)


def iter_socket(address: str, schema: list[ColumnSpec], event_time: str,
                formats: dict[str, str] | None = None,
                counters: SourceCounters | None = None,
                limit: int | None = None) -> Iterator[StreamElement]:
    """Consume newline-delimited JSON records from a TCP endpoint until the
    peer closes the connection."""
    host, port = _parse_address(address)
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
    are typed by sniffing: all-int, else all-float, else text.
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
    """Column-wide CSV typing: int if every value is an int, else float, else text."""
    candidates = [c for c in cells if c not in ("", "*")]

    def try_all(cast) -> bool:
        try:
            for c in candidates:
                cast(c)
            return True
        except ValueError:
            return False

    if candidates and try_all(int):
        return lambda c: None if c == "" else (c if c == "*" else int(c))
    if candidates and try_all(float):
        return lambda c: None if c == "" else (c if c == "*" else ensure_value(float(c)))
    return lambda c: None if c == "" else c


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
    injections = list(injections or [])
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
        host, port = _parse_address(address)
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
