"""Core domain types shared by every other module.

Defines the value domain, the parameter tables every JSON input is parsed
through, stream elements, window specifications, check definitions,
constraint evaluation, and the quality meta-stream record with its wire
format. Everything here is deliberately free of I/O.
"""

from __future__ import annotations

import json
import math
import operator
import re
import struct
from array import array
from dataclasses import dataclass, field
from datetime import datetime, timedelta, timezone
from itertools import chain
from json.encoder import encode_basestring_ascii
from typing import Any, Callable, Literal, NamedTuple, Sequence

# The value domain: Null, Bool, Int (64-bit by convention), Float (IEEE 754),
# Text (unicode), Timestamp (tz-aware UTC datetime, millisecond precision).
Value = bool | int | float | str | datetime | None

EPOCH = datetime(1970, 1, 1, tzinfo=timezone.utc)
TS_MIN = datetime.min.replace(tzinfo=timezone.utc)
TS_MAX = datetime.max.replace(tzinfo=timezone.utc, microsecond=999000)

_TS_WIRE_RE = re.compile(r"^\d{4}-\d{2}-\d{2}T\d{2}:\d{2}:\d{2}\.\d{3}Z$")

_DURATION_RE = re.compile(r"(\d+(?:\.\d+)?)(ms|s|m|h|d)")

# The longest reach of a window (its duration or gap plus allowed_lateness).
# The engine adds up to two reaches to an offset between two timestamps, and
# every such sum must stay a timedelta.
MAX_REACH = (timedelta.max - (datetime.max - datetime.min)) // 2

# The most sliding panes one row may lie in: the duration over the slide,
# rounded up. Each of them is built, measured and written when it closes.
MAX_PANES_PER_ROW = 10_000


class ModelError(ValueError):
    """Raised when a domain invariant is violated at construction time."""


# ---------------------------------------------------------------------------
# Timestamps and durations


def utc_ms(dt: datetime) -> datetime:
    """Normalize a datetime to UTC with millisecond precision.

    Naive datetimes are rejected: event time without a zone is ambiguous.
    """
    if dt.tzinfo is timezone.utc and dt.microsecond % 1000 == 0:
        return dt  # already normalized, as every timestamp inside the engine is
    if dt.tzinfo is None:
        raise ModelError("naive datetime has no timezone; timestamps are UTC")
    dt = dt.astimezone(timezone.utc)
    return dt.replace(microsecond=(dt.microsecond // 1000) * 1000)


def ts(year: int, month: int, day: int, hour: int = 0, minute: int = 0,
       second: int = 0, ms: int = 0) -> datetime:
    """Convenience constructor for UTC millisecond timestamps."""
    return datetime(year, month, day, hour, minute, second, ms * 1000,
                    tzinfo=timezone.utc)


def epoch_millis(dt: datetime) -> int:
    """Milliseconds since the Unix epoch, computed exactly (no float round trip)."""
    return (dt - EPOCH) // timedelta(milliseconds=1)


def from_epoch_millis(millis: int) -> datetime:
    return EPOCH + timedelta(milliseconds=millis)


def format_ts(dt: datetime) -> str:
    """Render a timestamp as ISO-8601 UTC with exactly millisecond precision.

    A UTC datetime at whole milliseconds, as every timestamp inside the
    engine is, is rendered by one format; any other goes through utc_ms.
    """
    if dt.tzinfo is not timezone.utc or dt.microsecond % 1000:
        dt = utc_ms(dt)
    return _TS_FORMAT % (dt.year, dt.month, dt.day, dt.hour, dt.minute, dt.second,
                         dt.microsecond // 1000)


_TS_FORMAT = "%04d-%02d-%02dT%02d:%02d:%02d.%03dZ"


def parse_iso(text: str) -> datetime:
    """Parse an ISO-8601 timestamp into UTC at millisecond precision.

    The one ISO parser of the package: a trailing Z or z means UTC, an
    explicit offset is converted, a naive time is taken as UTC, and
    fractional seconds beyond milliseconds are truncated. Raises ValueError
    or OverflowError when the text is not a representable timestamp.
    """
    if text.endswith(("Z", "z")):
        text = text[:-1] + "+00:00"
    dt = datetime.fromisoformat(text)
    if dt.tzinfo is None:
        dt = dt.replace(tzinfo=timezone.utc)
    return utc_ms(dt)


def parse_ts(text: str) -> datetime:
    """Parse an ISO-8601 timestamp given in config or wire input.

    Surrounding whitespace is ignored; otherwise this is parse_iso. Any
    value but a string (a JSON number, bool, null, list or object) is a
    ModelError.
    """
    if not isinstance(text, str):
        raise ModelError(f"invalid timestamp {text!r}: expected ISO-8601 text")
    try:
        return parse_iso(text.strip())
    except (ValueError, OverflowError) as exc:
        raise ModelError(f"invalid timestamp {text!r}: {exc}") from None


def parse_duration(raw: str | int | float) -> timedelta:
    """Parse a duration such as "1h30m", "90s", "250ms", or a number of seconds.
    Any other value (a JSON bool, null, list or object) is a ModelError."""
    if isinstance(raw, bool) or not isinstance(raw, (str, int, float)):
        raise ModelError(f"invalid duration {raw!r}")
    try:
        return _parse_duration(raw)
    except OverflowError:
        raise ModelError(f"invalid duration {raw!r}: longer than "
                         f"{format_duration(timedelta.max)}") from None


def _parse_duration(raw: str | int | float) -> timedelta:
    if isinstance(raw, (int, float)):
        if raw < 0 or not math.isfinite(raw):
            raise ModelError(f"invalid duration {raw!r}: must be finite and >= 0")
        return timedelta(seconds=raw)
    text = raw.strip().lower()
    if not text:
        raise ModelError("empty duration")
    pos = 0
    total = timedelta(0)
    units = {"ms": timedelta(milliseconds=1), "s": timedelta(seconds=1),
             "m": timedelta(minutes=1), "h": timedelta(hours=1),
             "d": timedelta(days=1)}
    for match in _DURATION_RE.finditer(text):
        if match.start() != pos:
            break
        total += float(match.group(1)) * units[match.group(2)]
        pos = match.end()
    if pos != len(text):
        raise ModelError(f"invalid duration {raw!r} (expected e.g. '1h30m', '90s', '250ms')")
    return total


def format_duration(td: timedelta) -> str:
    """Render a duration in the compact unit form accepted by parse_duration."""
    if td < timedelta(0):
        raise ModelError(f"negative duration {td!r}")
    millis = td // timedelta(milliseconds=1)
    if millis == 0:
        return "0s"
    parts = []
    for unit, span in (("d", 86_400_000), ("h", 3_600_000), ("m", 60_000), ("s", 1000), ("ms", 1)):
        count, millis = divmod(millis, span)
        if count:
            parts.append(f"{count}{unit}")
    return "".join(parts)


# ---------------------------------------------------------------------------
# Values


def value_type(v: Value) -> str:
    """Name of a value's type within the domain. Bool is checked before Int."""
    if v is None:
        return "null"
    if isinstance(v, bool):
        return "bool"
    if isinstance(v, int):
        return "int"
    if isinstance(v, float):
        return "float"
    if isinstance(v, str):
        return "text"
    if isinstance(v, datetime):
        return "timestamp"
    raise ModelError(f"value {v!r} is outside the value domain")


def canonical_bytes(v: Value) -> bytes:
    """Canonical byte encoding used for hashing, dedup, and deterministic order.

    Each type gets a distinct tag byte, so Int 3 and Float 3.0 are different
    values here even though comparisons widen. Float -0.0 is normalized to 0.0
    so the two zeros count as one value. Text is its UTF-8 with a lone
    surrogate (a JSON escape such as \\ud800, or an undecodable source
    byte) encoded as UTF-8 encodes any other code point, which keeps
    code-point order.
    """
    if type(v) is str:
        return b"\x04" + v.encode("utf-8", "surrogatepass")
    if v is None:
        return b"\x00"
    if isinstance(v, bool):
        return b"\x01\x01" if v else b"\x01\x00"
    if isinstance(v, int):
        try:
            return b"\x02" + struct.pack(">q", v)
        except struct.error:
            # Arbitrary-precision escape hatch: sign byte + magnitude.
            sign = b"\x01" if v >= 0 else b"\x00"
            mag = abs(v).to_bytes((abs(v).bit_length() + 7) // 8 or 1, "big")
            return b"\x06" + sign + mag
    if isinstance(v, float):
        if v == 0.0:
            v = 0.0
        return b"\x03" + struct.pack(">d", v)
    if isinstance(v, str):
        return b"\x04" + v.encode("utf-8", "surrogatepass")
    if isinstance(v, datetime):
        return b"\x05" + struct.pack(">q", epoch_millis(v))
    raise ModelError(f"value {v!r} is outside the value domain")


# The encoding of Null, and so of a Null key's group; it sorts first.
NULL_CODE = canonical_bytes(None)


def value_to_json(v: Value) -> Any:
    """JSON form of a value. Timestamps become ISO-8601 ms strings, and a
    NaN, which is not a value, becomes null."""
    if isinstance(v, datetime):
        return format_ts(v)
    if isinstance(v, float) and not math.isfinite(v):
        if v != v:
            return None
        # JSON has no Infinity; render as string so the line stays valid JSON.
        return "Infinity" if v > 0 else "-Infinity"
    return v


def value_from_json(raw: Any) -> Value:
    """Parse the JSON form produced by value_to_json.

    Strings matching the exact timestamp shape parse back as Timestamp, and
    "Infinity"/"-Infinity" as the float infinities; all other strings are
    Text. That makes serialize-then-parse the identity for every value except
    Text that happens to look exactly like a timestamp or is one of those two
    words: the wire format cannot tell them apart.
    """
    if raw is None or isinstance(raw, (bool, int)):
        return raw
    if isinstance(raw, float):
        return None if math.isnan(raw) else raw
    if isinstance(raw, str):
        if _TS_WIRE_RE.match(raw):
            return parse_ts(raw)
        if raw == "Infinity":
            return math.inf
        if raw == "-Infinity":
            return -math.inf
        return raw
    raise ModelError(f"JSON value {raw!r} is not a scalar value")


# ---------------------------------------------------------------------------
# Parameter tables, the one parser of JSON input (measure specs, config
# sections, the generator's spec): each key's Param, run by parse_fields. A
# parser takes the raw JSON value and the schema's column types (None when
# no schema is known), and returns the value or raises BadValue with text
# that follows the key.

Parser = Callable[[Any, "dict[str, str] | None"], Any]

REQUIRED = object()  # the default of a key an object must give


class Param(NamedTuple):
    """One key of a parameter table: its parser and its default, in JSON
    form. A key with a default is optional, and a JSON null for it means
    absent; a default of None leaves an absent key None."""

    parse: Parser
    default: Any = REQUIRED


class BadValue(Exception):
    """A parser's refusal of a value."""


def parse_fields(raw: dict, table: dict[str, Param], columns: dict[str, str] | None
                 ) -> tuple[dict[str, Any], list[tuple[str | None, str]]]:
    """Run a JSON object through a parameter table once.

    Every key must be in the table and every required key given. An
    optional key that is absent or null takes its default, and each value
    is parsed with columns (see Parser). Returns the parsed values and
    every problem found, as (key, text) for a value, or (None, text) for
    the object itself.
    """
    problems: list[tuple[str | None, str]] = [
        (None, f"unknown key {name!r} (allowed: {', '.join(sorted(table))})")
        for name in raw if name not in table]
    values: dict[str, Any] = {}
    for name, (parse, default) in table.items():
        value = raw.get(name)
        if value is None and default is not REQUIRED:
            value = default
            if value is None:
                values[name] = None
                continue
        elif name not in raw:
            problems.append((None, f"missing required key {name!r}"))
            continue
        try:
            values[name] = parse(value, columns)
        except BadValue as exc:
            problems.append((name, str(exc)))
    return values, problems


def choice(*options: str) -> Parser:
    def parse(raw, columns):
        if raw not in options:
            raise BadValue(f"must be one of {'/'.join(options)}")
        return raw
    return parse


def flag(raw, columns) -> bool:
    if not isinstance(raw, bool):
        raise BadValue("must be a boolean")
    return raw


def number(what: str, ok: Callable[[float], bool], integer: bool = False) -> Parser:
    kinds = int if integer else (int, float)

    def parse(raw, columns):
        if isinstance(raw, bool) or not isinstance(raw, kinds) or not ok(raw):
            raise BadValue(f"must be {what}")
        return raw
    return parse


def list_of(item: Parser, nonempty: bool = False) -> Parser:
    """A JSON list, each item parsed by item; returned as a tuple."""
    def parse(raw, columns):
        if not isinstance(raw, list) or (nonempty and not raw):
            raise BadValue(f"must be a {'non-empty ' if nonempty else ''}list")
        out = []
        for i, v in enumerate(raw):
            try:
                out.append(item(v, columns))
            except BadValue as exc:
                raise BadValue(f"item {i} {exc}") from None
        return tuple(out)
    return parse


def scalar(raw, columns) -> Value:
    """A scalar JSON value, decoded into the value domain."""
    try:
        return value_from_json(raw)
    except ModelError:
        raise BadValue(f"must be a scalar value, not {json.dumps(raw)}") from None


def string(raw, columns) -> str:
    if not isinstance(raw, str):
        raise BadValue("must be a string")
    return raw


def text(raw, columns) -> str:
    if not isinstance(raw, str) or not raw:
        raise BadValue("must be a non-empty string")
    return raw


def json_object(raw, columns) -> dict:
    """A JSON object; a nested section's is parsed by its table one level down."""
    if not isinstance(raw, dict):
        raise BadValue("must be an object")
    return raw


def from_model(parse: Callable[[Any], Any]) -> Parser:
    """A model parser as a value parser: its ModelError is the problem."""
    def parsed(raw, columns):
        try:
            return parse(raw)
        except ModelError as exc:
            raise BadValue(str(exc)) from None
    return parsed


# ---------------------------------------------------------------------------
# Stream elements and windows


@dataclass(slots=True)
class StreamElement:
    """One record of the stream: event time, arrival order, and attributes.

    attrs preserves source column order, which the schema-order check relies
    on. arrival_seq is the source-assigned arrival position (line number).
    Nothing assigns a field after construction; the class is not frozen
    because a frozen dataclass sets each field through object.__setattr__,
    which costs more than the rest of the construction.
    """

    event_time: datetime
    arrival_seq: int
    attrs: dict[str, Value]


# The order of elements within a pane and a slice: by event time, then arrival.
element_order: Callable[[StreamElement], tuple[datetime, int]] = operator.attrgetter(
    "event_time", "arrival_seq")
_arrival = operator.attrgetter("arrival_seq")


@dataclass(frozen=True)
class WindowSpec:
    """How event time is carved into panes.

    Exactly the fields of the chosen kind may be set: tumbling uses duration,
    sliding uses duration+slide, session uses gap. Panes are half-open
    [start, end). allowed_lateness extends how long a closed-for-assignment
    pane keeps accepting stragglers.
    """

    kind: Literal["tumbling", "sliding", "session"]
    duration: timedelta | None = None
    slide: timedelta | None = None
    gap: timedelta | None = None
    allowed_lateness: timedelta = timedelta(0)
    origin: datetime = EPOCH

    def __post_init__(self) -> None:
        pos = lambda td: td is not None and td > timedelta(0)
        if self.kind == "tumbling":
            ok = pos(self.duration) and self.slide is None and self.gap is None
        elif self.kind == "sliding":
            ok = pos(self.duration) and pos(self.slide) and self.gap is None
            if ok and self.slide > self.duration:
                raise ModelError("sliding windows need slide <= duration")
        elif self.kind == "session":
            ok = pos(self.gap) and self.duration is None and self.slide is None
        else:
            raise ModelError(f"unknown window kind {self.kind!r}")
        if not ok:
            raise ModelError(f"window spec fields do not match kind {self.kind!r}")
        if self.allowed_lateness < timedelta(0):
            raise ModelError("allowed_lateness must be >= 0")
        span = "gap" if self.kind == "session" else "duration"
        try:
            reach = getattr(self, span) + self.allowed_lateness
        except OverflowError:
            reach = None
        if reach is None or reach > MAX_REACH:
            raise ModelError(f"window {span} plus allowed_lateness must be at most "
                             f"{format_duration(MAX_REACH)}")
        if self.kind == "sliding" and -(-self.duration // self.slide) > MAX_PANES_PER_ROW:
            raise ModelError(f"sliding window duration must be at most {MAX_PANES_PER_ROW} "
                             f"slides (each row lies in that many panes)")
        object.__setattr__(self, "origin", utc_ms(self.origin))

    @property
    def step(self) -> timedelta:
        """Grid step between pane starts (tumbling/sliding only)."""
        if self.kind == "tumbling":
            return self.duration  # type: ignore[return-value]
        if self.kind == "sliding":
            return self.slide  # type: ignore[return-value]
        raise ModelError("session windows have no grid step")


class ReleasedRows:
    """Stands for the rows of a slice, or of a pane over one, that gave them
    up (Slice.release): its len is their count, and reading a row raises
    ModelError, so a reader of released rows fails rather than sees none."""

    __slots__ = ("count",)

    def __init__(self, count: int):
        self.count = count

    def __len__(self) -> int:
        return self.count

    def __getitem__(self, index):
        raise ModelError(f"these {self.count} rows were released; only their partials are kept")

    def __iter__(self):
        return self[0]  # raises, as every read does

    @property
    def held(self) -> int:
        """How many of the rows are still held: none."""
        return 0


class JudgedRows(ReleasedRows):
    """The rows routed to one slice or session of a suite that judges each
    row as it arrives (windowing.Retention.FAILING), in place of the rows: a
    store appends a row to it (and a bridged session's rows extend it) as
    it would to a list. Each row is judged once, by each of the judge's
    checkers, one per distinct per-element measure. Kept are the row count
    (its len), per checker how many verdicts were Null and how many failed
    (neither True nor Null), and the rows that some check fails, each with
    its verdicts (`failing`). A row every checker passes is counted and
    dropped. Reading a row raises, as for any released rows."""

    __slots__ = ("judge", "counts", "failing")

    def __init__(self, judge: Judge):
        self.count = 0
        self.judge = judge
        # Null and failed counts of each checker in turn, and the failing
        # rows; None until the first row that some checker does not pass.
        self.counts: list[int] | None = None
        self.failing: list[tuple[StreamElement, list[bool | None]]] | None = None

    def append(self, e: StreamElement) -> None:
        self.count += 1
        judge = self.judge
        verdicts = [check(e) for check in judge.checkers]
        if verdicts.count(True) == len(verdicts):
            return
        counts = self.counts
        if counts is None:
            counts = self.counts = [0] * (2 * len(verdicts))
        fails = False
        for j, v in enumerate(verdicts):
            if v is None:
                counts[2 * j] += 1
                fails = fails or judge.null_fails[j]
            elif v is not True:
                counts[2 * j + 1] += 1
                fails = True
        if fails:
            if self.failing is None:
                self.failing = []
            self.failing.append((e, verdicts))

    def extend(self, other: JudgedRows) -> None:
        """Take in the rows another holder of the same judge judged."""
        self.count += other.count
        if other.counts is not None:
            self.counts = (other.counts if self.counts is None
                           else list(map(operator.add, self.counts, other.counts)))
        if other.failing is not None:
            if self.failing is None:
                self.failing = []
            self.failing += other.failing

    @property
    def held(self) -> int:
        """How many rows are still held: those some check fails."""
        return len(self.failing) if self.failing is not None else 0


class Judge(NamedTuple):
    """How a suite judges a row on arrival (JudgedRows): one checker per
    distinct per-element measure, and for each whether a Null verdict fails
    some check over that measure (its null_verdict is "fail")."""

    checkers: tuple[Callable[[StreamElement], bool | None], ...]
    null_fails: tuple[bool, ...]

    def rows(self) -> JudgedRows:
        """A new, empty holder of rows judged by this judge."""
        return JudgedRows(self)


_ABSENT = object()  # a memo probe's default: nothing kept yet


class Slice:
    """The elements of one non-overlapping span of event time, ordered like
    a pane, with a memo of what was computed from them.

    A sliding pane is the concatenation of the slices it spans, so values
    kept in the memo (per-slice partial aggregates, key splits) and the
    column encodings are computed once and shared by every pane over the
    slice. They are only filled once the slice's elements are final.
    `ordered` counts the leading elements known to be in pane order (the
    pane store sorted them, or a pane walked them), so each element is
    walked at most once however many panes span the slice, and the share of
    an ordered slice is ordered. A key group's share of a slice (see split)
    keeps `source`: the whole slice's encodings (`codes`, by column) and
    elements and the positions of its own elements among them, so it reads
    its encodings from the whole; and its key in the split column, as
    `key` (its first element's value) and `arrived_key` (its first to
    arrive's).

    Once every pane over a slice that reads its rows has read them, release
    gives them up: the slice keeps its memo and its row count, and its
    elements become ReleasedRows.
    """

    __slots__ = ("elements", "memo", "ordered", "codes", "source", "key", "arrived_key")

    def __init__(self, elements: list[StreamElement] | tuple[StreamElement, ...],
                 source: tuple[dict[str, list[bytes | None]],
                               list[StreamElement] | tuple[StreamElement, ...],
                               Sequence[int]] | None = None):
        self.elements = elements
        self.memo: dict[Any, Any] = {}
        self.ordered = 0
        # codes is kept apart from memo, though both are caches: a share's
        # source holds the codes of the slice it was split from, and its
        # split sits in that slice's memo. Were codes in memo, each split
        # slice would be a reference cycle, freed only by the cycle collector
        # and not when its last pane closes, and a sliding run's peak memory
        # would grow with the slices waiting for that collector.
        self.codes: dict[str, list[bytes | None]] | None = None  # made on first use
        self.source = source
        self.key: Value = None
        self.arrived_key: Value = None

    @property
    def released(self) -> bool:
        """True when the slice holds no readable rows: they were released,
        or judged on arrival (JudgedRows)."""
        return isinstance(self.elements, ReleasedRows)

    def release(self) -> None:
        """Give up the rows and what only they need: the elements become
        their count, and the encodings (a list kept as a partial stays in the
        memo) and a share's source go. The memo stays, and each share of a
        key split is released too. Only for a slice that no row can still
        reach, once every partial a later pane reads is in the memo."""
        self.elements = ReleasedRows(len(self.elements))
        self.codes = self.source = None
        for memo_key, kept in self.memo.items():
            if memo_key[0] == "split":
                for share in kept.values():
                    share.release()

    def kept(self, key: Any, partial: Callable[[Slice], Any]) -> Any:
        """The partial kept in the memo under key, computed the first time."""
        value = self.memo.get(key, _ABSENT)
        if value is _ABSENT:
            value = self.memo[key] = partial(self)
        return value

    def encodings(self, column: str) -> list[bytes | None]:
        """The canonical encoding of each element's value in a column, in
        element order, None for a Null. Computed once per slice and column,
        so every consumer of the column (distinct counts, uniqueness, the
        sketch, the key split) and every key group's share of the slice
        share one encoding of each value."""
        if self.codes is None:
            self.codes = {}
        if self.source is None:
            return _encodings(self.codes, self.elements, column)
        out = self.codes.get(column)
        if out is None:
            codes, elements, positions = self.source
            whole = _encodings(codes, elements, column)
            out = self.codes[column] = [whole[i] for i in positions]
        return out

    def split(self, column: str) -> dict[bytes, Slice]:
        """Each key's share of the slice: its elements, in element order, by
        the encoding of their value in a column (a Null as NULL_CODE). Made
        once per column and kept in the memo under ("split", column), so a
        keyed window and the checks keyed on the column share it; each share
        reads its encodings from this slice's and keeps its key."""
        memo_key = ("split", column)
        out = self.memo.get(memo_key)
        if out is not None:
            return out
        groups: dict[bytes | None, tuple[list[StreamElement], array]] = {}
        elements = self.elements
        for i, enc in enumerate(self.encodings(column)):
            slot = groups.get(enc)
            if slot is None:
                groups[enc] = ([elements[i]], array("I", (i,)))
            else:
                slot[0].append(elements[i])
                slot[1].append(i)
        out = self.memo[memo_key] = {}
        for enc, (members, positions) in groups.items():
            share = out[NULL_CODE if enc is None else enc] = Slice(
                members, (self.codes, elements, positions))
            share.key = members[0].attrs.get(column)
            share.arrived_key = min(members, key=_arrival).attrs.get(column)
        if self.ordered == len(elements):  # a share keeps the order of the whole
            for share in out.values():
                share.ordered = len(share.elements)
        return out


def key_groups(parts: Sequence[Slice], column: str) -> list[tuple[bytes, list[Slice]]]:
    """A pane's slices grouped by key: each key's encoding in a column (a
    Null as NULL_CODE) with its shares of the slices holding it, in slice
    order, the keys in encoding order. The one grouping by key, of keyed
    windows and keyed checks alike; each slice is split once (Slice.split)."""
    by_key: dict[bytes, list[Slice]] = {}
    for part in parts:
        for enc, share in part.split(column).items():
            by_key.setdefault(enc, []).append(share)
    return sorted(by_key.items())


def _encodings(codes: dict[str, list[bytes | None]],
               elements: list[StreamElement] | tuple[StreamElement, ...],
               column: str) -> list[bytes | None]:
    """codes[column], computed from the elements when missing. Equal text
    values share one encoding: a text is looked up among those already
    encoded before it is encoded, so a slice holds one encoding of each
    distinct text however often it repeats."""
    out = codes.get(column)
    if out is None:
        texts: dict[str, bytes] = {}
        known = texts.get
        out = codes[column] = [
            None if (v := e.attrs.get(column)) is None
            else (known(v) or texts.setdefault(v, canonical_bytes(v))) if type(v) is str
            else canonical_bytes(v) for e in elements]
    return out


def _check_order(elements: list[StreamElement] | tuple[StreamElement, ...],
                 begin: int = 0) -> None:
    """Raise unless elements are in element_order, given that the first
    `begin` of them are: only the rest is walked."""
    keys = list(map(element_order, elements[max(begin - 1, 0):]))
    if not all(map(operator.le, keys, keys[1:])):
        raise ModelError("window elements must be ordered by (event_time, arrival_seq)")


@dataclass(slots=True)
class WindowInstance:
    """A closed pane: bounds, optional key, its elements, and the slices
    they are made of.

    Elements are in element_order and every event time lies in [start, end);
    both are verified at construction. parts are the slices whose elements
    concatenate to `elements`: a pane built from parts alone joins their
    elements here, and a pane built without them gets its elements as one
    slice. Each slice is walked at most once for order (see Slice.ordered),
    and the pane checks only the order across each boundary between parts
    and the bounds of its first and last element. A released slice was
    checked when a pane first used it and is not walked again: a pane over
    one joins no rows, and its elements are ReleasedRows, their count.
    """

    start: datetime
    end: datetime
    key: Value = None
    elements: tuple[StreamElement, ...] | ReleasedRows = None  # () without parts
    parts: tuple[Slice, ...] = field(default=None, compare=False, repr=False)

    def __post_init__(self) -> None:
        if self.start >= self.end:
            raise ModelError(f"window bounds must satisfy start < end, got [{self.start}, {self.end})")
        if self.elements is None:
            if self.parts is None:
                self.elements = ()
            elif any(part.released for part in self.parts):
                self.elements = ReleasedRows(sum(len(part.elements) for part in self.parts))
            else:
                self.elements = tuple(chain.from_iterable(part.elements for part in self.parts))
        if self.parts is None:
            self.parts = (Slice(self.elements),)
        first = last = None
        count = 0
        for part in self.parts:
            elements = part.elements
            count += len(elements)
            if not elements or part.released:
                continue
            if part.ordered < len(elements):
                _check_order(elements, part.ordered)
                part.ordered = len(elements)
            if last is None:
                first = elements[0]
            elif element_order(elements[0]) < element_order(last):
                raise ModelError("window elements must be ordered by (event_time, arrival_seq)")
            last = elements[-1]
        if count != len(self.elements):
            raise ModelError("window parts must concatenate to its elements")
        if last is not None:
            for e in (first, last):
                if not (self.start <= e.event_time < self.end):
                    raise ModelError(f"element at {e.event_time} outside [{self.start}, {self.end})")

    def __len__(self) -> int:
        return len(self.elements)


@dataclass(frozen=True)
class ColumnSpec:
    """One declared source column: name, value type, and nullability.

    nullable=False marks columns where a Null is a data defect; sources still
    yield the Null but count it as a parse failure.
    """

    name: str
    type: Literal["bool", "int", "float", "text", "timestamp"]
    nullable: bool = True

    def __post_init__(self) -> None:
        if not self.name:
            raise ModelError("column name must be non-empty")
        if self.type not in ("bool", "int", "float", "text", "timestamp"):
            raise ModelError(f"unknown column type {self.type!r}")


def schema_types(schema: tuple[ColumnSpec, ...] | list[ColumnSpec]) -> dict[str, str]:
    """name -> type mapping used by measure and check validation."""
    return {col.name: col.type for col in schema}


# ---------------------------------------------------------------------------
# Checks and constraints


@dataclass(frozen=True)
class MeasureSpec:
    """Which measurement to run and its parameters (column names, options)."""

    id: str
    params: dict[str, Any] = field(default_factory=dict)


@dataclass(frozen=True)
class Threshold:
    """value OP bound, with OP one of < <= = != >= >."""

    op: Literal["<", "<=", "=", "!=", ">=", ">"]
    bound: Value

    def __post_init__(self) -> None:
        if self.op not in ("<", "<=", "=", "!=", ">=", ">"):
            raise ModelError(f"unknown comparison operator {self.op!r}")


@dataclass(frozen=True)
class ValueRange:
    """lo .. hi with per-end inclusivity; endpoints numeric or timestamp."""

    lo: Value
    hi: Value
    lo_inclusive: bool = True
    hi_inclusive: bool = True

    def __post_init__(self) -> None:
        ordered = comparator("<=")(self.lo, self.hi)
        if ordered is None:
            raise ModelError("range endpoints must be comparable (numeric or timestamp)")
        if not ordered:
            raise ModelError("range requires lo <= hi")


@dataclass(frozen=True)
class Predicate:
    """A boolean expression over the measured value and context bindings.

    text is the source. A suite parses and compiles it once, when it is
    built, into a function of one name table: `value`, and the check's
    context and reference bindings (see constraint_verdict).
    """

    text: str


ConstraintSpec = Threshold | ValueRange | Predicate


@dataclass(frozen=True)
class ContextSpec:
    """Rolling-history parameters for dynamic constraints.

    horizon is how far back (from the current window start) prior window
    summaries contribute; statistics names which bindings the predicate uses.
    """

    horizon: timedelta
    statistics: tuple[str, ...] = ("mu_H", "sigma_H", "count_H", "prev_value")

    def __post_init__(self) -> None:
        if self.horizon <= timedelta(0):
            raise ModelError("context horizon must be > 0")
        bad = set(self.statistics) - {"mu_H", "sigma_H", "count_H", "prev_value"}
        if bad:
            raise ModelError(f"unknown context statistics {sorted(bad)}")


@dataclass(frozen=True)
class ReferenceSpec:
    """Reference-table comparison: which table and how to derive the lookup key.

    key_expr is an expression over window bounds (bindings window_start and
    window_end), e.g. "hour_of(window_start)".
    """

    table: str
    key_expr: str


@dataclass
class ReferenceTable:
    """Keyed baseline rows for reference-data checks.

    rows maps the canonical encoding of the key to the row; default_row (from
    a "*" key) answers lookups that miss, when present.
    """

    table_id: str
    key_column: str
    columns: tuple[str, ...]
    rows: dict[bytes, dict[str, Value]]
    default_row: dict[str, Value] | None = None

    def lookup(self, key: Value) -> dict[str, Value] | None:
        row = self.rows.get(canonical_bytes(key))
        return row if row is not None else self.default_row


@dataclass(frozen=True)
class CheckDefinition:
    """One configured quality check.

    null_verdict decides what a Null measurement or Null predicate verdict
    means: "fail" (strict, default) or "skip" (lenient; the record reports
    ok=true with a skipped detail).
    """

    id: str
    measure: MeasureSpec
    constraint: ConstraintSpec
    key_by: str | None = None
    context: ContextSpec | None = None
    reference: ReferenceSpec | None = None
    emit_per_element: bool = False
    null_verdict: Literal["fail", "skip"] = "fail"

    def __post_init__(self) -> None:
        if not self.id:
            raise ModelError("check id must be non-empty")
        if self.id.startswith("_"):
            raise ModelError(f"check id {self.id!r} uses the reserved engine prefix '_'")
        if self.null_verdict not in ("fail", "skip"):
            raise ModelError(f"null_verdict must be 'fail' or 'skip', got {self.null_verdict!r}")


# ---------------------------------------------------------------------------
# Constraint evaluation

_NUMERIC = (int, float)

_ORDERINGS = {"<": operator.lt, "<=": operator.le, ">=": operator.ge, ">": operator.gt}

# Exact operand types whose comparisons need no isinstance dispatch: two of
# one plain type are equal by ==, and two numbers order by the operator.
_PLAIN = frozenset({str, int, float})
_EXACT_NUMERIC = frozenset({int, float})


def values_equal(a: Value, b: Value) -> bool | None:
    """Equality with Int/Float widening; None when the types cannot be compared."""
    if type(a) is type(b) and type(a) in _PLAIN:
        return a == b
    if a is None or b is None:
        return None
    if isinstance(a, bool) or isinstance(b, bool):
        if isinstance(a, bool) and isinstance(b, bool):
            return a is b
        return None
    if isinstance(a, _NUMERIC) and isinstance(b, _NUMERIC):
        return a == b
    if isinstance(a, str) and isinstance(b, str):
        return a == b
    if isinstance(a, datetime) and isinstance(b, datetime):
        return a == b
    return None


def comparator(op: str) -> Callable[[Value, Value], bool | None]:
    """The comparison `a op b` as a function of two values, its operator
    resolved once. Int and Float widen to one numeric order, timestamps
    order with timestamps, and Text and Bool support only = and !=. A Null
    operand or a pair the operator does not apply to yields None."""
    if op == "=":
        return values_equal
    if op == "!=":
        return lambda a, b: None if (eq := values_equal(a, b)) is None else not eq
    holds = _ORDERINGS.get(op)
    if holds is None:
        raise ModelError(f"unknown comparison operator {op!r}")

    def ordered(a: Value, b: Value) -> bool | None:
        if type(a) in _EXACT_NUMERIC and type(b) in _EXACT_NUMERIC:
            return holds(a, b)
        if isinstance(a, bool) or isinstance(b, bool):
            return None
        if (isinstance(a, _NUMERIC) and isinstance(b, _NUMERIC)
                or isinstance(a, datetime) and isinstance(b, datetime)):
            return holds(a, b)
        return None
    return ordered


def value_test(constraint: Threshold | ValueRange) -> Callable[[Value], bool | None]:
    """A Threshold or ValueRange as a test of one value, its comparisons
    resolved once. A range holds when both of its ends hold."""
    if isinstance(constraint, Threshold):
        holds, bound = comparator(constraint.op), constraint.bound
        return lambda v: holds(v, bound)
    above = comparator(">=" if constraint.lo_inclusive else ">")
    below = comparator("<=" if constraint.hi_inclusive else "<")
    lo, hi = constraint.lo, constraint.hi

    def within(v: Value) -> bool | None:
        # lo and hi order with each other, so v orders with both or neither.
        low = above(v, lo)
        return below(v, hi) if low is True else low
    return within


def constraint_verdict(constraint: Threshold | ValueRange | Callable[[dict[str, Value]], Value]
                       ) -> Callable[[dict[str, Value]], bool | None]:
    """A constraint as one verdict function of a name table that holds the
    measured `value` and the check's bindings.

    A Threshold or ValueRange tests `value`. A predicate is given compiled
    (expression.compile), and a result that is not a boolean is a Null
    verdict. Returns True/False, or None for a Null verdict (Null inputs,
    type confusion, or a Null predicate); callers decide what a Null verdict
    means (strict fail vs lenient skip).
    """
    if isinstance(constraint, (Threshold, ValueRange)):
        test = value_test(constraint)
        return lambda names: test(names["value"])
    if not callable(constraint):
        raise ModelError(f"unknown constraint {constraint!r}")

    def verdict(names: dict[str, Value]) -> bool | None:
        result = constraint(names)
        return result if result is True or result is False else None
    return verdict


# ---------------------------------------------------------------------------
# Meta-stream records

# The wire encoder of meta and side lines, built once: the bytes of
# json.dumps(obj, separators=(",", ":"), ensure_ascii=True).
wire_json = json.JSONEncoder(separators=(",", ":"), ensure_ascii=True).encode


def _float_json(v: float) -> str:
    return float.__repr__(v) if math.isfinite(v) else wire_json(value_to_json(v))


# The JSON text of a value by its exact type; any other type (a subclass)
# takes the general path.
_VALUE_JSON: dict[type, Callable[[Any], str]] = {
    type(None): lambda v: "null",
    bool: lambda v: "true" if v else "false",
    int: int.__repr__,
    float: _float_json,
    str: encode_basestring_ascii,
    datetime: lambda v: f'"{format_ts(v)}"',
}


def value_json(v: Value) -> str:
    """The JSON text of a value on the wire: wire_json(value_to_json(v))."""
    render = _VALUE_JSON.get(type(v))
    return wire_json(value_to_json(v)) if render is None else render(v)


def meta_line_prefix(window_start: datetime, window_end: datetime, key: Value) -> str:
    """The head of a meta line, through the key: the fields that every record
    of one (window_start, window_end, key) group shares, rendered once."""
    return (f'{{"window_start":"{format_ts(window_start)}",'
            f'"window_end":"{format_ts(window_end)}","key":{value_json(key)},')


def check_lead(check_id: str) -> str:
    """The start of a meta line's tail, through "value": rendered once per check."""
    return f'"check":{encode_basestring_ascii(check_id)},"value":'


def meta_line_tail(lead: str, value: Value, ok: bool, detail: dict[str, Any] | None) -> str:
    """The rest of a meta line after its prefix; lead is check_lead(check id)."""
    return (f'{lead}{value_json(value)},"ok":{"true" if ok else "false"},'
            f'"detail":{"null" if detail is None else wire_json(detail)}}}')


def element_tail(check_id: str) -> Callable[[int], str]:
    """The tail of one check's per-element record as a function of the
    element's arrival_seq: meta_line_tail(check_lead(check_id), False,
    False, {"element_ref": seq}), its fixed part rendered once."""
    head = f'{check_lead(check_id)}false,"ok":false,"detail":{{"element_ref":'
    return lambda seq: f"{head}{seq}}}}}"


@dataclass(slots=True)
class MetaRecord:
    """One line of the quality meta-stream.

    detail carries structured extras (per-element references, warming flags,
    violation lists); None means no detail. Engine-generated records use
    check ids with a leading underscore. tail is the rest of the line after
    its prefix (meta_line_tail), rendered from the check's template when the
    engine made the record, else None; to_json_line renders from the fields.
    A record is slotted and mutable, so it is cheap to build (the engine
    builds one per meta line), and, like any mutable record, unhashable.
    """

    window_start: datetime
    window_end: datetime
    key: Value
    check_id: str
    value: Value
    ok: bool
    detail: dict[str, Any] | None = None
    tail: str | None = field(default=None, compare=False, repr=False)

    def order_key(self) -> tuple:
        """Meta-stream emission order: (window_end, key, check_id)."""
        return (self.window_end, canonical_bytes(self.key), self.check_id,
                _detail_seq(self.detail))

    def to_json_line(self) -> str:
        """Fixed-shape wire form, rendered from the fields; key order is part
        of the contract."""
        return (meta_line_prefix(self.window_start, self.window_end, self.key)
                + meta_line_tail(check_lead(self.check_id), self.value, self.ok, self.detail))


def _detail_seq(detail: dict[str, Any] | None) -> int:
    # Per-element records for one check keep element arrival order.
    if detail and isinstance(detail.get("element_ref"), int):
        return detail["element_ref"]
    return -1
