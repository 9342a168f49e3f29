"""Core domain types shared by every other module.

Defines the value domain, stream elements, window specifications, check
definitions, constraint evaluation, and the quality meta-stream record with
its wire format. Everything here is deliberately free of I/O.
"""

from __future__ import annotations

import json
import math
import re
import struct
from dataclasses import dataclass, field
from datetime import datetime, timedelta, timezone
from typing import TYPE_CHECKING, Any, Literal

if TYPE_CHECKING:
    from .expression import Expr

# The value domain: Null, Bool, Int (64-bit by convention), Float (IEEE 754),
# Text (unicode), Timestamp (tz-aware UTC datetime, millisecond precision).
Value = bool | int | float | str | datetime | None

EPOCH = datetime(1970, 1, 1, tzinfo=timezone.utc)
TS_MIN = datetime.min.replace(tzinfo=timezone.utc)
TS_MAX = datetime.max.replace(tzinfo=timezone.utc, microsecond=999000)

_TS_WIRE_RE = re.compile(r"^\d{4}-\d{2}-\d{2}T\d{2}:\d{2}:\d{2}\.\d{3}Z$")

_DURATION_RE = re.compile(r"(\d+(?:\.\d+)?)(ms|s|m|h|d)")

VALUE_TYPE_NAMES = ("null", "bool", "int", "float", "text", "timestamp")


class ModelError(ValueError):
    """Raised when a domain invariant is violated at construction time."""


# ---------------------------------------------------------------------------
# Timestamps and durations


def utc_ms(dt: datetime) -> datetime:
    """Normalize a datetime to UTC with millisecond precision.

    Naive datetimes are rejected: event time without a zone is ambiguous.
    """
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
    """Render a timestamp as ISO-8601 UTC with exactly millisecond precision."""
    dt = utc_ms(dt)
    return f"{dt.year:04d}-{dt.month:02d}-{dt.day:02d}T{dt.hour:02d}:{dt.minute:02d}:{dt.second:02d}.{dt.microsecond // 1000:03d}Z"


def parse_ts(text: str) -> datetime:
    """Parse an ISO-8601 timestamp, normalizing to UTC millisecond precision.

    Accepts a trailing Z or an explicit offset; fractional seconds beyond
    milliseconds are truncated.
    """
    raw = text.strip()
    if raw.endswith(("Z", "z")):
        raw = raw[:-1] + "+00:00"
    try:
        dt = datetime.fromisoformat(raw)
    except ValueError as exc:
        raise ModelError(f"invalid timestamp {text!r}: {exc}") from None
    if dt.tzinfo is None:
        dt = dt.replace(tzinfo=timezone.utc)
    return utc_ms(dt)


def parse_duration(raw: str | int | float) -> timedelta:
    """Parse a duration such as "1h30m", "90s", "250ms", or a number of seconds."""
    if isinstance(raw, bool):
        raise ModelError(f"invalid duration {raw!r}")
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


def ensure_value(v: Any) -> Value:
    """Coerce arbitrary input into the value domain.

    NaN floats become Null (NaN is not a value); timestamps are normalized to
    UTC millisecond precision. Anything outside the domain raises.
    """
    if v is None or isinstance(v, (bool, int, str)):
        return v
    if isinstance(v, float):
        return None if math.isnan(v) else v
    if isinstance(v, datetime):
        return utc_ms(v)
    raise ModelError(f"value {v!r} is outside the value domain")


def canonical_bytes(v: Value) -> bytes:
    """Canonical byte encoding used for hashing, dedup, and deterministic order.

    Each type gets a distinct tag byte, so Int 3 and Float 3.0 are different
    values here even though comparisons widen. Float -0.0 is normalized to 0.0
    so the two zeros count as one value.
    """
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
        return b"\x04" + v.encode("utf-8")
    if isinstance(v, datetime):
        return b"\x05" + struct.pack(">q", epoch_millis(v))
    raise ModelError(f"value {v!r} is outside the value domain")


def sort_key(v: Value) -> bytes:
    """Deterministic total order over values (Null first, then by type tag)."""
    return canonical_bytes(v)


def value_to_json(v: Value) -> Any:
    """JSON form of a value. Timestamps become ISO-8601 ms strings."""
    if isinstance(v, datetime):
        return format_ts(v)
    if isinstance(v, float) and not math.isfinite(v):
        # JSON has no Infinity; render as string so the line stays valid JSON.
        return "Infinity" if v > 0 else "-Infinity"
    return v


def value_from_json(raw: Any) -> Value:
    """Parse the JSON form produced by value_to_json.

    Strings matching the exact timestamp shape parse back as Timestamp; all
    other strings are Text. That makes serialize-then-parse the identity for
    every value except Text that happens to look exactly like a timestamp.
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
# Stream elements and windows


@dataclass(frozen=True, slots=True)
class StreamElement:
    """One record of the stream: event time, arrival order, and attributes.

    attrs preserves source column order, which the schema-order check relies
    on. arrival_seq is the source-assigned arrival position (line number).
    """

    event_time: datetime
    arrival_seq: int
    attrs: dict[str, Value]


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
        object.__setattr__(self, "origin", utc_ms(self.origin))

    @property
    def step(self) -> timedelta:
        """Grid step between pane starts (tumbling/sliding only)."""
        if self.kind == "tumbling":
            return self.duration  # type: ignore[return-value]
        if self.kind == "sliding":
            return self.slide  # type: ignore[return-value]
        raise ModelError("session windows have no grid step")


class Slice:
    """The elements of one key in one non-overlapping span of event time,
    ordered like a pane, with a memo of what was computed from them.

    A sliding pane is the concatenation of the slices it spans, so values
    kept in the memo (per-slice partial aggregates, key partitions) are
    computed once and shared by every pane over the slice. The memo lives
    and dies with the slice.
    """

    __slots__ = ("elements", "memo")

    def __init__(self, elements: list[StreamElement] | tuple[StreamElement, ...]):
        self.elements = elements
        self.memo: dict[Any, Any] = {}


@dataclass(frozen=True)
class WindowInstance:
    """A closed pane: bounds, optional key, and its elements.

    Elements are ordered by (event_time, arrival_seq) and every event time
    lies in [start, end). Both are verified at construction. parts, when
    given, are the slices whose elements concatenate to `elements`.
    """

    start: datetime
    end: datetime
    key: Value = None
    elements: tuple[StreamElement, ...] = ()
    parts: tuple[Slice, ...] | None = field(default=None, compare=False, repr=False)

    def __post_init__(self) -> None:
        if self.start >= self.end:
            raise ModelError(f"window bounds must satisfy start < end, got [{self.start}, {self.end})")
        prev: StreamElement | None = None
        for e in self.elements:
            if not (self.start <= e.event_time < self.end):
                raise ModelError(f"element at {e.event_time} outside [{self.start}, {self.end})")
            if prev is not None and (e.event_time, e.arrival_seq) < (prev.event_time, prev.arrival_seq):
                raise ModelError("window elements must be ordered by (event_time, arrival_seq)")
            prev = e

    def __len__(self) -> int:
        return len(self.elements)

    def values(self, column: str) -> list[Value]:
        """Column projection in element order (Nulls included)."""
        return [e.attrs.get(column) for e in self.elements]

    def slices(self) -> tuple[Slice, ...]:
        """The pane's parts, or the whole pane as one part when it has none."""
        return self.parts if self.parts is not None else (Slice(self.elements),)


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
        if _ordered_cmp(self.lo, self.hi) is None:
            raise ModelError("range endpoints must be comparable (numeric or timestamp)")
        if _ordered_cmp(self.lo, self.hi) == 1:
            raise ModelError("range requires lo <= hi")


@dataclass(frozen=True)
class Predicate:
    """A boolean expression over the measured value and context bindings.

    text is the source; a suite parses it once, when it is built, and
    evaluates the parsed form (see compare_verdict).
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


def _ordered_cmp(a: Value, b: Value) -> int | None:
    """Three-way compare for ordered types; None when the pair has no order.

    Int and Float widen to a common numeric compare; timestamps compare with
    timestamps. Text and Bool support only equality, handled by the caller.
    """
    if isinstance(a, bool) or isinstance(b, bool):
        return None
    if isinstance(a, _NUMERIC) and isinstance(b, _NUMERIC):
        return (a > b) - (a < b)
    if isinstance(a, datetime) and isinstance(b, datetime):
        return (a > b) - (a < b)
    return None


def values_equal(a: Value, b: Value) -> bool | None:
    """Equality with Int/Float widening; None when the types cannot be compared."""
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


def threshold_holds(value: Value, op: str, bound: Value) -> bool | None:
    """Apply one comparison operator; Null or an unordered pair yields None."""
    if value is None or bound is None:
        return None
    if op in ("=", "!="):
        eq = values_equal(value, bound)
        if eq is None:
            return None
        return eq if op == "=" else not eq
    cmp = _ordered_cmp(value, bound)
    if cmp is None:
        return None
    return {"<": cmp < 0, "<=": cmp <= 0, ">=": cmp >= 0, ">": cmp > 0}[op]


def compare_verdict(value: Value, constraint: Threshold | ValueRange | Expr,
                    bindings: dict[str, Value] | None = None) -> bool | None:
    """Evaluate a constraint against a measured value.

    A predicate is given in its parsed form, an expression over `value` and
    the bindings. Returns True/False, or None for a Null verdict (Null
    inputs, type confusion, or a predicate that evaluates to Null). Callers
    decide what a Null verdict means (strict fail vs lenient skip).
    """
    if isinstance(constraint, Threshold):
        return threshold_holds(value, constraint.op, constraint.bound)
    if isinstance(constraint, ValueRange):
        lo_op = ">=" if constraint.lo_inclusive else ">"
        hi_op = "<=" if constraint.hi_inclusive else "<"
        lo = threshold_holds(value, lo_op, constraint.lo)
        hi = threshold_holds(value, hi_op, constraint.hi)
        if lo is False or hi is False:
            return False
        if lo is None or hi is None:
            return None
        return True
    if not hasattr(constraint, "evaluate"):
        raise ModelError(f"unknown constraint {constraint!r}")
    merged = {"value": value}
    if bindings:
        merged.update(bindings)
    result = constraint.evaluate(None, merged)
    return result if isinstance(result, bool) else None


# ---------------------------------------------------------------------------
# Meta-stream records

_META_KEYS = ("window_start", "window_end", "key", "check", "value", "ok", "detail")


@dataclass(frozen=True)
class MetaRecord:
    """One line of the quality meta-stream.

    detail carries structured extras (per-element references, warming flags,
    violation lists); None means no detail. Engine-generated records use
    check ids with a leading underscore.
    """

    window_start: datetime
    window_end: datetime
    key: Value
    check_id: str
    value: Value
    ok: bool
    detail: dict[str, Any] | None = None

    def order_key(self) -> tuple:
        """Meta-stream emission order: (window_end, key, check_id)."""
        return (self.window_end, sort_key(self.key), self.check_id,
                _detail_seq(self.detail))

    def to_json_line(self) -> str:
        """Fixed-shape wire form; key order is part of the contract."""
        obj = {
            "window_start": format_ts(self.window_start),
            "window_end": format_ts(self.window_end),
            "key": value_to_json(self.key),
            "check": self.check_id,
            "value": value_to_json(self.value),
            "ok": self.ok,
            "detail": self.detail,
        }
        return json.dumps(obj, separators=(",", ":"), ensure_ascii=True)


def _detail_seq(detail: dict[str, Any] | None) -> int:
    # Per-element records for one check keep element arrival order.
    if detail and isinstance(detail.get("element_ref"), int):
        return detail["element_ref"]
    return -1


def meta_record_from_json(line: str) -> MetaRecord:
    """Parse one wire line back into a MetaRecord (inverse of to_json_line)."""
    try:
        obj = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ModelError(f"invalid meta record line: {exc}") from None
    if not isinstance(obj, dict) or tuple(obj.keys()) != _META_KEYS:
        raise ModelError(f"meta record keys must be exactly {_META_KEYS}")
    detail = obj["detail"]
    if detail is not None and not isinstance(detail, dict):
        raise ModelError("meta record detail must be an object or null")
    return MetaRecord(
        window_start=parse_ts(obj["window_start"]),
        window_end=parse_ts(obj["window_end"]),
        key=value_from_json(obj["key"]),
        check_id=str(obj["check"]),
        value=value_from_json(obj["value"]),
        ok=bool(obj["ok"]),
        detail=detail,
    )
