"""Window measurements: pure functions from a closed pane to a value.

Every measure follows the empty-window contract: count-like results are 0 on
an empty (or all-Null, where relevant) window, statistic-like results are
Null. Nulls are excluded from aggregates unless a measure is explicitly about
them (completeness, volume, ordering).

The registry maps measure ids from configuration to a parameter table,
evaluation, and (where meaningful) a per-element checker used for
per-element records and side-output routing.

Each measure declares its parameters once, as a table of parsers and
defaults. parse_measure runs that table over a spec once (model.parse_fields,
the loop every JSON input runs through): it rejects unknown keys, fills in
every default, decodes JSON values, compiles patterns and parses
expressions. Everything after it (result_type, make_elem_checker,
compile) reads only parsed values. Each check's measure is compiled once
(compile_measure) into the function that measures one pane.

Measures that merge (volume, count, mean, std, distinct_count, uniqueness
and every measure with a per-element form) are written once as a partial
over a slice and a finish over the partials of a pane. Each slice of a
sliding pane computes its partial once, memoized on the slice, so the panes
that overlap on it share the work; a pane without slices is one part. The
partial of a per-element measure is a Tally of its checker's verdicts: how
many rows, how many verdicts were Null and how many failed, and the rows
whose verdict was not True. So the pane's value and its per-element records
come from one check of each element, and the records walk only the rows
that did not pass. A slice of rows judged on arrival (model.JudgedRows)
already holds those counts and rows, and its Tally is read from them, so no
checker runs when its panes close.
Distinct counts and uniqueness read the slice's column encodings
(Slice.encodings), so every consumer of a column encodes each value once.
A merged measure reads a slice's rows only to make its partials, so once
they are kept the slice may release its rows (MeasureDef.merged).

type_check reads a cell by the source decoder's own rule
(connectors.reads_as), so it passes a value exactly when a source of the
expected type would read it.
"""

from __future__ import annotations

import functools
import json
import math
import re
from collections import Counter
from dataclasses import dataclass
from datetime import datetime, timedelta
from itertools import chain
from typing import Any, Callable, Sequence

from . import expression
from .connectors import reads_as
from .model import (
    TS_MAX,
    TS_MIN,
    BadValue,
    MeasureSpec,
    ModelError,
    JudgedRows,
    Param,
    Parser,
    Slice,
    StreamElement,
    Value,
    ValueRange,
    WindowInstance,
    canonical_bytes,
    choice,
    constraint_verdict,
    flag,
    list_of,
    number,
    parse_fields,
    parse_ts,
    scalar,
    string,
    value_to_json,
    value_test,
    value_type,
    values_equal,
)
from .sketches import FrequentItemsSketch, estimate_packed, pack, registers_of

__all__ = ["MeasureResult", "EngineEnv", "MEASURES", "MeasureDef", "ParsedMeasure",
           "parse_measure", "percentile", "compile_measure"]

_NUMERIC_TYPES = ("int", "float")
_ORDERED_TYPES = ("int", "float", "timestamp")


@dataclass
class MeasureResult:
    """Outcome of one measurement: the value, optional detail, and an
    override that forces the assessment to fail regardless of the constraint
    (used by set-conformance refinements)."""

    value: Value
    detail: dict[str, Any] | None = None
    force_fail: bool = False
    # From a measure with a per-element form: each row of the pane whose
    # verdict is not True, with that verdict (Tally.misses).
    misses: list[tuple[StreamElement, bool | None]] | None = None


@dataclass(frozen=True)
class EngineEnv:
    """Ambient inputs a measure may need beyond the window itself."""

    hash_seed: int = 0
    watermark: datetime | None = None
    # (start, end, key) -> aligned secondary pane, when a secondary source is configured.
    secondary: Callable[[datetime, datetime, Value], WindowInstance | None] | None = None


ElemChecker = Callable[[StreamElement], "bool | None"]
MeasureRun = Callable[[WindowInstance, EngineEnv], MeasureResult]
@dataclass(frozen=True)
class MeasureDef:
    """Registry entry for one measure id.

    params is the measure's parameter table. The functions below receive
    the parsed parameters (parse_measure): compile(params, env) returns the
    function that measures one pane; a measure with a per-element form
    (make_elem_checker) is compiled as compile(params, env, checker) and
    measures from its checker's verdicts. check(params, columns) returns the
    problems that involve more than one parameter. reads_rows(params) is
    True when a per-element measure's value needs more of a pane than its
    verdicts (in_set's proper-subset guard reads the values seen).
    """

    id: str
    params: dict[str, Param]
    compile: Callable[..., MeasureRun]
    result_type: Callable[[dict, dict[str, str]], str | None]
    make_elem_checker: Callable[[dict, EngineEnv], ElemChecker] | None = None
    check: Callable[[dict, dict[str, str] | None], list[str]] | None = None
    reads_rows: Callable[[dict], bool] | None = None

    @property
    def merged(self) -> bool:
        """True when the measure reads a pane only through partials it keeps
        in each slice's memo (_Merged), not through the pane's rows."""
        return isinstance(self.compile, _Merged)


@dataclass(frozen=True)
class ParsedMeasure:
    """A measure spec with every parameter parsed and defaulted."""

    definition: MeasureDef
    params: dict[str, Any]

    @property
    def tallied(self) -> bool:
        """True when the measure's value follows from its per-element
        verdicts alone, so its rows may be judged as they arrive."""
        definition = self.definition
        return definition.make_elem_checker is not None and not (
            definition.reads_rows is not None and definition.reads_rows(self.params))


# ---------------------------------------------------------------------------
# Parameter parsers, beside model's generic ones (see model.Parser).


def _column(*types: str) -> Parser:
    """A schema column's name; with types, the column must have one of them."""
    def parse(raw, columns):
        if not isinstance(raw, str) or not raw:
            raise BadValue("must be a column name")
        if columns is not None:
            if raw not in columns:
                raise BadValue(f"names column {raw!r}, which is not in the schema")
            if types and columns[raw] not in types:
                raise BadValue(f"names column {raw!r} of type {columns[raw]}, "
                           f"expected one of {'/'.join(types)}")
        return raw
    return parse


def _bound(raw, columns) -> Value:
    v = scalar(raw, columns)
    if value_type(v) not in _ORDERED_TYPES:
        raise BadValue("must be a number or a timestamp")
    return v


def _pattern(raw, columns):
    """A regular expression, compiled once (no backreferences)."""
    try:
        return expression.compile_pattern(string(raw, columns), 0)
    except expression.ExpressionError as exc:
        raise BadValue(f"is invalid: {exc}") from None


def _expression(raw, columns) -> expression.Expr:
    """An expression over the schema's columns, parsed once."""
    if not isinstance(raw, str) or not raw.strip():
        raise BadValue("must be a non-empty expression")
    try:
        expr = expression.parse(raw)
    except expression.ExpressionError as exc:
        raise BadValue(f"is invalid: {exc}") from None
    if columns is not None:
        unknown = expr.free_names() - set(columns)
        if unknown:
            raise BadValue(f"references unknown columns {sorted(unknown)}")
    return expr


def _time_or_watermark(raw, columns) -> datetime | None:
    """A fixed ISO-8601 timestamp, or None for "watermark"."""
    if raw == "watermark":
        return None
    try:
        return parse_ts(string(raw, columns))
    except (BadValue, ModelError):
        raise BadValue("must be 'watermark' or an ISO-8601 timestamp") from None


_ANY_COLUMN = Param(_column())
_NUMERIC_COLUMN = Param(_column(*_NUMERIC_TYPES))
_ORDERED_COLUMN = Param(_column(*_ORDERED_TYPES))


def parse_measure(spec: MeasureSpec, columns: dict[str, str] | None
                  ) -> tuple[ParsedMeasure | None, list[str]]:
    """Run a spec through its measure's parameter table once.

    Returns the parsed measure (None when anything is wrong) and every
    problem found. columns maps schema column names to types; None skips
    the checks that need a schema.
    """
    measure = MEASURES.get(spec.id)
    if measure is None:
        return None, [f"unknown measure {spec.id!r}"]
    params, problems = parse_fields(spec.params, measure.params, columns)
    errors = [f"'{name}' {text}" if name else text for name, text in problems]
    if not errors and measure.check is not None:
        errors.extend(measure.check(params, columns))
    return (None if errors else ParsedMeasure(measure, params)), errors


# ---------------------------------------------------------------------------
# Shared helpers


def _non_null(elements: Sequence[StreamElement], column: str) -> list[Value]:
    out = []
    for e in elements:
        v = e.attrs.get(column)
        if v is not None:
            out.append(v)
    return out


def _numbers(elements: Sequence[StreamElement], column: str) -> list[float | int]:
    """A column's ints and floats (bools excluded), in element order."""
    out = []
    for e in elements:
        v = e.attrs.get(column)
        if (t := type(v)) is float or t is int:  # the common case, ahead of the isinstance chain
            out.append(v)
        elif v is not None and not isinstance(v, bool) and isinstance(v, (int, float)):
            out.append(v)
    return out


def _float(x: float | int) -> float:
    """A number as a float; an int beyond the float range is the infinity of its sign."""
    try:
        return float(x)
    except OverflowError:
        return math.inf if x > 0 else -math.inf


def _fsum(xs: list) -> float:
    """math.fsum made total: NaN when the values hold both infinities, and
    the float sum in order when an exact partial sum leaves the float range
    (an int beyond it counts as an infinity)."""
    try:
        return math.fsum(xs)
    except ValueError:
        return math.nan
    except OverflowError:
        return sum(map(_float, xs), 0.0)


def _mean(xs: list) -> float | None:
    mean = _fsum(xs) / len(xs)
    return None if mean != mean else mean


def mean_std(xs: list) -> tuple[Value, Value]:
    """Population mean and standard deviation, two-pass with exact summation;
    each is Null where it is undefined (a NaN), and the deviation is Null
    when the mean is infinite.

    math.fsum makes the result independent of input order bit for bit.
    """
    mean = _mean(xs)
    if mean is None or not math.isfinite(mean):
        return mean, None
    try:
        var = _fsum([(x - mean) ** 2 for x in xs]) / len(xs)
    except OverflowError:  # a deviation squared leaves the float range
        var = math.inf
    return mean, math.sqrt(var if var > 0.0 else 0.0)


def percentile(sorted_values: list, q: float) -> float | None:
    """Linear-interpolation percentile (h = (n-1)q) over a sorted list; Null
    where it is undefined (between -inf and inf)."""
    n = len(sorted_values)
    if n == 1:
        return _float(sorted_values[0])
    h = (n - 1) * q
    lo = math.floor(h)
    frac = h - lo
    if frac == 0.0:
        return _float(sorted_values[lo])
    below, above = _float(sorted_values[lo]), _float(sorted_values[lo + 1])
    p = below + frac * (above - below)
    return None if p != p else p


def _per_pane(apply: Callable[[dict, WindowInstance, EngineEnv], MeasureResult]):
    """compile() of a measure that reads its parameters as it measures."""
    return lambda params, env: functools.partial(apply, params)


_ABSENT = object()  # a memo probe's default: no partial kept yet


def _kept(part: Slice, key: tuple, partial: Callable[[Slice], Any]) -> Any:
    """The partial a slice keeps in its memo under key, computed the first time."""
    memo = part.memo
    kept = memo.get(key, _ABSENT)
    if kept is _ABSENT:
        kept = memo[key] = partial(part)
    return kept


@dataclass(frozen=True)
class _Merged:
    """compile() of a measure kept as partial state per slice.

    prepare(params, env, *checker) returns (partial, finish): partial(part)
    summarizes one Slice, and finish(partials, window) merges a pane's
    partials, in slice order, into the result; finish reads no rows (a
    finish that needs more of a slice keeps that in the memo too). A slice
    computes each partial once and keeps it in its memo under the partial's
    name and parameters, so checks sharing a partial share it. Only a
    measure with a per-element form is given its checker.
    """

    name: str
    prepare: Callable

    def __call__(self, params, env, *checker) -> MeasureRun:
        partial, finish = self.prepare(params, env, *checker)
        key = self.key(params, env)
        return lambda window, env: finish([_kept(part, key, partial) for part in window.parts],
                                          window)

    def key(self, params, env) -> tuple:
        """The memo key of the measure's partial: its name and parameters."""
        return self.name, json.dumps(params, sort_keys=True, default=_memo_text), env.hash_seed


def _memo_text(value) -> str:
    """A parsed parameter as memo-key text (a pattern's repr is cut at 200 characters)."""
    return f"{value.flags}:{value.pattern}" if isinstance(value, re.Pattern) else repr(value)


class Tally:
    """The partial of a per-element measure over some rows: their count,
    how many verdicts were Null, how many failed (neither True nor Null),
    and the misses, each row whose verdict was not True with that verdict.
    Over rows judged on arrival (model.JudgedRows), the misses are only the
    rows some check of the suite fails; a row left out passes every check
    that reads the misses."""

    __slots__ = ("rows", "nulls", "failed", "misses")

    def __init__(self, rows: int, nulls: int, failed: int,
                 misses: list[tuple[StreamElement, bool | None]]):
        self.rows, self.nulls, self.failed, self.misses = rows, nulls, failed, misses

    @property
    def passed(self) -> int:
        return self.rows - self.nulls - self.failed


def _tally_of(checker: ElemChecker, rows) -> Tally:
    """A slice's Tally: read from rows judged on arrival, else made by one
    checker call per row."""
    if type(rows) is JudgedRows:
        j = rows.judge.checkers.index(checker)
        if rows.counts is None:
            return Tally(rows.count, 0, 0, [])
        return Tally(rows.count, rows.counts[2 * j], rows.counts[2 * j + 1],
                     [(e, verdicts[j]) for e, verdicts in rows.failing or ()
                      if verdicts[j] is not True])
    verdicts = list(map(checker, rows))
    nulls = verdicts.count(None)
    return Tally(len(verdicts), nulls, len(verdicts) - nulls - verdicts.count(True),
                 [(e, v) for e, v in zip(rows, verdicts) if v is not True])


def _merge_tallies(tallies: list[Tally]) -> Tally:
    """One Tally of a pane's slices, the misses in slice order."""
    if len(tallies) == 1:
        return tallies[0]
    return Tally(sum(t.rows for t in tallies), sum(t.nulls for t in tallies),
                 sum(t.failed for t in tallies), _concat([t.misses for t in tallies]))


def _share(params, tally, window):
    """The share of a pane's elements whose verdict is True (Null when empty)."""
    return MeasureResult(tally.passed / tally.rows if tally.rows else None)


def _concat(lists: list[list]) -> list:
    return lists[0] if len(lists) == 1 else list(chain.from_iterable(lists))


def _matches_any(v: Value, tokens: Sequence[Value]) -> bool:
    return any(values_equal(v, t) is True for t in tokens)


# ---------------------------------------------------------------------------
# Simple statistics


def _prepare_count(params, env):
    """volume counts a pane's rows and count a column's non-Null cells; a
    slice's partial is its own count."""
    column = params.get("column")
    if column is None:
        return (lambda part: len(part.elements)), _total
    return (lambda part: sum(e.attrs.get(column) is not None for e in part.elements)), _total


def _total(partials, window):
    return MeasureResult(sum(partials))


def _apply_min(params, window, env):
    values = _non_null(window.elements, params["column"])
    return MeasureResult(min(values) if values else None)


def _apply_max(params, window, env):
    values = _non_null(window.elements, params["column"])
    return MeasureResult(max(values) if values else None)


def _numbers_stat(stat: Callable[[list], float]):
    """prepare() of a statistic of a column's numbers (Null without any)."""
    def prepare(params, env):
        column = params["column"]

        def finish(partials, window):
            # The concatenated lists are the pane's numbers in pane order.
            numbers = _concat(partials)
            return MeasureResult(stat(numbers) if numbers else None)
        return (lambda part: _numbers(part.elements, column)), finish
    return prepare


def _apply_z_outliers(params, window, env):
    numbers = _numbers(window.elements, params["column"])
    if not numbers:
        return MeasureResult(0)
    mean, std = mean_std(numbers)
    if not std:  # no z-scores around an undefined (Null) or zero spread
        return MeasureResult(None if std is None else 0)
    cut = params["z"] * std
    return MeasureResult(sum(1 for x in numbers if abs(x - mean) > cut))


# ---------------------------------------------------------------------------
# Completeness and placeholders


def _completeness_checker(params, env) -> ElemChecker:
    column = params["column"]
    tokens = params["missing_tokens"]
    empty_missing = params["empty_text_missing"]

    def check(e: StreamElement) -> bool | None:
        v = e.attrs.get(column)
        if v is None:
            return False
        if empty_missing and v == "":
            return False
        if tokens and _matches_any(v, tokens):
            return False
        return True

    return check


def _compile_placeholders(params, env):
    column = params["column"]
    tokens = params["tokens"]
    as_fraction = params["output"] == "fraction"

    def run(window, env):
        values = _non_null(window.elements, column)
        seen: set[bytes] = set()
        hits = 0
        for v in values:
            for t in tokens:
                if values_equal(v, t) is True:
                    hits += 1
                    seen.add(canonical_bytes(t))
                    break
        fraction = hits / len(values) if values else None
        detail = {"distinct_placeholders_present": len(seen), "placeholder_fraction": fraction}
        return MeasureResult(fraction if as_fraction else len(seen), detail)
    return run


# ---------------------------------------------------------------------------
# Distinctness


def _prepare_distinct(params, env):
    """Partials are the set of a slice's encodings (exact), or the occupied
    registers of a sketch over its encodings, packed four bytes each
    (approx). Encodings are never empty, so filter(None, ...) drops just the
    Nulls."""
    column = params["column"]
    if params["mode"] == "exact":
        return (lambda part: set(filter(None, part.encodings(column))),
                lambda partials, window: MeasureResult(len(set().union(*partials))))
    precision, seed = params["precision"], env.hash_seed
    return (lambda part: pack(registers_of(filter(None, part.encodings(column)), precision, seed)),
            lambda partials, window: MeasureResult(estimate_packed(partials, precision)))


def _prepare_uniqueness(params, env):
    column = params["column"]
    as_count = params["output"] == "unique_count"

    def finish(partials, window):
        # Each partial is a slice's encodings; None marks a Null.
        counts = Counter(chain.from_iterable(partials))
        counts.pop(None, None)
        total = sum(counts.values())
        unique = list(counts.values()).count(1)
        ratio = unique / total if total else None
        return MeasureResult(unique if as_count else ratio, {"unique_count": unique, "ratio": ratio})
    return (lambda part: part.encodings(column)), finish


def _apply_heavy_hitters(params, window, env):
    values = _non_null(window.elements, params["column"])
    phi = params["phi"]
    n = len(values)
    if params["mode"] == "approx":
        sketch = FrequentItemsSketch(params["capacity"])
        for v in values:
            sketch.add(v)
        triples = sketch.query(phi, n) if n else []
    else:
        counts: dict[bytes, list] = {}
        for v in values:
            k = canonical_bytes(v)
            slot = counts.get(k)
            if slot is None:
                counts[k] = [1, v]
            else:
                slot[0] += 1
        cut = phi * n
        triples = [(v, c, c) for c, v in counts.values() if c >= cut]
        triples.sort(key=lambda item: (-item[2], canonical_bytes(item[0])))
    detail = {"items": [{"item": value_to_json(v), "lo": lo, "hi": hi}
                        for v, lo, hi in triples],
              "mode": params["mode"]}
    return MeasureResult(len(triples), detail)


# ---------------------------------------------------------------------------
# Distribution


def _apply_percentiles(params, window, env):
    numbers = sorted(_numbers(window.elements, params["column"]))
    points = list(params["points"])
    if not numbers:
        return MeasureResult(None, {"points": points, "values": None})
    values = [percentile(numbers, q) for q in points]
    detail = {"points": points, "values": values}
    return MeasureResult(values[0] if len(values) == 1 else None, detail)


def _apply_length_stats(params, window, env):
    lengths = [len(v) for v in window.values(params["column"]) if isinstance(v, str)]
    if not lengths:
        return MeasureResult(None)
    stat = params["statistic"]
    if stat == "min":
        return MeasureResult(min(lengths))
    if stat == "max":
        return MeasureResult(max(lengths))
    mean, std = mean_std(lengths)
    return MeasureResult(mean if stat == "mean" else std)


def _ranks(xs: list[float]) -> list[float]:
    order = sorted(range(len(xs)), key=lambda i: xs[i])
    ranks = [0.0] * len(xs)
    i = 0
    while i < len(order):
        j = i
        while j + 1 < len(order) and xs[order[j + 1]] == xs[order[i]]:
            j += 1
        mean_rank = (i + j) / 2 + 1.0  # ranks are 1-based; ties share the mean
        for k in range(i, j + 1):
            ranks[order[k]] = mean_rank
        i = j + 1
    return ranks


def _pearson(xs: list[float], ys: list[float]) -> float | None:
    """Null when undefined: a zero or overflowing spread, or a NaN result."""
    mx = _fsum(xs) / len(xs)
    my = _fsum(ys) / len(ys)
    try:
        vx = _fsum([(x - mx) ** 2 for x in xs])
        vy = _fsum([(y - my) ** 2 for y in ys])
    except OverflowError:
        return None
    if vx == 0.0 or vy == 0.0:
        return None
    r = _fsum([(x - mx) * (y - my) for x, y in zip(xs, ys)]) / math.sqrt(vx * vy)
    return None if r != r else r


def _apply_correlation(params, window, env):
    xs: list[float] = []
    ys: list[float] = []
    ca, cb = params["column_a"], params["column_b"]
    for e in window.elements:
        a, b = e.attrs.get(ca), e.attrs.get(cb)
        if a is None or b is None or isinstance(a, bool) or isinstance(b, bool):
            continue
        if isinstance(a, (int, float)) and isinstance(b, (int, float)):
            xs.append(a)
            ys.append(b)
    if len(xs) < 2:
        return MeasureResult(None, {"pairs": len(xs)})
    if params["method"] == "spearman":
        xs, ys = _ranks(xs), _ranks(ys)
    return MeasureResult(_pearson(xs, ys), {"pairs": len(xs)})


# ---------------------------------------------------------------------------
# Order and interval structure


def _apply_ordering(params, window, env):
    asc = params["direction"] == "asc"
    strict = params["strict"]
    violations = 0
    prev: Value = None
    have_prev = False
    for v in window.values(params["column"]):
        if v is None:
            # A Null breaks the chain and is itself one violation.
            violations += 1
            have_prev = False
            continue
        if have_prev:
            if asc:
                ok = prev < v if strict else prev <= v
            else:
                ok = prev > v if strict else prev >= v
            if not ok:
                violations += 1
        prev = v
        have_prev = True
    return MeasureResult(violations)


def _intervals_share_a_type(params, columns):
    if columns is not None and columns[params["start_column"]] != columns[params["end_column"]]:
        return ["'start_column' and 'end_column' must share a type"]
    return []


def _apply_intervals(params, window, env):
    policy = params["policy"]
    sc, ec = params["start_column"], params["end_column"]
    violations = 0
    intervals = []
    for e in window.elements:
        s, t = e.attrs.get(sc), e.attrs.get(ec)
        # Malformed intervals (Null endpoint or end < start) are one violation each.
        if s is None or t is None or t < s:
            violations += 1
            continue
        intervals.append((s, t))
    intervals.sort()
    max_end = None
    for s, t in intervals:
        if max_end is not None:
            if s < max_end:
                violations += 1  # overlap, bad under every policy
            elif s == max_end:
                if policy == "gaps_required":
                    violations += 1
            else:
                if policy == "gaps_disallowed":
                    violations += 1
        max_end = t if max_end is None else max(max_end, t)
    return MeasureResult(violations)


def _apply_out_of_order(params, window, env):
    column = params["column"]
    by_arrival = sorted(window.elements, key=lambda e: e.arrival_seq)
    running: Value = None
    count = 0
    for e in by_arrival:
        v = e.event_time if column is None else e.attrs.get(column)
        if v is None:
            continue
        if running is not None and v < running:
            count += 1
        elif running is None or v > running:
            running = v
    return MeasureResult(count)


# ---------------------------------------------------------------------------
# Timeliness and volume


def _compile_freshness(params, env):
    fixed = params["reference"]

    def run(window, env):
        if not window.elements:
            return MeasureResult(None)
        newest = max(e.event_time for e in window.elements)
        ref_ts = fixed if fixed is not None else env.watermark
        if ref_ts is None:
            return MeasureResult(None, {"reference": "watermark", "missing": True})
        return MeasureResult((ref_ts - newest) / timedelta(seconds=1))
    return run


# ---------------------------------------------------------------------------
# Schema and types


def _schema_checker(params, env) -> ElemChecker:
    expected = list(params["expected"])
    expected_set = set(expected)
    mode = params["mode"]

    def check(e: StreamElement) -> bool | None:
        keys = list(e.attrs.keys())
        if mode == "presence_order":
            return keys == expected
        if not expected_set.issubset(keys):
            return False
        if mode == "presence_absence" and not set(keys).issubset(expected_set):
            return False
        return True

    return check


def _schema_tally(params, tally, window):
    violations = tally.rows - tally.passed
    return MeasureResult(violations == 0, {"violations": violations})


_TYPE_CHECK_TYPES = ("int", "float", "bool", "timestamp", "text")


def _type_checker(params, env) -> ElemChecker:
    column = params["column"]
    reads = reads_as(params["expected"], params["formats"])

    def check(e: StreamElement) -> bool | None:
        v = e.attrs.get(column)
        if v is None:
            return None  # Nulls are completeness's concern, not type conformance
        return reads(v)

    return check


def _type_tally(params, tally, window):
    """The share of passes among the elements with a non-Null cell."""
    considered = tally.rows - tally.nulls
    return MeasureResult(tally.passed / considered if considered else None)


# ---------------------------------------------------------------------------
# Cross-stream match


def _apply_match_ratio(params, window, env):
    if not window.elements:
        return MeasureResult(None)
    if env.secondary is None:
        return MeasureResult(None, {"secondary": "missing"})
    other = env.secondary(window.start, window.end, window.key)
    column = params["on"]
    keys = set()
    if other is not None:
        keys = {canonical_bytes(v) for v in other.values(column) if v is not None}
    matched = sum(1 for v in window.values(column)
                  if v is not None and canonical_bytes(v) in keys)
    detail = {"secondary_volume": len(other.elements) if other is not None else 0}
    return MeasureResult(matched / len(window.elements), detail)


# ---------------------------------------------------------------------------
# Tuple-level fraction measures


def _range_has_a_fitting_bound(params, columns):
    if params["lo"] is None and params["hi"] is None:
        return ["valid_range needs at least one of 'lo'/'hi'"]
    errors = []
    col_kind = columns[params["column"]] if columns is not None else None
    for name in ("lo", "hi"):
        bound = params[name]
        if bound is None or col_kind is None:
            continue
        kind = value_type(bound)
        if not (kind in _NUMERIC_TYPES and col_kind in _NUMERIC_TYPES) and kind != col_kind:
            errors.append(f"'{name}' type {kind} does not match column type {col_kind}")
    if not errors:
        try:
            _value_range(params)
        except ModelError as exc:
            errors.append(f"'lo' and 'hi' do not form a range: {exc}")
    return errors


def _value_range(params) -> ValueRange:
    lo = params["lo"] if params["lo"] is not None else -math.inf
    hi = params["hi"] if params["hi"] is not None else math.inf
    if isinstance(lo, datetime) or isinstance(hi, datetime):
        lo = lo if isinstance(lo, datetime) else TS_MIN
        hi = hi if isinstance(hi, datetime) else TS_MAX
    return ValueRange(lo, hi, params["lo_inclusive"], params["hi_inclusive"])


def _range_checker(params, env) -> ElemChecker:
    column = params["column"]
    within = value_test(_value_range(params))
    return lambda e: within(e.attrs.get(column))


def _in_set_checker(params, env) -> ElemChecker:
    column = params["column"]
    allowed = params["allowed"]
    # Text equals only text, so a str value is in the set when it is one of
    # the allowed texts.
    texts = frozenset(a for a in allowed if isinstance(a, str))

    def check(e: StreamElement) -> bool | None:
        v = e.attrs.get(column)
        if type(v) is str:
            return v in texts
        if v is None:
            return None
        return _matches_any(v, allowed)

    return check


def _in_set_tally(params, tally, window):
    result = _share(params, tally, window)
    if not params["proper"] or result.value is None:
        return result  # no subset demanded, or an empty pane
    allowed, column = params["allowed"], params["column"]
    # Each slice keeps its observed values, one per encoding (the last), in the memo.
    observed: dict[bytes, Value] = {}
    for part in window.parts:
        observed.update(_kept(part, ("observed", column), lambda part: {
            enc: e.attrs[column] for enc, e in zip(part.encodings(column), part.elements)
            if enc is not None}))
    observed = observed.values()
    covers = all(any(values_equal(a, o) is True for o in observed) for a in allowed)
    subset = all(any(values_equal(o, a) is True for a in allowed) for o in observed)
    if covers and subset:
        # Observed set equals the allowed set: proper subset demanded.
        result.force_fail = True
        result.detail = {"proper_subset_violated": True}
    return result


def _pattern_checker(params, env) -> ElemChecker:
    column = params["column"]
    regex = params["pattern"]

    def check(e: StreamElement) -> bool | None:
        v = e.attrs.get(column)
        if v is None:
            return None
        if not isinstance(v, str):
            return None
        return regex.fullmatch(v) is not None

    return check


def _conforms_checker(params, env) -> ElemChecker:
    """The expression compiled once, over each element's attributes; a
    result that is not a boolean is a Null verdict."""
    holds = constraint_verdict(expression.compile(params["expression"]))
    return lambda e: holds(e.attrs)


# ---------------------------------------------------------------------------
# Registry


def _static_type(name: str | None):
    return lambda params, columns: name


def _column_type(params, columns):
    return columns[params["column"]]


MEASURES: dict[str, MeasureDef] = {}


def _register(measure: MeasureDef) -> None:
    MEASURES[measure.id] = measure


def _per_element(measure_id: str, table: dict[str, Param],
                 tally: Callable[[dict, Tally, WindowInstance], MeasureResult],
                 make_checker, result_type: str = "float", check=None,
                 reads_rows=None) -> MeasureDef:
    """A measure with a per-element form, merged per slice under its own id.
    A slice's partial is the Tally of its elements' verdicts (_tally_of);
    tally(params, tally, window) summarizes a pane's merged Tally into a new
    result, which then carries its misses on for per-element records."""
    def prepare(params, env, checker):
        def finish(partials, window):
            merged = _merge_tallies(partials)
            result = tally(params, merged, window)
            result.misses = merged.misses
            return result
        return (lambda part: _tally_of(checker, part.elements)), finish
    return MeasureDef(measure_id, table, _Merged(measure_id, prepare),
                      _static_type(result_type), make_checker, check, reads_rows)


_EXACT_OR_APPROX = choice("exact", "approx")

_register(MeasureDef("count", {"column": _ANY_COLUMN}, _Merged("count", _prepare_count),
                     _static_type("int")))
_register(MeasureDef("min", {"column": _ORDERED_COLUMN}, _per_pane(_apply_min), _column_type))
_register(MeasureDef("max", {"column": _ORDERED_COLUMN}, _per_pane(_apply_max), _column_type))
_register(MeasureDef("mean", {"column": _NUMERIC_COLUMN},
                     _Merged("numbers", _numbers_stat(_mean)),
                     _static_type("float")))
_register(MeasureDef("std", {"column": _NUMERIC_COLUMN},
                     _Merged("numbers", _numbers_stat(lambda xs: mean_std(xs)[1])),
                     _static_type("float")))
_register(MeasureDef("z_outlier_count",
                     {"column": _NUMERIC_COLUMN,
                      "z": Param(number("a number > 0", lambda z: z > 0))},
                     _per_pane(_apply_z_outliers), _static_type("int")))
_register(_per_element("completeness",
                       {"column": _ANY_COLUMN,
                        "missing_tokens": Param(list_of(scalar), []),
                        "empty_text_missing": Param(flag, False)},
                       _share, _completeness_checker))
_register(MeasureDef("placeholder_report",
                     {"column": _ANY_COLUMN,
                      "tokens": Param(list_of(scalar, nonempty=True)),
                      "output": Param(choice("distinct_present", "fraction"), "distinct_present")},
                     _compile_placeholders,
                     lambda p, c: "float" if p["output"] == "fraction" else "int"))
_register(MeasureDef("distinct_count",
                     {"column": _ANY_COLUMN,
                      "mode": Param(_EXACT_OR_APPROX, "exact"),
                      "precision": Param(number("an int in [4, 16]", lambda p: 4 <= p <= 16,
                                                 integer=True), 14)},
                     _Merged("distinct", _prepare_distinct),
                     lambda p, c: "float" if p["mode"] == "approx" else "int"))
_register(MeasureDef("uniqueness",
                     {"column": _ANY_COLUMN,
                      "output": Param(choice("ratio", "unique_count"), "ratio")},
                     _Merged("counts", _prepare_uniqueness),
                     lambda p, c: "int" if p["output"] == "unique_count" else "float"))
_register(MeasureDef("heavy_hitters",
                     {"column": _ANY_COLUMN,
                      "phi": Param(number("a number in (0, 1]", lambda phi: 0.0 < phi <= 1.0)),
                      "mode": Param(_EXACT_OR_APPROX, "exact"),
                      "capacity": Param(number("an int >= 1", lambda c: c >= 1, integer=True),
                                        256)},
                     _per_pane(_apply_heavy_hitters), _static_type("int")))
_register(MeasureDef("percentiles",
                     {"column": _NUMERIC_COLUMN,
                      "points": Param(list_of(number("a fraction in [0, 1]",
                                                    lambda q: 0.0 <= q <= 1.0), nonempty=True))},
                     _per_pane(_apply_percentiles), _static_type("float")))
_register(MeasureDef("length_stats",
                     {"column": Param(_column("text")),
                      "statistic": Param(choice("min", "max", "mean", "std"), "mean")},
                     _per_pane(_apply_length_stats),
                     lambda p, c: "int" if p["statistic"] in ("min", "max") else "float"))
_register(MeasureDef("correlation",
                     {"column_a": _NUMERIC_COLUMN, "column_b": _NUMERIC_COLUMN,
                      "method": Param(choice("pearson", "spearman"), "pearson")},
                     _per_pane(_apply_correlation), _static_type("float")))
_register(MeasureDef("ordering_violations",
                     {"column": _ORDERED_COLUMN,
                      "direction": Param(choice("asc", "desc"), "asc"),
                      "strict": Param(flag, False)},
                     _per_pane(_apply_ordering), _static_type("int")))
_register(MeasureDef("interval_conflicts",
                     {"start_column": _ORDERED_COLUMN, "end_column": _ORDERED_COLUMN,
                      "policy": Param(choice("gaps_allowed", "gaps_disallowed", "gaps_required"),
                                      "gaps_allowed")},
                     _per_pane(_apply_intervals), _static_type("int"),
                     check=_intervals_share_a_type))
_register(MeasureDef("out_of_order_count", {"column": Param(_column(*_ORDERED_TYPES), None)},
                     _per_pane(_apply_out_of_order), _static_type("int")))
_register(MeasureDef("freshness", {"reference": Param(_time_or_watermark, "watermark")},
                     _compile_freshness, _static_type("float")))
_register(MeasureDef("volume", {}, _Merged("volume", _prepare_count), _static_type("int")))
_register(_per_element("schema_check",
                       {"expected": Param(list_of(string, nonempty=True)),
                        "mode": Param(choice("presence", "presence_absence", "presence_order"),
                                      "presence")},
                       _schema_tally, _schema_checker, result_type="bool"))
_register(_per_element("type_check",
                       {"column": _ANY_COLUMN,
                        "expected": Param(choice(*_TYPE_CHECK_TYPES)),
                        "formats": Param(list_of(string), ["iso"])},
                       _type_tally, _type_checker))
_register(MeasureDef("match_ratio", {"on": _ANY_COLUMN},
                     _per_pane(_apply_match_ratio), _static_type("float")))
_register(_per_element("valid_range",
                       {"column": _ORDERED_COLUMN,
                        "lo": Param(_bound, None), "hi": Param(_bound, None),
                        "lo_inclusive": Param(flag, True), "hi_inclusive": Param(flag, True)},
                       _share, _range_checker, check=_range_has_a_fitting_bound))
_register(_per_element("in_set",
                       {"column": _ANY_COLUMN,
                        "allowed": Param(list_of(scalar, nonempty=True)),
                        "proper": Param(flag, False)},
                       _in_set_tally, _in_set_checker,
                       reads_rows=lambda params: params["proper"]))
_register(_per_element("matches_pattern",
                       {"column": Param(_column("text")), "pattern": Param(_pattern)},
                       _share, _pattern_checker))
_register(_per_element("conforms", {"expression": Param(_expression)},
                       _share, _conforms_checker))


def _parsed(spec: MeasureSpec) -> ParsedMeasure:
    """A spec parsed without a schema; raises ModelError when it is invalid."""
    parsed, errors = parse_measure(spec, None)
    if parsed is None:
        raise ModelError(f"measure {spec.id!r}: " + "; ".join(errors))
    return parsed


def compile_measure(measure: ParsedMeasure, env: EngineEnv,
                    checker: ElemChecker | None = None) -> MeasureRun:
    """The function that measures one pane for a parsed measure. A measure
    with a per-element form measures from the verdicts of checker (its
    elem_checker_for result, made here when not given)."""
    definition, params = measure.definition, measure.params
    if definition.make_elem_checker is None:
        return definition.compile(params, env)
    return definition.compile(params, env, checker or definition.make_elem_checker(params, env))


def apply_measure(spec: MeasureSpec, window: WindowInstance, env: EngineEnv,
                  run: MeasureRun | None = None) -> MeasureResult:
    """Evaluate a measure spec against one closed pane.

    run is the spec's compiled form (compile_measure), as a suite keeps it;
    without it the spec is parsed and compiled for this one call.
    """
    if run is None:
        run = compile_measure(_parsed(spec), env)
    return run(window, env)


def partial_key(measure: ParsedMeasure, env: EngineEnv) -> tuple | None:
    """The key under which a merged measure keeps its partial in a slice's
    memo, so that checks whose keys are equal share one partial; None for a
    measure that is not merged."""
    compile = measure.definition.compile
    return compile.key(measure.params, env) if isinstance(compile, _Merged) else None


def elem_checker_for(measure: ParsedMeasure | MeasureSpec, env: EngineEnv) -> ElemChecker | None:
    """Per-element checker when the measure supports one, else None. A raw
    spec is parsed first."""
    if isinstance(measure, MeasureSpec):
        measure = _parsed(measure)
    make = measure.definition.make_elem_checker
    return None if make is None else make(measure.params, env)
