"""Window measurements: a closed pane's value, merged from its slices.

Every measure follows the empty-window contract: count-like results are 0 on
an empty (or all-Null, where relevant) window, statistic-like results are
Null. Nulls are excluded from aggregates unless a measure is explicitly about
them (completeness, volume, ordering).

The registry maps measure ids from configuration to a parameter table, a
compiled form, and (where meaningful) a per-element checker used for
per-element records and side-output routing. parse_measure runs a spec
through its table once (model.parse_fields, the loop every JSON input runs
through): it rejects unknown keys, fills in every default, decodes JSON
values, compiles patterns and parses expressions, so everything after it
reads only parsed values.

Every measure is written once as a partial over a slice and a finish that
merges the partials of a pane in slice order (_Merged); a pane without
slices is one part. A slice computes each partial once, memoized on the
slice, so the panes that overlap on it share the work, and once they are
kept the slice may release its rows. A partial is as small as the measure
allows: a count, an extremum, a set, count or sketch of the slice's column
encodings (Slice.encodings, so each value is encoded once), or, where a
measure reads its rows in pane order, the slice's projection of them,
concatenated at finish. The partial of a per-element measure is a Tally of
its checker's verdicts: how many rows, how many verdicts were Null and how
many failed, and the rows whose verdict was not True; the pane's value and
its per-element records come from one check of each element. A slice of
rows judged on arrival (model.JudgedRows) already holds those counts and
rows, so no checker runs when its panes close.

type_check reads a cell by the source decoder's own rule
(connectors.reads_as), so it passes a value exactly when a source of the
expected type would read it.
"""

from __future__ import annotations

import json
import math
import operator
import re
from collections import Counter
from dataclasses import dataclass
from datetime import datetime, timedelta
from itertools import chain
from typing import Any, Callable, NamedTuple, Sequence

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
    compile: _Merged
    result_type: Callable[[dict, dict[str, str]], str | None]
    make_elem_checker: Callable[[dict, EngineEnv], ElemChecker] | None = None
    check: Callable[[dict, dict[str, str] | None], list[str]] | None = None
    reads_rows: Callable[[dict], bool] | None = None


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


@dataclass(frozen=True)
class _Merged:
    """compile() of a measure, kept as partial state per slice.

    prepare(params, env, *checker) returns (partial, finish): partial(part)
    summarizes one Slice, and finish(partials, window, env) merges a pane's
    partials, in slice order, into the result; it reads no rows, only the
    pane's bounds, key and row count and the env of its close. A slice keeps
    each partial in its memo (Slice.kept) under the partial's name and the
    parameters it reads (all of them when reads is None), so checks that
    share a partial compute it once. Only a per-element measure gets its
    checker."""

    name: str
    prepare: Callable
    reads: tuple[str, ...] | None = None

    def __call__(self, params, env, *checker) -> MeasureRun:
        partial, finish = self.prepare(params, env, *checker)
        key = self.key(params, env)
        return lambda window, env: finish([part.kept(key, partial) for part in window.parts],
                                          window, env)

    def key(self, params, env) -> tuple:
        """The memo key of the measure's partial: its name and the parameters it reads."""
        if self.reads is not None:
            params = {name: params[name] for name in self.reads}
        return self.name, json.dumps(params, sort_keys=True, default=_memo_text), env.hash_seed


def _memo_text(value) -> str:
    """A parsed parameter as memo-key text (a pattern's repr is cut at 200 characters)."""
    return f"{value.flags}:{value.pattern}" if isinstance(value, re.Pattern) else repr(value)


class Tally(NamedTuple):
    """The partial of a per-element measure over some rows: their count,
    how many verdicts were Null, how many failed (neither True nor Null),
    and the misses, each row whose verdict was not True with that verdict.
    Over rows judged on arrival (model.JudgedRows), the misses are only the
    rows some check of the suite fails; a row left out passes every check
    that reads the misses."""

    rows: int
    nulls: int
    failed: int
    misses: list[tuple[StreamElement, bool | None]]

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


def _share(params, tally, window, env):
    """The share of a pane's elements whose verdict is True (Null when empty)."""
    return MeasureResult(tally.passed / tally.rows if tally.rows else None)


def _concat(lists: list[list]) -> list:
    return lists[0] if len(lists) == 1 else list(chain.from_iterable(lists))


def _concatenated(project: Callable[[dict, Sequence[StreamElement]], list],
                  measure: Callable[[dict, list], MeasureResult]):
    """prepare() of a measure of a pane's rows in pane order: a slice's partial
    is project(params, its elements), a list, and measure(params, rows) reads
    the pane's lists concatenated."""
    def prepare(params, env):
        return (lambda part: project(params, part.elements),
                lambda partials, window, env: measure(params, _concat(partials)))
    return prepare


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


def _total(partials, window, env):
    return MeasureResult(sum(partials))


def _prepare_extremum(pick: Callable):
    """prepare() of min or max. pick keeps the first of equal values, and a
    NaN only when it comes first. So a slice's partial is its first non-Null
    value and the pick of its values that are not NaN."""
    def prepare(params, env):
        column = params["column"]

        def partial(part):
            values = _non_null(part.elements, column)
            numbers = [v for v in values if v == v]
            return (values[0], pick(numbers) if numbers else None) if values else None

        def finish(partials, window, env):
            kept = [p for p in partials if p is not None]
            if not kept or kept[0][0] != kept[0][0]:
                return MeasureResult(kept[0][0] if kept else None)
            return MeasureResult(pick(p[1] for p in kept if p[1] is not None))
        return partial, finish
    return prepare


def _z_outliers(params, numbers):
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


def _prepare_placeholders(params, env):
    """A slice's partial: its non-Null count, and how many of those values
    first equal each token, by the token's encoding (None: no token)."""
    column, tokens = params["column"], params["tokens"]
    as_fraction = params["output"] == "fraction"

    def partial(part):
        values = _non_null(part.elements, column)
        return len(values), Counter(next((canonical_bytes(t) for t in tokens
                                          if values_equal(v, t) is True), None) for v in values)

    def finish(partials, window, env):
        count = sum(p[0] for p in partials)
        seen = sum((p[1] for p in partials), Counter())
        seen.pop(None, None)
        hits = seen.total()
        fraction = hits / count if count else None
        detail = {"distinct_placeholders_present": len(seen), "placeholder_fraction": fraction}
        return MeasureResult(fraction if as_fraction else len(seen), detail)
    return partial, finish


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
                lambda partials, window, env: MeasureResult(len(set().union(*partials))))
    precision, seed = params["precision"], env.hash_seed
    return (lambda part: pack(registers_of(filter(None, part.encodings(column)), precision, seed)),
            lambda partials, window, env: MeasureResult(estimate_packed(partials, precision)))


def _prepare_uniqueness(params, env):
    column = params["column"]
    as_count = params["output"] == "unique_count"

    def finish(partials, window, env):
        # Each partial is a slice's encodings; None marks a Null.
        counts = Counter(chain.from_iterable(partials))
        counts.pop(None, None)
        total = sum(counts.values())
        unique = list(counts.values()).count(1)
        ratio = unique / total if total else None
        return MeasureResult(unique if as_count else ratio, {"unique_count": unique, "ratio": ratio})
    return (lambda part: part.encodings(column)), finish


def _prepare_heavy_hitters(params, env):
    """Approx: a slice's partial is its non-Null values, which the sketch
    reads in pane order. Exact: it counts the encodings of its non-Null
    values and keeps the first value of each; a pane keeps the first."""
    column, phi = params["column"], params["phi"]

    def hitters(triples):
        return MeasureResult(len(triples), {"items": [{"item": value_to_json(v), "lo": lo, "hi": hi}
                                                      for v, lo, hi in triples],
                                            "mode": params["mode"]})

    if params["mode"] == "approx":
        def approx(partials, window, env):
            values = _concat(partials)
            sketch = FrequentItemsSketch(params["capacity"])
            for v in values:
                sketch.add(v)
            return hitters(sketch.query(phi, len(values)) if values else [])
        return (lambda part: _non_null(part.elements, column)), approx

    def partial(part):
        codes = part.encodings(column)  # read backwards, so the first value of each stays
        firsts = {enc: e.attrs.get(column) for enc, e in reversed(tuple(zip(codes, part.elements)))}
        firsts.pop(None, None)
        return Counter(filter(None, codes)), firsts

    def exact(partials, window, env):
        counts, firsts = Counter(), {}
        for part_counts, part_firsts in partials:
            counts.update(part_counts)
            firsts = part_firsts | firsts  # an earlier slice's first value stays
        cut = phi * counts.total()
        return hitters([(firsts[enc], -c, -c) for c, enc in
                        sorted((-c, enc) for enc, c in counts.items() if c >= cut)])
    return partial, exact


# ---------------------------------------------------------------------------
# Distribution


def _percentiles(params, numbers):
    numbers = sorted(numbers)
    points = list(params["points"])
    if not numbers:
        return MeasureResult(None, {"points": points, "values": None})
    values = [percentile(numbers, q) for q in points]
    detail = {"points": points, "values": values}
    return MeasureResult(values[0] if len(values) == 1 else None, detail)


def _length_stats(params, lengths):
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


def _number_pairs(params, elements) -> list[tuple[float | int, float | int]]:
    """The rows whose cells in both columns are ints or floats (not bools)."""
    ca, cb = params["column_a"], params["column_b"]
    return [(a, b) for e in elements
            if _is_number(a := e.attrs.get(ca)) and _is_number(b := e.attrs.get(cb))]


def _is_number(v: Value) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _correlation(params, pairs):
    xs, ys = [a for a, _ in pairs], [b for _, b in pairs]
    if len(xs) < 2:
        return MeasureResult(None, {"pairs": len(xs)})
    if params["method"] == "spearman":
        xs, ys = _ranks(xs), _ranks(ys)
    return MeasureResult(_pearson(xs, ys), {"pairs": len(xs)})


# ---------------------------------------------------------------------------
# Order and interval structure


def _cells(params, elements) -> list[Value]:
    """The column's cell of each row, Nulls included."""
    return [e.attrs.get(params["column"]) for e in elements]


def _ordering(params, cells):
    ordered = {("asc", True): operator.lt, ("asc", False): operator.le,
               ("desc", True): operator.gt, ("desc", False): operator.ge}[
        params["direction"], params["strict"]]
    violations = 0
    prev: Value = None  # None after a Null, which breaks the chain and is one violation
    for v in cells:
        if v is None or (prev is not None and not ordered(prev, v)):
            violations += 1
        prev = v
    return MeasureResult(violations)


def _intervals_share_a_type(params, columns):
    if columns is not None and columns[params["start_column"]] != columns[params["end_column"]]:
        return ["'start_column' and 'end_column' must share a type"]
    return []


def _intervals(params, elements) -> list[tuple[Value, Value] | None]:
    """Each row's interval, None for a malformed one (a Null endpoint or end < start)."""
    sc, ec = params["start_column"], params["end_column"]
    return [None if s is None or t is None or t < s else (s, t)
            for s, t in ((e.attrs.get(sc), e.attrs.get(ec)) for e in elements)]


def _interval_conflicts(params, intervals):
    policy = params["policy"]
    violations = intervals.count(None)  # one for each malformed interval
    max_end = None
    for s, t in sorted(filter(None, intervals)):
        if max_end is not None:  # an overlap is bad under every policy
            violations += (s < max_end or (policy == "gaps_required" if s == max_end
                                           else policy == "gaps_disallowed"))
        max_end = t if max_end is None else max(max_end, t)
    return MeasureResult(violations)


def _arrivals(params, elements) -> list[tuple[int, Value]]:
    """(arrival_seq, value) of each row with a non-Null value; the value is
    the event time without a column."""
    column = params["column"]
    return [(e.arrival_seq, v) for e in elements
            if (v := e.event_time if column is None else e.attrs.get(column)) is not None]


def _out_of_order(params, arrivals):
    running: Value = None
    count = 0
    for _, v in sorted(arrivals, key=operator.itemgetter(0)):  # stable: pane order on ties
        if running is not None and v < running:
            count += 1
        elif running is None or v > running:
            running = v
    return MeasureResult(count)


# ---------------------------------------------------------------------------
# Timeliness and volume


def _prepare_freshness(params, env):
    """A slice's partial is its newest event time."""
    fixed = params["reference"]

    def finish(partials, window, env):
        newest = max(filter(None, partials), default=None)
        if newest is None:
            return MeasureResult(None)
        ref_ts = fixed if fixed is not None else env.watermark
        if ref_ts is None:
            return MeasureResult(None, {"reference": "watermark", "missing": True})
        return MeasureResult((ref_ts - newest) / timedelta(seconds=1))
    return (lambda part: max((e.event_time for e in part.elements), default=None)), finish


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


def _schema_tally(params, tally, window, env):
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


def _type_tally(params, tally, window, env):
    """The share of passes among the elements with a non-Null cell."""
    considered = tally.rows - tally.nulls
    return MeasureResult(tally.passed / considered if considered else None)


# ---------------------------------------------------------------------------
# Cross-stream match


def _prepare_match_ratio(params, env):
    """A slice's partial counts the encodings of its non-Null values; a
    pane's rows match where the aligned secondary pane holds the encoding."""
    column = params["on"]

    def finish(partials, window, env):
        if not len(window):
            return MeasureResult(None)
        if env.secondary is None:
            return MeasureResult(None, {"secondary": "missing"})
        other = env.secondary(window.start, window.end, window.key)
        keys = (set() if other is None
                else set(chain.from_iterable(part.encodings(column) for part in other.parts)))
        matched = sum(n for counts in partials for enc, n in counts.items() if enc in keys)
        detail = {"secondary_volume": len(other) if other is not None else 0}
        return MeasureResult(matched / len(window), detail)
    return (lambda part: Counter(filter(None, part.encodings(column)))), finish


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


def _in_set_tally(params, tally, window, env):
    result = _share(params, tally, window, env)
    if not params["proper"] or result.value is None:
        return result  # no subset demanded, or an empty pane
    allowed, column = params["allowed"], params["column"]
    # Each slice keeps its observed values, one per encoding (the last), in the memo.
    observed: dict[bytes, Value] = {}
    for part in window.parts:
        observed.update(part.kept(("observed", column), lambda part: {
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


def _per_element(measure_id: str, table: dict[str, Param],
                 tally: Callable[[dict, Tally, WindowInstance, EngineEnv], MeasureResult],
                 make_checker, result_type: str = "float", check=None,
                 reads_rows=None) -> MeasureDef:
    """A measure with a per-element form, merged per slice under its own id.
    A slice's partial is the Tally of its elements' verdicts (_tally_of);
    tally(params, tally, window, env) summarizes a pane's merged Tally into a
    new result, which then carries its misses on for per-element records."""
    def prepare(params, env, checker):
        def finish(partials, window, env):
            merged = _merge_tallies(partials)
            result = tally(params, merged, window, env)
            result.misses = merged.misses
            return result
        return (lambda part: _tally_of(checker, part.elements)), finish
    return MeasureDef(measure_id, table, _Merged(measure_id, prepare),
                      _static_type(result_type), make_checker, check, reads_rows)


_EXACT_OR_APPROX = choice("exact", "approx")
_COLUMN = ("column",)  # a partial that reads only the column


def _over_numbers(measure: Callable[[dict, list], MeasureResult]) -> _Merged:
    """A measure of a column's numbers in pane order, which such measures share."""
    return _Merged("numbers", _concatenated(lambda params, rows: _numbers(rows, params["column"]),
                                            measure), _COLUMN)


MEASURES: dict[str, MeasureDef] = {measure.id: measure for measure in [
    MeasureDef("count", {"column": _ANY_COLUMN}, _Merged("count", _prepare_count),
               _static_type("int")),
    MeasureDef("min", {"column": _ORDERED_COLUMN},
               _Merged("min", _prepare_extremum(min), _COLUMN), _column_type),
    MeasureDef("max", {"column": _ORDERED_COLUMN},
               _Merged("max", _prepare_extremum(max), _COLUMN), _column_type),
    MeasureDef("mean", {"column": _NUMERIC_COLUMN},
               _over_numbers(lambda p, xs: MeasureResult(_mean(xs) if xs else None)),
               _static_type("float")),
    MeasureDef("std", {"column": _NUMERIC_COLUMN},
               _over_numbers(lambda p, xs: MeasureResult(mean_std(xs)[1] if xs else None)),
               _static_type("float")),
    MeasureDef("z_outlier_count",
               {"column": _NUMERIC_COLUMN,
                "z": Param(number("a number > 0", lambda z: z > 0))},
               _over_numbers(_z_outliers), _static_type("int")),
    _per_element("completeness",
                 {"column": _ANY_COLUMN,
                  "missing_tokens": Param(list_of(scalar), []),
                  "empty_text_missing": Param(flag, False)},
                 _share, _completeness_checker),
    MeasureDef("placeholder_report",
               {"column": _ANY_COLUMN,
                "tokens": Param(list_of(scalar, nonempty=True)),
                "output": Param(choice("distinct_present", "fraction"), "distinct_present")},
               _Merged("placeholders", _prepare_placeholders, ("column", "tokens")),
               lambda p, c: "float" if p["output"] == "fraction" else "int"),
    MeasureDef("distinct_count",
               {"column": _ANY_COLUMN,
                "mode": Param(_EXACT_OR_APPROX, "exact"),
                "precision": Param(number("an int in [4, 16]", lambda p: 4 <= p <= 16,
                                           integer=True), 14)},
               _Merged("distinct", _prepare_distinct),
               lambda p, c: "float" if p["mode"] == "approx" else "int"),
    MeasureDef("uniqueness",
               {"column": _ANY_COLUMN,
                "output": Param(choice("ratio", "unique_count"), "ratio")},
               _Merged("counts", _prepare_uniqueness, _COLUMN),
               lambda p, c: "int" if p["output"] == "unique_count" else "float"),
    MeasureDef("heavy_hitters",
               {"column": _ANY_COLUMN,
                "phi": Param(number("a number in (0, 1]", lambda phi: 0.0 < phi <= 1.0)),
                "mode": Param(_EXACT_OR_APPROX, "exact"),
                "capacity": Param(number("an int >= 1", lambda c: c >= 1, integer=True),
                                  256)},
               _Merged("hitters", _prepare_heavy_hitters, ("column", "mode")),
               _static_type("int")),
    MeasureDef("percentiles",
               {"column": _NUMERIC_COLUMN,
                "points": Param(list_of(number("a fraction in [0, 1]",
                                              lambda q: 0.0 <= q <= 1.0), nonempty=True))},
               _over_numbers(_percentiles), _static_type("float")),
    MeasureDef("length_stats",
               {"column": Param(_column("text")),
                "statistic": Param(choice("min", "max", "mean", "std"), "mean")},
               _Merged("lengths", _concatenated(
                   lambda params, rows: [len(v) for v in _cells(params, rows) if isinstance(v, str)],
                   _length_stats), _COLUMN),
               lambda p, c: "int" if p["statistic"] in ("min", "max") else "float"),
    MeasureDef("correlation",
               {"column_a": _NUMERIC_COLUMN, "column_b": _NUMERIC_COLUMN,
                "method": Param(choice("pearson", "spearman"), "pearson")},
               _Merged("pairs", _concatenated(_number_pairs, _correlation),
                       ("column_a", "column_b")),
               _static_type("float")),
    MeasureDef("ordering_violations",
               {"column": _ORDERED_COLUMN,
                "direction": Param(choice("asc", "desc"), "asc"),
                "strict": Param(flag, False)},
               _Merged("cells", _concatenated(_cells, _ordering), _COLUMN),
               _static_type("int")),
    MeasureDef("interval_conflicts",
               {"start_column": _ORDERED_COLUMN, "end_column": _ORDERED_COLUMN,
                "policy": Param(choice("gaps_allowed", "gaps_disallowed", "gaps_required"),
                                "gaps_allowed")},
               _Merged("intervals", _concatenated(_intervals, _interval_conflicts),
                       ("start_column", "end_column")),
               _static_type("int"),
               check=_intervals_share_a_type),
    MeasureDef("out_of_order_count", {"column": Param(_column(*_ORDERED_TYPES), None)},
               _Merged("arrivals", _concatenated(_arrivals, _out_of_order), _COLUMN),
               _static_type("int")),
    MeasureDef("freshness", {"reference": Param(_time_or_watermark, "watermark")},
               _Merged("newest", _prepare_freshness, ()), _static_type("float")),
    MeasureDef("volume", {}, _Merged("volume", _prepare_count), _static_type("int")),
    _per_element("schema_check",
                 {"expected": Param(list_of(string, nonempty=True)),
                  "mode": Param(choice("presence", "presence_absence", "presence_order"),
                                "presence")},
                 _schema_tally, _schema_checker, result_type="bool"),
    _per_element("type_check",
                 {"column": _ANY_COLUMN,
                  "expected": Param(choice(*_TYPE_CHECK_TYPES)),
                  "formats": Param(list_of(string), ["iso"])},
                 _type_tally, _type_checker),
    MeasureDef("match_ratio", {"on": _ANY_COLUMN},
               _Merged("encodings", _prepare_match_ratio, ("on",)),
               _static_type("float")),
    _per_element("valid_range",
                 {"column": _ORDERED_COLUMN,
                  "lo": Param(_bound, None), "hi": Param(_bound, None),
                  "lo_inclusive": Param(flag, True), "hi_inclusive": Param(flag, True)},
                 _share, _range_checker, check=_range_has_a_fitting_bound),
    _per_element("in_set",
                 {"column": _ANY_COLUMN,
                  "allowed": Param(list_of(scalar, nonempty=True)),
                  "proper": Param(flag, False)},
                 _in_set_tally, _in_set_checker,
                 reads_rows=lambda params: params["proper"]),
    _per_element("matches_pattern",
                 {"column": Param(_column("text")), "pattern": Param(_pattern)},
                 _share, _pattern_checker),
    _per_element("conforms", {"expression": Param(_expression)},
                 _share, _conforms_checker),
]}


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


def partial_key(measure: ParsedMeasure, env: EngineEnv) -> tuple:
    """The key under which a measure keeps its partial in a slice's memo,
    so that checks whose keys are equal share one partial."""
    return measure.definition.compile.key(measure.params, env)


def elem_checker_for(measure: ParsedMeasure | MeasureSpec, env: EngineEnv) -> ElemChecker | None:
    """Per-element checker when the measure supports one, else None. A raw
    spec is parsed first."""
    if isinstance(measure, MeasureSpec):
        measure = _parsed(measure)
    make = measure.definition.make_elem_checker
    return None if make is None else make(measure.params, env)
