"""Window measurements: pure functions from a closed pane to a value.

Every measure follows the empty-window contract: count-like results are 0 on
an empty (or all-Null, where relevant) window, statistic-like results are
Null. Nulls are excluded from aggregates unless a measure is explicitly about
them (completeness, volume, ordering).

The registry maps measure ids from configuration to validation, evaluation,
and (where meaningful) a per-element checker used for per-element records and
side-output routing.

Each check's measure is compiled once (compile_measure) into the function
that measures one pane, its parameters and checker resolved in advance.

Measures that merge (mean, std, completeness, distinct_count, uniqueness) are
written once as a partial over a run of elements and a finish over the
partials of a pane. Each slice of a sliding pane computes its partial once,
memoized on the slice, so the panes that overlap on it share the work; a
pane without slices is one part.
"""

from __future__ import annotations

import functools
import json
import math
import re
from dataclasses import dataclass
from datetime import datetime, timedelta
from itertools import chain
from typing import Any, Callable, Sequence

from . import expression
from .model import (
    TS_MAX,
    TS_MIN,
    MeasureSpec,
    StreamElement,
    Value,
    ValueRange,
    WindowInstance,
    canonical_bytes,
    compare_verdict,
    parse_ts,
    value_from_json,
    value_to_json,
    value_type,
    values_equal,
)
from .sketches import CardinalityEstimator, FrequentItemsSketch

__all__ = ["MeasureResult", "EngineEnv", "MEASURES", "MeasureDef",
           "percentile", "compile_measure"]

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
    """Registry entry for one measure id. compile(params, env, checker)
    returns the function that measures one pane; checker is the spec's
    make_elem_checker result, or None."""

    id: str
    params_allowed: frozenset[str]
    validate: Callable[[dict, dict[str, str]], list[str]]
    compile: Callable[[dict, EngineEnv, ElemChecker | None], MeasureRun]
    result_type: Callable[[dict, dict[str, str]], str | None]
    make_elem_checker: Callable[[dict, EngineEnv], ElemChecker] | None = None


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
    out = []
    for e in elements:
        v = e.attrs.get(column)
        if v is not None and not isinstance(v, bool) and isinstance(v, (int, float)):
            out.append(v)
    return out


def _mean_std(xs: list) -> tuple[float, float]:
    """Population mean and standard deviation, two-pass with exact summation.

    math.fsum makes the result independent of input order bit for bit.
    """
    n = len(xs)
    mean = math.fsum(xs) / n
    var = math.fsum((x - mean) ** 2 for x in xs) / n
    return mean, math.sqrt(var if var > 0.0 else 0.0)


def percentile(sorted_values: list, q: float) -> float:
    """Linear-interpolation percentile (h = (n-1)q) over a sorted list."""
    n = len(sorted_values)
    if n == 1:
        return float(sorted_values[0])
    h = (n - 1) * q
    lo = math.floor(h)
    frac = h - lo
    if frac == 0.0:
        return float(sorted_values[lo])
    return float(sorted_values[lo]) + frac * (float(sorted_values[lo + 1]) - float(sorted_values[lo]))


def _per_pane(apply: Callable[[dict, WindowInstance, EngineEnv], MeasureResult]):
    """compile() of a measure that reads its parameters as it measures."""
    return lambda params, env, checker: functools.partial(apply, params)


def _merged(name: str, prepare):
    """compile() of a measure kept as partial state per slice.

    prepare(params, env, checker) returns (partial, finish): partial(elements)
    summarizes one run of elements, and finish(partials, n) merges a pane's
    partials, in slice order, into the result (n is the pane's element
    count). A slice computes each partial once and keeps it in its memo under
    the partial's name and parameters, so checks sharing a partial share it.
    """
    def compile(params, env, checker):
        partial, finish = prepare(params, env, checker)
        key = (name, json.dumps(params, sort_keys=True, default=repr), env.hash_seed)

        def run(window, env):
            partials = []
            for part in window.slices():
                memo = part.memo
                if key not in memo:
                    memo[key] = partial(part.elements)
                partials.append(memo[key])
            return finish(partials, len(window.elements))
        return run
    return compile


def _concat(lists: list[list]) -> list:
    return lists[0] if len(lists) == 1 else list(chain.from_iterable(lists))


def _json_values(raw_list: list) -> list[Value]:
    return [value_from_json(v) for v in raw_list]


def _matches_any(v: Value, tokens: list[Value]) -> bool:
    return any(values_equal(v, t) is True for t in tokens)


# Validation helpers ---------------------------------------------------------


def _need_column(params: dict, columns: dict[str, str], errors: list[str],
                 key: str = "column", types: tuple[str, ...] | None = None) -> str | None:
    name = params.get(key)
    if not isinstance(name, str) or not name:
        errors.append(f"missing or invalid '{key}'")
        return None
    if name not in columns:
        errors.append(f"column {name!r} is not in the schema")
        return None
    if types is not None and columns[name] not in types:
        errors.append(f"column {name!r} has type {columns[name]}, expected one of {'/'.join(types)}")
        return None
    return name


def _check_params(params: dict, allowed: frozenset[str], errors: list[str]) -> None:
    for key in params:
        if key.startswith("_"):
            errors.append(f"parameter names starting with '_' are reserved ({key!r})")
        elif key not in allowed:
            errors.append(f"unknown parameter {key!r} (allowed: {', '.join(sorted(allowed))})")


def _opt_bool(params: dict, key: str, default: bool, errors: list[str]) -> bool:
    v = params.get(key, default)
    if not isinstance(v, bool):
        errors.append(f"'{key}' must be a boolean")
        return default
    return v


# ---------------------------------------------------------------------------
# Simple statistics


def _stat_validate(types: tuple[str, ...]):
    def validate(params: dict, columns: dict[str, str]) -> list[str]:
        errors: list[str] = []
        _need_column(params, columns, errors, types=types)
        return errors
    return validate


def _apply_count(params, window, env):
    return MeasureResult(len(_non_null(window.elements, params["column"])))


def _apply_min(params, window, env):
    values = _non_null(window.elements, params["column"])
    return MeasureResult(min(values) if values else None)


def _apply_max(params, window, env):
    values = _non_null(window.elements, params["column"])
    return MeasureResult(max(values) if values else None)


def _numbers_stat(stat: Callable[[list], float]):
    """prepare() of a statistic of a column's numbers (Null without any)."""
    def prepare(params, env, checker):
        column = params["column"]

        def finish(partials, n):
            # The concatenated lists are the pane's numbers in pane order.
            numbers = _concat(partials)
            return MeasureResult(stat(numbers) if numbers else None)
        return (lambda elements: _numbers(elements, column)), finish
    return prepare


def _validate_z_outliers(params, columns):
    errors: list[str] = []
    _need_column(params, columns, errors, types=_NUMERIC_TYPES)
    z = params.get("z")
    if isinstance(z, bool) or not isinstance(z, (int, float)) or not z > 0:
        errors.append("'z' must be a number > 0")
    return errors


def _apply_z_outliers(params, window, env):
    numbers = _numbers(window.elements, params["column"])
    if not numbers:
        return MeasureResult(0)
    mean, std = _mean_std(numbers)
    if std == 0.0:
        return MeasureResult(0)
    cut = params["z"] * std
    return MeasureResult(sum(1 for x in numbers if abs(x - mean) > cut))


# ---------------------------------------------------------------------------
# Completeness and placeholders


def _validate_completeness(params, columns):
    errors: list[str] = []
    _need_column(params, columns, errors)
    tokens = params.get("missing_tokens", [])
    if not isinstance(tokens, list):
        errors.append("'missing_tokens' must be a list of values")
    _opt_bool(params, "empty_text_missing", False, errors)
    return errors


def _completeness_checker(params, env) -> ElemChecker:
    column = params["column"]
    tokens = _json_values(params.get("missing_tokens", []) or [])
    empty_missing = bool(params.get("empty_text_missing", False))

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


def _prepare_completeness(params, env, check):
    def present(elements):
        return sum(1 for e in elements if check(e) is True)

    def finish(partials, n):
        return MeasureResult(sum(partials) / n if n else None)
    return present, finish


def _validate_placeholders(params, columns):
    errors: list[str] = []
    _need_column(params, columns, errors)
    tokens = params.get("tokens")
    if not isinstance(tokens, list) or not tokens:
        errors.append("'tokens' must be a non-empty list of placeholder values")
    output = params.get("output", "distinct_present")
    if output not in ("distinct_present", "fraction"):
        errors.append("'output' must be 'distinct_present' or 'fraction'")
    return errors


def _compile_placeholders(params, env, checker):
    column = params["column"]
    tokens = _json_values(params["tokens"])
    as_fraction = params.get("output") == "fraction"

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


def _validate_distinct(params, columns):
    errors: list[str] = []
    _need_column(params, columns, errors)
    mode = params.get("mode", "exact")
    if mode not in ("exact", "approx"):
        errors.append("'mode' must be 'exact' or 'approx'")
    precision = params.get("precision", 14)
    if isinstance(precision, bool) or not isinstance(precision, int) or not 4 <= precision <= 16:
        errors.append("'precision' must be an int in [4, 16]")
    return errors


def _prepare_distinct(params, env, checker):
    """Partials are canonical encodings (exact), or the value count and the
    occupied registers of a sketch over the elements (approx)."""
    column = params["column"]
    if params.get("mode", "exact") == "exact":
        return (lambda elements: {canonical_bytes(v) for v in _non_null(elements, column)},
                lambda partials, n: MeasureResult(len(set().union(*partials))))
    precision, seed = params.get("precision", 14), env.hash_seed

    def partial(elements):
        values = _non_null(elements, column)
        est = CardinalityEstimator(precision, seed)
        for v in values:
            est.add(v)
        return len(values), est.occupied()

    def finish(partials, n):
        # Register-wise max gives the registers of one sketch over the pane.
        est = CardinalityEstimator(precision, seed)
        for _, registers in partials:
            est.merge(registers)
        present = any(count for count, _ in partials)
        return MeasureResult(est.estimate() if present else 0.0)
    return partial, finish


def _validate_uniqueness(params, columns):
    errors: list[str] = []
    _need_column(params, columns, errors)
    if params.get("output", "ratio") not in ("ratio", "unique_count"):
        errors.append("'output' must be 'ratio' or 'unique_count'")
    return errors


def _prepare_uniqueness(params, env, checker):
    column = params["column"]
    as_count = params.get("output") == "unique_count"

    def counts(elements):
        out: dict[bytes, int] = {}
        for v in _non_null(elements, column):
            k = canonical_bytes(v)
            out[k] = out.get(k, 0) + 1
        return out

    def finish(partials, n):
        merged = partials[0]
        if len(partials) > 1:
            merged = dict(merged)  # partials are shared through the slice memo
            for part in partials[1:]:
                for k, c in part.items():
                    merged[k] = merged.get(k, 0) + c
        total = sum(merged.values())
        unique = sum(1 for c in merged.values() if c == 1)
        ratio = unique / total if total else None
        return MeasureResult(unique if as_count else ratio, {"unique_count": unique, "ratio": ratio})
    return counts, finish


def _validate_heavy_hitters(params, columns):
    errors: list[str] = []
    _need_column(params, columns, errors)
    phi = params.get("phi")
    if isinstance(phi, bool) or not isinstance(phi, (int, float)) or not 0.0 < phi <= 1.0:
        errors.append("'phi' must be a number in (0, 1]")
    if params.get("mode", "exact") not in ("exact", "approx"):
        errors.append("'mode' must be 'exact' or 'approx'")
    capacity = params.get("capacity", 256)
    if isinstance(capacity, bool) or not isinstance(capacity, int) or capacity < 1:
        errors.append("'capacity' must be an int >= 1")
    return errors


def _apply_heavy_hitters(params, window, env):
    values = _non_null(window.elements, params["column"])
    phi = params["phi"]
    n = len(values)
    if params.get("mode", "exact") == "approx":
        sketch = FrequentItemsSketch(params.get("capacity", 256))
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
              "mode": params.get("mode", "exact")}
    return MeasureResult(len(triples), detail)


# ---------------------------------------------------------------------------
# Distribution


def _validate_percentiles(params, columns):
    errors: list[str] = []
    _need_column(params, columns, errors, types=_NUMERIC_TYPES)
    points = params.get("points")
    if not isinstance(points, list) or not points:
        errors.append("'points' must be a non-empty list of fractions in [0, 1]")
        return errors
    for q in points:
        if isinstance(q, bool) or not isinstance(q, (int, float)) or not 0.0 <= q <= 1.0:
            errors.append(f"percentile point {q!r} is not in [0, 1]")
    return errors


def _apply_percentiles(params, window, env):
    numbers = sorted(_numbers(window.elements, params["column"]))
    points = params["points"]
    if not numbers:
        return MeasureResult(None, {"points": points, "values": None})
    values = [percentile(numbers, q) for q in points]
    detail = {"points": points, "values": values}
    return MeasureResult(values[0] if len(values) == 1 else None, detail)


def _validate_length_stats(params, columns):
    errors: list[str] = []
    _need_column(params, columns, errors, types=("text",))
    if params.get("statistic", "mean") not in ("min", "max", "mean", "std"):
        errors.append("'statistic' must be one of min/max/mean/std")
    return errors


def _apply_length_stats(params, window, env):
    lengths = [len(v) for v in window.values(params["column"]) if isinstance(v, str)]
    if not lengths:
        return MeasureResult(None)
    stat = params.get("statistic", "mean")
    if stat == "min":
        return MeasureResult(min(lengths))
    if stat == "max":
        return MeasureResult(max(lengths))
    mean, std = _mean_std(lengths)
    return MeasureResult(mean if stat == "mean" else std)


def _validate_correlation(params, columns):
    errors: list[str] = []
    _need_column(params, columns, errors, key="column_a", types=_NUMERIC_TYPES)
    _need_column(params, columns, errors, key="column_b", types=_NUMERIC_TYPES)
    if params.get("method", "pearson") not in ("pearson", "spearman"):
        errors.append("'method' must be 'pearson' or 'spearman'")
    return errors


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
    mx = math.fsum(xs) / len(xs)
    my = math.fsum(ys) / len(ys)
    vx = math.fsum((x - mx) ** 2 for x in xs)
    vy = math.fsum((y - my) ** 2 for y in ys)
    if vx == 0.0 or vy == 0.0:
        return None
    cov = math.fsum((x - mx) * (y - my) for x, y in zip(xs, ys))
    return cov / math.sqrt(vx * vy)


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
    if params.get("method", "pearson") == "spearman":
        xs, ys = _ranks(xs), _ranks(ys)
    return MeasureResult(_pearson(xs, ys), {"pairs": len(xs)})


# ---------------------------------------------------------------------------
# Order and interval structure


def _validate_ordering(params, columns):
    errors: list[str] = []
    _need_column(params, columns, errors, types=_ORDERED_TYPES)
    if params.get("direction", "asc") not in ("asc", "desc"):
        errors.append("'direction' must be 'asc' or 'desc'")
    _opt_bool(params, "strict", False, errors)
    return errors


def _apply_ordering(params, window, env):
    asc = params.get("direction", "asc") == "asc"
    strict = bool(params.get("strict", False))
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


def _validate_intervals(params, columns):
    errors: list[str] = []
    a = _need_column(params, columns, errors, key="start_column", types=_ORDERED_TYPES)
    b = _need_column(params, columns, errors, key="end_column", types=_ORDERED_TYPES)
    if a and b and columns[a] != columns[b]:
        errors.append("start_column and end_column must share a type")
    if params.get("policy", "gaps_allowed") not in ("gaps_allowed", "gaps_disallowed", "gaps_required"):
        errors.append("'policy' must be gaps_allowed, gaps_disallowed, or gaps_required")
    return errors


def _apply_intervals(params, window, env):
    policy = params.get("policy", "gaps_allowed")
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


def _validate_out_of_order(params, columns):
    errors: list[str] = []
    if "column" in params and params["column"] is not None:
        _need_column(params, columns, errors, types=_ORDERED_TYPES)
    return errors


def _apply_out_of_order(params, window, env):
    column = params.get("column")
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


def _validate_freshness(params, columns):
    errors: list[str] = []
    ref = params.get("reference", "watermark")
    if ref != "watermark":
        if not isinstance(ref, str):
            errors.append("'reference' must be 'watermark' or an ISO-8601 timestamp")
        else:
            try:
                parse_ts(ref)
            except Exception:
                errors.append(f"'reference' timestamp {ref!r} is invalid")
    return errors


def _compile_freshness(params, env, checker):
    ref = params.get("reference", "watermark")
    fixed = None if ref == "watermark" else parse_ts(ref)

    def run(window, env):
        if not window.elements:
            return MeasureResult(None)
        newest = max(e.event_time for e in window.elements)
        ref_ts = fixed if fixed is not None else env.watermark
        if ref_ts is None:
            return MeasureResult(None, {"reference": "watermark", "missing": True})
        return MeasureResult((ref_ts - newest) / timedelta(seconds=1))
    return run


def _apply_volume(params, window, env):
    return MeasureResult(len(window.elements))


# ---------------------------------------------------------------------------
# Schema and types


def _validate_schema_check(params, columns):
    errors: list[str] = []
    expected = params.get("expected")
    if not isinstance(expected, list) or not expected or not all(isinstance(c, str) for c in expected):
        errors.append("'expected' must be a non-empty list of column names")
    if params.get("mode", "presence") not in ("presence", "presence_absence", "presence_order"):
        errors.append("'mode' must be presence, presence_absence, or presence_order")
    return errors


def _schema_checker(params, env) -> ElemChecker:
    expected = list(params["expected"])
    expected_set = set(expected)
    mode = params.get("mode", "presence")

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


def _compile_schema_check(params, env, check):
    def run(window, env):
        violations = sum(1 for e in window.elements if check(e) is not True)
        return MeasureResult(violations == 0, {"violations": violations})
    return run


_TYPE_CHECK_TYPES = ("int", "float", "bool", "timestamp", "text")


def _validate_type_check(params, columns):
    errors: list[str] = []
    _need_column(params, columns, errors)
    if params.get("expected") not in _TYPE_CHECK_TYPES:
        errors.append(f"'expected' must be one of {'/'.join(_TYPE_CHECK_TYPES)}")
    formats = params.get("formats", ["iso"])
    if not isinstance(formats, list) or not all(isinstance(f, str) for f in formats):
        errors.append("'formats' must be a list of strings")
    return errors


def _parseable(v: Value, expected: str, formats: list[str]) -> bool:
    kind = value_type(v)
    if expected == "text":
        return kind == "text"
    if expected == "int":
        if kind == "int":
            return True
        if kind == "text":
            try:
                int(v)  # type: ignore[arg-type]
                return True
            except ValueError:
                return False
        return False
    if expected == "float":
        if kind in ("int", "float"):
            return True
        if kind == "text":
            try:
                return not math.isnan(float(v))  # type: ignore[arg-type]
            except ValueError:
                return False
        return False
    if expected == "bool":
        if kind == "bool":
            return True
        return kind == "text" and v.lower() in ("true", "false")  # type: ignore[union-attr]
    if expected == "timestamp":
        if kind == "timestamp":
            return True
        if kind in ("int", "float") and not isinstance(v, bool):
            return any(f in ("epoch_s", "epoch_ms") for f in formats)
        if kind != "text":
            return False
        for fmt in formats:
            if fmt == "iso":
                try:
                    parse_ts(v)  # type: ignore[arg-type]
                    return True
                except Exception:
                    continue
            elif fmt in ("epoch_s", "epoch_ms"):
                try:
                    float(v)  # type: ignore[arg-type]
                    return True
                except ValueError:
                    continue
            else:
                try:
                    datetime.strptime(v, fmt)  # type: ignore[arg-type]
                    return True
                except ValueError:
                    continue
        return False
    return False


def _type_checker(params, env) -> ElemChecker:
    column = params["column"]
    expected = params["expected"]
    formats = params.get("formats", ["iso"])

    def check(e: StreamElement) -> bool | None:
        v = e.attrs.get(column)
        if v is None:
            return None  # Nulls are completeness's concern, not type conformance
        return _parseable(v, expected, formats)

    return check


def _compile_type_check(params, env, check):
    def run(window, env):
        passes = 0
        considered = 0
        for e in window.elements:
            verdict = check(e)
            if verdict is None:
                continue
            considered += 1
            if verdict:
                passes += 1
        return MeasureResult(passes / considered if considered else None)
    return run


# ---------------------------------------------------------------------------
# Cross-stream match


def _validate_match_ratio(params, columns):
    errors: list[str] = []
    _need_column(params, columns, errors, key="on")
    return errors


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


def _validate_valid_range(params, columns):
    errors: list[str] = []
    name = _need_column(params, columns, errors, types=_ORDERED_TYPES)
    lo, hi = params.get("lo"), params.get("hi")
    if lo is None and hi is None:
        errors.append("valid_range needs at least one of 'lo'/'hi'")
        return errors
    for label, bound in (("lo", lo), ("hi", hi)):
        if bound is None:
            continue
        parsed = value_from_json(bound)
        kind = value_type(parsed)
        if kind not in _ORDERED_TYPES:
            errors.append(f"'{label}' must be numeric or a timestamp")
        elif name is not None:
            col_kind = columns[name]
            numeric = kind in _NUMERIC_TYPES and col_kind in _NUMERIC_TYPES
            if not numeric and kind != col_kind:
                errors.append(f"'{label}' type {kind} does not match column type {col_kind}")
    _opt_bool(params, "lo_inclusive", True, errors)
    _opt_bool(params, "hi_inclusive", True, errors)
    return errors


def _range_checker(params, env) -> ElemChecker:
    column = params["column"]
    lo = value_from_json(params["lo"]) if params.get("lo") is not None else -math.inf
    hi = value_from_json(params["hi"]) if params.get("hi") is not None else math.inf
    if isinstance(lo, datetime) or isinstance(hi, datetime):
        lo = lo if isinstance(lo, datetime) else TS_MIN
        hi = hi if isinstance(hi, datetime) else TS_MAX
    bounds = ValueRange(lo, hi,
                        bool(params.get("lo_inclusive", True)),
                        bool(params.get("hi_inclusive", True)))

    def check(e: StreamElement) -> bool | None:
        return compare_verdict(e.attrs.get(column), bounds)

    return check


def _validate_in_set(params, columns):
    errors: list[str] = []
    _need_column(params, columns, errors)
    allowed = params.get("allowed")
    if not isinstance(allowed, list) or not allowed:
        errors.append("'allowed' must be a non-empty list of values")
    else:
        for v in allowed:
            if isinstance(v, (dict, list)):
                errors.append(f"allowed value {v!r} is not a scalar")
    _opt_bool(params, "proper", False, errors)
    return errors


def _in_set_checker(params, env) -> ElemChecker:
    column = params["column"]
    allowed = _json_values(params["allowed"])

    def check(e: StreamElement) -> bool | None:
        v = e.attrs.get(column)
        if v is None:
            return None
        return _matches_any(v, allowed)

    return check


def _compile_in_set(params, env, check):
    fraction = _fraction(params, env, check)
    if not params.get("proper", False):
        return fraction
    column = params["column"]
    allowed = _json_values(params["allowed"])

    def run(window, env):
        result = fraction(window, env)
        if result.value is None:
            return result  # empty pane
        observed = []
        seen: set[bytes] = set()
        for v in window.values(column):
            if v is not None and canonical_bytes(v) not in seen:
                seen.add(canonical_bytes(v))
                observed.append(v)
        covers = all(any(values_equal(a, o) is True for o in observed) for a in allowed)
        subset = all(any(values_equal(o, a) is True for a in allowed) for o in observed)
        if covers and subset:
            # Observed set equals the allowed set: proper subset demanded.
            result.force_fail = True
            result.detail = {"proper_subset_violated": True}
        return result
    return run


def _validate_matches_pattern(params, columns):
    errors: list[str] = []
    _need_column(params, columns, errors, types=("text",))
    pattern = params.get("pattern")
    if not isinstance(pattern, str):
        errors.append("'pattern' must be a string")
    else:
        try:
            expression._compile_pattern(pattern, 0)
        except expression.ExpressionError as exc:
            errors.append(f"invalid pattern: {exc}")
    return errors


def _pattern_checker(params, env) -> ElemChecker:
    column = params["column"]
    regex = re.compile(params["pattern"])

    def check(e: StreamElement) -> bool | None:
        v = e.attrs.get(column)
        if v is None:
            return None
        if not isinstance(v, str):
            return None
        return regex.fullmatch(v) is not None

    return check


def _validate_conforms(params, columns):
    errors: list[str] = []
    text = params.get("expression")
    if not isinstance(text, str) or not text.strip():
        errors.append("'expression' must be a non-empty string")
        return errors
    try:
        expr = expression.parse(text)
    except expression.ExpressionError as exc:
        errors.append(f"invalid expression: {exc}")
        return errors
    unknown = expr.free_names() - set(columns)
    if unknown:
        errors.append(f"expression references unknown columns {sorted(unknown)}")
    return errors


def _conforms_checker(params, env) -> ElemChecker:
    expr = expression.parse(params["expression"])

    def check(e: StreamElement) -> bool | None:
        verdict = expr.evaluate(e)
        if isinstance(verdict, bool):
            return verdict
        return None

    return check


def _fraction(params, env, check):
    """compile() of the share of a pane's elements that the checker accepts."""
    def run(window, env):
        n = len(window.elements)
        if n == 0:
            return MeasureResult(None)
        return MeasureResult(sum(1 for e in window.elements if check(e) is True) / n)
    return run


# ---------------------------------------------------------------------------
# Registry


def _no_params(params, columns):
    return []


def _static_type(name: str | None):
    return lambda params, columns: name


def _column_type(params, columns):
    name = params.get("column")
    return columns.get(name) if isinstance(name, str) else None


MEASURES: dict[str, MeasureDef] = {}


def _register(measure: MeasureDef) -> None:
    MEASURES[measure.id] = measure


_register(MeasureDef("count", frozenset({"column"}),
                     _stat_validate(("bool", "int", "float", "text", "timestamp")),
                     _per_pane(_apply_count), _static_type("int")))
_register(MeasureDef("min", frozenset({"column"}), _stat_validate(_ORDERED_TYPES), _per_pane(_apply_min), _column_type))
_register(MeasureDef("max", frozenset({"column"}), _stat_validate(_ORDERED_TYPES), _per_pane(_apply_max), _column_type))
_register(MeasureDef("mean", frozenset({"column"}), _stat_validate(_NUMERIC_TYPES),
                     _merged("numbers", _numbers_stat(lambda xs: math.fsum(xs) / len(xs))), _static_type("float")))
_register(MeasureDef("std", frozenset({"column"}), _stat_validate(_NUMERIC_TYPES),
                     _merged("numbers", _numbers_stat(lambda xs: _mean_std(xs)[1])), _static_type("float")))
_register(MeasureDef("z_outlier_count", frozenset({"column", "z"}), _validate_z_outliers, _per_pane(_apply_z_outliers), _static_type("int")))
_register(MeasureDef("completeness", frozenset({"column", "missing_tokens", "empty_text_missing"}),
                     _validate_completeness, _merged("present", _prepare_completeness),
                     _static_type("float"),
                     _completeness_checker))
_register(MeasureDef("placeholder_report", frozenset({"column", "tokens", "output"}),
                     _validate_placeholders, _compile_placeholders,
                     lambda p, c: "float" if p.get("output") == "fraction" else "int"))
_register(MeasureDef("distinct_count", frozenset({"column", "mode", "precision"}),
                     _validate_distinct, _merged("distinct", _prepare_distinct),
                     lambda p, c: "float" if p.get("mode") == "approx" else "int"))
_register(MeasureDef("uniqueness", frozenset({"column", "output"}),
                     _validate_uniqueness, _merged("counts", _prepare_uniqueness),
                     lambda p, c: "int" if p.get("output") == "unique_count" else "float"))
_register(MeasureDef("heavy_hitters", frozenset({"column", "phi", "mode", "capacity"}),
                     _validate_heavy_hitters, _per_pane(_apply_heavy_hitters), _static_type("int")))
_register(MeasureDef("percentiles", frozenset({"column", "points"}),
                     _validate_percentiles, _per_pane(_apply_percentiles), _static_type("float")))
_register(MeasureDef("length_stats", frozenset({"column", "statistic"}),
                     _validate_length_stats, _per_pane(_apply_length_stats),
                     lambda p, c: "int" if p.get("statistic") in ("min", "max") else "float"))
_register(MeasureDef("correlation", frozenset({"column_a", "column_b", "method"}),
                     _validate_correlation, _per_pane(_apply_correlation), _static_type("float")))
_register(MeasureDef("ordering_violations", frozenset({"column", "direction", "strict"}),
                     _validate_ordering, _per_pane(_apply_ordering), _static_type("int")))
_register(MeasureDef("interval_conflicts", frozenset({"start_column", "end_column", "policy"}),
                     _validate_intervals, _per_pane(_apply_intervals), _static_type("int")))
_register(MeasureDef("out_of_order_count", frozenset({"column"}),
                     _validate_out_of_order, _per_pane(_apply_out_of_order), _static_type("int")))
_register(MeasureDef("freshness", frozenset({"reference"}),
                     _validate_freshness, _compile_freshness, _static_type("float")))
_register(MeasureDef("volume", frozenset(), _no_params, _per_pane(_apply_volume), _static_type("int")))
_register(MeasureDef("schema_check", frozenset({"expected", "mode"}),
                     _validate_schema_check, _compile_schema_check, _static_type("bool"),
                     _schema_checker))
_register(MeasureDef("type_check", frozenset({"column", "expected", "formats"}),
                     _validate_type_check, _compile_type_check, _static_type("float"),
                     _type_checker))
_register(MeasureDef("match_ratio", frozenset({"on"}),
                     _validate_match_ratio, _per_pane(_apply_match_ratio), _static_type("float")))
_register(MeasureDef("valid_range", frozenset({"column", "lo", "hi", "lo_inclusive", "hi_inclusive"}),
                     _validate_valid_range, _fraction, _static_type("float"),
                     _range_checker))
_register(MeasureDef("in_set", frozenset({"column", "allowed", "proper"}),
                     _validate_in_set, _compile_in_set, _static_type("float"),
                     _in_set_checker))
_register(MeasureDef("matches_pattern", frozenset({"column", "pattern"}),
                     _validate_matches_pattern, _fraction, _static_type("float"),
                     _pattern_checker))
_register(MeasureDef("conforms", frozenset({"expression"}),
                     _validate_conforms, _fraction, _static_type("float"),
                     _conforms_checker))


def validate_measure(spec: MeasureSpec, columns: dict[str, str]) -> list[str]:
    """All configuration problems with one measure spec, as messages."""
    measure = MEASURES.get(spec.id)
    if measure is None:
        return [f"unknown measure {spec.id!r}"]
    errors: list[str] = []
    _check_params(spec.params, measure.params_allowed, errors)
    errors.extend(measure.validate(spec.params, columns))
    return errors


def compile_measure(spec: MeasureSpec, env: EngineEnv, checker: ElemChecker | None) -> MeasureRun:
    """The function that measures one pane for a (validated) spec, with its
    parameters resolved once; checker is the spec's per-element checker
    (elem_checker_for), which measures with a per-element form count with."""
    return MEASURES[spec.id].compile(spec.params, env, checker)


def apply_measure(spec: MeasureSpec, window: WindowInstance, env: EngineEnv,
                  run: MeasureRun | None = None) -> MeasureResult:
    """Evaluate a (validated) measure spec against one closed pane.

    run is the spec's compiled form (compile_measure), as a suite keeps it;
    without it the spec is compiled for this one call.
    """
    if run is None:
        run = compile_measure(spec, env, elem_checker_for(spec, env))
    return run(window, env)


def elem_checker_for(spec: MeasureSpec, env: EngineEnv) -> ElemChecker | None:
    """Per-element checker when the measure supports one, else None."""
    measure = MEASURES.get(spec.id)
    if measure is None or measure.make_elem_checker is None:
        return None
    return measure.make_elem_checker(spec.params, env)
