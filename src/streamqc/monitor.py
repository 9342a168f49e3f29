"""Suite orchestration: validation, assessment, context, and alerting.

The monitor turns closed panes into meta-stream records. Each configured
check is measured, assessed against its constraint (optionally parameterized
by rolling context and reference tables), and emitted as one record per
window (or per key group for keyed checks). Engine-generated records
(discards, dead stream, frozen columns) share the meta-stream under a
reserved "_" check-id prefix.
"""

from __future__ import annotations

import json
import math
import time
from collections import deque
from dataclasses import asdict, dataclass, field
from datetime import datetime, timedelta
from itertools import chain
from typing import Any, Callable, Iterable, Sequence

from . import expression
from .measures import (
    EngineEnv,
    ElemChecker,
    MEASURES,
    MeasureRun,
    apply_measure,
    compile_measure,
    elem_checker_for,
    validate_measure,
)
from .model import (
    CheckDefinition,
    ColumnSpec,
    ContextSpec,
    MeasureSpec,
    MetaRecord,
    Predicate,
    Slice,
    StreamElement,
    Threshold,
    Value,
    ValueRange,
    WindowInstance,
    WindowSpec,
    canonical_bytes,
    compare_verdict,
    format_ts,
    schema_types,
    value_to_json,
    value_type,
)
from .windowing import PaneStore, RouteOutcome, Watermark

__all__ = [
    "ReferenceTable", "ContextState", "DeadStreamSpec", "FrozenColumnSpec",
    "DetectorSpecs", "validate_suite", "SuiteState", "MonitorEngine",
    "RunStats", "CheckPlan", "relative_volume_check",
]


# ---------------------------------------------------------------------------
# Reference tables


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


# ---------------------------------------------------------------------------
# Rolling context


@dataclass
class _ContextEntry:
    end: datetime
    value: Value
    count: int


class ContextState:
    """Ring buffer of prior window summaries for one (check, key) series.

    Summaries are (window_end, measured value, element count). Statistics for
    a window starting at S cover entries with end in (S - horizon, S]; the
    current window is folded only after its own statistics were computed.
    """

    __slots__ = ("horizon", "_entries", "first_end")

    def __init__(self, horizon: timedelta):
        self.horizon = horizon
        self._entries: deque[_ContextEntry] = deque()
        self.first_end: datetime | None = None

    def fold(self, window_end: datetime, value: Value, count: int) -> None:
        if self.first_end is None:
            self.first_end = window_end
        self._entries.append(_ContextEntry(window_end, value, count))

    def warming(self, window_start: datetime) -> bool:
        """True until observed history spans at least one full horizon."""
        return self.first_end is None or window_start < self.first_end + self.horizon

    def bindings(self, window_start: datetime) -> dict[str, Value]:
        """mu_H/sigma_H/count_H/prev_value over the horizon before window_start."""
        floor = window_start - self.horizon
        while self._entries and self._entries[0].end <= floor:
            self._entries.popleft()
        numbers: list[float] = []
        count_h = 0
        prev: _ContextEntry | None = None
        for entry in self._entries:
            if entry.end > window_start:
                continue  # overlapping sliding panes stay out of their own context
            count_h += entry.count
            if prev is None or entry.end > prev.end:
                prev = entry
            v = entry.value
            if v is not None and not isinstance(v, bool) and isinstance(v, (int, float)):
                numbers.append(v)
        mu: Value = None
        sigma: Value = None
        if numbers:
            mu = math.fsum(numbers) / len(numbers)
            var = math.fsum((x - mu) ** 2 for x in numbers) / len(numbers)
            sigma = math.sqrt(var if var > 0.0 else 0.0)
        return {
            "mu_H": mu,
            "sigma_H": sigma,
            "count_H": count_h,
            "prev_value": prev.value if prev is not None else None,
        }


# ---------------------------------------------------------------------------
# Detectors


@dataclass(frozen=True)
class DeadStreamSpec:
    """Alert when consecutive empty panes span at least `threshold`."""

    threshold: timedelta
    restart: str = "auto"  # auto: emit a recovery record when data returns


@dataclass(frozen=True)
class FrozenColumnSpec:
    """Alert when a column shows one identical value across `windows`
    consecutive non-empty panes."""

    column: str
    windows: int
    key_by: str | None = None


@dataclass(frozen=True)
class DetectorSpecs:
    dead: DeadStreamSpec | None = None
    frozen: tuple[FrozenColumnSpec, ...] = ()


class _DeadDetector:
    def __init__(self, spec: DeadStreamSpec):
        self.spec = spec
        self._run_start: datetime | None = None
        self._run_end: datetime | None = None
        self._alerted = False

    def on_pane(self, w: WindowInstance) -> list[MetaRecord]:
        out: list[MetaRecord] = []
        if len(w.elements) == 0:
            if self._run_start is None:
                self._run_start = w.start
            self._run_end = w.end
            span = self._run_end - self._run_start
            if span >= self.spec.threshold and not self._alerted:
                self._alerted = True
                out.append(MetaRecord(
                    w.start, w.end, None, "_dead_stream",
                    span / timedelta(seconds=1), False,
                    {"silent_since": format_ts(self._run_start)}))
        else:
            if self._alerted and self.spec.restart == "auto":
                span = (self._run_end - self._run_start) / timedelta(seconds=1)
                out.append(MetaRecord(
                    w.start, w.end, None, "_dead_stream", span, True,
                    {"recovered": True}))
            self._run_start = self._run_end = None
            self._alerted = False
        return out


class _FrozenDetector:
    def __init__(self, spec: FrozenColumnSpec):
        self.spec = spec
        self.check_id = f"_frozen_stream.{spec.column}"
        # canonical key -> [frozen value canonical, frozen value, streak, alerted]
        self._state: dict[bytes, list] = {}

    def on_pane(self, w: WindowInstance, groups: list[tuple[Value, WindowInstance]]) -> list[MetaRecord]:
        out: list[MetaRecord] = []
        for key, sub in groups:
            values = [v for v in sub.values(self.spec.column) if v is not None]
            if not values:
                continue  # empty pane or all-Null: no evidence either way
            state = self._state.setdefault(canonical_bytes(key), [None, None, 0, False])
            distinct = {canonical_bytes(v) for v in values}
            if len(distinct) == 1:
                canon = next(iter(distinct))
                if state[0] == canon:
                    state[2] += 1
                else:
                    state[0], state[1], state[2] = canon, values[0], 1
                if state[2] >= self.spec.windows and not state[3]:
                    state[3] = True
                    out.append(MetaRecord(
                        sub.start, sub.end, key, self.check_id, values[0], False,
                        {"column": self.spec.column, "windows": state[2]}))
            else:
                if state[3]:
                    out.append(MetaRecord(
                        sub.start, sub.end, key, self.check_id, len(distinct), True,
                        {"column": self.spec.column, "recovered": True}))
                state[0], state[1], state[2], state[3] = None, None, 0, False
        return out


# ---------------------------------------------------------------------------
# Suite validation

_BINDING_NAMES = ("mu_H", "sigma_H", "count_H", "prev_value")


def validate_suite(checks: Iterable[CheckDefinition],
                   schema: Iterable[ColumnSpec],
                   window_spec: WindowSpec,
                   references: dict[str, ReferenceTable] | None = None,
                   detectors: DetectorSpecs | None = None,
                   has_secondary: bool = False) -> list[str]:
    """Validate a whole suite, returning every problem found (empty = ok).

    All-or-nothing: callers must refuse to run when any message comes back.
    """
    return _check_suite(checks, schema, window_spec, references or {}, detectors,
                        has_secondary)[0]


def _check_suite(checks: Iterable[CheckDefinition], schema: Iterable[ColumnSpec],
                 window_spec: WindowSpec, references: dict[str, ReferenceTable],
                 detectors: DetectorSpecs | None, has_secondary: bool
                 ) -> tuple[list[str], list[tuple[Any, expression.Expr | None]]]:
    """validate_suite's messages, and each check's constraint and reference
    key ready to evaluate (predicate texts parsed), in check order."""
    columns = schema_types(list(schema))
    errors: list[str] = []
    compiled: list[tuple[Any, expression.Expr | None]] = []
    seen_ids: set[str] = set()
    for check in checks:
        prefix = f"check {check.id!r}: "
        if check.id in seen_ids:
            errors.append(f"{prefix}duplicate check id")
        seen_ids.add(check.id)
        for msg in validate_measure(check.measure, columns):
            errors.append(prefix + msg)
        if check.key_by is not None:
            if check.key_by not in columns:
                errors.append(f"{prefix}key_by column {check.key_by!r} is not in the schema")
            if check.measure.id == "match_ratio":
                errors.append(f"{prefix}match_ratio does not support key_by")
        if check.emit_per_element:
            measure = MEASURES.get(check.measure.id)
            if measure is not None and measure.make_elem_checker is None:
                errors.append(f"{prefix}measure {check.measure.id!r} has no per-element form")
        if check.measure.id == "match_ratio" and not has_secondary:
            errors.append(f"{prefix}match_ratio requires a secondary source")
        if check.context is not None and window_spec.kind != "session":
            if check.context.horizon < window_spec.duration:
                errors.append(f"{prefix}context horizon must be >= the window duration")
        allowed_bindings = {"value"}
        if check.context is not None:
            allowed_bindings.update(check.context.statistics)
        reference_key = None
        if check.reference is not None:
            table = references.get(check.reference.table)
            if table is None:
                errors.append(f"{prefix}unknown reference table {check.reference.table!r}")
            else:
                allowed_bindings.update(f"ref_{c}" for c in table.columns)
            reference_key = _parse(check.reference.key_expr, {"window_start", "window_end"},
                                   errors, f"{prefix}reference key expression: ")
        constraint = _compile_constraint(check, columns, allowed_bindings, errors, prefix)
        compiled.append((constraint, reference_key))
    if detectors is not None:
        if detectors.dead is not None:
            if detectors.dead.threshold <= timedelta(0):
                errors.append("dead-stream threshold must be > 0")
            if detectors.dead.restart not in ("auto", "manual"):
                errors.append("dead-stream restart must be 'auto' or 'manual'")
            if window_spec.kind == "session":
                errors.append("dead-stream detection needs tumbling or sliding windows")
        for frozen in detectors.frozen:
            if frozen.column not in columns:
                errors.append(f"frozen detector column {frozen.column!r} is not in the schema")
            if frozen.windows < 1:
                errors.append("frozen detector needs windows >= 1")
            if frozen.key_by is not None and frozen.key_by not in columns:
                errors.append(f"frozen detector key_by {frozen.key_by!r} is not in the schema")
    return errors, compiled


def _parse(text: str, allowed: set[str], errors: list[str],
           prefix: str) -> expression.Expr | None:
    try:
        expr = expression.parse(text)
    except expression.ExpressionError as exc:
        errors.append(prefix + str(exc))
        return None
    unknown = expr.free_names() - allowed
    if unknown:
        errors.append(prefix + f"unknown names {sorted(unknown)} "
                               f"(allowed: {sorted(allowed)})")
        return None
    return expr


def _compile_constraint(check: CheckDefinition, columns: dict[str, str],
                        allowed_bindings: set[str], errors: list[str], prefix: str):
    """The check's constraint ready to evaluate: a Threshold or ValueRange as
    is, a Predicate parsed. Problems are appended to errors."""
    constraint = check.constraint
    if isinstance(constraint, Predicate):
        return _parse(constraint.text, allowed_bindings, errors,
                      f"{prefix}constraint predicate: ")
    measure = MEASURES.get(check.measure.id)
    result_type = measure.result_type(check.measure.params, columns) if measure else None
    if isinstance(constraint, Threshold):
        bound_type = value_type(constraint.bound)
        if result_type is not None:
            if not _comparable(result_type, bound_type, constraint.op):
                errors.append(f"{prefix}constraint bound type {bound_type} does not fit "
                              f"measure result type {result_type}")
    elif isinstance(constraint, ValueRange):
        if result_type is not None:
            for label, bound in (("lo", constraint.lo), ("hi", constraint.hi)):
                if not _comparable(result_type, value_type(bound), "<"):
                    errors.append(f"{prefix}range {label} type {value_type(bound)} does not fit "
                                  f"measure result type {result_type}")
    else:
        errors.append(f"{prefix}unknown constraint type {type(constraint).__name__}")
    return constraint


def _comparable(result_type: str, bound_type: str, op: str) -> bool:
    numeric = ("int", "float")
    if result_type in numeric and bound_type in numeric:
        return True
    if result_type == bound_type == "timestamp":
        return True
    if result_type == bound_type and result_type in ("bool", "text"):
        return op in ("=", "!=")
    return False


# ---------------------------------------------------------------------------
# Suite state (pure assessment, no I/O)


@dataclass(frozen=True)
class CheckPlan:
    """One check compiled when its suite is built; panes only read it.
    A Predicate constraint and the reference key are held parsed."""

    check: CheckDefinition
    measure: MeasureRun
    checker: ElemChecker | None
    constraint: Threshold | ValueRange | expression.Expr
    reference_key: expression.Expr | None


class SuiteState:
    """Everything the monitor remembers across panes for one suite.
    Construction validates each check and compiles it into a CheckPlan."""

    def __init__(self, checks: list[CheckDefinition],
                 schema: list[ColumnSpec],
                 window_spec: WindowSpec,
                 references: dict[str, ReferenceTable] | None = None,
                 detectors: DetectorSpecs | None = None,
                 hash_seed: int = 0,
                 secondary: Callable[[datetime, datetime, Value], WindowInstance | None] | None = None):
        checks = list(checks)
        self.references = references or {}
        problems, compiled = _check_suite(checks, schema, window_spec, self.references,
                                          detectors, has_secondary=secondary is not None)
        if problems:
            raise ValueError("invalid suite: " + "; ".join(problems))
        self.window_spec = window_spec
        self.hash_seed = hash_seed
        self.secondary = secondary
        env = EngineEnv(hash_seed=hash_seed, secondary=secondary)
        self.plans: list[CheckPlan] = []
        for check, (constraint, reference_key) in zip(checks, compiled):
            checker = elem_checker_for(check.measure, env)
            self.plans.append(CheckPlan(check, compile_measure(check.measure, env, checker),
                                        checker, constraint, reference_key))
        self._contexts: dict[tuple[str, bytes], ContextState] = {}
        detectors = detectors or DetectorSpecs()
        self._dead = _DeadDetector(detectors.dead) if detectors.dead else None
        self._frozen = [_FrozenDetector(f) for f in detectors.frozen]

    # -- helpers -------------------------------------------------------------

    def _partition(self, w: WindowInstance, key_by: str | None) -> list[tuple[Value, WindowInstance]]:
        """Key groups of a pane; elements with a Null key are skipped.

        Each slice of the pane is partitioned once (memoized on the slice),
        and a group's pane keeps the group's share of each slice as its parts.
        """
        if key_by is None:
            return [(w.key, w)]
        groups: dict[bytes, tuple[Value, list[Slice]]] = {}
        for part in w.slices():
            split = part.memo.get(("partition", key_by))
            if split is None:
                split = part.memo[("partition", key_by)] = _split(part.elements, key_by)
            for enc, (key, sub) in split.items():
                slot = groups.get(enc)
                if slot is None:
                    groups[enc] = (key, [sub])
                else:
                    slot[1].append(sub)
        out = []
        for enc in sorted(groups):
            key, parts = groups[enc]
            elements = tuple(chain.from_iterable(sub.elements for sub in parts))
            out.append((key, WindowInstance(w.start, w.end, key, elements, tuple(parts))))
        return out

    def _context_for(self, check: CheckDefinition, key: Value) -> ContextState:
        slot = (check.id, canonical_bytes(key))
        ctx = self._contexts.get(slot)
        if ctx is None:
            ctx = ContextState(check.context.horizon)  # type: ignore[union-attr]
            self._contexts[slot] = ctx
        return ctx

    # -- assessment ----------------------------------------------------------

    def on_window_close(self, w: WindowInstance, watermark: datetime | None = None
                        ) -> tuple[list[MetaRecord], dict[int, tuple[StreamElement, list[str]]]]:
        """Assess every check against one closed pane.

        Returns the pane's meta records (sorted by (window_end, key, check))
        and the failing elements for side-output routing, keyed by
        arrival_seq with the check ids that rejected them.
        """
        env = EngineEnv(hash_seed=self.hash_seed, watermark=watermark,
                        secondary=self.secondary)
        records: list[MetaRecord] = []
        failing: dict[int, tuple[StreamElement, list[str]]] = {}
        for plan in self.plans:
            for key, sub in self._partition(w, plan.check.key_by):
                records.extend(self._evaluate(plan, key, sub, env, failing))
        if self._dead is not None:
            records.extend(self._dead.on_pane(w))
        for det in self._frozen:
            records.extend(det.on_pane(w, self._partition(w, det.spec.key_by)))
        records.sort(key=MetaRecord.order_key)
        return records, failing

    def _evaluate(self, plan: CheckPlan, key: Value, sub: WindowInstance,
                  env: EngineEnv, failing: dict[int, tuple[StreamElement, list[str]]]
                  ) -> list[MetaRecord]:
        check = plan.check
        bindings: dict[str, Value] = {}
        warming = False
        if check.context is not None:
            ctx = self._context_for(check, key)
            warming = ctx.warming(sub.start)
            bindings.update(ctx.bindings(sub.start))
        ref_miss = False
        ref_key: Value = None
        if check.reference is not None:
            table = self.references[check.reference.table]
            ref_key = plan.reference_key.evaluate(
                None, {"window_start": sub.start, "window_end": sub.end})
            row = table.lookup(ref_key)
            if row is None:
                ref_miss = True
            else:
                for col, v in row.items():
                    bindings[f"ref_{col}"] = v

        result = apply_measure(check.measure, sub, env, plan.measure)
        if check.context is not None:
            # Fold after computing this window's bindings: a window never
            # contributes to its own context.
            self._context_for(check, key).fold(sub.end, result.value, len(sub.elements))

        detail: dict[str, Any] = dict(result.detail) if result.detail else {}
        if ref_miss:
            detail["reference_miss"] = value_to_json(ref_key)
            record = MetaRecord(sub.start, sub.end, key, check.id, None, False,
                                detail or None)
            return [record]
        if warming:
            detail["warming"] = True
            record = MetaRecord(sub.start, sub.end, key, check.id, result.value,
                                True, detail)
            return [record]

        verdict = compare_verdict(result.value, plan.constraint, bindings)
        if verdict is None:
            if check.null_verdict == "skip":
                detail["skipped_null"] = True
                ok = True
            else:
                ok = False
        else:
            ok = verdict
        if result.force_fail:
            ok = False

        records = [MetaRecord(sub.start, sub.end, key, check.id, result.value,
                              ok, detail or None)]
        if check.emit_per_element:
            checker = plan.checker
            for e in sub.elements:
                ev = checker(e)
                if ev is None and check.null_verdict == "skip":
                    continue
                if ev is not True:
                    records.append(MetaRecord(
                        sub.start, sub.end, key, check.id, False, False,
                        {"element_ref": e.arrival_seq}))
                    slot = failing.get(e.arrival_seq)
                    if slot is None:
                        failing[e.arrival_seq] = (e, [check.id])
                    elif check.id not in slot[1]:
                        slot[1].append(check.id)
        return records


def _split(elements: Sequence[StreamElement], key_by: str) -> dict[bytes, tuple[Value, Slice]]:
    """Elements by the canonical encoding of their key, order kept; Null keys dropped."""
    groups: dict[bytes, tuple[Value, Slice]] = {}
    for e in elements:
        key = e.attrs.get(key_by)
        if key is None:
            continue
        enc = canonical_bytes(key)
        slot = groups.get(enc)
        if slot is None:
            groups[enc] = (key, Slice([e]))
        else:
            slot[1].elements.append(e)
    return groups


def relative_volume_check(check_id: str, lo_factor: float, hi_factor: float,
                          horizon: timedelta, key_by: str | None = None) -> CheckDefinition:
    """Volume check bounded by factors of the mean pane volume over a horizon.

    The first pane of a series has no history and reports ok (warming).
    """
    text = f"value >= {lo_factor!r} * mu_H and value <= {hi_factor!r} * mu_H"
    return CheckDefinition(
        id=check_id,
        measure=MeasureSpec("volume"),
        constraint=Predicate(text),
        key_by=key_by,
        context=ContextSpec(horizon=horizon),
    )


# ---------------------------------------------------------------------------
# Engine: windowing + assessment + emission


@dataclass
class RunStats:
    """Counters for one run; parse-level counters are merged in by the caller."""

    read: int = 0
    assigned: int = 0
    late_accepted: int = 0
    discarded: int = 0
    panes_closed: int = 0
    records_emitted: int = 0
    side_routed: int = 0
    skipped_bad_time: int = 0
    parse_failures: dict[str, int] = field(default_factory=dict)

    def as_dict(self) -> dict[str, Any]:
        """Every counter, in field order (the stats line's key order)."""
        return asdict(self)


class MonitorEngine:
    """Streaming loop: observe, route, close, assess, emit.

    Sinks are duck-typed objects with write_line(str); either may be None.
    Pass collect_timings=True to record per-pane assessment durations for
    benchmarking.
    """

    def __init__(self, state: SuiteState, *,
                 watermark_delay: timedelta = timedelta(0),
                 key_by: str | None = None,
                 meta_sink: Any = None,
                 side_sink: Any = None,
                 collect_timings: bool = False):
        self.state = state
        self.watermark = Watermark(delay=watermark_delay)
        self.store = PaneStore(state.window_spec, key_by=key_by)
        self.meta_sink = meta_sink
        self.side_sink = side_sink
        self.stats = RunStats()
        self.collected: list[MetaRecord] | None = None if meta_sink is not None else []
        self._discards_reported = 0
        self._routed_seqs: set[int] = set()
        self.routing_seconds = 0.0
        self.pane_timings: list[float] = []  # assessment seconds per pane
        self._perf = time.perf_counter if collect_timings else None

    def process(self, element: StreamElement) -> None:
        t0 = self._perf() if self._perf else 0.0
        self.stats.read += 1
        self.watermark.observe(element.event_time)
        outcome = self.store.route(element, self.watermark)
        if outcome is RouteOutcome.DISCARDED:
            self.stats.discarded += 1
        else:
            self.stats.assigned += 1
            if outcome is RouteOutcome.LATE:
                self.stats.late_accepted += 1
        ready = self.store.close_ready(self.watermark.value)
        if self._perf:
            self.routing_seconds += self._perf() - t0
        if ready:
            self._emit_batch(ready)

    def finish(self) -> None:
        """End of stream: the watermark jumps to +infinity and every pane closes."""
        remaining = self.store.flush()
        if remaining:
            self._emit_batch(remaining)

    # -- internals -----------------------------------------------------------

    def _emit_batch(self, panes: list[WindowInstance]) -> None:
        wm = self.watermark.value
        batch_records: list[MetaRecord] = []
        batch_failing: list[tuple[StreamElement, list[str]]] = []
        for index, pane in enumerate(panes):
            t0 = self._perf() if self._perf else 0.0
            records, failing = self.state.on_window_close(pane, watermark=wm)
            records.append(self._late_discards_record(pane, first=index == 0))
            self.stats.panes_closed += 1
            for seq in sorted(failing):
                if seq not in self._routed_seqs:
                    self._routed_seqs.add(seq)
                    batch_failing.append(failing[seq])
            batch_records.extend(records)
            if self._perf:
                self.pane_timings.append(self._perf() - t0)
        batch_records.sort(key=MetaRecord.order_key)
        for record in batch_records:
            self.stats.records_emitted += 1
            if self.meta_sink is not None:
                self.meta_sink.write_line(record.to_json_line())
            else:
                self.collected.append(record)
        if self.side_sink is not None:
            for element, check_ids in batch_failing:
                self.side_sink.write_line(_side_line(element, check_ids))
        self.stats.side_routed += len(batch_failing)

    def _late_discards_record(self, pane: WindowInstance, first: bool) -> MetaRecord:
        delta = 0
        if first:
            delta = self.stats.discarded - self._discards_reported
            self._discards_reported = self.stats.discarded
        return MetaRecord(pane.start, pane.end, pane.key, "_late_discards",
                          delta, delta == 0,
                          {"total": self._discards_reported} if delta else None)


def _side_line(element: StreamElement, check_ids: list[str]) -> str:
    obj = {
        "seq": element.arrival_seq,
        "event_time": format_ts(element.event_time),
        "checks": list(check_ids),
        "attrs": {k: value_to_json(v) for k, v in element.attrs.items()},
    }
    return json.dumps(obj, separators=(",", ":"), ensure_ascii=True)
