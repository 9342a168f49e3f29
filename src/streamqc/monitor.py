"""Suite orchestration: validation, assessment, context, and alerting.

The monitor turns closed panes into meta-stream records. Each configured
check is measured, assessed against its constraint (optionally parameterized
by rolling context and reference tables), and emitted as one record per
window (or per key group for keyed checks). The dead-stream and
frozen-column detectors are pane checks too, run after the checks, and
every pane-level record, a late-discard count included, is made by one
emitter. Engine records share the meta-stream under a reserved "_"
check-id prefix.
"""

from __future__ import annotations

from collections import deque
from dataclasses import asdict, dataclass, field, replace
from datetime import datetime, timedelta
from operator import itemgetter
from typing import Any, Callable, Iterable

from . import expression
from .measures import (
    EngineEnv,
    MEASURES,
    MeasureRun,
    ParsedMeasure,
    apply_measure,
    compile_measure,
    elem_checker_for,
    mean_std,
    parse_measure,
    partial_key,
)
from .model import (
    NULL_CODE,
    CheckDefinition,
    ColumnSpec,
    Judge,
    MetaRecord,
    Predicate,
    ReferenceTable,
    StreamElement,
    Threshold,
    Value,
    ValueRange,
    WindowInstance,
    WindowSpec,
    canonical_bytes,
    check_lead,
    constraint_verdict,
    element_tail,
    format_ts,
    is_number,
    key_groups,
    meta_line_prefix,
    meta_line_tail,
    schema_types,
    value_test,
    value_to_json,
    value_type,
    wire_json,
)
from .windowing import PaneStore, Retention, RouteOutcome, Watermark

__all__ = [
    "ReferenceTable", "ContextState", "DeadStreamSpec", "FrozenColumnSpec",
    "DetectorSpecs", "InvalidSuite", "SuiteState", "MonitorEngine",
    "RunStats", "PaneCheck", "window_key_problems",
]


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
    Instants are compared by their distance from S, so a horizon longer
    than the timestamp range never forms an instant beyond it.
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
        return self.first_end is None or window_start - self.first_end < self.horizon

    def bindings(self, window_start: datetime) -> dict[str, Value]:
        """mu_H/sigma_H/count_H/prev_value over the horizon before window_start."""
        while self._entries and window_start - self._entries[0].end >= self.horizon:
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
            if is_number(entry.value):
                numbers.append(entry.value)
        mu, sigma = mean_std(numbers) if numbers else (None, None)
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


# ---------------------------------------------------------------------------
# Suite validation

# A constraint's verdict from the measured value and the pane's name table
# of the check's bindings; only a predicate reads the table.
Verdict = Callable[[Value, dict[str, Value]], bool | None]


class InvalidSuite(ValueError):
    """A suite SuiteState or MonitorEngine refuses, with every problem found."""

    def __init__(self, problems: list[str]):
        self.problems = problems
        super().__init__("invalid suite: " + "; ".join(problems))


def window_key_problems(suite: Any, key_by: str | None) -> list[str]:
    """What a window's key_by rules out of a suite's checks and detectors
    (a SuiteState, or a parsed config, which has both). A secondary
    source's panes are never keyed, so match_ratio over a keyed pane would
    never find a match; a keyed pane store makes no empty pane, so a
    dead-stream detector over it would never fire."""
    if key_by is None:
        return []
    problems = [f"check {check.id!r}: match_ratio needs an unkeyed window (window.key_by is set)"
                for check in suite.checks if check.measure.id == "match_ratio"]
    if suite.detectors.dead is not None:
        problems.append("dead-stream detection needs an unkeyed window (window.key_by is set)")
    return problems


def _check_suite(checks: Iterable[CheckDefinition], schema: Iterable[ColumnSpec],
                 window_spec: WindowSpec, references: dict[str, ReferenceTable],
                 detectors: DetectorSpecs | None, has_secondary: bool
                 ) -> tuple[list[str], list[tuple[ParsedMeasure | None, Verdict | None,
                                                  expression.Compiled | None]]]:
    """Every problem in the suite, and each check's parsed measure, its
    constraint's verdict function and its compiled reference key, in check
    order."""
    columns = schema_types(list(schema))
    errors: list[str] = []
    compiled = []
    seen_ids: set[str] = set()
    for check in checks:
        prefix = f"check {check.id!r}: "
        if check.id in seen_ids:
            errors.append(f"{prefix}duplicate check id")
        seen_ids.add(check.id)
        measure, problems = parse_measure(check.measure, columns)
        errors.extend(prefix + msg for msg in problems)
        if check.key_by is not None:
            if check.key_by not in columns:
                errors.append(f"{prefix}key_by column {check.key_by!r} is not in the schema")
            if check.measure.id == "match_ratio":
                errors.append(f"{prefix}match_ratio does not support key_by")
        if check.emit_per_element:
            definition = MEASURES.get(check.measure.id)
            if definition is not None and definition.make_elem_checker is None:
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
            reference_key = _compile(check.reference.key_expr, {"window_start", "window_end"},
                                     errors, f"{prefix}reference key expression: ")
        constraint = _compile_constraint(check, measure, columns, allowed_bindings,
                                         errors, prefix)
        compiled.append((measure, constraint, reference_key))
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


def _compile(text: str, allowed: set[str], errors: list[str],
             prefix: str) -> expression.Compiled | None:
    """The text parsed, its names checked against allowed, and compiled."""
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
    return expression.compile(expr)


def _compile_constraint(check: CheckDefinition, measure: ParsedMeasure | None,
                        columns: dict[str, str], allowed_bindings: set[str],
                        errors: list[str], prefix: str) -> Verdict | None:
    """The check's constraint as one verdict function: a Predicate compiled
    and read over the name table with the value bound (constraint_verdict),
    a Threshold or ValueRange as a test of the value alone (value_test).
    Problems are appended to errors; a bound is type-checked only against a
    measure that parsed."""
    constraint = check.constraint
    if isinstance(constraint, Predicate):
        predicate = _compile(constraint.text, allowed_bindings, errors,
                             f"{prefix}constraint predicate: ")
        if predicate is None:
            return None
        reads = constraint_verdict(predicate)

        def verdict(value: Value, names: dict[str, Value]) -> bool | None:
            names["value"] = value
            return reads(names)
        return verdict
    result_type = (measure.definition.result_type(measure.params, columns)
                   if measure is not None else None)
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
        return None
    test = value_test(constraint)
    return lambda value, names: test(value)


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


# One check compiled for a key group's pane: (head, series, pane, env,
# failing, entries) appends the group's records to entries and its failing
# elements to failing (None for a row already routed from an earlier pane,
# _element_records). head is the group's (window_end, key encoding), the
# start of its records' order keys; series names the group's run of panes
# that rolling state (a context, a frozen-column streak) follows: the
# window key's encoding and, in a keyed check's group, the group key's. The
# group's key is the pane's. The engine's detectors are pane checks too.
PaneCheck = Callable[[tuple[datetime, bytes], Any, WindowInstance, EngineEnv,
                      dict[int, tuple[StreamElement, list[str]] | None],
                      list[tuple[tuple, MetaRecord]]], None]

# A key group's pane: (head, series, pane), as a PaneCheck takes them.
Group = tuple[tuple[datetime, bytes], Any, WindowInstance]


class SuiteState:
    """Everything the monitor remembers across panes for one suite.
    Construction validates each check and compiles it, and then each
    detector, into a PaneCheck; an invalid suite raises InvalidSuite with
    every problem found.

    retention is what the engine's store keeps of the rows (Retention),
    decided here once. No pane check reads a pane's rows: the measures and
    the frozen-column detector read the partials each slice keeps in its
    memo from the first pane over it (per-element records read the rows a
    check missed, measures.Tally), and the dead-stream detector counts rows.
    So a slice's rows go after its first close (PARTIALS); or, when every
    check's measure follows from its per-element verdicts alone
    (ParsedMeasure.tallied), no check is keyed and there is no frozen-column
    detector, each row is judged as it is routed, by judge (one checker per
    distinct measure), and only the rows some check fails stay (FAILING).
    """

    def __init__(self, checks: list[CheckDefinition],
                 schema: list[ColumnSpec],
                 window_spec: WindowSpec,
                 references: dict[str, ReferenceTable] | None = None,
                 detectors: DetectorSpecs | None = None,
                 hash_seed: int = 0,
                 secondary: Callable[[datetime, datetime, Value], WindowInstance | None] | None = None):
        self.checks = checks = list(checks)
        self.references = references or {}
        problems, compiled = _check_suite(checks, schema, window_spec, self.references,
                                          detectors, has_secondary=secondary is not None)
        if problems:
            raise InvalidSuite(problems)
        self.window_spec = window_spec
        self._env = EngineEnv(hash_seed=hash_seed, secondary=secondary)
        # Each pane check's key_by column and its compiled pane path: the
        # checks in config order, then the dead-stream detector, then each
        # frozen-column detector in config order.
        self.pane_checks: list[tuple[str | None, PaneCheck]] = []
        # One checker per distinct per-element measure, by its partial's memo
        # key, and whether a Null verdict fails some check over it.
        checkers: dict[tuple, list] = {}
        for check, (measure, verdict, reference_key) in zip(checks, compiled):
            checker = None
            if measure.definition.make_elem_checker is not None:
                slot = checkers.get(key := partial_key(measure, self._env))
                if slot is None:
                    slot = checkers[key] = [elem_checker_for(measure, self._env), False]
                checker = slot[0]
                slot[1] = slot[1] or check.null_verdict == "fail"
            run = compile_measure(measure, self._env, checker)
            self.pane_checks.append((check.key_by,
                                     self._compile_check(check, run, verdict, reference_key)))
        self.detectors = detectors = detectors or DetectorSpecs()
        if detectors.dead is not None:
            self.pane_checks.append((None, _dead_stream_check(detectors.dead)))
        self.pane_checks.extend((spec.key_by, _frozen_column_check(spec))
                                for spec in detectors.frozen)
        self.retention, self.judge = Retention.PARTIALS, None
        if (not detectors.frozen and all(c.key_by is None for c in checks)
                and all(measure.tallied for measure, _, _ in compiled)):
            self.retention = Retention.FAILING
            self.judge = Judge(tuple(checker for checker, _ in checkers.values()),
                               tuple(null_fails for _, null_fails in checkers.values()))

    # -- helpers -------------------------------------------------------------

    def _partition(self, w: WindowInstance, window_enc: bytes, key_by: str) -> list[Group]:
        """Key groups of a pane whose key encodes as window_enc, in key
        order (key_groups); elements with a Null key are skipped. A group's
        key is its first row's in pane order (the key of its first share),
        and its pane keeps the group's share of each slice as its parts."""
        return [((w.end, enc), (window_enc, enc),
                 WindowInstance(w.start, w.end, own[0].key, parts=tuple(own)))
                for enc, own in key_groups(w.parts, key_by) if enc != NULL_CODE]

    # -- compilation ---------------------------------------------------------

    def _compile_check(self, check: CheckDefinition, run: MeasureRun, verdict: Verdict,
                       reference_key: expression.Compiled | None) -> PaneCheck:
        """The check's pane path, specialized once on what the check fixes."""
        spec = check.measure
        emit = _emitter(check.id)
        skip_null = check.null_verdict == "skip"
        # Only sliding panes share a slice, so only they mark one (_element_records).
        elements = (_element_records(check, self.window_spec.kind == "sliding")
                    if check.emit_per_element else None)

        # Bindings from the rolling context of the group's series and from the
        # reference row, each looked up only when the check has one; a warming
        # context or a reference miss decides the record alone, and the check
        # judges no row of the pane. A pane is folded into its context only
        # after its own bindings were read (which leaves warming as it was).
        horizon = check.context.horizon if check.context is not None else None
        contexts: dict[Any, ContextState] = {}
        table = (self.references[check.reference.table]
                 if check.reference is not None else None)

        def assess_bound(head, series, sub, env, failing, entries):
            names: dict[str, Value] = {}
            ctx = row = None
            if horizon is not None:
                ctx = contexts.get(series)
                if ctx is None:
                    ctx = contexts[series] = ContextState(horizon)
                names.update(ctx.bindings(sub.start))
            if table is not None:
                ref_key = reference_key({"window_start": sub.start, "window_end": sub.end})
                row = table.lookup(ref_key)
                names.update((f"ref_{col}", v) for col, v in (row or {}).items())
            result = apply_measure(spec, sub, env, run)
            value, detail, judged = result.value, result.detail or None, False
            if ctx is not None:
                ctx.fold(sub.end, value, len(sub))
            if table is not None and row is None:
                value, ok = None, False
                detail = {**(detail or {}), "reference_miss": value_to_json(ref_key)}
            elif ctx is not None and ctx.warming(sub.start):
                ok, detail = True, {**(detail or {}), "warming": True}
            else:
                judged, ok = True, verdict(value, names)
                if ok is None:
                    ok = skip_null
                    if skip_null:
                        detail = {**(detail or {}), "skipped_null": True}
                if result.force_fail:
                    ok = False
            emit(head, sub, value, ok, detail, entries)
            if elements is not None and result.misses:
                elements(head, sub, result.misses, judged, failing, entries)
        return assess_bound

    # -- assessment ----------------------------------------------------------

    def on_window_close(self, w: WindowInstance, watermark: datetime | None = None
                        ) -> tuple[list[tuple[tuple, MetaRecord]],
                                   dict[int, tuple[StreamElement, list[str]]]]:
        """Assess every pane check against one closed pane.

        Returns the pane's meta records, in the order they were made, each
        paired with its MetaRecord.order_key (the key's encoding computed
        once per key group), and the failing elements for side-output
        routing, keyed by arrival_seq with the check ids that rejected them.
        The pane is split once per key_by column, whatever reads the split.
        A verdict on a row is the same in every pane, so a row some check
        failed in an earlier pane, where it judged the row, was routed from
        that pane: such a row is not in failing (_element_records finds it
        by the check's mark on its slice).
        """
        env = self._env
        if env.watermark != watermark:
            env = self._env = replace(env, watermark=watermark)
        entries: list[tuple[tuple, MetaRecord]] = []
        failing: dict[int, tuple[StreamElement, list[str]] | None] = {}
        window_enc = canonical_bytes(w.key)
        groups: dict[str | None, list[Group]] = {None: [((w.end, window_enc), window_enc, w)]}
        for key_by, assess in self.pane_checks:
            split = groups.get(key_by)
            if split is None:
                split = groups[key_by] = self._partition(w, window_enc, key_by)
            for head, series, sub in split:
                assess(head, series, sub, env, failing, entries)
        return entries, {seq: slot for seq, slot in failing.items() if slot is not None}


def _emitter(check_id: str):
    """The one maker of a check's pane-level records, for checks, detectors
    and late discards alike: each record carries its line tail, rendered
    from the check's template (the check id encoded once), and its order
    key is head + (check_id, -1)."""
    lead = check_lead(check_id)
    order = (check_id, -1)

    def emit(head, sub, value, ok, detail, entries):
        entries.append((head + order, MetaRecord(
            sub.start, sub.end, sub.key, check_id, value, ok, detail,
            meta_line_tail(lead, value, ok, detail))))
    return emit


def _element_records(check: CheckDefinition, marks: bool):
    """One record per row whose verdict fails the check (a Null verdict
    fails unless the check skips Nulls) in a pane the check judged, each a
    failing row with the check's id. Only the rows whose verdict was not
    True are walked, one slice (or key share) at a time (MeasureResult.misses).

    With marks, a pane the check judged marks each of its slices that holds
    a row the check fails, in the slice's memo under ("judged", check id).
    A pane holds a row exactly when it spans the row's slice, and a verdict
    is the same in every pane, so a failing row in a marked slice was failed
    by an earlier pane that judged it, and routed from there: it maps to
    None in failing, whichever check fails it here."""
    check_id = check.id
    fail_null = check.null_verdict == "fail"
    tail = element_tail(check_id)
    mark = ("judged", check_id)

    def records(head, sub, tallies, judged, failing, entries):
        start, end, key = sub.start, sub.end, sub.key
        prefix = head + (check_id,)
        for part, tally in zip(sub.parts, tallies):
            routed = mark in part.memo
            if not (judged or routed):
                continue
            fails = False
            for e, ev in tally.misses:
                if fail_null or ev is not None:
                    fails = True
                    seq = e.arrival_seq
                    if routed:
                        failing[seq] = None
                    if not judged:
                        continue
                    entries.append((prefix + (seq,), MetaRecord(
                        start, end, key, check_id, False, False, {"element_ref": seq}, tail(seq))))
                    if seq not in failing:
                        failing[seq] = (e, [check_id])
                    elif (slot := failing[seq]) is not None and check_id not in slot[1]:
                        slot[1].append(check_id)
            if marks and judged and fails:
                part.memo[mark] = True
    return records


def _dead_stream_check(spec: DeadStreamSpec) -> PaneCheck:
    """The dead-stream detector as a pane check of the whole pane: one
    alert once a run of empty panes spans the threshold, and with restart
    "auto" one recovery record on the first pane with data after it."""
    emit = _emitter("_dead_stream")
    silent_since = silent_until = None  # the bounds of the current run of empty panes
    alerted = False

    def check(head, series, w, env, failing, entries):
        nonlocal silent_since, silent_until, alerted
        if len(w):
            if alerted and spec.restart == "auto":
                emit(head, w, (silent_until - silent_since).total_seconds(), True,
                     {"recovered": True}, entries)
            silent_since, alerted = None, False
            return
        if silent_since is None:
            silent_since = w.start
        silent_until = w.end
        if silent_until - silent_since >= spec.threshold and not alerted:
            alerted = True
            emit(head, w, (silent_until - silent_since).total_seconds(), False,
                 {"silent_since": format_ts(silent_since)}, entries)
    return check


def _frozen_column_check(spec: FrozenColumnSpec) -> PaneCheck:
    """The frozen-column detector as a pane check of each key group: one
    alert once the column holds one value across `windows` consecutive
    panes with a non-Null value, and one recovery record on the first pane
    with two values after it. The streak is kept per series (PaneCheck).
    A pane reads its slices' first non-Null values and sets of non-Null
    encodings."""
    column = spec.column
    emit = _emitter(f"_frozen_stream.{column}")
    # series -> [the frozen value's encoding, streak, alerted]
    streaks: dict[Any, list] = {}

    def partial(part):
        codes = part.encodings(column)
        i = next((i for i, enc in enumerate(codes) if enc is not None), None)
        return None if i is None else (part.elements[i].attrs[column], set(filter(None, codes)))

    def check(head, series, sub, env, failing, entries):
        seen = [kept for part in sub.parts
                if (kept := part.kept(("frozen", column), partial)) is not None]
        if not seen:
            return  # empty pane or all-Null: no evidence either way
        streak = streaks.setdefault(series, [None, 0, False])
        distinct = set().union(*(codes for _, codes in seen))
        if len(distinct) == 1:
            canon = distinct.pop()
            if streak[0] == canon:
                streak[1] += 1
            else:
                streak[0], streak[1] = canon, 1
            if streak[1] >= spec.windows and not streak[2]:
                streak[2] = True
                emit(head, sub, seen[0][0], False,
                     {"column": column, "windows": streak[1]}, entries)
        else:
            if streak[2]:
                emit(head, sub, len(distinct), True,
                     {"column": column, "recovered": True}, entries)
            streak[:] = None, 0, False
    return check


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
    """

    def __init__(self, state: SuiteState, *,
                 watermark_delay: timedelta = timedelta(0),
                 key_by: str | None = None,
                 meta_sink: Any = None,
                 side_sink: Any = None):
        problems = window_key_problems(state, key_by)
        if problems:
            raise InvalidSuite(problems)
        self.state = state
        self.watermark = Watermark(delay=watermark_delay)
        self.store = PaneStore(state.window_spec, key_by=key_by,
                               retention=state.retention, judge=state.judge)
        self.meta_sink = meta_sink
        self.side_sink = side_sink
        self.stats = RunStats()
        self.collected: list[MetaRecord] | None = None if meta_sink is not None else []
        self._discards_reported = 0

    def process(self, element: StreamElement) -> None:
        """One row: route it, judging it as it is stored when the suite's
        retention is FAILING (model.JudgedRows), then assess and write the
        panes its watermark step closes."""
        stats = self.stats
        stats.read += 1
        outcome, ready = self.store.push(element, self.watermark)
        if outcome is _ASSIGNED:
            stats.assigned += 1
        elif outcome is _DISCARDED:
            stats.discarded += 1
        else:
            stats.assigned += 1
            stats.late_accepted += 1
        if ready:
            self._emit_batch(ready)

    def finish(self) -> None:
        """End of stream: the watermark jumps to +infinity and every pane closes."""
        remaining = self.store.closing(None)
        if remaining:
            self._emit_batch(remaining)

    # -- internals -----------------------------------------------------------

    def _emit_batch(self, panes: Iterable[WindowInstance]) -> None:
        """Assess closed panes as the store closes them and write their
        records in meta-stream order, then the batch's side lines.

        Panes come in (end, key, start) order and every record of a pane
        carries the pane's end, so records of different panes interleave
        only within a run of panes that share an end. Each run is written
        when the end changes, and no pane is held past its run. The first
        pane's `_late_discards` record counts the rows discarded since the
        last batch; a batch that closes no pane leaves that count as it is.
        A failing row is routed to the side output from the first pane that
        fails it: a later pane's SuiteState.on_window_close leaves it out.
        """
        wm = self.watermark.value
        batch_failing: list[tuple[StreamElement, list[str]]] = []
        run: list[tuple[tuple, MetaRecord]] = []
        end = None  # the end of the run being gathered; None before the first pane
        for pane in panes:
            if end is None:
                delta = self.stats.discarded - self._discards_reported
                self._discards_reported = self.stats.discarded
            else:
                delta = 0
                if pane.end != end:
                    self._write_run(run)
                    run = []
            end = pane.end
            entries, failing = self.state.on_window_close(pane, watermark=wm)
            run += entries
            _emit_late_discards((end, canonical_bytes(pane.key)), pane, delta,
                                not delta, {"total": self._discards_reported} if delta else None,
                                run)
            self.stats.panes_closed += 1
            batch_failing += [failing[seq] for seq in sorted(failing)]
        if end is None:
            return
        self._write_run(run)
        if self.side_sink is not None:
            for element, check_ids in batch_failing:
                self.side_sink.write_line(_side_line(element, check_ids))
        self.stats.side_routed += len(batch_failing)

    def _write_run(self, run: list[tuple[tuple, MetaRecord]]) -> None:
        """Write the records of panes sharing an end, sorted once by their
        order keys. The sort is stable, so tied records keep pane order and
        the order they were made in. Records of one pane and key render
        their shared head once."""
        run.sort(key=_order)
        self.stats.records_emitted += len(run)
        if self.meta_sink is None:
            self.collected.extend(record for _, record in run)
            return
        write = self.meta_sink.write_line
        # By key object, not encoding: equal encodings may render apart (-0.0, 0.0).
        prefixes: dict[tuple[int, datetime], str] = {}
        for _, record in run:
            slot = (id(record.key), record.window_start)
            prefix = prefixes.get(slot)
            if prefix is None:
                prefix = prefixes[slot] = meta_line_prefix(
                    record.window_start, record.window_end, record.key)
            write(prefix + record.tail)


_ASSIGNED, _DISCARDED = RouteOutcome.ASSIGNED, RouteOutcome.DISCARDED
_emit_late_discards = _emitter("_late_discards")


_order = itemgetter(0)


def _side_line(element: StreamElement, check_ids: list[str]) -> str:
    return wire_json({
        "seq": element.arrival_seq,
        "event_time": format_ts(element.event_time),
        "checks": check_ids,
        "attrs": {k: value_to_json(v) for k, v in element.attrs.items()},
    })
