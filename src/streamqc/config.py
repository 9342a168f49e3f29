"""Suite configuration: strict JSON parsing, normalization, the suite build.

A config file is a single JSON object. Each of its sections (the root, a
source and its schema columns, the window, a check and its constraint,
context and reference, a reference table, the detectors, the sinks and the
engine) is a parameter table, run through model.parse_fields: the loop
that parses a measure spec. So unknown keys are rejected at every nesting
level, and typos fail loudly instead of silently disabling a check; an
optional key given as null is absent; and every value's shape is checked.
A table checks only shapes: a domain rule that a model constructor or the
suite build enforces stays there. The code here keeps the rules that span
fields.

parse_config reports every problem of a level in one pass, each as
`path: message`. A level's problems stop the levels below it, while every
root section is still parsed. Semantic problems (measure parameters,
constraint typing, reference wiring) are reported by build_suite, which
loads the files the config names.
"""

from __future__ import annotations

import json
import os
import sys
from bisect import bisect_left
from dataclasses import dataclass, field
from datetime import datetime, timedelta
from typing import Any, Callable, Iterator

from . import connectors
from .model import (
    BadValue,
    CheckDefinition,
    ColumnSpec,
    ContextSpec,
    MeasureSpec,
    ModelError,
    Param,
    Predicate,
    ReferenceSpec,
    StreamElement,
    Threshold,
    ValueRange,
    WindowInstance,
    WindowSpec,
    choice,
    element_order,
    flag,
    from_model,
    json_object,
    list_of,
    number,
    parse_duration,
    parse_fields,
    parse_ts,
    scalar,
    text,
)
from .monitor import (
    DeadStreamSpec,
    DetectorSpecs,
    FrozenColumnSpec,
    InvalidSuite,
    SuiteState,
    window_key_problems,
)

__all__ = [
    "ConfigError", "SourceConfig", "ReferenceConfig", "SinksConfig",
    "EngineConfig", "SuiteConfig", "parse_config", "load_config",
    "build_suite", "semantic_errors", "resolve_path", "open_source",
]


class ConfigError(ValueError):
    """Carries every problem found, not just the first."""

    def __init__(self, errors: list[str]):
        self.errors = list(errors)
        super().__init__("; ".join(self.errors))


@dataclass(frozen=True)
class SourceConfig:
    kind: str  # csv | jsonl | socket
    event_time: str
    schema: tuple[ColumnSpec, ...]
    path: str | None = None
    address: str | None = None
    formats: dict[str, str] = field(default_factory=dict)
    watermark_delay: timedelta = timedelta(0)
    replay_mode: str = "fast"  # fast | scaled
    replay_factor: float = 1.0


@dataclass(frozen=True)
class ReferenceConfig:
    id: str
    path: str
    key: str


@dataclass(frozen=True)
class SinksConfig:
    meta: str | None = None
    side: str | None = None


@dataclass(frozen=True)
class EngineConfig:
    """hash_seed_pinned: the config sets hash_seed, so it beats the
    STREAMQC_HASH_SEED environment variable."""

    hash_seed: int = 0
    hash_seed_pinned: bool = False


@dataclass(frozen=True)
class SuiteConfig:
    source: SourceConfig
    window: WindowSpec
    checks: tuple[CheckDefinition, ...]
    window_key_by: str | None = None
    secondary_source: SourceConfig | None = None
    references: tuple[ReferenceConfig, ...] = ()
    detectors: DetectorSpecs = field(default_factory=DetectorSpecs)
    sinks: SinksConfig = field(default_factory=SinksConfig)
    engine: EngineConfig = field(default_factory=EngineConfig)


# ---------------------------------------------------------------------------
# Value parsers, beside model's generic ones (see model.Parser; the schema
# argument is unused here).


_DURATION = from_model(parse_duration)
_TIMESTAMP = from_model(parse_ts)


def _address(raw, columns) -> str:
    """A socket address that connectors.parse_address accepts."""
    try:
        connectors.parse_address(text(raw, columns))
    except connectors.SourceError as exc:
        raise BadValue(str(exc)) from None
    return raw


def _sink(raw, columns) -> str:
    """A sink destination: a file, -, or a tcp:// socket address."""
    return _address(raw, columns) if text(raw, columns).startswith("tcp://") else raw


def _formats(raw, columns) -> dict[str, str]:
    """Timestamp formats by column name (the source checks the names)."""
    for name, fmt in json_object(raw, columns).items():
        if not isinstance(fmt, str):
            raise BadValue(f"format for {name!r} must be a string")
    return dict(raw)


def _pair(item):
    """A two-item JSON list, each item parsed by item."""
    items = list_of(item)

    def parse(raw, columns):
        pair = items(raw, columns)
        if len(pair) != 2:
            raise BadValue("must be a two-item list")
        return pair
    return parse


def _measure(raw, columns) -> MeasureSpec:
    """{"id": ..., <parameters>}; the suite build parses the parameters."""
    params = dict(json_object(raw, columns))
    measure_id = params.pop("id", None)
    if not isinstance(measure_id, str) or not measure_id:
        raise BadValue("needs an 'id' that is a non-empty string")
    return MeasureSpec(measure_id, params)


_REPLAY = {"mode": Param(choice("scaled")),
           "factor": Param(number("a positive number", lambda f: 0 < f <= sys.float_info.max),
                           1.0)}


def _replay(raw, columns) -> tuple[str, float]:
    """"fast", or {"mode": "scaled", "factor": ...}: the mode and the factor."""
    if raw == "fast":
        return "fast", 1.0
    if not isinstance(raw, dict):
        raise BadValue("must be 'fast' or an object {mode, factor}")
    values, problems = parse_fields(raw, _REPLAY, columns)
    if problems:
        raise BadValue("; ".join(f"{key} {msg}" if key else msg for key, msg in problems))
    return "scaled", float(values["factor"])


# ---------------------------------------------------------------------------
# The sections' tables


_ROOT = {"source": Param(json_object), "window": Param(json_object),
         "checks": Param(list_of(json_object, nonempty=True)),
         "secondary_source": Param(json_object, None),
         "references": Param(list_of(json_object), []),
         "detectors": Param(json_object, {}), "sinks": Param(json_object, {}),
         "engine": Param(json_object, {})}
_SOURCE = {"kind": Param(choice("csv", "jsonl", "socket")), "event_time": Param(text),
           "schema": Param(list_of(json_object, nonempty=True)), "path": Param(text, None),
           "address": Param(_address, None), "formats": Param(_formats, {}),
           "watermark_delay": Param(_DURATION, 0), "replay": Param(_replay, "fast")}
_SECONDARY_SOURCE = {**{key: param for key, param in _SOURCE.items()
                        if key not in ("watermark_delay", "replay")},
                     "kind": Param(choice("csv", "jsonl"))}
_COLUMN = {"name": Param(text), "type": Param(text), "nullable": Param(flag, True)}
_WINDOW = {"kind": Param(text), "duration": Param(_DURATION, None),
           "slide": Param(_DURATION, None), "gap": Param(_DURATION, None),
           "allowed_lateness": Param(_DURATION, 0),
           "origin": Param(_TIMESTAMP, "1970-01-01T00:00:00Z"), "key_by": Param(text, None)}
_CHECK = {"id": Param(text), "measure": Param(_measure), "constraint": Param(json_object),
          "key_by": Param(text, None), "context": Param(json_object, None),
          "reference": Param(json_object, None), "emit_per_element": Param(flag, False),
          "null_verdict": Param(text, "fail")}
_THRESHOLD = {"op": Param(text), "bound": Param(scalar)}
_RANGE = {"range": Param(_pair(scalar)), "inclusive": Param(_pair(flag), [True, True])}
_PREDICATE = {"predicate": Param(text)}
_CONTEXT = {"horizon": Param(_DURATION),
            "statistics": Param(list_of(text), list(ContextSpec.statistics))}
_REFERENCE = {"table": Param(text), "key": Param(text)}
_REFERENCE_ITEM = {"id": Param(text), "path": Param(text), "key": Param(text)}
_DETECTORS = {"dead": Param(json_object, None), "frozen": Param(list_of(json_object), [])}
_DEAD = {"threshold": Param(_DURATION), "restart": Param(text, "auto")}
_FROZEN = {"column": Param(text),
           "windows": Param(number("an integer", lambda n: True, integer=True)),
           "key_by": Param(text, None)}
_SINKS = {"meta": Param(_sink, None), "side": Param(_sink, None)}
_ENGINE = {"hash_seed": Param(number("an integer in [0, 2^64)", lambda s: 0 <= s < 2 ** 64,
                                      integer=True), None)}

# A constraint's form, by the first of these keys it has: its table and
# what its parsed values make.
_CONSTRAINTS = {
    "predicate": (_PREDICATE, lambda predicate: Predicate(predicate)),
    "range": (_RANGE, lambda range, inclusive: ValueRange(*range, *inclusive)),
    "op": (_THRESHOLD, Threshold),
}


# ---------------------------------------------------------------------------
# Sections


def _section(raw: dict, where: str, table: dict[str, Param], make: Callable[..., Any],
             problems: list[str]) -> Any:
    """make(**values) of raw run through table, or None. Each problem is
    recorded as `where.key: text` or `where: text`; a level with problems
    of its own is not made, and a ModelError of make is a problem too."""
    values, found = parse_fields(raw, table, None)
    problems.extend(f"{where}.{key}: {msg}" if key else f"{where}: {msg}"
                    for key, msg in found)
    if found:
        return None
    try:
        return make(**values)
    except ModelError as exc:
        problems.append(f"{where}: {exc}")
        return None


def _source(raw: dict, where: str, table: dict[str, Param],
            problems: list[str]) -> SourceConfig | None:
    def make(kind, schema, formats, replay=("fast", 1.0), **fields):
        before = len(problems)
        columns = [_section(col, f"{where}.schema[{i}]", _COLUMN, ColumnSpec, problems)
                   for i, col in enumerate(schema)]
        given, other = ("address", "path") if kind == "socket" else ("path", "address")
        if fields[given] is None:
            problems.append(f"{where}: missing required key {given!r} for kind {kind!r}")
        if fields[other] is not None:
            problems.append(f"{where}: {kind} sources take {given!r}, not {other!r}")
        if None not in columns:
            types = {col.name: col.type for col in columns}
            event_time = fields["event_time"]
            if event_time not in types:
                problems.append(f"{where}: event_time column {event_time!r} is not in the schema")
            elif types[event_time] != "timestamp":
                problems.append(f"{where}: event_time column {event_time!r} "
                                f"must have type timestamp")
            problems.extend(f"{where}.formats: unknown column {name!r}"
                            for name in formats if name not in types)
        if len(problems) == before:
            return SourceConfig(kind=kind, schema=tuple(columns), formats=formats,
                                replay_mode=replay[0], replay_factor=replay[1], **fields)
    return _section(raw, where, table, make, problems)


def _window(key_by, **spec) -> tuple[WindowSpec, str | None]:
    return WindowSpec(**spec), key_by


def _check(raw: dict, where: str, problems: list[str]) -> CheckDefinition | None:
    def make(constraint, context, reference, **fields):
        form = next((key for key in _CONSTRAINTS if key in constraint), None)
        if form is None:
            problems.append(f"{where}.constraint: needs 'op', 'range', or 'predicate'")
        else:
            constraint = _section(constraint, f"{where}.constraint", *_CONSTRAINTS[form],
                                  problems)
        if context is not None:
            context = _section(context, f"{where}.context", _CONTEXT, ContextSpec, problems)
        if reference is not None:
            reference = _section(reference, f"{where}.reference", _REFERENCE,
                                 lambda table, key: ReferenceSpec(table, key), problems)
        return CheckDefinition(constraint=constraint, context=context, reference=reference,
                               **fields)
    return _section(raw, where, _CHECK, make, problems)


def _detectors(raw: dict, where: str, problems: list[str]) -> DetectorSpecs | None:
    def make(dead, frozen):
        if dead is not None:
            dead = _section(dead, f"{where}.dead", _DEAD, DeadStreamSpec, problems)
        return DetectorSpecs(dead=dead, frozen=tuple(
            _section(item, f"{where}.frozen[{i}]", _FROZEN, FrozenColumnSpec, problems)
            for i, item in enumerate(frozen)))
    return _section(raw, where, _DETECTORS, make, problems)


def _engine(hash_seed) -> EngineConfig:
    return EngineConfig() if hash_seed is None else EngineConfig(hash_seed, True)


# ---------------------------------------------------------------------------
# Entry points


def parse_config(obj: Any) -> SuiteConfig:
    """The config object parsed, or ConfigError with every problem found."""
    if not isinstance(obj, dict):
        raise ConfigError([f"config: expected an object, got {type(obj).__name__}"])
    values, found = parse_fields(obj, _ROOT, None)
    problems = [f"{key}: {msg}" if key else f"config: {msg}" for key, msg in found]

    def section(name, parse, *args):
        raw = values.get(name)
        return None if raw is None else parse(raw, name, *args, problems)

    source = section("source", _source, _SOURCE)
    window, key_by = section("window", _section, _WINDOW, _window) or (None, None)
    checks = [_check(raw, f"checks[{i}]", problems)
              for i, raw in enumerate(values.get("checks") or ())]
    secondary = section("secondary_source", _source, _SECONDARY_SOURCE)
    references: dict[str, ReferenceConfig] = {}
    for i, raw in enumerate(values.get("references") or ()):
        where = f"references[{i}]"
        ref = _section(raw, where, _REFERENCE_ITEM, ReferenceConfig, problems)
        if ref is not None and ref.id in references:
            problems.append(f"{where}: duplicate reference id {ref.id!r}")
        elif ref is not None:
            references[ref.id] = ref
    detectors = section("detectors", _detectors)
    sinks = section("sinks", _section, _SINKS, SinksConfig)
    engine = section("engine", _section, _ENGINE, _engine)

    if window is not None and key_by is not None and source is not None:
        if key_by not in {c.name for c in source.schema}:
            problems.append(f"window.key_by: column {key_by!r} is not in the schema")
    if problems:
        raise ConfigError(problems)
    return SuiteConfig(source=source, window=window, checks=tuple(checks),
                       window_key_by=key_by, secondary_source=secondary,
                       references=tuple(references.values()), detectors=detectors,
                       sinks=sinks, engine=engine)


def load_config(path: str) -> SuiteConfig:
    with open(path, "r", encoding="utf-8") as fp:
        try:
            obj = json.load(fp)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:  # JSON text is UTF-8
            raise ConfigError([f"config: invalid JSON: {exc}"]) from None
    return parse_config(obj)


def resolve_path(config_path: str | None, target: str) -> str:
    """Paths inside a config file are relative to the file, not the cwd."""
    if config_path is None or os.path.isabs(target):
        return target
    return os.path.join(os.path.dirname(os.path.abspath(config_path)), target)


# ---------------------------------------------------------------------------
# The build: one pass from a parsed config to a runnable suite


def build_suite(cfg: SuiteConfig, config_path: str | None, hash_seed: int) -> SuiteState:
    """The config made runnable: each reference table loaded once, the
    secondary source read once, and every check compiled into a SuiteState.
    Raises ConfigError with every problem found."""
    errors: list[str] = []
    tables = {}
    for ref in cfg.references:
        try:
            tables[ref.id] = connectors.load_reference(
                ref.id, resolve_path(config_path, ref.path), ref.key)
        except (OSError, ValueError) as exc:
            errors.append(f"reference {ref.id!r}: {exc}")
    secondary = None
    if cfg.secondary_source is not None:
        secondary = _no_pane  # until the source is read
        if cfg.window.kind != "session":
            try:
                secondary = _secondary_lookup(open_source(cfg.secondary_source, config_path))
            except (OSError, ValueError) as exc:
                errors.append(f"secondary_source: {exc}")
    try:
        state = SuiteState(list(cfg.checks), list(cfg.source.schema), cfg.window,
                           references=tables, detectors=cfg.detectors,
                           hash_seed=hash_seed, secondary=secondary)
    except InvalidSuite as exc:
        errors.extend(exc.problems)
    if cfg.secondary_source is not None and cfg.window.kind == "session":
        errors.append("secondary sources require tumbling or sliding windows")
    errors.extend(window_key_problems(cfg, cfg.window_key_by))
    if errors:
        raise ConfigError(errors)
    return state


def _no_pane(start: datetime, end: datetime, key) -> None:
    """The lookup of a secondary source that is configured but not read:
    its checks still validate as having one."""
    return None


def semantic_errors(cfg: SuiteConfig, config_path: str | None = None) -> list[str]:
    """Everything wrong with a structurally valid config: build_suite's
    problems, under the config's own hash seed."""
    try:
        build_suite(cfg, config_path, cfg.engine.hash_seed)
    except ConfigError as exc:
        return exc.errors
    return []


def open_source(src: SourceConfig, config_path: str | None, counters=None,
                limit: int | None = None) -> Iterator[StreamElement]:
    """A source's rows in arrival order. A file source is opened (and a CSV
    header checked, connectors.SourceError) at the call."""
    if src.kind == "socket":
        return connectors.iter_socket(src.address, list(src.schema), src.event_time,
                                      src.formats, counters, limit)
    read = connectors.iter_csv if src.kind == "csv" else connectors.iter_jsonl
    return read(resolve_path(config_path, src.path), list(src.schema), src.event_time,
                src.formats, counters, limit)


def _secondary_lookup(elements: Iterator[StreamElement]):
    """match_ratio's view of the secondary source: its rows sorted once in
    element_order, and the rows in [start, end) found by bisection. An
    empty span measures like a missing pane, so it is None. Secondary panes
    are never keyed, and match_ratio never runs on a keyed pane
    (window_key_problems), so the key is always None."""
    rows = sorted(elements, key=element_order)
    times = [e.event_time for e in rows]

    def lookup(start: datetime, end: datetime, key) -> WindowInstance | None:
        lo, hi = bisect_left(times, start), bisect_left(times, end)
        if lo < hi:
            return WindowInstance(start, end, None, tuple(rows[lo:hi]))
        return None

    return lookup
