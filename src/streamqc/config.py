"""Suite configuration: strict JSON parsing, normalization, the suite build.

A config file is a single JSON object. Unknown keys are rejected everywhere,
at every nesting level, so typos fail loudly instead of silently disabling a
check. parse_config aggregates every shape problem it can find; semantic
problems (measure parameters, constraint typing, reference wiring) are
reported by build_suite, which loads the files the config names.
"""

from __future__ import annotations

import json
import math
import os
from bisect import bisect_left
from dataclasses import dataclass, field
from datetime import datetime, timedelta
from typing import Any, Iterator

from . import connectors
from .model import (
    CheckDefinition,
    ColumnSpec,
    ContextSpec,
    MeasureSpec,
    ModelError,
    Predicate,
    ReferenceSpec,
    StreamElement,
    Threshold,
    ValueRange,
    WindowInstance,
    WindowSpec,
    element_order,
    parse_duration,
    parse_ts,
    value_from_json,
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
# Parsing helpers


class _Errors:
    def __init__(self):
        self.messages: list[str] = []

    def add(self, where: str, msg: str) -> None:
        self.messages.append(f"{where}: {msg}")


def _obj(raw: Any, where: str, errs: _Errors) -> dict | None:
    if not isinstance(raw, dict):
        errs.add(where, f"expected an object, got {type(raw).__name__}")
        return None
    return raw


def _keys(obj: dict, where: str, errs: _Errors, *, required: tuple[str, ...] = (),
          optional: tuple[str, ...] = ()) -> bool:
    ok = True
    allowed = set(required) | set(optional)
    for key in obj:
        if key not in allowed:
            errs.add(where, f"unknown key {key!r} (allowed: {sorted(allowed)})")
            ok = False
    for key in required:
        if key not in obj:
            errs.add(where, f"missing required key {key!r}")
            ok = False
    return ok


def _duration(raw: Any, where: str, errs: _Errors) -> timedelta | None:
    try:
        return parse_duration(raw)
    except (ModelError, TypeError) as exc:
        errs.add(where, str(exc))
        return None


def _string(raw: Any, where: str, errs: _Errors) -> str | None:
    if not isinstance(raw, str) or not raw:
        errs.add(where, "expected a non-empty string")
        return None
    return raw


# ---------------------------------------------------------------------------
# Section parsers


_SOURCE_KINDS = ("csv", "jsonl", "socket")


def _parse_source(raw: Any, where: str, errs: _Errors, *, secondary: bool) -> SourceConfig | None:
    obj = _obj(raw, where, errs)
    if obj is None:
        return None
    optional = ("path", "address", "formats")
    if not secondary:
        optional += ("watermark_delay", "replay")
    if not _keys(obj, where, errs, required=("kind", "event_time", "schema"), optional=optional):
        return None
    kind = obj["kind"]
    if kind not in _SOURCE_KINDS:
        errs.add(where, f"kind must be one of {_SOURCE_KINDS}, got {kind!r}")
        return None
    if secondary and kind == "socket":
        errs.add(where, "a secondary source cannot be a socket")
        return None
    path = address = None
    if kind == "socket":
        address = _string(obj.get("address"), f"{where}.address", errs)
        if address is not None:
            _check_address(address, f"{where}.address", errs)
        if "path" in obj:
            errs.add(where, "socket sources take 'address', not 'path'")
    else:
        path = _string(obj.get("path"), f"{where}.path", errs)
        if "address" in obj:
            errs.add(where, "file sources take 'path', not 'address'")

    schema: list[ColumnSpec] = []
    raw_schema = obj.get("schema")
    if not isinstance(raw_schema, list) or not raw_schema:
        errs.add(f"{where}.schema", "expected a non-empty array of column objects")
    else:
        for i, col in enumerate(raw_schema):
            cwhere = f"{where}.schema[{i}]"
            cobj = _obj(col, cwhere, errs)
            if cobj is None:
                continue
            if not _keys(cobj, cwhere, errs, required=("name", "type"), optional=("nullable",)):
                continue
            try:
                schema.append(ColumnSpec(name=cobj["name"], type=cobj["type"],
                                         nullable=cobj.get("nullable", True)))
            except (ModelError, TypeError) as exc:
                errs.add(cwhere, str(exc))

    event_time = _string(obj.get("event_time"), f"{where}.event_time", errs)
    names = {c.name for c in schema}
    if event_time is not None and schema:
        col = next((c for c in schema if c.name == event_time), None)
        if col is None:
            errs.add(where, f"event_time column {event_time!r} is not in the schema")
        elif col.type != "timestamp":
            errs.add(where, f"event_time column {event_time!r} must have type timestamp")

    formats: dict[str, str] = {}
    if "formats" in obj:
        fobj = _obj(obj["formats"], f"{where}.formats", errs)
        if fobj is not None:
            for name, fmt in fobj.items():
                if name not in names:
                    errs.add(f"{where}.formats", f"unknown column {name!r}")
                elif not isinstance(fmt, str):
                    errs.add(f"{where}.formats", f"format for {name!r} must be a string")
                else:
                    formats[name] = fmt

    delay = timedelta(0)
    if "watermark_delay" in obj:
        delay = _duration(obj["watermark_delay"], f"{where}.watermark_delay", errs) or timedelta(0)

    replay_mode, replay_factor = "fast", 1.0
    if "replay" in obj:
        rep = obj["replay"]
        if rep == "fast":
            pass
        elif isinstance(rep, dict):
            if _keys(rep, f"{where}.replay", errs, required=("mode",), optional=("factor",)):
                if rep["mode"] != "scaled":
                    errs.add(f"{where}.replay", "mode must be 'fast' or 'scaled'")
                else:
                    replay_mode = "scaled"
                    factor = rep.get("factor", 1.0)
                    if not isinstance(factor, (int, float)) or isinstance(factor, bool) \
                            or not 0 < factor < math.inf:
                        errs.add(f"{where}.replay", "factor must be a positive number")
                    else:
                        replay_factor = float(factor)
        else:
            errs.add(f"{where}.replay", "expected 'fast' or {mode, factor}")

    if errs.messages:
        # Shape errors above may have left holes; only build a complete source.
        if event_time is None or (path is None and address is None) or not schema:
            return None
    return SourceConfig(kind=kind, event_time=event_time, schema=tuple(schema),
                        path=path, address=address, formats=formats,
                        watermark_delay=delay, replay_mode=replay_mode,
                        replay_factor=replay_factor)


def _parse_window(raw: Any, errs: _Errors) -> tuple[WindowSpec | None, str | None]:
    obj = _obj(raw, "window", errs)
    if obj is None:
        return None, None
    if not _keys(obj, "window", errs, required=("kind",),
                 optional=("duration", "slide", "gap", "allowed_lateness", "origin", "key_by")):
        return None, None
    kwargs: dict[str, Any] = {"kind": obj.get("kind")}
    for name in ("duration", "slide", "gap", "allowed_lateness"):
        if name in obj:
            value = _duration(obj[name], f"window.{name}", errs)
            if value is None:
                return None, None
            kwargs[name] = value
    if "origin" in obj:
        try:
            kwargs["origin"] = parse_ts(obj["origin"])
        except (ModelError, TypeError) as exc:
            errs.add("window.origin", str(exc))
            return None, None
    key_by = None
    if obj.get("key_by") is not None:
        key_by = _string(obj["key_by"], "window.key_by", errs)
    try:
        return WindowSpec(**kwargs), key_by
    except (ModelError, TypeError) as exc:
        errs.add("window", str(exc))
        return None, key_by


def _parse_constraint(raw: Any, where: str, errs: _Errors):
    obj = _obj(raw, where, errs)
    if obj is None:
        return None
    if "predicate" in obj:
        if not _keys(obj, where, errs, required=("predicate",)):
            return None
        text = _string(obj["predicate"], f"{where}.predicate", errs)
        return Predicate(text) if text is not None else None
    if "range" in obj:
        if not _keys(obj, where, errs, required=("range",), optional=("inclusive",)):
            return None
        bounds = obj["range"]
        if not isinstance(bounds, list) or len(bounds) != 2:
            errs.add(where, "range must be a two-element array [lo, hi]")
            return None
        inclusive = obj.get("inclusive", [True, True])
        if (not isinstance(inclusive, list) or len(inclusive) != 2
                or not all(isinstance(b, bool) for b in inclusive)):
            errs.add(where, "inclusive must be a two-element array of booleans")
            return None
        try:
            return ValueRange(value_from_json(bounds[0]), value_from_json(bounds[1]),
                              inclusive[0], inclusive[1])
        except (ModelError, TypeError) as exc:
            errs.add(where, str(exc))
            return None
    if "op" in obj:
        if not _keys(obj, where, errs, required=("op", "bound")):
            return None
        try:
            return Threshold(obj["op"], value_from_json(obj["bound"]))
        except (ModelError, TypeError) as exc:
            errs.add(where, str(exc))
            return None
    errs.add(where, "constraint needs 'op', 'range', or 'predicate'")
    return None


def _parse_check(raw: Any, index: int, errs: _Errors) -> CheckDefinition | None:
    where = f"checks[{index}]"
    obj = _obj(raw, where, errs)
    if obj is None:
        return None
    if not _keys(obj, where, errs, required=("id", "measure", "constraint"),
                 optional=("key_by", "context", "reference", "emit_per_element", "null_verdict")):
        return None
    check_id = _string(obj["id"], f"{where}.id", errs)
    mobj = _obj(obj["measure"], f"{where}.measure", errs)
    measure = None
    if mobj is not None:
        mid = _string(mobj.get("id"), f"{where}.measure.id", errs)
        if mid is not None:
            params = {k: v for k, v in mobj.items() if k != "id"}
            measure = MeasureSpec(id=mid, params=params)
    constraint = _parse_constraint(obj["constraint"], f"{where}.constraint", errs)

    key_by = None
    if obj.get("key_by") is not None:
        key_by = _string(obj["key_by"], f"{where}.key_by", errs)

    context = None
    if "context" in obj:
        cobj = _obj(obj["context"], f"{where}.context", errs)
        if cobj is not None and _keys(cobj, f"{where}.context", errs,
                                      required=("horizon",), optional=("statistics",)):
            horizon = _duration(cobj["horizon"], f"{where}.context.horizon", errs)
            stats = cobj.get("statistics")
            if horizon is not None:
                try:
                    if stats is None:
                        context = ContextSpec(horizon=horizon)
                    else:
                        context = ContextSpec(horizon=horizon, statistics=tuple(stats))
                except (ModelError, TypeError) as exc:
                    errs.add(f"{where}.context", str(exc))

    reference = None
    if "reference" in obj:
        robj = _obj(obj["reference"], f"{where}.reference", errs)
        if robj is not None and _keys(robj, f"{where}.reference", errs,
                                      required=("table", "key")):
            table = _string(robj["table"], f"{where}.reference.table", errs)
            key_expr = _string(robj["key"], f"{where}.reference.key", errs)
            if table is not None and key_expr is not None:
                reference = ReferenceSpec(table=table, key_expr=key_expr)

    emit = obj.get("emit_per_element", False)
    if not isinstance(emit, bool):
        errs.add(where, "emit_per_element must be a boolean")
        emit = False
    null_verdict = obj.get("null_verdict", "fail")

    if check_id is None or measure is None or constraint is None:
        return None
    try:
        return CheckDefinition(id=check_id, measure=measure, constraint=constraint,
                               key_by=key_by, context=context, reference=reference,
                               emit_per_element=emit, null_verdict=null_verdict)
    except (ModelError, TypeError) as exc:
        errs.add(where, str(exc))
        return None


def _parse_references(raw: Any, errs: _Errors) -> tuple[ReferenceConfig, ...]:
    if not isinstance(raw, list):
        errs.add("references", "expected an array")
        return ()
    out: list[ReferenceConfig] = []
    seen: set[str] = set()
    for i, item in enumerate(raw):
        where = f"references[{i}]"
        obj = _obj(item, where, errs)
        if obj is None or not _keys(obj, where, errs, required=("id", "path", "key")):
            continue
        rid = _string(obj["id"], f"{where}.id", errs)
        path = _string(obj["path"], f"{where}.path", errs)
        key = _string(obj["key"], f"{where}.key", errs)
        if rid is None or path is None or key is None:
            continue
        if rid in seen:
            errs.add(where, f"duplicate reference id {rid!r}")
            continue
        seen.add(rid)
        out.append(ReferenceConfig(id=rid, path=path, key=key))
    return tuple(out)


def _parse_detectors(raw: Any, errs: _Errors) -> DetectorSpecs:
    obj = _obj(raw, "detectors", errs)
    if obj is None or not _keys(obj, "detectors", errs, optional=("dead", "frozen")):
        return DetectorSpecs()
    dead = None
    if "dead" in obj:
        dobj = _obj(obj["dead"], "detectors.dead", errs)
        if dobj is not None and _keys(dobj, "detectors.dead", errs,
                                      required=("threshold",), optional=("restart",)):
            threshold = _duration(dobj["threshold"], "detectors.dead.threshold", errs)
            restart = dobj.get("restart", "auto")
            if threshold is not None:
                dead = DeadStreamSpec(threshold=threshold, restart=restart)
    frozen: list[FrozenColumnSpec] = []
    if "frozen" in obj:
        if not isinstance(obj["frozen"], list):
            errs.add("detectors.frozen", "expected an array")
        else:
            for i, item in enumerate(obj["frozen"]):
                where = f"detectors.frozen[{i}]"
                fobj = _obj(item, where, errs)
                if fobj is None or not _keys(fobj, where, errs,
                                             required=("column", "windows"),
                                             optional=("key_by",)):
                    continue
                column = _string(fobj["column"], f"{where}.column", errs)
                windows = fobj["windows"]
                if not isinstance(windows, int) or isinstance(windows, bool):
                    errs.add(where, "windows must be an integer")
                    continue
                key_by = None
                if fobj.get("key_by") is not None:
                    key_by = _string(fobj["key_by"], f"{where}.key_by", errs)
                if column is not None:
                    frozen.append(FrozenColumnSpec(column=column, windows=windows, key_by=key_by))
    return DetectorSpecs(dead=dead, frozen=tuple(frozen))


def _check_address(address: str, where: str, errs: _Errors) -> None:
    """Report a socket address that connectors.parse_address rejects."""
    try:
        connectors.parse_address(address)
    except connectors.SourceError as exc:
        errs.add(where, str(exc))


def _parse_sinks(raw: Any, errs: _Errors) -> SinksConfig:
    obj = _obj(raw, "sinks", errs)
    if obj is None or not _keys(obj, "sinks", errs, optional=("meta", "side")):
        return SinksConfig()
    dests = {}
    for name in ("meta", "side"):
        if obj.get(name) is not None:
            dest = dests[name] = _string(obj[name], f"sinks.{name}", errs)
            if dest is not None and dest.startswith("tcp://"):
                _check_address(dest, f"sinks.{name}", errs)
    return SinksConfig(**dests)


def _parse_engine(raw: Any, errs: _Errors) -> EngineConfig:
    obj = _obj(raw, "engine", errs)
    if obj is None or not _keys(obj, "engine", errs, optional=("hash_seed",)) \
            or "hash_seed" not in obj:
        return EngineConfig()
    seed = obj["hash_seed"]
    if not isinstance(seed, int) or isinstance(seed, bool) or not (0 <= seed < 2 ** 64):
        errs.add("engine.hash_seed", "must be an integer in [0, 2^64)")
        return EngineConfig()
    return EngineConfig(hash_seed=seed, hash_seed_pinned=True)


# ---------------------------------------------------------------------------
# Entry points


def parse_config(obj: Any) -> SuiteConfig:
    errs = _Errors()
    root = _obj(obj, "config", errs)
    if root is None:
        raise ConfigError(errs.messages)
    _keys(root, "config", errs, required=("source", "window", "checks"),
          optional=("secondary_source", "references", "detectors", "sinks", "engine"))
    source = _parse_source(root.get("source"), "source", errs, secondary=False) \
        if "source" in root else None
    window, window_key_by = _parse_window(root.get("window"), errs) \
        if "window" in root else (None, None)

    checks: list[CheckDefinition] = []
    raw_checks = root.get("checks")
    if "checks" in root:
        if not isinstance(raw_checks, list) or not raw_checks:
            errs.add("checks", "expected a non-empty array")
        else:
            for i, item in enumerate(raw_checks):
                check = _parse_check(item, i, errs)
                if check is not None:
                    checks.append(check)

    secondary = None
    if "secondary_source" in root:
        secondary = _parse_source(root["secondary_source"], "secondary_source",
                                  errs, secondary=True)
    references = _parse_references(root["references"], errs) if "references" in root else ()
    detectors = _parse_detectors(root["detectors"], errs) if "detectors" in root else DetectorSpecs()
    sinks = _parse_sinks(root["sinks"], errs) if "sinks" in root else SinksConfig()
    engine = _parse_engine(root["engine"], errs) if "engine" in root else EngineConfig()

    if window is not None and window_key_by is not None and source is not None:
        if window_key_by not in {c.name for c in source.schema}:
            errs.add("window.key_by", f"column {window_key_by!r} is not in the schema")

    if errs.messages:
        raise ConfigError(errs.messages)
    assert source is not None and window is not None
    return SuiteConfig(source=source, window=window, checks=tuple(checks),
                       window_key_by=window_key_by, secondary_source=secondary,
                       references=references, detectors=detectors,
                       sinks=sinks, engine=engine)


def load_config(path: str) -> SuiteConfig:
    with open(path, "r", encoding="utf-8") as fp:
        try:
            obj = json.load(fp)
        except json.JSONDecodeError as exc:
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
