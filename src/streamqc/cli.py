"""Command line entry points: validate, run, bench, generate.

Exit status reflects infrastructure problems only. A run whose checks fail
still exits 0; the verdicts live in the meta stream, not the process status.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import replace
from datetime import datetime
from typing import Any, Iterator

from .config import (
    ConfigError,
    SuiteConfig,
    check_config,
    load_config,
    resolve_path,
    semantic_errors,
)
from .connectors import (
    SourceCounters,
    generate_stream,
    iter_csv,
    iter_jsonl,
    iter_socket,
    open_sink,
    paced,
    parse_time,
)
from .model import (
    ModelError,
    StreamElement,
    WindowInstance,
    WindowSpec,
    parse_duration,
)
from .monitor import MonitorEngine, ReferenceTable, SuiteState
from .windowing import assign_sliding, assign_tumbling

HASH_SEED_ENV = "STREAMQC_HASH_SEED"


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "validate":
            return _cmd_validate(args)
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "bench":
            return _cmd_bench(args)
        if args.command == "generate":
            return _cmd_generate(args)
    except ConfigError as exc:
        for message in exc.errors:
            print(f"error: {message}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    raise AssertionError(f"unhandled command {args.command!r}")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="streamqc",
        description="Windowed data quality monitoring over record streams.")
    sub = parser.add_subparsers(dest="command", required=True)

    v = sub.add_parser("validate", help="check a suite config without running it")
    v.add_argument("config")

    r = sub.add_parser("run", help="run a monitoring suite over a source")
    r.add_argument("config")
    r.add_argument("--meta", help="meta-stream destination (file, tcp://host:port, or - for stdout)")
    r.add_argument("--side", help="side-output destination for failing records")
    r.add_argument("--window-duration", help="override the window duration, e.g. 5m")
    r.add_argument("--slide", help="override the window slide (implies sliding windows)")
    r.add_argument("--limit", type=int, help="stop after this many source records")
    r.add_argument("--json", action="store_true", help="print run statistics as JSON")

    b = sub.add_parser("bench", help="measure throughput and pane latency")
    b.add_argument("config")
    b.add_argument("--sizes", default="100000,500000",
                   help="comma-separated record counts (default 100000,500000)")
    b.add_argument("--repeats", type=int, default=1, help="timed runs per size")
    b.add_argument("--json", action="store_true", help="print the report as JSON")

    g = sub.add_parser("generate", help="write a reproducible synthetic stream")
    g.add_argument("config")
    g.add_argument("--out", required=True, help="output CSV path")
    g.add_argument("--manifest", required=True, help="injection manifest path (JSONL)")
    return parser


# ---------------------------------------------------------------------------
# validate


def _cmd_validate(args) -> int:
    cfg = load_config(args.config)
    errors = semantic_errors(cfg, args.config)
    if errors:
        for message in errors:
            print(f"error: {message}", file=sys.stderr)
        return 1
    checks = len(cfg.checks)
    print(f"ok: {checks} check{'s' if checks != 1 else ''}, "
          f"{cfg.window.kind} windows", file=sys.stderr)
    return 0


# ---------------------------------------------------------------------------
# run


def _cmd_run(args) -> int:
    cfg = load_config(args.config)
    cfg = _apply_overrides(cfg, args)
    references, errors = check_config(cfg, args.config)
    if errors:
        for message in errors:
            print(f"error: {message}", file=sys.stderr)
        return 1
    counters = SourceCounters()
    engine, close_sinks = _build_engine(cfg, args.config, references, _hash_seed(cfg))
    try:
        elements = _open_source(cfg.source, args.config, counters, args.limit)
        if cfg.source.replay_mode == "scaled":
            elements = paced(elements, cfg.source.replay_factor)
        try:
            for element in elements:
                engine.process(element)
        except KeyboardInterrupt:
            pass  # interactive stop: flush what closed, report, exit clean
        engine.finish()
    finally:
        close_sinks()
    stats = engine.stats
    stats.skipped_bad_time = counters.skipped_bad_time
    stats.parse_failures = dict(counters.parse_failures)
    _print_stats(stats, as_json=args.json)
    return 0


def _apply_overrides(cfg: SuiteConfig, args) -> SuiteConfig:
    if getattr(args, "meta", None):
        cfg = replace(cfg, sinks=replace(cfg.sinks, meta=args.meta))
    if getattr(args, "side", None):
        cfg = replace(cfg, sinks=replace(cfg.sinks, side=args.side))
    duration_raw = getattr(args, "window_duration", None)
    slide_raw = getattr(args, "slide", None)
    if duration_raw or slide_raw:
        w = cfg.window
        try:
            duration = parse_duration(duration_raw) if duration_raw else w.duration
            slide = parse_duration(slide_raw) if slide_raw else (
                w.slide if w.kind == "sliding" else None)
            if slide is not None:
                spec = WindowSpec(kind="sliding", duration=duration, slide=slide,
                                  allowed_lateness=w.allowed_lateness, origin=w.origin)
            else:
                spec = WindowSpec(kind="tumbling", duration=duration,
                                  allowed_lateness=w.allowed_lateness, origin=w.origin)
        except ModelError as exc:
            raise ConfigError([f"window override: {exc}"]) from None
        cfg = replace(cfg, window=spec)
    return cfg


def _hash_seed(cfg: SuiteConfig) -> int:
    """A seed pinned in the config beats the environment; the environment
    beats the default."""
    if cfg.engine.hash_seed_pinned:
        return cfg.engine.hash_seed
    env = os.environ.get(HASH_SEED_ENV)
    if env is not None:
        try:
            seed = int(env)
        except ValueError:
            raise ConfigError([f"{HASH_SEED_ENV} must be an integer, got {env!r}"]) from None
        if not (0 <= seed < 2 ** 64):
            raise ConfigError([f"{HASH_SEED_ENV} must be in [0, 2^64)"])
        return seed
    return cfg.engine.hash_seed


def _build_engine(cfg: SuiteConfig, config_path: str,
                  references: dict[str, ReferenceTable], hash_seed: int,
                  meta_sink: Any | None = None,
                  collect_timings: bool = False) -> tuple[MonitorEngine, Any]:
    secondary = _build_secondary(cfg, config_path) if cfg.secondary_source else None
    state = SuiteState(list(cfg.checks), list(cfg.source.schema), cfg.window,
                       references=references, detectors=cfg.detectors,
                       hash_seed=hash_seed, secondary=secondary)
    sinks = []
    if meta_sink is None:
        meta_sink = open_sink(cfg.sinks.meta if cfg.sinks.meta is not None else "-")
        sinks.append(meta_sink)
    side_sink = None
    if cfg.sinks.side is not None:
        side_sink = open_sink(cfg.sinks.side)
        sinks.append(side_sink)
    engine = MonitorEngine(state,
                           watermark_delay=cfg.source.watermark_delay,
                           key_by=cfg.window_key_by,
                           meta_sink=meta_sink, side_sink=side_sink,
                           collect_timings=collect_timings)

    def close() -> None:
        for sink in sinks:
            sink.close()

    return engine, close


def _open_source(src, config_path: str, counters: SourceCounters,
                 limit: int | None) -> Iterator[StreamElement]:
    schema = list(src.schema)
    if src.kind == "csv":
        return iter_csv(resolve_path(config_path, src.path), schema, src.event_time,
                        src.formats, counters, limit)
    if src.kind == "jsonl":
        return iter_jsonl(resolve_path(config_path, src.path), schema, src.event_time,
                          src.formats, counters, limit)
    if src.kind == "socket":
        return iter_socket(src.address, schema, src.event_time,
                           src.formats, counters, limit)
    raise ConfigError([f"source kind {src.kind!r} is not runnable"])


def _build_secondary(cfg: SuiteConfig, config_path: str):
    """Pre-window the secondary source so match checks can look panes up."""
    src = cfg.secondary_source
    counters = SourceCounters()
    elements = list(_open_source(src, config_path, counters, None))
    spec = cfg.window
    buckets: dict[tuple[datetime, datetime], list[StreamElement]] = {}
    for element in elements:
        if spec.kind == "tumbling":
            bounds = [assign_tumbling(element.event_time, spec)]
        else:
            bounds = assign_sliding(element.event_time, spec)
        for b in bounds:
            buckets.setdefault(b, []).append(element)
    panes = {
        bounds: WindowInstance(bounds[0], bounds[1], None,
                               tuple(sorted(group, key=lambda e: (e.event_time, e.arrival_seq))))
        for bounds, group in buckets.items()}

    def lookup(start: datetime, end: datetime, key) -> WindowInstance | None:
        if key is not None:
            return None
        return panes.get((start, end))

    return lookup


def _print_stats(stats, as_json: bool) -> None:
    if as_json:
        print(json.dumps(stats.as_dict(), separators=(",", ":")), file=sys.stderr)
        return
    d = stats.as_dict()
    print(f"read={d['read']} assigned={d['assigned']} late={d['late_accepted']} "
          f"discarded={d['discarded']} skipped={d['skipped_bad_time']} "
          f"panes={d['panes_closed']} records={d['records_emitted']} "
          f"side={d['side_routed']}", file=sys.stderr)
    if d["parse_failures"]:
        pairs = " ".join(f"{k}={v}" for k, v in sorted(d["parse_failures"].items()))
        print(f"parse_failures: {pairs}", file=sys.stderr)


# ---------------------------------------------------------------------------
# bench


class _NullSink:
    def write_line(self, line: str) -> None:
        pass

    def close(self) -> None:
        pass


def _cmd_bench(args) -> int:
    cfg = load_config(args.config)
    if cfg.source.kind == "socket":
        print("error: bench needs a file source", file=sys.stderr)
        return 1
    if cfg.source.replay_mode != "fast":
        cfg = replace(cfg, source=replace(cfg.source, replay_mode="fast"))
    references, errors = check_config(cfg, args.config)
    if errors:
        for message in errors:
            print(f"error: {message}", file=sys.stderr)
        return 1
    try:
        sizes = [int(s) for s in args.sizes.split(",") if s]
    except ValueError:
        print(f"error: --sizes must be comma-separated integers, got {args.sizes!r}",
              file=sys.stderr)
        return 1
    if not sizes or any(s <= 0 for s in sizes):
        print("error: --sizes must be positive", file=sys.stderr)
        return 1
    hash_seed = _hash_seed(cfg)

    _bench_once(cfg, args.config, references, hash_seed, min(sizes))  # warm-up, untimed
    rows = []
    for size in sizes:
        runs = [_bench_once(cfg, args.config, references, hash_seed, size)
                for _ in range(max(1, args.repeats))]
        runs.sort(key=lambda r: r["wall_seconds"])
        rows.append(runs[len(runs) // 2])  # median wall time

    report = {"sizes": rows}
    if len(rows) >= 2 and rows[0]["wall_seconds"] > 0:
        report["wall_ratio_last_to_first"] = round(
            rows[-1]["wall_seconds"] / rows[0]["wall_seconds"], 3)
        report["size_ratio_last_to_first"] = round(
            rows[-1]["records"] / rows[0]["records"], 3)
    if args.json:
        print(json.dumps(report, separators=(",", ":")))
    else:
        for row in rows:
            lat = row["pane_ms"]
            print(f"records={row['records']} wall={row['wall_seconds']:.3f}s "
                  f"throughput={row['throughput']:.0f}/s panes={row['panes']} "
                  f"pane_ms mean={lat['mean']:.3f} p50={lat['p50']:.3f} "
                  f"p95={lat['p95']:.3f} max={lat['max']:.3f} "
                  f"total_ms mean={row['pane_total_ms']['mean']:.3f} "
                  f"late_discards={row['discarded']}")
        if "wall_ratio_last_to_first" in report:
            print(f"wall ratio {report['wall_ratio_last_to_first']} for "
                  f"size ratio {report['size_ratio_last_to_first']}")
    return 0


def _bench_once(cfg: SuiteConfig, config_path: str, references: dict[str, ReferenceTable],
                hash_seed: int, size: int) -> dict[str, Any]:
    counters = SourceCounters()
    engine, close_sinks = _build_engine(cfg, config_path, references, hash_seed,
                                        meta_sink=_NullSink(), collect_timings=True)
    elements = _open_source(cfg.source, config_path, counters, size)
    t0 = time.perf_counter()
    for element in elements:
        engine.process(element)
    engine.finish()
    wall = time.perf_counter() - t0
    close_sinks()

    nets = sorted(engine.pane_timings)
    panes = len(nets)
    share = engine.routing_seconds / panes if panes else 0.0

    def pct(values: list[float], q: float) -> float:
        if not values:
            return 0.0
        h = (len(values) - 1) * q
        lo = int(h)
        hi = min(lo + 1, len(values) - 1)
        return values[lo] + (values[hi] - values[lo]) * (h - lo)

    def ms_stats(values: list[float], extra: float = 0.0) -> dict[str, float]:
        if not values:
            return {"mean": 0.0, "p50": 0.0, "p95": 0.0, "max": 0.0}
        return {
            "mean": (sum(values) / len(values) + extra) * 1000.0,
            "p50": (pct(values, 0.50) + extra) * 1000.0,
            "p95": (pct(values, 0.95) + extra) * 1000.0,
            "max": (values[-1] + extra) * 1000.0,
        }

    stats = engine.stats
    return {
        "records": stats.read,
        "wall_seconds": round(wall, 6),
        "throughput": round(stats.read / wall, 1) if wall > 0 else 0.0,
        "panes": panes,
        "pane_ms": ms_stats(nets),
        "pane_total_ms": ms_stats(nets, extra=share),
        "discarded": stats.discarded,
        "records_emitted": stats.records_emitted,
    }


# ---------------------------------------------------------------------------
# generate


_GENERATE_KEYS = ("seed", "start", "rate_per_sec", "duration", "columns",
                  "injections", "event_time")


def _cmd_generate(args) -> int:
    with open(args.config, "r", encoding="utf-8") as fp:
        try:
            obj = json.load(fp)
        except json.JSONDecodeError as exc:
            raise ConfigError([f"generator config: invalid JSON: {exc}"]) from None
    if not isinstance(obj, dict):
        raise ConfigError(["generator config: expected an object"])
    unknown = sorted(set(obj) - set(_GENERATE_KEYS))
    if unknown:
        raise ConfigError([f"generator config: unknown keys {unknown}"])
    missing = [k for k in ("seed", "start", "rate_per_sec", "duration", "columns")
               if k not in obj]
    if missing:
        raise ConfigError([f"generator config: missing keys {missing}"])
    start = parse_time(obj["start"], "iso")
    if start is None:
        raise ConfigError([f"generator config: start is not a timestamp: {obj['start']!r}"])
    try:
        duration = parse_duration(obj["duration"])
        rows = generate_stream(
            args.out, args.manifest,
            seed=int(obj["seed"]),
            start=start,
            rate_per_sec=float(obj["rate_per_sec"]),
            duration=duration,
            columns=obj["columns"],
            injections=obj.get("injections"),
            event_time=obj.get("event_time", "event_time"))
    except (ModelError, ValueError, TypeError, KeyError) as exc:
        raise ConfigError([f"generator config: {exc}"]) from None
    print(f"wrote {rows} rows to {args.out} (manifest: {args.manifest})",
          file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
