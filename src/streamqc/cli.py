"""Command line entry points: validate, run, generate.

Exit status reflects infrastructure problems only. A run whose checks fail
still exits 0; the verdicts live in the meta stream, not the process status.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from contextlib import ExitStack
from dataclasses import replace

from .config import ConfigError, SuiteConfig, build_suite, load_config, open_source
from .connectors import (GENERATOR, SourceCounters, SourceError, generate_stream, open_sink,
                         paced, parse_address)
from .model import ModelError, WindowSpec, parse_duration, parse_fields
from .monitor import MonitorEngine, SuiteState

HASH_SEED_ENV = "STREAMQC_HASH_SEED"


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "validate":
            return _cmd_validate(args)
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "generate":
            return _cmd_generate(args)
    except ConfigError as exc:
        for message in exc.errors:
            print(f"error: {message}", file=sys.stderr)
        return 1
    except (OSError, SourceError) as exc:
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

    g = sub.add_parser("generate", help="write a reproducible synthetic stream")
    g.add_argument("config")
    g.add_argument("--out", required=True, help="output CSV path")
    g.add_argument("--manifest", required=True, help="injection manifest path (JSONL)")
    return parser


# ---------------------------------------------------------------------------
# validate


def _cmd_validate(args) -> int:
    cfg = load_config(args.config)
    _build_suite(cfg, args.config)
    checks = len(cfg.checks)
    print(f"ok: {checks} check{'s' if checks != 1 else ''}, "
          f"{cfg.window.kind} windows", file=sys.stderr)
    return 0


# ---------------------------------------------------------------------------
# run


def _cmd_run(args) -> int:
    cfg = _apply_overrides(load_config(args.config), args)
    state = _build_suite(cfg, args.config)
    counters = SourceCounters()
    elements = open_source(cfg.source, args.config, counters, args.limit)
    if cfg.source.replay_mode == "scaled":
        elements = paced(elements, cfg.source.replay_factor)
    with ExitStack() as opened:  # closes each sink that opened, also if the next fails
        meta_sink = open_sink(cfg.sinks.meta if cfg.sinks.meta is not None else "-")
        opened.callback(meta_sink.close)
        side_sink = None
        if cfg.sinks.side is not None:
            side_sink = open_sink(cfg.sinks.side)
            opened.callback(side_sink.close)
        engine = MonitorEngine(state,
                               watermark_delay=cfg.source.watermark_delay,
                               key_by=cfg.window_key_by,
                               meta_sink=meta_sink, side_sink=side_sink)
        try:
            for element in elements:
                engine.process(element)
        except KeyboardInterrupt:
            pass  # interactive stop: flush what closed, report, exit clean
        engine.finish()
    stats = engine.stats
    stats.skipped_bad_time = counters.skipped_bad_time
    stats.parse_failures = dict(counters.parse_failures)
    _print_stats(stats, as_json=args.json)
    return 0


def _apply_overrides(cfg: SuiteConfig, args) -> SuiteConfig:
    for name in ("meta", "side"):
        dest = getattr(args, name, None)
        if dest:
            if dest.startswith("tcp://"):
                parse_address(dest)  # a bad address fails before any sink opens
            cfg = replace(cfg, sinks=replace(cfg.sinks, **{name: dest}))
    duration_raw = getattr(args, "window_duration", None)
    slide_raw = getattr(args, "slide", None)
    if duration_raw or slide_raw:
        w = cfg.window
        try:
            duration = parse_duration(duration_raw) if duration_raw else w.duration
            slide = parse_duration(slide_raw) if slide_raw else (
                w.slide if w.kind == "sliding" else None)
            spec = WindowSpec(kind="tumbling" if slide is None else "sliding",
                              duration=duration, slide=slide,
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


def _build_suite(cfg: SuiteConfig, config_path: str) -> SuiteState:
    """build_suite under the run's hash seed. The config's own problems are
    reported before a bad STREAMQC_HASH_SEED."""
    try:
        seed = _hash_seed(cfg)
    except ConfigError:
        build_suite(cfg, config_path, cfg.engine.hash_seed)
        raise
    return build_suite(cfg, config_path, seed)


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
# generate


def _cmd_generate(args) -> int:
    with open(args.config, "r", encoding="utf-8") as fp:
        try:
            obj = json.load(fp)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:  # JSON text is UTF-8
            raise ConfigError([f"generator config: invalid JSON: {exc}"]) from None
    if not isinstance(obj, dict):
        raise ConfigError(["generator config: expected an object"])
    spec, found = parse_fields(obj, GENERATOR, None)  # start and duration are parsed here
    if found:
        raise ConfigError([f"generator config: {f'{key} ' if key else ''}{message}"
                           for key, message in found])
    try:
        rows = generate_stream(args.out, args.manifest, **spec)
    except ModelError as exc:
        raise ConfigError([f"generator config: {exc}"]) from None
    print(f"wrote {rows} rows to {args.out} (manifest: {args.manifest})", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
