"""One replay of one workload in a fresh process.

Mirrors `streamqc run CONFIG --meta OUT/meta.jsonl --side OUT/side.jsonl`
through the public library API, timing set-up and the replay, and prints
one JSON object with the measurements on stdout. With --trace 1 the
benchmark's wrappers are installed first (see tracer.py) and the per-layer
summary is added.

    python3 perfbench/worker.py --root . --config DIR/config.json --out OUTDIR [--trace 1]
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import sys
import time
from dataclasses import replace

import tracer as tracing

perf = time.perf_counter


class CountingSink:
    """Proxy around the meta sink; `lines` tells which calls emitted."""

    def __init__(self, inner):
        self.inner = inner
        self.lines = 0

    def write_line(self, line: str) -> None:
        self.lines += 1
        self.inner.write_line(line)

    def close(self) -> None:
        self.inner.close()


def _digest(path: str) -> tuple[str, int, int]:
    """sha256, line count and size of a file."""
    h = hashlib.sha256()
    lines = size = 0
    with open(path, "rb") as fp:
        for block in iter(lambda: fp.read(1 << 20), b""):
            h.update(block)
            lines += block.count(b"\n")
            size += len(block)
    return h.hexdigest(), lines, size


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", required=True, help="checkout holding src/streamqc")
    parser.add_argument("--config", required=True)
    parser.add_argument("--out", required=True, help="directory for meta/side output")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    src = os.path.join(os.path.abspath(args.root), "src")
    sys.path.insert(0, src)

    t_start = perf()
    import streamqc
    from streamqc import connectors
    from streamqc.config import SinksConfig, load_config, resolve_path, semantic_errors
    from streamqc.monitor import MonitorEngine, SuiteState
    t_import = perf()
    if not os.path.abspath(streamqc.__file__).startswith(src + os.sep):
        print(f"error: streamqc imported from {streamqc.__file__}, not {src}", file=sys.stderr)
        return 3

    tracer = None
    check_ids: dict[int, str] = {}
    if args.trace:
        tracer = tracing.Tracer()
        tracing.install_static(tracer, check_ids)
    t_traced = perf()  # wrapper installation is kept out of set-up time

    meta_path = os.path.join(args.out, "meta.jsonl")
    side_path = os.path.join(args.out, "side.jsonl")
    cfg = load_config(args.config)
    cfg = replace(cfg, sinks=SinksConfig(meta=meta_path, side=side_path))
    t_load = perf()
    errors = semantic_errors(cfg, args.config)
    if errors:
        for message in errors:
            print(f"error: {message}", file=sys.stderr)
        return 4
    t_validate = perf()
    references = {
        ref.id: connectors.load_reference(ref.id, resolve_path(args.config, ref.path), ref.key)
        for ref in cfg.references}
    state = SuiteState(list(cfg.checks), list(cfg.source.schema), cfg.window,
                       references=references, detectors=cfg.detectors,
                       hash_seed=cfg.engine.hash_seed)
    meta = CountingSink(connectors.open_sink(meta_path))
    side = connectors.open_sink(side_path)
    engine = MonitorEngine(state, watermark_delay=cfg.source.watermark_delay,
                           key_by=cfg.window_key_by, meta_sink=meta, side_sink=side)
    t_ready = perf()

    source = cfg.source
    reader = connectors.iter_csv if source.kind == "csv" else connectors.iter_jsonl
    counters = connectors.SourceCounters()
    elements = reader(resolve_path(args.config, source.path), list(source.schema),
                      source.event_time, source.formats, counters, None)
    reference_load_s = 0.0
    if tracer is not None:
        check_ids.update({id(check.measure): check.id for check in cfg.checks})
        reference_load_s = tracer.counters.get("reference_load", [0, 0.0])[1]
        tracing.install_engine(tracer, engine, meta, side)
        tracer.reset()
        elements = tracer.iterate("decode", elements)

    process = engine.process
    samples: list[float] = []
    t0 = perf()
    for element in elements:
        lines = meta.lines
        a = perf()
        process(element)
        b = perf()
        if meta.lines != lines:
            samples.append(b - a)
    engine.finish()
    wall = perf() - t0
    meta.close()
    side.close()

    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    run_stats = engine.stats.as_dict()
    run_stats["skipped_bad_time"] = counters.skipped_bad_time
    run_stats["parse_failures"] = dict(counters.parse_failures)
    meta_sha, meta_lines, meta_bytes = _digest(meta_path)
    side_sha, side_lines, _ = _digest(side_path)
    result = {
        "rows": run_stats["read"],
        "wall_s": wall,
        "setup_s": (t_ready - t_start) - (t_traced - t_import),
        "import_s": t_import - t_start,
        "load_s": t_load - t_traced,
        "validate_s": t_validate - t_load,
        "build_s": t_ready - t_validate,
        "rss_mb": rss_mb,
        "emit_samples_s": samples,
        "proxy_lines": meta.lines,
        "stats": run_stats,
        "meta_sha256": meta_sha,
        "meta_lines": meta_lines,
        "side_sha256": side_sha,
        "side_lines": side_lines,
    }
    if tracer is not None:
        layers = tracing.summarize(tracer, wall_s=wall, rows=run_stats["read"],
                                   assigned=run_stats["assigned"], run_stats=run_stats,
                                   meta_bytes=meta_bytes)
        layers["connectors.reference_load_s"] = reference_load_s
        layers["config.import_s"] = result["import_s"]
        layers["config.load_s"] = result["load_s"]
        layers["config.validate_s"] = result["validate_s"]
        layers["monitor.build_s"] = result["build_s"]
        result["layers"] = layers
        tracer.write(os.path.join(args.out, "trace.jsonl"))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
