"""The streamqc benchmark of record.

    python3 perfbench/run.py --workload sliding_keyed_csv --seed 7 --seconds 55 --trace 0

Builds the workload's inputs from the seed (cached per workload and seed),
then replays them in fresh single-threaded worker processes (worker.py)
until --seconds have passed, each replay a closed-loop fast replay of the
whole file through the public streamqc API. Every replay's output is
checked: sha256 digests of the meta and side streams must agree across the
replays of a run, a quarter-size check replay at the default seed must
match the digests pinned in digests.json, and the row accounting must
balance.

Prints a human-readable report, then as the last line one JSON object:
the gated end-to-end metrics with --trace 0, per-layer metrics with
--trace 1.
Exits non-zero if any output check fails. See README.md for the workloads
and the definition of every metric.
"""

from __future__ import annotations

import argparse
import collections
import json
import os
import shutil
import subprocess
import sys
import time

import stats

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(HERE, ".work")
DIGESTS = os.path.join(HERE, "digests.json")
DEFAULT_SEED = 1
MIN_REPS = 3
MIN_EMIT_SAMPLES = 100
HARD_STOP_S = 120.0  # start no replay after this, so a run ends within 180 s


def rep_problems(rep: dict, expected: dict | None) -> list[str]:
    """Everything wrong with one replay's output; [] when it is correct.

    `expected` holds the meta and side digests the replay must reproduce,
    or None when there is nothing to compare against.
    """
    s = rep["stats"]
    problems = []
    if rep["rows"] <= 0:
        problems.append("no rows read")
    if s["read"] != s["assigned"] + s["discarded"]:
        problems.append(f"read {s['read']} != assigned {s['assigned']} "
                        f"+ discarded {s['discarded']}")
    if not s["records_emitted"] == rep["meta_lines"] == rep["proxy_lines"]:
        problems.append(f"records_emitted {s['records_emitted']}, meta lines "
                        f"{rep['meta_lines']}, sink writes {rep['proxy_lines']} differ")
    if s["side_routed"] != rep["side_lines"]:
        problems.append(f"side_routed {s['side_routed']} != side lines {rep['side_lines']}")
    if expected is not None:
        for key in ("meta_sha256", "side_sha256"):
            if rep[key] != expected[key]:
                problems.append(f"{key} {rep[key][:12]}... != expected {expected[key][:12]}...")
    return problems


def consensus(reps: list[dict]) -> dict:
    """The (meta, side) digest pair most replays produced."""
    pairs = collections.Counter((r["meta_sha256"], r["side_sha256"]) for r in reps)
    (meta, side), _ = pairs.most_common(1)[0]
    return {"meta_sha256": meta, "side_sha256": side}


def _run_worker(config_dir: str, trace: bool, tag: str, trace_copy: str | None) -> dict:
    out = os.path.join(WORK, "out", f"{os.getpid()}-{tag}")
    shutil.rmtree(out, ignore_errors=True)
    os.makedirs(out)
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--root", ROOT,
           "--config", os.path.join(config_dir, "config.json"), "--out", out,
           "--trace", "1" if trace else "0"]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=150, cwd=ROOT)
        if proc.returncode != 0:
            raise RuntimeError(f"worker exited {proc.returncode}:\n{proc.stderr}")
        rep = json.loads(proc.stdout.strip().splitlines()[-1])
        if trace and trace_copy is not None:
            os.makedirs(os.path.dirname(trace_copy), exist_ok=True)
            os.replace(os.path.join(out, "trace.jsonl"), trace_copy)
    finally:
        shutil.rmtree(out, ignore_errors=True)
    rep["traced"] = trace
    return rep


def _load_pins() -> dict:
    if not os.path.exists(DIGESTS):
        return {}
    with open(DIGESTS, encoding="utf-8") as fp:
        return json.load(fp)


def _fmt(x: float) -> str:
    return f"{x:.6g}"


def _line(name: str, unit: str, values: list[float], note: str = "") -> str:
    s = stats.summary(values)
    return (f"  {name:<36} {_fmt(s['median']):>12} {unit:<6} "
            f"q1 {_fmt(s['q1'])}  q3 {_fmt(s['q3'])}  n={s['n']}{note}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="streamqc benchmark of record")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--pin", action="store_true",
                        help="write the default-seed output digests to digests.json and exit")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "streamqc", "__init__.py")):
        print(f"error: no streamqc sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import workloads

    if args.workload not in workloads.NAMES:
        print(f"error: unknown workload {args.workload!r}; "
              f"expected one of {', '.join(workloads.NAMES)}", file=sys.stderr)
        return 2
    name = args.workload
    cache = os.path.join(WORK, "inputs")
    os.makedirs(cache, exist_ok=True)
    check_dir = workloads.prepare(name, DEFAULT_SEED, cache, workloads.ROWS[name] // 4)
    inputs = workloads.prepare(name, args.seed, cache, workloads.ROWS[name],
                               keep=(os.path.basename(check_dir),))

    # The first replay, a quarter-size input at the default seed, warms the
    # file and bytecode caches and is checked against the pinned digests.
    check = _run_worker(check_dir, False, "check", None)
    pins = _load_pins()
    if args.pin:
        pins[name] = {"seed": DEFAULT_SEED, "rows": check["rows"],
                      "meta_sha256": check["meta_sha256"], "side_sha256": check["side_sha256"],
                      "meta_lines": check["meta_lines"], "side_lines": check["side_lines"]}
        with open(DIGESTS, "w", encoding="utf-8") as fp:
            json.dump(pins, fp, indent=1, sort_keys=True)
            fp.write("\n")
        print(f"pinned {name}: {pins[name]}")
        return 0
    if name not in pins:
        print(f"error: no pinned digests for {name} in {DIGESTS}", file=sys.stderr)
        return 2
    failures = {"check": rep_problems(check, pins[name])}

    reps: list[dict] = []
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        plain = [r for r in reps if not r["traced"]]
        traced = [r for r in reps if r["traced"]]
        if args.trace:
            enough = len(plain) >= 2 and len(traced) >= 2
        else:
            samples = sum(len(r["emit_samples_s"]) for r in plain)
            enough = len(plain) >= MIN_REPS and samples >= MIN_EMIT_SAMPLES
        if (elapsed >= args.seconds and enough) or elapsed >= HARD_STOP_S:
            break
        trace_now = bool(args.trace) and len(traced) < len(plain)
        reps.append(_run_worker(inputs, trace_now, str(len(reps)),
                                os.path.join(WORK, "traces", f"{name}.jsonl")))
    measured_s = time.perf_counter() - start

    agreed = consensus(reps)
    for i, rep in enumerate(reps):
        failures[f"rep{i}"] = rep_problems(rep, agreed)
    attempted = len(failures)
    failed = sum(1 for p in failures.values() if p)

    plain = [r for r in reps if not r["traced"]]
    traced = [r for r in reps if r["traced"]]
    manifest = workloads.manifest(inputs)
    print(f"workload={name} seed={args.seed} rows={plain[0]['rows']} trace={args.trace} "
          f"replays={len(plain)} untraced + {len(traced)} traced in {measured_s:.1f}s "
          f"(+1 check replay at seed {DEFAULT_SEED})")
    injections = [f"{m['type']}({m['column']}) [{m['start']}, {m['end']})"
                  for m in manifest if m["type"] != "run"]
    print(f"  injections: {'; '.join(injections) if injections else 'none'}")

    printed: dict[str, dict] = {}
    if args.trace:
        metrics, lines = _layer_metrics(plain, traced, workloads.CHECK_IDS)
    else:
        metrics, printed, lines = _end_to_end_metrics(plain)
    print("\n".join(lines))
    print(f"  {'output_mismatch_share':<36} {_fmt(failed / attempted):>12} share  "
          f"{failed} of {attempted} replays failed the output check")
    for tag, problems in failures.items():
        for problem in problems:
            print(f"  OUTPUT CHECK FAILED {tag}: {problem}")

    os.makedirs(os.path.join(WORK, "reports"), exist_ok=True)
    report = {"workload": name, "seed": args.seed, "trace": args.trace,
              "rows": plain[0]["rows"], "manifest": manifest, "metrics": metrics,
              "printed_only": printed,
              "output_problems": failures,
              "replays": [{k: v for k, v in r.items() if k != "emit_samples_s"}
                          for r in [check] + reps]}
    with open(os.path.join(WORK, "reports", f"{name}-{args.seed}-trace{args.trace}.json"),
              "w", encoding="utf-8") as fp:
        json.dump(report, fp, indent=1)

    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 else 1


def _end_to_end_metrics(plain: list[dict]) -> tuple[dict, dict, list[str]]:
    """Gated end-to-end metrics, the printed-only median emit latency, and
    the report lines.

    Throughput pools rows and time over the replays, and the median emit
    latency is each replay's median averaged over replays, so both average
    over the faster and slower stretches of the host within a run. The
    median latency is printed but not gated: on a host whose speed flips
    between two states, a median lands on either side of the gap from one
    run to the next, while the 90th percentile stays in the slower state.
    """
    throughput = [r["rows"] / r["wall_s"] for r in plain]
    pooled = sum(r["rows"] for r in plain) / sum(r["wall_s"] for r in plain)
    setup = [r["setup_s"] for r in plain]
    rss = [r["rss_mb"] for r in plain]
    medians = [stats.percentile(r["emit_samples_s"], 0.5) * 1000.0
               for r in plain if r["emit_samples_s"]]
    emit_ms = [s * 1000.0 for r in plain for s in r["emit_samples_s"]]
    n = len(emit_ms)
    beyond = stats.tail_count(n, 0.9)
    flag = "" if stats.tail_ok(n, 0.9) else f"  FLAG: only {beyond} samples beyond p90"
    p50 = sum(medians) / len(medians)
    p90 = stats.percentile(emit_ms, 0.9)
    metrics = {
        "throughput_rows_s": {"value": pooled, "unit": "rows/s"},
        "setup_s": {"value": stats.summary(setup)["median"], "unit": "s"},
        "pane_emit_p90_ms": {"value": p90, "unit": "ms"},
        "peak_rss_mb": {"value": sum(rss) / len(rss), "unit": "MiB"},
    }
    printed = {"pane_emit_p50_ms": {"value": p50, "unit": "ms"}}
    lines = [_line("throughput_rows_s", "rows/s", throughput,
                   f"  reported: pooled, {_fmt(pooled)}"),
             _line("setup_s", "s", setup),
             _line("pane_emit_p50_ms", "ms", medians,
                   f"  reported: mean of replay medians, {_fmt(p50)}; n={n} samples"),
             f"  {'pane_emit_p90_ms':<36} {_fmt(p90):>12} ms     "
             f"pooled over replays, n={n} samples, {beyond} beyond{flag}",
             _line("peak_rss_mb", "MiB", rss, "  reported: the mean")]
    return metrics, printed, lines


def _layer_metrics(plain: list[dict], traced: list[dict],
                   check_ids: tuple[str, ...]) -> tuple[dict, list[str]]:
    """Medians over traced replays; checks a workload lacks report 0."""
    names = sorted({k for r in traced for k in r["layers"]}
                   | {f"measures.apply_s.{c}" for c in check_ids})
    metrics, lines = {}, []
    for key in names:
        vals = [float(r["layers"].get(key, 0.0)) for r in traced]
        metrics[key] = {"value": stats.summary(vals)["median"], "unit": _unit(key)}
        lines.append(_line(key, _unit(key), vals))
    overhead = (stats.summary([r["wall_s"] for r in traced])["median"]
                / stats.summary([r["wall_s"] for r in plain])["median"] - 1.0)
    metrics["trace.overhead"] = {"value": overhead, "unit": "ratio"}
    lines.append(f"  {'trace.overhead':<36} {_fmt(overhead):>12} ratio  "
                 f"traced wall / untraced wall - 1, medians of "
                 f"{len(traced)} and {len(plain)} replays")
    return metrics, lines


def _unit(key: str) -> str:
    if key.endswith("_s") or ".apply_s." in key:
        return "s"
    if key.endswith("_us_per_row"):
        return "us/row"
    if key.endswith("_bytes_per_row"):
        return "bytes/row"
    if key.endswith(("_per_row", "_per_pane", "_ratio", ".coverage", ".overhead")):
        return "ratio"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
