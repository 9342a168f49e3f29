"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workloads tumbling_csv,sliding_keyed_csv \
        --seeds 11-20 [--trace 0] [--out perfbench/baseline.json]

For every workload and metric it prints the median of the per-run values
and the spread, (q3 - q1) / median with quartiles as
statistics.quantiles(values, n=4) gives them. Compare the spread with the
metric's bound in BENCHMARK.json: a steady benchmark keeps it well below.
With --out the summary is written as JSON (the committed baseline).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def spread(values: list[float]) -> float:
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / median if median else 0.0


def _seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", required=True, help="comma-separated names")
    parser.add_argument("--seeds", default="11-20", help="range lo-hi or a comma list")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="write the summary to this JSON file")
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fp:
        bench = json.load(fp)
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}

    summary: dict = {"seeds": _seeds(args.seeds), "trace": args.trace,
                     "run_seconds": bench["run_seconds"],
                     "machine": f"{platform.machine()}, {os.cpu_count()} cpus, "
                                f"Python {platform.python_version()}",
                     "workloads": {}}
    failed = False
    for name in args.workloads.split(","):
        runs = []
        for seed in summary["seeds"]:
            cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", name,
                   "--seed", str(seed), "--seconds", str(bench["run_seconds"]),
                   "--trace", str(args.trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=300)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{name} seed {seed}: exit {proc.returncode}\n{proc.stdout}{proc.stderr}")
                failed = True
                continue
            result = json.loads(lines[-1])
            failed |= not result["correct"]
            runs.append(result)
            print(f"{name} seed {seed}: " + " ".join(
                f"{k}={v['value']:.6g}" for k, v in result["metrics"].items())
                + f" output_mismatch_share={result['failed']}/{result['attempted']}",
                flush=True)
        if not runs:
            continue
        table = {}
        for metric in runs[0]["metrics"]:
            values = [r["metrics"][metric]["value"] for r in runs]
            q1, median, q3 = quartiles(values)
            table[metric] = {"median": median, "q1": q1, "q3": q3, "spread": spread(values),
                             "unit": runs[0]["metrics"][metric]["unit"], "n": len(values)}
            bound = bounds.get(metric)
            if args.trace == 0:
                note = f" bound {bound}" if bound is not None else ""
                print(f"  {name} {metric}: median {median:.6g} spread "
                      f"{table[metric]['spread']:.4f}{note}")
        summary["workloads"][name] = table
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fp:
            json.dump(summary, fp, indent=1)
            fp.write("\n")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
