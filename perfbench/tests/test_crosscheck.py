"""The benchmark's in-process driver writes the same bytes as `streamqc run`.

Each workload is built at a small size; worker.py (untraced and traced)
and `python -m streamqc run` must then produce byte-identical meta and
side streams. The traced replay must also report every per-layer metric
named in BENCHMARK.json.

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))

import run  # noqa: E402
import workloads  # noqa: E402

SMALL = {"tumbling_csv": 6000, "sliding_keyed_csv": 9000, "sessions_conformance_jsonl": 4000}


def _worker(config: str, out: str, trace: int) -> dict:
    os.makedirs(out)
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH, "worker.py"), "--root", ROOT,
         "--config", config, "--out", out, "--trace", str(trace)],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _read(path: str) -> bytes:
    with open(path, "rb") as fp:
        return fp.read()


@pytest.mark.parametrize("name", workloads.NAMES)
def test_worker_matches_cli(tmp_path, name):
    inputs = tmp_path / "in"
    inputs.mkdir()
    workloads.build(name, 3, str(inputs), SMALL[name])
    config = str(inputs / "config.json")

    cli = tmp_path / "cli"
    cli.mkdir()
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "streamqc", "run", config,
         "--meta", str(cli / "meta.jsonl"), "--side", str(cli / "side.jsonl"), "--json"],
        capture_output=True, text=True, timeout=120, env=env)
    assert proc.returncode == 0, proc.stderr
    cli_stats = json.loads(proc.stderr)

    plain = _worker(config, str(tmp_path / "plain"), 0)
    traced = _worker(config, str(tmp_path / "traced"), 1)
    for stream in ("meta.jsonl", "side.jsonl"):
        expected = _read(str(cli / stream))
        assert _read(str(tmp_path / "plain" / stream)) == expected
        assert _read(str(tmp_path / "traced" / stream)) == expected
    assert _read(str(cli / "meta.jsonl"))
    for rep in (plain, traced):
        assert rep["stats"]["read"] == cli_stats["read"] == SMALL[name]
        assert rep["stats"]["records_emitted"] == cli_stats["records_emitted"]

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fp:
        declared = {m["name"]: m["unit"] for m in json.load(fp)["per_layer"]}
    reported = set(traced["layers"]) | {"trace.overhead"} | {
        f"measures.apply_s.{c}" for c in workloads.CHECK_IDS}
    assert reported == set(declared)
    assert all(run._unit(k) == unit for k, unit in declared.items())
    layers = traced["layers"]
    assert layers["connectors.rows"] == SMALL[name]
    assert 0.5 < layers["trace.coverage"] <= 1.0
