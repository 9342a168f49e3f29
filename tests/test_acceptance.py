"""Whole-system acceptance checks against independent oracles.

Every expected answer here is re-derived through a separate route: naive
recomputation with the statistics/numpy/scipy stack, brute-force window
enumeration, exact Counter frequency tables, or a from-scratch expression
interpreter. Each test prints one `[ACCEPTANCE] <name>: PASS|FAIL` line,
so `pytest tests/test_acceptance.py -v -s` doubles as the acceptance report.

The throughput test shells out to `python -m streamqc`; the package must
be installed (`pip install -e .`) for it to run.
"""

import json
import math
import random
import re
import statistics
import time
from collections import Counter
from contextlib import contextmanager
from datetime import timedelta

import numpy as np
from scipy import stats as scipy_stats

from streamqc.cli import main
from streamqc.config import build_suite, load_config, open_source
from streamqc.connectors import generate_stream
from streamqc.expression import ExpressionError, compile as compile_expr, parse as parse_expr
from streamqc.measures import EngineEnv, apply_measure
from streamqc.model import (
    CheckDefinition,
    ColumnSpec,
    MeasureSpec,
    StreamElement,
    Threshold,
    WindowInstance,
    WindowSpec,
    parse_ts,
    ts,
)
from streamqc.monitor import MonitorEngine, SuiteState
from streamqc.sketches import CardinalityEstimator, FrequentItemsSketch
from streamqc.windowing import PaneStore, RouteOutcome, Watermark

from helpers import T0, assign_sliding, assign_tumbling, at, elem, run_cli_child

MIN = timedelta(minutes=1)
SEC = timedelta(seconds=1)

SCHEMA = [
    ColumnSpec("t", "timestamp"),
    ColumnSpec("fare", "float", nullable=True),
    ColumnSpec("sensor", "float", nullable=True),
]


@contextmanager
def criterion(name):
    try:
        yield
    except BaseException:
        print(f"\n[ACCEPTANCE] {name}: FAIL")
        raise
    print(f"\n[ACCEPTANCE] {name}: PASS")


def _close(a, b, tol=1e-9):
    if a is None or b is None or isinstance(a, bool) or isinstance(b, bool):
        return a is b
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


def _match(got, want):
    """Structural compare; dicts are checked on the expected keys only."""
    if isinstance(want, dict):
        return isinstance(got, dict) and all(k in got and _match(got[k], want[k])
                                             for k in want)
    if isinstance(want, (list, tuple)):
        return (isinstance(got, (list, tuple)) and len(got) == len(want)
                and all(_match(g, w) for g, w in zip(got, want)))
    if want is None or isinstance(want, bool):
        return got is want
    if isinstance(want, str):
        return got == want
    return isinstance(got, (int, float)) and not isinstance(got, bool) \
        and _close(got, want)


# ---------------------------------------------------------------------------
# Measures on randomized windows vs naive recomputation


_WORDS = ["alpha", "beta", "gamma", "delta", "omega", "NA", "", "7", "3.5", "x9"]
_POINTS = [0.0, 0.25, 0.5, 0.9, 0.99, 1.0]
_EXPECTED_KEYS = ["x", "y", "s", "iv_s", "iv_e"]


def _random_rows(rng, size, null_frac):
    """Attribute dicts with controlled Null share, stray key drops and extras."""
    rows = []
    for i in range(size):
        attrs = {}
        if rng.random() > 0.03:
            attrs["x"] = None if rng.random() < null_frac else rng.uniform(-40.0, 40.0)
        if rng.random() > 0.03:
            x = attrs.get("x")
            base = x if isinstance(x, float) else rng.uniform(-40.0, 40.0)
            attrs["y"] = None if rng.random() < null_frac \
                else base * 0.6 + rng.uniform(-5.0, 5.0)
        if rng.random() > 0.03:
            attrs["s"] = None if rng.random() < null_frac else rng.choice(_WORDS)
        if rng.random() > 0.03:
            attrs["iv_s"] = None if rng.random() < null_frac \
                else round(rng.uniform(0.0, 500.0), 1)
        if rng.random() > 0.03:
            if rng.random() < null_frac:
                attrs["iv_e"] = None
            else:
                s0 = attrs.get("iv_s")
                base = s0 if isinstance(s0, float) else rng.uniform(0.0, 500.0)
                # negative spans produce malformed intervals on purpose
                attrs["iv_e"] = round(base + rng.uniform(-3.0, 20.0), 1)
        if rng.random() < 0.02:
            attrs["extra"] = i
        rows.append(attrs)
    return rows


def _build_window(rng, rows, start, dur_s):
    # windows hold elements in event-time order; arrival_seq keeps build order
    elements = sorted(
        (StreamElement(event_time=start + timedelta(seconds=rng.uniform(0.0, dur_s)),
                       arrival_seq=i, attrs=attrs)
         for i, attrs in enumerate(rows)),
        key=lambda e: (e.event_time, e.arrival_seq))
    return WindowInstance(start=start, end=start + timedelta(seconds=dur_s),
                          key=None, elements=tuple(elements))


def _naive_ordering(seq, *, descending=False, strict=False):
    viol, prev = 0, None
    for v in seq:
        if v is None:
            viol += 1
            prev = None
            continue
        if prev is not None:
            if descending:
                bad = v > prev or (strict and v == prev)
            else:
                bad = v < prev or (strict and v == prev)
            if bad:
                viol += 1
        prev = v
    return viol


def _naive_intervals(pairs, policy):
    viol, ivs = 0, []
    for s, e in pairs:
        if s is None or e is None or e < s:
            viol += 1
        else:
            ivs.append((s, e))
    ivs.sort()
    max_end = None
    for s, e in ivs:
        if max_end is not None:
            if s < max_end:
                viol += 1
            elif s == max_end:
                viol += policy == "gaps_required"
            else:
                viol += policy == "gaps_disallowed"
        max_end = e if max_end is None else max(max_end, e)
    return viol


def _naive_out_of_order(seq):
    count, running = 0, None
    for v in seq:
        if v is None:
            continue
        if running is not None and v < running:
            count += 1
        if running is None or v > running:
            running = v
    return count


def _naive_pearson(pairs):
    if len(pairs) < 2:
        return None
    try:
        return statistics.correlation([a for a, _ in pairs], [b for _, b in pairs])
    except statistics.StatisticsError:
        return None


def _naive_spearman(pairs):
    if len(pairs) < 2:
        return None
    rho = scipy_stats.spearmanr([a for a, _ in pairs], [b for _, b in pairs]).statistic
    return None if math.isnan(rho) else float(rho)


def _parseable(v, target):
    if target == "int":
        try:
            int(v)
            return True
        except (TypeError, ValueError):
            return False
    try:
        return not math.isnan(float(v))
    except (TypeError, ValueError):
        return False


def _naive_expectations(window, sec_values):
    """List of (label, spec, expected value, expected detail subset).

    rows follow the stored (event-time) order; arrival recovers build order.
    """
    rows = [e.attrs for e in window.elements]
    arrival = [e.attrs for e in
               sorted(window.elements, key=lambda e: e.arrival_seq)]
    n = len(rows)
    xs = [r.get("x") for r in rows]
    ss = [r.get("s") for r in rows]
    xnum = [v for v in xs if v is not None]
    snn = [v for v in ss if v is not None]
    pairs = [(r.get("x"), r.get("y")) for r in rows
             if r.get("x") is not None and r.get("y") is not None]
    iv_pairs = [(r.get("iv_s"), r.get("iv_e")) for r in rows]
    lens = [len(v) for v in ss if isinstance(v, str)]

    out = []

    def exp(label, mid, params, value, detail=None):
        out.append((label, MeasureSpec(mid, params), value, detail))

    exp("count x", "count", {"column": "x"}, len(xnum))
    exp("count s", "count", {"column": "s"}, len(snn))
    exp("volume", "volume", {}, n)
    exp("min x", "min", {"column": "x"}, min(xnum) if xnum else None)
    exp("max x", "max", {"column": "x"}, max(xnum) if xnum else None)
    exp("mean x", "mean", {"column": "x"},
        statistics.fmean(xnum) if xnum else None)
    exp("std x", "std", {"column": "x"},
        statistics.pstdev(xnum) if xnum else None)

    if xnum:
        mu, sd = statistics.fmean(xnum), statistics.pstdev(xnum)
        z_want = 0 if sd == 0 else sum(1 for v in xnum if abs(v - mu) > 1.5 * sd)
    else:
        z_want = 0
    exp("z outliers", "z_outlier_count", {"column": "x", "z": 1.5}, z_want)

    exp("completeness x", "completeness", {"column": "x"},
        len(xnum) / n if n else None)
    present = sum(1 for v in ss if v is not None and v not in ("", "NA"))
    exp("completeness s", "completeness",
        {"column": "s", "missing_tokens": ["NA"], "empty_text_missing": True},
        present / n if n else None)

    tokens = ["NA", "-", "7"]
    hits = sum(1 for v in snn if v in tokens)
    distinct_present = len({v for v in snn if v in tokens})
    frac = hits / len(snn) if snn else None
    exp("placeholders", "placeholder_report", {"column": "s", "tokens": tokens},
        distinct_present,
        {"distinct_placeholders_present": distinct_present,
         "placeholder_fraction": frac})
    exp("placeholder fraction", "placeholder_report",
        {"column": "s", "tokens": tokens, "output": "fraction"}, frac)

    exp("distinct x", "distinct_count", {"column": "x"}, len(set(xnum)))
    exp("distinct s", "distinct_count", {"column": "s"}, len(set(snn)))

    counts = Counter(snn)
    ones = sum(1 for c in counts.values() if c == 1)
    exp("uniqueness s", "uniqueness", {"column": "s"},
        ones / len(snn) if snn else None)

    cut = 0.12 * len(snn)
    heavy = sorted(((w, c) for w, c in counts.items() if c >= cut),
                   key=lambda wc: (-wc[1], wc[0]))
    exp("heavy hitters", "heavy_hitters", {"column": "s", "phi": 0.12},
        len(heavy),
        {"items": [{"item": w, "lo": c, "hi": c} for w, c in heavy]} if snn else None)

    if xnum:
        pct = [float(q) for q in np.percentile(xnum, [p * 100 for p in _POINTS],
                                               method="linear")]
        exp("percentiles", "percentiles", {"column": "x", "points": _POINTS},
            None, {"points": _POINTS, "values": pct})
    else:
        exp("percentiles", "percentiles", {"column": "x", "points": _POINTS}, None)

    exp("length min", "length_stats", {"column": "s", "statistic": "min"},
        min(lens) if lens else None)
    exp("length max", "length_stats", {"column": "s", "statistic": "max"},
        max(lens) if lens else None)
    exp("length mean", "length_stats", {"column": "s", "statistic": "mean"},
        statistics.fmean(lens) if lens else None)
    exp("length std", "length_stats", {"column": "s", "statistic": "std"},
        statistics.pstdev(lens) if lens else None)

    exp("pearson", "correlation", {"column_a": "x", "column_b": "y"},
        _naive_pearson(pairs))
    exp("spearman", "correlation",
        {"column_a": "x", "column_b": "y", "method": "spearman"},
        _naive_spearman(pairs))

    exp("ordering asc", "ordering_violations", {"column": "x"},
        _naive_ordering(xs))
    exp("ordering desc strict", "ordering_violations",
        {"column": "x", "direction": "desc", "strict": True},
        _naive_ordering(xs, descending=True, strict=True))

    for policy in ("gaps_allowed", "gaps_disallowed", "gaps_required"):
        exp(f"intervals {policy}", "interval_conflicts",
            {"start_column": "iv_s", "end_column": "iv_e", "policy": policy},
            _naive_intervals(iv_pairs, policy))

    exp("out of order x", "out_of_order_count", {"column": "x"},
        _naive_out_of_order([r.get("x") for r in arrival]))
    exp("out of order arrival", "out_of_order_count", {},
        _naive_out_of_order([e.event_time for e in
                             sorted(window.elements,
                                    key=lambda e: e.arrival_seq)]))

    ref = window.end + timedelta(seconds=90)
    iso = ref.strftime("%Y-%m-%dT%H:%M:%S") + ".000Z"
    fresh = (ref - max(e.event_time for e in window.elements)) / SEC if n else None
    exp("freshness", "freshness", {"reference": iso}, fresh)

    need = {"x", "y", "s"}
    viol = sum(1 for r in rows if not need <= r.keys())
    exp("schema presence", "schema_check", {"expected": ["x", "y", "s"]},
        viol == 0, {"violations": viol})
    full = set(_EXPECTED_KEYS)
    viol = sum(1 for r in rows if set(r.keys()) != full)
    exp("schema exact set", "schema_check",
        {"expected": _EXPECTED_KEYS, "mode": "presence_absence"},
        viol == 0, {"violations": viol})
    viol = sum(1 for r in rows if list(r.keys()) != _EXPECTED_KEYS)
    exp("schema order", "schema_check",
        {"expected": _EXPECTED_KEYS, "mode": "presence_order"},
        viol == 0, {"violations": viol})

    exp("types float", "type_check", {"column": "s", "expected": "float"},
        sum(1 for v in snn if _parseable(v, "float")) / len(snn) if snn else None)
    exp("types int", "type_check", {"column": "s", "expected": "int"},
        sum(1 for v in snn if _parseable(v, "int")) / len(snn) if snn else None)

    exp("conforms", "conforms", {"expression": "x > 0 and x < 25"},
        sum(1 for v in xs if v is not None and 0 < v < 25) / n if n else None)
    exp("valid range", "valid_range", {"column": "x", "lo": -20.0, "hi": 20.0},
        sum(1 for v in xs if v is not None and -20.0 <= v <= 20.0) / n if n else None)
    exp("valid range open", "valid_range",
        {"column": "x", "lo": 0.0, "lo_inclusive": False},
        sum(1 for v in xs if v is not None and v > 0.0) / n if n else None)
    allowed = ["alpha", "beta", "gamma", "7"]
    exp("in set", "in_set", {"column": "s", "allowed": allowed},
        sum(1 for v in ss if v is not None and v in allowed) / n if n else None)
    exp("pattern", "matches_pattern", {"column": "s", "pattern": "[a-z]+"},
        sum(1 for v in ss if v is not None and re.fullmatch("[a-z]+", v)) / n
        if n else None)

    sec_keys = {v for v in sec_values if v is not None}
    exp("match ratio", "match_ratio", {"on": "s"},
        sum(1 for v in ss if v is not None and v in sec_keys) / n if n else None,
        {"secondary_volume": len(sec_values)} if n else None)

    return out


def test_measures_match_naive_recomputation():
    with criterion("randomized measure grid vs naive oracles"):
        rng = random.Random(81_920)
        t_start = time.monotonic()
        sizes = [0, 0, 1, 1, 2, 3, 5]
        sizes += [rng.randint(0, 350) for _ in range(898)]
        sizes += [rng.randint(600, 2000) for _ in range(85)]
        sizes += [rng.randint(2500, 5000) for _ in range(30)]
        assert len(sizes) >= 1000 and max(sizes) > 4000
        checked = 0
        for wi, size in enumerate(sizes):
            null_frac = rng.uniform(0.0, 0.30)
            rows = _random_rows(rng, size, null_frac)
            start = T0 + timedelta(hours=wi)
            dur_s = float(rng.choice([60, 300, 3600]))
            window = _build_window(rng, rows, start, dur_s)
            sec_values = [None if rng.random() < 0.2 else rng.choice(_WORDS)
                          for _ in range(rng.randint(0, 25))]
            sec_window = _build_window(
                rng, [{"s": v} for v in sec_values], start, dur_s)
            env = EngineEnv(secondary=lambda s, e, k, w=sec_window: w)
            for label, spec, want_value, want_detail in _naive_expectations(
                    window, sec_values):
                got = apply_measure(spec, window, env)
                assert _match(got.value, want_value), (
                    f"{label} on window {wi} (n={size}): "
                    f"got {got.value!r}, want {want_value!r}")
                if want_detail is not None:
                    assert _match(got.detail, want_detail), (
                        f"{label} detail on window {wi} (n={size}): "
                        f"got {got.detail!r}, want {want_detail!r}")
                checked += 1
        elapsed = time.monotonic() - t_start
        print(f"  {len(sizes)} windows, {checked} measure evaluations, "
              f"{elapsed:.1f}s")
        assert elapsed < 120.0


# ---------------------------------------------------------------------------
# Window assignment vs brute force


def test_window_assignment_matches_brute_force():
    with criterion("window assignment vs brute force"):
        rng = random.Random(4242)
        t_start = time.monotonic()
        checked = 0

        for _ in range(40):
            dur = timedelta(seconds=rng.choice([1, 7, 30, 60, 90, 300, 900, 3600, 5400]))
            raw_origin = T0 + timedelta(seconds=rng.randint(-86_400, 86_400),
                                        microseconds=rng.randrange(1_000_000))
            spec = WindowSpec("tumbling", duration=dur, origin=raw_origin)
            origin = spec.origin  # the spec snaps its origin to the ms wire grid
            for _ in range(1_500):
                t = origin + timedelta(seconds=rng.uniform(-400_000.0, 400_000.0))
                got = assign_tumbling(t, spec)
                k = math.floor((t - origin) / dur)
                want = [(origin + kk * dur, origin + (kk + 1) * dur)
                        for kk in range(k - 2, k + 3)
                        if origin + kk * dur <= t < origin + (kk + 1) * dur]
                assert len(want) == 1 and got == want[0]
                checked += 1
            for kk in (-3, -1, 0, 2, 11):  # exact pane edges, both sides
                s = origin + kk * dur
                assert assign_tumbling(s, spec) == (s, s + dur)
                assert assign_tumbling(s + dur - timedelta(microseconds=1),
                                       spec) == (s, s + dur)
                checked += 2

        for _ in range(40):
            dur_s = rng.choice([10, 60, 300, 600, 3600])
            slide_s = rng.choice([v for v in (1, 5, 10, 15, 60, 90, 300, 600)
                                  if v <= dur_s])
            dur, slide = timedelta(seconds=dur_s), timedelta(seconds=slide_s)
            raw_origin = T0 + timedelta(seconds=rng.randint(-50_000, 50_000),
                                        microseconds=rng.randrange(1_000_000))
            spec = WindowSpec("sliding", duration=dur, slide=slide,
                              origin=raw_origin)
            origin = spec.origin
            for _ in range(1_200):
                t = origin + timedelta(seconds=rng.uniform(-200_000.0, 200_000.0))
                got = assign_sliding(t, spec)
                k_lo = math.floor((t - origin - dur) / slide) - 2
                k_hi = math.floor((t - origin) / slide) + 2
                want = [(origin + k * slide, origin + k * slide + dur)
                        for k in range(k_lo, k_hi + 1)
                        if origin + k * slide <= t < origin + k * slide + dur]
                assert sorted(got) == want
                checked += 1
        assert checked >= 100_000

        # session bounds equal the gap split of sorted times, any arrival order
        for trial in range(30):
            gap = timedelta(seconds=rng.choice([1, 5, 30, 60, 600]))
            n = rng.randint(1, 400)
            times = [T0 + timedelta(seconds=rng.uniform(0.0, 7_200.0))
                     for _ in range(n)]
            if n >= 4:
                times[1] = times[0] + gap  # exactly gap apart: still one session
                times[2] = times[1] + gap + timedelta(microseconds=1)  # splits
                times[3] = times[0]        # exact duplicate
            ordered = sorted(times)
            sessions = []
            for t in ordered:
                if sessions and t - sessions[-1][-1] <= gap:
                    sessions[-1].append(t)
                else:
                    sessions.append([t])
            want = [(s[0], s[-1] + gap, len(s)) for s in sessions]
            spec = WindowSpec("session", gap=gap)
            for _ in range(3):
                rng.shuffle(times)
                store = PaneStore(spec, key_by=None)
                wm = Watermark(delay=timedelta(days=30))
                for i, t in enumerate(times):
                    wm.observe(t)
                    out = store.route(
                        StreamElement(event_time=t, arrival_seq=i, attrs={}), wm)
                    assert out is RouteOutcome.ASSIGNED
                got = sorted((p.start, p.end, len(p.elements))
                             for p in store.flush())
                assert got == want

        elapsed = time.monotonic() - t_start
        print(f"  {checked} assignments checked, {elapsed:.1f}s")
        assert elapsed < 60.0


# ---------------------------------------------------------------------------
# Worked examples with hand-computed answers


def test_worked_examples():
    with criterion("worked examples"):
        # completeness fractions and the threshold verdict
        checks = [CheckDefinition(
            id="fare_complete",
            measure=MeasureSpec("completeness", {"column": "fare"}),
            constraint=Threshold(">=", 0.8))]
        eng = MonitorEngine(SuiteState(checks, SCHEMA, WindowSpec("tumbling",
                                                                  duration=MIN)))
        seq = 0
        for i in range(20):  # first minute: 17 of 20 present
            eng.process(elem(at(i * 3.0), seq, fare=None if i < 3 else 10.0))
            seq += 1
        for i in range(20):  # second minute: 15 of 20 present
            eng.process(elem(at(60 + i * 3.0), seq, fare=None if i < 5 else 10.0))
            seq += 1
        eng.finish()
        recs = {r.window_start: r for r in eng.collected
                if r.check_id == "fare_complete"}
        assert recs[at(0)].value == 0.85 and recs[at(0)].ok is True
        assert recs[at(60)].value == 0.75 and recs[at(60)].ok is False

        # sliding means over a fare stream, two specific panes
        checks = [CheckDefinition(id="fare_mean",
                                  measure=MeasureSpec("mean", {"column": "fare"}),
                                  constraint=Threshold("<=", 10.0))]
        eng = MonitorEngine(SuiteState(
            checks, SCHEMA, WindowSpec("sliding", duration=5 * MIN, slide=MIN)))
        base = ts(2015, 5, 7, 11, 35, 30)
        for i, fare in enumerate([8.45, 9.0, 10.0, 9.0, 10.0, 14.80]):
            eng.process(elem(base + i * MIN, i, fare=fare))
        eng.finish()
        means = {r.window_start: r for r in eng.collected
                 if r.check_id == "fare_mean"}
        r1 = means[ts(2015, 5, 7, 11, 35)]
        assert round(r1.value, 2) == 9.29 and r1.ok is True
        r2 = means[ts(2015, 5, 7, 11, 36)]
        assert round(r2.value, 2) == 10.56 and r2.ok is False

        # a frozen sensor produces one distinct value and fails "> 1"
        checks = [CheckDefinition(
            id="sensor_live",
            measure=MeasureSpec("distinct_count", {"column": "sensor"}),
            constraint=Threshold(">", 1))]
        eng = MonitorEngine(SuiteState(checks, SCHEMA,
                                       WindowSpec("tumbling", duration=MIN)))
        for i in range(12):
            eng.process(elem(at(i * 5.0), i, sensor=7.0))
        eng.finish()
        rec = next(r for r in eng.collected if r.check_id == "sensor_live")
        assert rec.value == 1 and rec.ok is False


# ---------------------------------------------------------------------------
# Sketch accuracy


def test_sketch_accuracy():
    with criterion("sketch accuracy"):
        worst = 0.0
        for seed in range(20):
            est = CardinalityEstimator(precision=14, seed=seed)
            rng = random.Random(1000 + seed)
            for i in range(10_000):
                v = f"u{seed}-{i}"
                for _ in range(rng.randint(1, 3)):  # duplicates change nothing
                    est.add(v)
            err = abs(est.estimate() - 10_000) / 10_000
            worst = max(worst, err)
            assert err <= 0.05
        print(f"  cardinality worst relative error over 20 trials: {worst:.4f}")

        data = np.random.default_rng(11).zipf(1.1, size=60_000)
        sketch = FrequentItemsSketch(capacity=256)
        truth = Counter()
        for v in data:
            sketch.add(int(v))
            truth[int(v)] += 1
        n = len(data)
        for phi in (1 / 256, 1 / 64, 0.02):
            reported = sketch.query(phi, n)
            items = {item for item, _, _ in reported}
            for item, lo, hi in reported:
                assert lo <= truth[item] <= hi
            floor = max(phi * n, n / 256)
            missed = [v for v, c in truth.items() if c > floor and v not in items]
            assert not missed  # no false negatives above the guarantee line


# ---------------------------------------------------------------------------
# Lateness policy accounting


def test_lateness_policy_accounting():
    with criterion("lateness policy"):
        window = WindowSpec("tumbling", duration=MIN, allowed_lateness=3 * MIN)
        checks = [CheckDefinition(id="vol", measure=MeasureSpec("volume", {}),
                                  constraint=Threshold(">=", 0))]
        eng = MonitorEngine(SuiteState(checks, SCHEMA, window),
                            watermark_delay=MIN)
        n_in = 0
        for i in range(11):  # on-time ticks push the watermark to 11:09
            eng.process(elem(at(i * 60.0), i, fare=1.0))
            n_in += 1
        eng.process(elem(at(421.0), 11, fare=2.0))  # 2 min behind: accepted
        n_in += 1
        eng.process(elem(at(241.0), 12, fare=3.0))  # 5 min behind: discarded
        n_in += 1
        eng.finish()

        assert eng.stats.late_accepted == 1
        assert eng.stats.discarded == 1
        vols = {r.window_start: int(r.value) for r in eng.collected
                if r.check_id == "vol"}
        assert vols[at(420)] == 2  # the late element was assessed in its pane
        assert sum(vols.values()) + eng.stats.discarded == n_in
        discards = [r for r in eng.collected if r.check_id == "_late_discards"]
        assert sum(r.value for r in discards) == 1


# ---------------------------------------------------------------------------
# Injected anomalies land in the right windows


_INJ_CHECK = {
    "missing_burst": "fare_complete",
    "placeholder_burst": "zone_clean",
    "duplicate_burst": "ride_unique",
    "out_of_order": "arrival_ok",
    "frozen": "sensor_live",
    "fare_spike": "amount_level",
}


def _make_injected_stream(root):
    root.mkdir(parents=True, exist_ok=True)
    csv_path = root / "stream.csv"
    manifest_path = root / "manifest.jsonl"
    columns = [
        {"name": "ride_id", "kind": "sequence", "prefix": "R"},
        {"name": "fare", "kind": "normal", "mean": 10.0, "std": 2.0, "round": 2},
        {"name": "zone", "kind": "choice", "values": ["a", "b", "c", "d"]},
        {"name": "sensor", "kind": "uniform_float", "lo": 0.0, "hi": 50.0,
         "round": 3},
        {"name": "amount", "kind": "normal", "mean": 10.0, "std": 2.0, "round": 2},
    ]
    # disjoint spans on disjoint columns so each check isolates one anomaly
    injections = [
        {"type": "missing_burst", "column": "fare", "start": "2m", "end": "4m"},
        {"type": "placeholder_burst", "column": "zone", "start": "5m", "end": "7m",
         "token": "99"},
        {"type": "duplicate_burst", "column": "ride_id", "start": "8m", "end": "10m"},
        {"type": "out_of_order", "column": "event_time", "start": "11m", "end": "13m"},
        {"type": "frozen", "column": "sensor", "start": "14m", "end": "16m"},
        {"type": "fare_spike", "column": "amount", "start": "17m", "end": "19m",
         "factor": 10.0},
    ]
    generate_stream(str(csv_path), str(manifest_path), seed=23, start=T0,
                    rate_per_sec=2.0, duration=timedelta(minutes=20),
                    columns=columns, injections=injections)
    config = {
        "source": {
            "kind": "csv",
            "path": "stream.csv",
            "event_time": "event_time",
            "watermark_delay": "3m",  # deeper than the reordered span
            "schema": [
                {"name": "event_time", "type": "timestamp"},
                {"name": "ride_id", "type": "text"},
                {"name": "fare", "type": "float", "nullable": True},
                {"name": "zone", "type": "text"},
                {"name": "sensor", "type": "float"},
                {"name": "amount", "type": "float"},
            ],
        },
        "window": {"kind": "tumbling", "duration": "1m"},
        "checks": [
            {"id": "fare_complete",
             "measure": {"id": "completeness", "column": "fare"},
             "constraint": {"op": ">=", "bound": 0.9}},
            {"id": "zone_clean",
             "measure": {"id": "placeholder_report", "column": "zone",
                         "tokens": ["99"], "output": "fraction"},
             "constraint": {"op": "<=", "bound": 0.0}},
            {"id": "ride_unique",
             "measure": {"id": "uniqueness", "column": "ride_id"},
             "constraint": {"op": ">=", "bound": 1.0}},
            {"id": "arrival_ok",
             "measure": {"id": "out_of_order_count"},
             "constraint": {"op": "=", "bound": 0}},
            {"id": "sensor_live",
             "measure": {"id": "distinct_count", "column": "sensor"},
             "constraint": {"op": ">", "bound": 1}},
            {"id": "amount_level",
             "measure": {"id": "mean", "column": "amount"},
             "constraint": {"range": [5.0, 15.0]}},
        ],
    }
    cfg_path = root / "monitor.json"
    cfg_path.write_text(json.dumps(config, indent=1))
    return cfg_path, manifest_path


def test_injected_anomalies_flag_their_windows(tmp_path):
    with criterion("injected anomalies"):
        cfg_path, manifest_path = _make_injected_stream(tmp_path)
        meta_path = tmp_path / "meta.jsonl"
        assert main(["run", str(cfg_path), "--meta", str(meta_path)]) == 0
        records = [json.loads(l) for l in meta_path.read_text().splitlines()]
        assert not any(r["check"] == "_late_discards" and r["value"]
                       for r in records)

        spans = {}
        for line in manifest_path.read_text().splitlines():
            inj = json.loads(line)
            if inj["type"] in _INJ_CHECK:
                spans[_INJ_CHECK[inj["type"]]] = (parse_ts(inj["start"]),
                                                  parse_ts(inj["end"]))
        assert len(spans) == 6

        flagged = Counter()
        for rec in records:
            span = spans.get(rec["check"])
            if span is None:
                continue
            lo, hi = span
            ws, we = parse_ts(rec["window_start"]), parse_ts(rec["window_end"])
            if lo <= ws and we <= hi:
                assert rec["ok"] is False, rec  # fully inside: must flag
                flagged[rec["check"]] += 1
            elif we <= lo or ws >= hi:
                assert rec["ok"] is True, rec  # fully outside: must stay clean
        # two aligned one-minute windows sit inside each two-minute span
        assert flagged == Counter({c: 2 for c in spans})
        print(f"  6 anomaly types, {sum(flagged.values())} windows flagged")


# ---------------------------------------------------------------------------
# Determinism


def test_reruns_are_byte_identical(tmp_path):
    with criterion("deterministic output"):
        cfg_path, _ = _make_injected_stream(tmp_path)
        payloads = []
        for name in ("meta_a.jsonl", "meta_b.jsonl"):
            out = tmp_path / name
            assert main(["run", str(cfg_path), "--meta", str(out)]) == 0
            payloads.append(out.read_bytes())
        assert payloads[0] == payloads[1] and payloads[0]
        print(f"  {len(payloads[0])} bytes, identical across runs")


# ---------------------------------------------------------------------------
# Expression engine vs an independent interpreter


def _render(node):
    kind = node[0]
    if kind == "lit":
        return repr(node[1])
    if kind == "name":
        return node[1]
    if kind == "neg":
        return f"(- {_render(node[1])})"
    if kind == "abs":
        return f"abs({_render(node[1])})"
    if kind == "not":
        return f"(not {_render(node[1])})"
    _, op, left, right = node[0], node[1], node[2], node[3]
    return f"({_render(left)} {op} {_render(right)})"


def _gen_num(rng, depth, names):
    if depth <= 0 or rng.random() < 0.35:
        r = rng.random()
        if r < 0.45 and names:
            return ("name", rng.choice(names))
        if r < 0.75:
            return ("lit", rng.randint(-9, 9))
        return ("lit", round(rng.uniform(-10.0, 10.0), 3))
    r = rng.random()
    if r < 0.12:
        return ("neg", _gen_num(rng, depth - 1, names))
    if r < 0.22:
        return ("abs", _gen_num(rng, depth - 1, names))
    return ("bin", rng.choice(["+", "-", "*", "/"]),
            _gen_num(rng, depth - 1, names), _gen_num(rng, depth - 1, names))


def _gen_bool(rng, depth, names):
    if depth <= 0 or rng.random() < 0.3:
        return ("cmp", rng.choice(["<", "<=", ">", ">=", "=", "!="]),
                _gen_num(rng, 2, names), _gen_num(rng, 2, names))
    if rng.random() < 0.2:
        return ("not", _gen_bool(rng, depth - 1, names))
    return ("logic", rng.choice(["and", "or"]),
            _gen_bool(rng, depth - 1, names), _gen_bool(rng, depth - 1, names))


def _names_in(node):
    if node[0] == "name":
        return {node[1]}
    if node[0] == "lit":
        return set()
    if node[0] in ("neg", "abs", "not"):
        return _names_in(node[1])
    return _names_in(node[2]) | _names_in(node[3])


def _ref_eval(node, env):
    """Reference interpreter: Kleene logic, Null absorption, true division."""
    kind = node[0]
    if kind == "lit":
        return node[1]
    if kind == "name":
        return env[node[1]]
    if kind in ("neg", "abs", "not"):
        v = _ref_eval(node[1], env)
        if v is None:
            return None
        return -v if kind == "neg" else abs(v) if kind == "abs" else not v
    op = node[1]
    a = _ref_eval(node[2], env)
    b = _ref_eval(node[3], env)
    if kind == "bin":
        if a is None or b is None:
            return None
        if op == "+":
            return a + b
        if op == "-":
            return a - b
        if op == "*":
            return a * b
        return None if b == 0 else a / b
    if kind == "cmp":
        if a is None or b is None:
            return None
        return {"<": a < b, "<=": a <= b, ">": a > b, ">=": a >= b,
                "=": a == b, "!=": a != b}[op]
    if op == "and":
        if a is False or b is False:
            return False
        return None if a is None or b is None else True
    if a is True or b is True:
        return True
    return None if a is None or b is None else False


def test_expressions_match_reference_interpreter():
    with criterion("expression engine vs reference interpreter"):
        rng = random.Random(90_210)
        names = ["x", "y", "z", "w"]

        for i in range(1_000):
            tree = _gen_bool(rng, 3, names) if i % 2 else _gen_num(rng, 4, names)
            text = _render(tree)
            env = {n: rng.choice([None, rng.randint(-8, 8),
                                  round(rng.uniform(-9.0, 9.0), 3)])
                   for n in names}
            want = _ref_eval(tree, env)
            got = compile_expr(parse_expr(text))(env)
            if want is None or isinstance(want, bool):
                assert got is want, (text, env, got, want)
            else:
                assert got == want and not isinstance(got, bool), \
                    (text, env, got, want)

        # Null absorbs through any arithmetic tree that touches it
        for _ in range(300):
            tree = _gen_num(rng, 4, names)
            used = _names_in(tree)
            if not used:
                tree = ("bin", "+", tree, ("name", rng.choice(names)))
                used = _names_in(tree)
            env = {n: rng.randint(-5, 5) for n in names}
            env[rng.choice(sorted(used))] = None
            assert compile_expr(parse_expr(_render(tree)))(env) is None

        # fuzz: the parser either succeeds or raises its own error type
        alphabet = "abxy im01239.+-*/()<>=! \"'\\,:?#~andornotu\u00e9\u03bc\n\t"
        good = bad = 0
        for _ in range(10_000):
            mode = rng.random()
            if mode < 0.4:
                txt = "".join(rng.choice(alphabet)
                              for _ in range(rng.randrange(0, 48)))
            elif mode < 0.7:
                base = _render(_gen_bool(rng, 2, names))
                txt = base[:rng.randrange(0, len(base) + 1)]
            else:
                chars = list(_render(_gen_num(rng, 3, names)))
                for _ in range(rng.randint(1, 4)):
                    chars[rng.randrange(len(chars))] = rng.choice(alphabet)
                txt = "".join(chars)
            try:
                expr = parse_expr(txt)
            except ExpressionError:
                bad += 1
                continue
            good += 1  # anything parseable must also compile and evaluate cleanly
            try:
                compile_expr(expr)({"x": 1.0, "y": None, "z": -3, "w": 0.5,
                                    "a": "text", "b": True})
            except ExpressionError:
                pass
        print(f"  fuzz: {good} inputs parsed, {bad} rejected cleanly")
        assert good > 0 and bad > 0


# ---------------------------------------------------------------------------
# Throughput and memory: a CLI run in a child process, scaling through the library


def test_throughput_and_memory(tmp_path):
    with criterion("throughput and memory"):
        columns = [
            {"name": "ride_id", "kind": "sequence", "prefix": "R"},
            {"name": "fare", "kind": "normal", "mean": 10.0, "std": 2.0,
             "round": 2},
            {"name": "zone", "kind": "choice",
             "values": ["a", "b", "c", "d", "e"]},
            {"name": "sensor", "kind": "uniform_float", "lo": 0.0, "hi": 50.0,
             "round": 3},
        ]
        n = generate_stream(str(tmp_path / "big.csv"),
                            str(tmp_path / "big_manifest.jsonl"),
                            seed=3, start=T0, rate_per_sec=100.0,
                            duration=timedelta(seconds=5_000), columns=columns)
        assert n == 500_000
        config = {
            "source": {
                "kind": "csv",
                "path": "big.csv",
                "event_time": "event_time",
                "schema": [
                    {"name": "event_time", "type": "timestamp"},
                    {"name": "ride_id", "type": "text"},
                    {"name": "fare", "type": "float", "nullable": True},
                    {"name": "zone", "type": "text"},
                    {"name": "sensor", "type": "float"},
                ],
            },
            "window": {"kind": "tumbling", "duration": "1m"},
            "checks": [
                {"id": "fare_mean", "measure": {"id": "mean", "column": "fare"},
                 "constraint": {"op": "<=", "bound": 100.0}},
                {"id": "fare_complete",
                 "measure": {"id": "completeness", "column": "fare"},
                 "constraint": {"op": ">=", "bound": 0.5}},
                {"id": "zone_distinct",
                 "measure": {"id": "distinct_count", "column": "zone"},
                 "constraint": {"op": ">", "bound": 0}},
                {"id": "ride_unique",
                 "measure": {"id": "uniqueness", "column": "ride_id"},
                 "constraint": {"op": ">=", "bound": 0.9}},
                {"id": "sensor_spread", "measure": {"id": "std", "column": "sensor"},
                 "constraint": {"op": ">=", "bound": 0.0}},
            ],
        }
        cfg = tmp_path / "big.json"
        cfg.write_text(json.dumps(config))

        proc, wall, rss_kb = run_cli_child(
            ["run", str(cfg), "--meta", str(tmp_path / "big_meta.jsonl"), "--json"],
            timeout=300)
        assert proc.returncode == 0, proc.stderr
        stats = json.loads(proc.stderr)
        assert stats["read"] == 500_000

        print(f"  run: {wall:.1f}s for 500k rows, child peak rss "
              f"{rss_kb / 1024:.0f} MiB")
        assert wall < 60.0
        assert rss_kb < 1024 * 1024  # KiB

        # Near-linear scaling, timed in this process through the library: one
        # untimed warm-up, then the median of 3 runs per size, each on a
        # freshly built suite. A run's time covers decode, process and finish.
        loaded = load_config(str(cfg))
        _replay_wall(loaded, str(cfg), 100_000)
        walls = [statistics.median(_replay_wall(loaded, str(cfg), size) for _ in range(3))
                 for size in (100_000, 500_000)]
        ratio = walls[1] / walls[0]
        reading = (f"wall 100k rows {walls[0]:.3f}s, 500k rows {walls[1]:.3f}s "
                   f"(median of 3 runs each), ratio {ratio:.3f}")
        print(f"  {reading}")
        assert 3.5 <= ratio <= 6.5, reading  # near-linear scaling, no quadratic blowup


class _DiscardSink:
    def write_line(self, line):
        pass


def _replay_wall(cfg, cfg_path, size):
    """Seconds to decode, process and finish the first `size` rows of the
    config's source on a fresh suite, with the meta lines discarded."""
    state = build_suite(cfg, cfg_path, cfg.engine.hash_seed)
    elements = open_source(cfg.source, cfg_path, limit=size)
    engine = MonitorEngine(state, watermark_delay=cfg.source.watermark_delay,
                           meta_sink=_DiscardSink())
    t0 = time.perf_counter()
    for element in elements:
        engine.process(element)
    engine.finish()
    wall = time.perf_counter() - t0
    assert engine.stats.read == size
    return wall
