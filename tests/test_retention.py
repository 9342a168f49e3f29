"""What the engine keeps of the rows it routes (windowing.Retention).

A suite whose every check follows from per-element verdicts is judged row
by row as rows arrive (Retention.FAILING): a slice or session keeps its row
count, its verdict counts and the rows some check fails. Its output must be
byte for byte that of a twin suite that keeps every row, and its memory must
not grow with rows that pass.
"""

import hashlib
import json
import random
import tracemalloc
from collections import Counter
from dataclasses import replace
from datetime import timedelta

import pytest

from streamqc import monitor
from streamqc.measures import MEASURES, EngineEnv
from streamqc.model import (
    CheckDefinition,
    ColumnSpec,
    JudgedRows,
    MeasureSpec,
    Predicate,
    Threshold,
    WindowInstance,
    WindowSpec,
)
from streamqc.monitor import (
    DeadStreamSpec,
    DetectorSpecs,
    FrozenColumnSpec,
    MonitorEngine,
    SuiteState,
)
from streamqc.windowing import Retention

from helpers import at, elem

MIN = timedelta(minutes=1)
SCHEMA = [
    ColumnSpec("t", "timestamp"),
    ColumnSpec("fare", "float", nullable=True),
    ColumnSpec("zone", "text", nullable=True),
    ColumnSpec("k", "text"),
]
# Per-element measures whose values follow from their verdicts alone.
TALLIED = [
    ("completeness", {"column": "fare", "missing_tokens": [-1.0]}),
    ("completeness", {"column": "zone", "empty_text_missing": True}),
    ("valid_range", {"column": "fare", "lo": 0.0, "hi": 40.0}),
    ("in_set", {"column": "zone", "allowed": ["a", "b", ""]}),
    ("matches_pattern", {"column": "zone", "pattern": "[ab]"}),
    ("conforms", {"expression": "fare > 1 or zone != 'c'"}),
    ("schema_check", {"expected": ["fare", "zone", "k"], "mode": "presence_absence"}),
    ("type_check", {"column": "zone", "expected": "text"}),
]
WINDOWS = [
    (WindowSpec("tumbling", duration=MIN, allowed_lateness=MIN // 2), None),
    (WindowSpec("sliding", duration=3 * MIN, slide=MIN, allowed_lateness=MIN // 2), None),
    (WindowSpec("session", gap=timedelta(seconds=30), allowed_lateness=timedelta(seconds=10)),
     None),
    (WindowSpec("session", gap=timedelta(seconds=30), allowed_lateness=timedelta(seconds=10)),
     "k"),
]
# The twin's extra check: min has no per-element form, so the twin is not
# judged on arrival, and its store is set to keep every row (twin_replay).
ROW_READER = CheckDefinition(id="zz_min", measure=MeasureSpec("min", {"column": "fare"}),
                             constraint=Threshold(">=", -100.0))


class ListSink:
    def __init__(self):
        self.lines = []

    def write_line(self, line):
        self.lines.append(line)


def check(i, measure_id, params, **kwargs):
    constraint = Threshold("=", True) if measure_id == "schema_check" else Threshold(">=", 0.5)
    return CheckDefinition(id=f"c{i}", measure=MeasureSpec(measure_id, params),
                           constraint=constraint, **kwargs)


def random_suite(rng):
    """Two to six checks over the tallied measures, a measure possibly twice
    (one checker then serves both), each with a random null_verdict and
    most emitting per-element records."""
    return [check(i, *rng.choice(TALLIED), null_verdict=rng.choice(["fail", "skip"]),
                  emit_per_element=rng.random() < 0.8)
            for i in range(rng.randint(2, 6))]


def random_rows(rng, n):
    """Rows about 2 s apart over four keys, with Null, placeholder,
    out-of-range, mistyped and missing cells; about one in eight arrives up
    to 80 s late (late or discarded), and a key's rows arrive out of order
    enough to bridge two of its sessions."""
    rows = []
    for seq in range(n):
        t = seq * 2 + (seq // 50) * 45 - rng.uniform(0, 25)
        if rng.random() < 0.12:
            t -= rng.uniform(10, 80)
        attrs = {"fare": rng.choice([None, -1.0, 2.0, 0.5, 50.0, 3.0, 3.0]),
                 "zone": rng.choice([None, "a", "b", "c", "", 7, "a", "b"]),
                 "k": rng.choice("wxyz")}
        if seq % 13 == 0:
            del attrs["zone"]
        rows.append(elem(at(t), seq, **attrs))
    return rows


def replay(checks, window, key_by, rows, finish=True, retention=None, detectors=None):
    """A run of the suite over the rows; retention, when given, overrides the store's."""
    meta, side = ListSink(), ListSink()
    eng = MonitorEngine(SuiteState(checks, SCHEMA, window, detectors=detectors),
                        watermark_delay=timedelta(seconds=20),
                        key_by=key_by, meta_sink=meta, side_sink=side)
    if retention is not None:
        eng.store.retention = retention
    for e in rows:
        eng.process(e)
    if finish:
        eng.finish()
    return eng, meta.lines, side.lines


def twin_replay(checks, window, key_by, rows, finish=True, detectors=None):
    """The reference run: the suite plus ROW_READER, its store keeping every row."""
    return replay(checks + [ROW_READER], window, key_by, rows, finish, Retention.ROWS, detectors)


def test_a_judged_suite_writes_the_bytes_of_its_twin_that_keeps_rows(monkeypatch):
    """Over seeded random per-element suites on tumbling, sliding and
    (keyed and unkeyed) session windows, with late, discarded and bridging
    rows and Null verdicts under both null_verdict settings, a suite judged
    on arrival writes the meta lines, side lines and RunStats of its twin,
    which keeps every row, once the twin's extra check's records are left
    out."""
    bridges = []
    extend = JudgedRows.extend
    monkeypatch.setattr(JudgedRows, "extend",
                        lambda self, other: bridges.append(1) or extend(self, other))
    nulls_judged = Counter()  # null_verdict settings of checks over a measure that saw a Null
    totals = Counter()
    for trial in range(16):
        rng = random.Random(500 + trial)
        window, key_by = WINDOWS[trial % len(WINDOWS)]
        checks = random_suite(rng)
        rows = random_rows(rng, 400)
        judged, meta, side = replay(checks, window, key_by, rows)
        twin, twin_meta, twin_side = twin_replay(checks, window, key_by, rows)
        assert judged.state.retention is judged.store.retention is Retention.FAILING
        assert twin.store.retention is Retention.ROWS
        kept = [line for line in twin_meta if json.loads(line)["check"] != ROW_READER.id]
        assert meta == kept, trial
        assert side == twin_side, trial
        want = twin.stats.as_dict()
        want["records_emitted"] -= len(twin_meta) - len(kept)
        assert judged.stats.as_dict() == want, trial
        totals.update(late=judged.stats.late_accepted, discarded=judged.stats.discarded,
                      side=len(side), records=sum('"element_ref"' in line for line in meta))
        for c in checks:
            verdicts = map(monitor.elem_checker_for(c.measure, EngineEnv()), rows)
            if None in verdicts:
                nulls_judged[c.null_verdict] += 1
    assert min(totals.values()) > 0, totals
    assert bridges, "no session bridged two others"
    assert nulls_judged["fail"] and nulls_judged["skip"], nulls_judged


def held_rows(store):
    """The arrival_seqs of the rows a store's open slices and sessions hold."""
    holders = ([s.elements for ss in store._sessions.values() for s in ss]
               if store.spec.kind == "session"
               else [part.elements for part in store._slices.values()])
    seqs = []
    for rows in holders:
        rows = [e for e, _ in rows.failing or ()] if isinstance(rows, JudgedRows) else rows
        seqs += [e.arrival_seq for e in rows]
    return seqs


@pytest.mark.parametrize("window, key_by", [WINDOWS[1], WINDOWS[3]], ids=["sliding", "sessions"])
def test_a_judged_store_holds_exactly_the_rows_some_check_fails(window, key_by):
    """Mid-stream, the open slices or sessions of a judged suite hold exactly
    those rows of the twin's open panes that some check fails (a Null
    verdict fails only a check whose null_verdict is "fail"), and
    open_element_count counts them."""
    rng = random.Random(41)
    checks = [check(0, *TALLIED[2], null_verdict="fail", emit_per_element=True),
              check(1, *TALLIED[7], null_verdict="skip"),
              check(2, *TALLIED[5], null_verdict="skip", emit_per_element=True)]
    rows = random_rows(rng, 300)
    judged, _, _ = replay(checks, window, key_by, rows, finish=False)
    twin, _, _ = twin_replay(checks, window, key_by, rows, finish=False)
    checkers = [(monitor.elem_checker_for(c.measure, EngineEnv()), c.null_verdict == "fail")
                for c in checks]
    by_seq = {e.arrival_seq: e for e in rows}
    open_rows = held_rows(twin.store)
    failing = sorted(seq for seq in open_rows
                     if any((v := judge(by_seq[seq])) is False or (v is None and fail_null)
                            for judge, fail_null in checkers))
    assert sorted(held_rows(judged.store)) == failing
    assert judged.store.open_element_count() == len(failing) > 0
    assert twin.store.open_element_count() == len(open_rows) > len(failing)


def _session_peak(n):
    """The tracemalloc peak of routing n rows of 2,000 keys into sessions
    that never close (a one-day gap), every check passing, above what was
    held before; the rows are made as a source makes them, one at a time."""
    window = WindowSpec("session", gap=timedelta(days=1))
    checks = [check(0, "completeness", {"column": "fare"}, emit_per_element=True),
              check(1, "valid_range", {"column": "fare", "lo": 0.0, "hi": 40.0},
                    emit_per_element=True),
              check(2, "in_set", {"column": "zone", "allowed": ["a", "b"]})]
    eng = MonitorEngine(SuiteState(checks, SCHEMA, window), key_by="k", meta_sink=ListSink())
    assert eng.state.retention is Retention.FAILING
    keys = [f"D{i:04d}" for i in range(2000)]
    rows = (elem(at(i * 0.5), i, fare=float(i % 30), zone="ab"[i % 2], k=keys[i % 2000])
            for i in range(n))
    tracemalloc.start()
    try:
        held = tracemalloc.get_traced_memory()[0]
        for e in rows:
            eng.process(e)
        peak = tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()
    assert eng.stats.panes_closed == 0 and eng.store.open_pane_count() == 2000
    assert eng.store.open_element_count() == 0
    return peak


def test_open_sessions_of_passing_rows_do_not_grow_with_the_rows():
    """2,000 sessions that never close hold no passing row: routing 20,000
    rows peaks within 1.1x of routing 5,000 (when each session kept its
    rows, the peak grew from 2.8 MB to 7.9 MB)."""
    short, long = _session_peak(5_000), _session_peak(20_000)
    assert long <= 1.1 * short, (short, long)


def test_the_tracer_sees_each_row_judged_once_and_no_checker_at_close(monkeypatch):
    """perfbench's tracer counts element checks by wrapping
    monitor.elem_checker_for, the one maker of checkers. Wrapped the same
    way, each routed row reaches each distinct per-element measure's
    checker once (two checks over one measure share it), a discarded row
    at most once, and no checker runs while a judged suite assesses panes."""
    calls = Counter()
    assessing = [False]
    at_close = []

    def wrap_checker_factory(factory):  # as perfbench/tracer.py wraps it
        def make(spec, env):
            checker = factory(spec, env)
            if checker is None:
                return None

            def counted(e):
                calls[id(counted), e.arrival_seq] += 1
                if assessing[0]:
                    at_close.append(e.arrival_seq)
                return checker(e)
            return counted
        return make

    assess = SuiteState.on_window_close

    def flagged(self, w, watermark=None):
        assessing[0] = True
        try:
            return assess(self, w, watermark)
        finally:
            assessing[0] = False

    monkeypatch.setattr(monitor, "elem_checker_for", wrap_checker_factory(monitor.elem_checker_for))
    monkeypatch.setattr(SuiteState, "on_window_close", flagged)
    checks = [check(0, *TALLIED[0], emit_per_element=True), check(1, *TALLIED[3]),
              check(2, *TALLIED[0], null_verdict="skip"), check(3, *TALLIED[6])]
    for window, key_by in WINDOWS:
        calls.clear()
        rows = random_rows(random.Random(7), 300)
        eng = MonitorEngine(SuiteState(checks, SCHEMA, window),
                            watermark_delay=timedelta(seconds=20), key_by=key_by)
        discarded = set()
        for e in rows:
            before = eng.stats.discarded
            eng.process(e)
            if eng.stats.discarded > before:
                discarded.add(e.arrival_seq)
        eng.finish()
        assert eng.state.retention is Retention.FAILING
        checkers = {checker for checker, _ in calls}
        assert len(checkers) == 3  # checks 0 and 2 share one measure
        assert discarded and eng.stats.panes_closed > 0
        for seq in (e.arrival_seq for e in rows):
            for checker in checkers:
                assert calls[checker, seq] <= 1 if seq in discarded else calls[checker, seq] == 1
        assert at_close == []


# ---------------------------------------------------------------------------
# Measures that need more of a pane than a count: their bytes are pinned.

WIDE = SCHEMA + [ColumnSpec("a", "float", nullable=True), ColumnSpec("b", "float", nullable=True),
                 ColumnSpec("status", "text", nullable=True)]
# Each measure that once walked a whole pane's rows, in several settings;
# one check is keyed, and a per-element check writes side lines. match_ratio
# is last, so that a keyed window's suite, which may not have it, leaves it out.
ROW_ORDER_CHECKS = [
    CheckDefinition(id=f"r{i:02d}", measure=MeasureSpec(mid, params),
                    constraint=Predicate("value = value"), key_by=key_by)
    for i, (mid, params, key_by) in enumerate([
        ("min", {"column": "a"}, None),
        ("max", {"column": "a"}, "zone"),
        ("min", {"column": "t"}, None),
        ("z_outlier_count", {"column": "fare", "z": 1.0}, None),
        ("placeholder_report", {"column": "zone", "tokens": ["", "c", 7]}, None),
        ("placeholder_report", {"column": "fare", "tokens": [-1.0, 0], "output": "fraction"},
         None),
        ("heavy_hitters", {"column": "b", "phi": 0.05}, None),
        ("heavy_hitters", {"column": "zone", "phi": 0.3, "mode": "approx", "capacity": 2}, None),
        ("percentiles", {"column": "fare", "points": [0.0, 0.5, 0.9]}, None),
        ("percentiles", {"column": "a", "points": [0.25]}, None),
        ("length_stats", {"column": "status", "statistic": "std"}, None),
        ("length_stats", {"column": "status", "statistic": "min"}, None),
        ("correlation", {"column_a": "fare", "column_b": "a"}, None),
        ("correlation", {"column_a": "a", "column_b": "b", "method": "spearman"}, None),
        ("ordering_violations", {"column": "a", "direction": "desc"}, None),
        ("ordering_violations", {"column": "t", "strict": True}, None),
        ("interval_conflicts", {"start_column": "a", "end_column": "b"}, None),
        ("interval_conflicts", {"start_column": "a", "end_column": "b",
                                "policy": "gaps_required"}, None),
        ("out_of_order_count", {}, None),
        ("out_of_order_count", {"column": "b"}, None),
        ("freshness", {}, None),
        ("freshness", {"reference": "2015-05-07T12:00:00.000Z"}, None),
        ("completeness", {"column": "fare", "missing_tokens": [-1.0]}, None),
        ("match_ratio", {"on": "zone"}, None),
    ])]
ROW_ORDER_CHECKS[-2] = replace(ROW_ORDER_CHECKS[-2], emit_per_element=True)


def wide_rows(rng, n):
    """Rows about 1.5 s apart, with a pause of 40 s every 80 rows and a
    quiet spell of twelve minutes; about one in ten arrives up to 150 s
    late (late or discarded). Equal values that render apart (1 and 1.0,
    0.0 and -0.0) test which one a measure keeps; status holds each key's
    value for a few minutes."""
    rows = []
    for seq in range(n):
        t = seq * 1.5 + 40 * (seq // 80) + (720 if seq >= n // 2 else 0) - rng.uniform(0, 15)
        if rng.random() < 0.1:
            t -= rng.uniform(20, 150)
        a = rng.choice([None, 1, 1.0, 2.0, 3.5, 4, 4.0, -2.5])
        k = rng.choice("wxyz")
        rows.append(elem(at(t), seq, fare=rng.choice([None, -1.0, 0.5, 2.0, 3.0, 50.0, 0.0]),
                         zone=rng.choice([None, "a", "b", "c", "", "a", "bb"]), k=k, a=a,
                         b=rng.choice([None, 0.0, -0.0, 2.0, 5.0, 1.5]) if a is None
                         else a + rng.choice([0.0, 0.5, 2.0, -1.0]),
                         status=None if seq % 11 == 0 else k * (1 + (int(t) // 400) % 3)))
    return rows


def secondary_of(rows):
    """match_ratio's secondary pane over [start, end): the rows of every
    third second, with zones shifted."""
    shifted = [elem(e.event_time, e.arrival_seq, zone=(e.attrs["zone"] or "") + "a")
               for e in sorted(rows, key=lambda e: (e.event_time, e.arrival_seq))
               if e.event_time.second % 3 == 0]

    def lookup(start, end, key):
        inside = tuple(e for e in shifted if start <= e.event_time < end)
        return WindowInstance(start, end, None, inside) if inside else None
    return lookup


def replay_wide(checks, window, key_by, detectors, rows):
    meta, side = ListSink(), ListSink()
    state = SuiteState(checks, WIDE, window, detectors=detectors,
                       secondary=secondary_of(rows))
    eng = MonitorEngine(state, watermark_delay=timedelta(seconds=20), key_by=key_by,
                        meta_sink=meta, side_sink=side)
    for e in rows:
        eng.process(e)
    eng.finish()
    return eng, meta.lines, side.lines


def _sha(lines):
    return hashlib.sha256("".join(line + "\n" for line in lines).encode()).hexdigest()


@pytest.mark.parametrize("kind, lines, meta_sha, side_sha", [
    ("sliding", 3350, "2d0710e5ac7055613f51988fca3276818faa4bfa4c2b87cea936db0f89fec122",
     "ff1eda7a182a0f6c6708b1cd23fa58f1bb03d6e4d4772efa6917426b2da7a743"),
    ("sessions", 2237, "8c14a50f1eb6e9d2303c5f1cf18b08bd16aada22fbefebf7ecc476462bace957",
     "2c6df0fb02ce76023986f6bc911354e13a11e6369c9ad3e7b60fbb77cdc7b1a5"),
])
def test_measures_over_whole_panes_keep_their_pinned_bytes(kind, lines, meta_sha, side_sha):
    """Every measure that needs more of a pane than a count, in several
    settings, one keyed, with late and discarded rows: on 5m/1m sliding
    panes with a dead-stream and a keyed frozen-column detector, and on
    keyed 30 s sessions without match_ratio (a keyed window refuses it).
    The meta and side bytes are pinned."""
    rows = wide_rows(random.Random(28), 1200)
    frozen = (FrozenColumnSpec("status", 2, key_by="k"),)
    if kind == "sliding":
        window = WindowSpec("sliding", duration=5 * MIN, slide=MIN, allowed_lateness=MIN)
        eng, meta, side = replay_wide(ROW_ORDER_CHECKS, window, None,
                                      DetectorSpecs(DeadStreamSpec(2 * MIN), frozen), rows)
        ids = Counter(json.loads(line)["check"] for line in meta)
        assert ids["_dead_stream"] == 2 and ids["_frozen_stream.status"] > 0, ids
    else:
        window = WindowSpec("session", gap=timedelta(seconds=30),
                            allowed_lateness=timedelta(seconds=10))
        eng, meta, side = replay_wide(ROW_ORDER_CHECKS[:-1], window, "k",
                                      DetectorSpecs(frozen=frozen), rows)
    assert eng.state.retention is eng.store.retention is Retention.PARTIALS
    assert eng.stats.late_accepted > 0 and eng.stats.discarded > 0
    assert (len(meta), _sha(meta), _sha(side)) == (lines, meta_sha, side_sha)


# One valid spec of every measure over WIDE.
SPEC_OF = {check.measure.id: check.measure.params for check in ROW_ORDER_CHECKS} | {
    mid: params for mid, params in TALLIED} | {
    "mean": {"column": "fare"}, "std": {"column": "a"}, "count": {"column": "zone"},
    "volume": {}, "distinct_count": {"column": "zone", "mode": "approx"},
    "uniqueness": {"column": "k"}}


def test_every_measure_has_a_retention_case():
    assert set(SPEC_OF) == set(MEASURES)


@pytest.mark.parametrize("part", sorted(SPEC_OF) + ["dead_stream", "frozen_column"])
def test_no_suite_keeps_its_rows_for_a_check(part):
    """A suite of any one measure or detector reads its panes through slice
    partials (PARTIALS), or judges its rows on arrival (FAILING) when the
    measure follows from its verdicts or the detector counts rows."""
    checks, detectors = [], DetectorSpecs()
    if part == "dead_stream":
        detectors = DetectorSpecs(DeadStreamSpec(MIN))
    elif part == "frozen_column":
        detectors = DetectorSpecs(frozen=(FrozenColumnSpec("status", 2),))
    else:
        checks = [CheckDefinition(id="c", measure=MeasureSpec(part, SPEC_OF[part]),
                                  constraint=Predicate("value = value"))]
    state = SuiteState(checks, WIDE, WindowSpec("tumbling", duration=MIN), detectors=detectors,
                       secondary=lambda start, end, key: None)
    judged = part == "dead_stream" or part in dict(TALLIED)
    assert state.retention is (Retention.FAILING if judged else Retention.PARTIALS)


def test_a_judged_suite_with_a_dead_stream_detector_writes_the_bytes_of_its_twin():
    """The dead-stream detector counts a pane's rows, so a suite of tallied
    checks with one is judged on arrival and writes its twin's bytes."""
    rows = random_rows(random.Random(3), 300)
    rows += [elem(e.event_time + timedelta(minutes=20), e.arrival_seq + 300, **e.attrs)
             for e in rows]
    checks = [check(i, mid, params, emit_per_element=True) for i, (mid, params) in enumerate(TALLIED)]
    detectors = DetectorSpecs(DeadStreamSpec(2 * MIN))
    window = WINDOWS[1][0]
    judged, meta, side = replay(checks, window, None, rows, detectors=detectors)
    twin, twin_meta, twin_side = twin_replay(checks, window, None, rows, detectors=detectors)
    assert judged.state.retention is Retention.FAILING
    assert sum('"_dead_stream"' in line for line in meta) == 2
    assert meta == [line for line in twin_meta if json.loads(line)["check"] != ROW_READER.id]
    assert side == twin_side
