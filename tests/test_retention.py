"""What the engine keeps of the rows it routes (windowing.Retention).

A suite whose every check follows from per-element verdicts is judged row
by row as rows arrive (Retention.FAILING): a slice or session keeps its row
count, its verdict counts and the rows some check fails. Its output must be
byte for byte that of a twin suite that keeps every row, and its memory must
not grow with rows that pass.
"""

import json
import random
import tracemalloc
from collections import Counter
from datetime import timedelta

import pytest

from streamqc import monitor
from streamqc.measures import EngineEnv
from streamqc.model import (
    CheckDefinition,
    ColumnSpec,
    JudgedRows,
    MeasureSpec,
    Threshold,
    WindowSpec,
)
from streamqc.monitor import MonitorEngine, SuiteState
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
# The twin's extra check: min reads a pane's rows, so the twin keeps them.
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


def replay(checks, window, key_by, rows, finish=True):
    meta, side = ListSink(), ListSink()
    eng = MonitorEngine(SuiteState(checks, SCHEMA, window), watermark_delay=timedelta(seconds=20),
                        key_by=key_by, meta_sink=meta, side_sink=side)
    for e in rows:
        eng.process(e)
    if finish:
        eng.finish()
    return eng, meta.lines, side.lines


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
        twin, twin_meta, twin_side = replay(checks + [ROW_READER], window, key_by, rows)
        assert judged.state.retention is judged.store.retention is Retention.FAILING
        assert twin.state.retention is Retention.ROWS
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
    twin, _, _ = replay(checks + [ROW_READER], window, key_by, rows, finish=False)
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
