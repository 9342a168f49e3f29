"""The meta and side streams against a reference emitter.

The reference sorts all of a batch's records with MetaRecord.order_key (one
stable sort) and renders each as json.dumps of its full dict, and it routes
each failing element once, remembering every seq it has routed. The engine
streams each run of panes sharing a window end, renders shared fields once
per key group, and routes each failing element from the first pane that
fails it, remembering none; its bytes must be the reference's.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
import struct
import sys
from collections import deque
from dataclasses import replace
from datetime import timedelta

import pytest

from streamqc.model import (
    EPOCH,
    TS_MAX,
    TS_MIN,
    CheckDefinition,
    ColumnSpec,
    ContextSpec,
    MeasureSpec,
    MetaRecord,
    Predicate,
    ReferenceSpec,
    Slice,
    Threshold,
    WindowSpec,
    canonical_bytes,
    format_ts,
    meta_line_prefix,
    ts,
    value_json,
    value_to_json,
    wire_json,
)
from streamqc.monitor import (
    DeadStreamSpec,
    DetectorSpecs,
    FrozenColumnSpec,
    MonitorEngine,
    ReferenceTable,
    SuiteState,
)
from streamqc.windowing import PaneStore, Retention

from helpers import at, elem

MIN = timedelta(minutes=1)

# Values that render in unusual ways: Null, NaN, the infinities, non-ASCII
# and escaped text, timestamps, ints beyond 64 bits, and values that compare
# equal or encode alike but render apart (-0.0 and 0.0, 1 and True and 1.0).
ODD_VALUES = [
    None, math.nan, math.inf, -math.inf, 0.0, -0.0, 1, True, 1.0, False,
    2**70, -(2**64) - 1, "zoné", "東京", " ", "😀", 'quote " and \\ slash', "",
    ts(2015, 5, 7, 11, 0, 0, 250), ts(1999, 12, 31, 23, 59, 59, 999),
]


def old_line(r: MetaRecord) -> str:
    return json.dumps({
        "window_start": format_ts(r.window_start),
        "window_end": format_ts(r.window_end),
        "key": value_to_json(r.key),
        "check": r.check_id,
        "value": value_to_json(r.value),
        "ok": r.ok,
        "detail": r.detail,
    }, separators=(",", ":"), ensure_ascii=True)


def old_side_line(e, check_ids) -> str:
    return json.dumps({
        "seq": e.arrival_seq,
        "event_time": format_ts(e.event_time),
        "checks": list(check_ids),
        "attrs": {k: value_to_json(v) for k, v in e.attrs.items()},
    }, separators=(",", ":"), ensure_ascii=True)


def record_batches(engine: MonitorEngine) -> list:
    """Keep each batch the engine's store closes, pane by pane as the engine
    draws it, with the watermark and the discard count at its first pane."""
    batches = []
    closing = engine.store.closing

    def drawn(panes):
        batch = None
        for pane in panes:
            if batch is None:
                batch = ([], engine.watermark.value, engine.stats.discarded)
                batches.append(batch)
            batch[0].append(pane)
            yield pane

    engine.store.closing = lambda wm_value: drawn(closing(wm_value))
    return batches


def memos(parts):
    """The memo of each slice and, in turn, of each of its key shares."""
    for part in parts:
        yield part.memo
        for memo_key, kept in list(part.memo.items()):
            if memo_key[0] == "split":
                yield from memos(kept.values())


def marks(parts) -> int:
    """The ("judged", check id) marks in the memos of slices and their shares."""
    return sum(memo_key[0] == "judged" for memo in memos(parts) for memo_key in memo)


def unmarked(parts) -> None:
    """Drop the marks that assessing these slices left in their memos, so a
    pane assessed again reads as the first time: the reference routes by
    the seqs it remembers."""
    for memo in memos(parts):
        for memo_key in [k for k in memo if k[0] == "judged"]:
            del memo[memo_key]


def reference(state: SuiteState, batches) -> tuple[list[str], list[str], list[MetaRecord]]:
    """Meta lines, side lines and records of the batches, one stable sort
    per batch and every routed seq remembered."""
    reported = 0
    routed: set[int] = set()
    records_out: list[MetaRecord] = []
    side: list[str] = []
    for panes, wm, discarded in batches:
        records: list[MetaRecord] = []
        routed_now = []
        for index, pane in enumerate(panes):
            unmarked(pane.parts)
            entries, failing = state.on_window_close(pane, watermark=wm)
            assert all(order == record.order_key() for order, record in entries)
            records.extend(record for _, record in entries)
            delta = 0
            if index == 0:
                delta, reported = discarded - reported, discarded
            records.append(MetaRecord(pane.start, pane.end, pane.key, "_late_discards",
                                      delta, delta == 0, {"total": reported} if delta else None))
            for seq in sorted(failing):
                if seq not in routed:
                    routed.add(seq)
                    routed_now.append(failing[seq])
        records.sort(key=MetaRecord.order_key)
        records_out.extend(records)
        side.extend(old_side_line(e, ids) for e, ids in routed_now)
    return [old_line(r) for r in records_out], side, records_out


class ListSink:
    def __init__(self):
        self.lines = []

    def write_line(self, line):
        self.lines.append(line)


SCHEMA = [
    ColumnSpec("device", "text"),
    ColumnSpec("zone", "text", nullable=True),
    ColumnSpec("x", "text", nullable=True),
    ColumnSpec("fare", "float", nullable=True),
]


def checks() -> list[CheckDefinition]:
    return [
        CheckDefinition(id="fare_mean", measure=MeasureSpec("mean", {"column": "fare"}),
                        constraint=Threshold("<=", 10.0)),
        CheckDefinition(id="fare_complete",
                        measure=MeasureSpec("completeness", {"column": "fare"}),
                        constraint=Threshold(">=", 0.9), emit_per_element=True),
        CheckDefinition(id="zone_volume", measure=MeasureSpec("volume"),
                        constraint=Threshold(">=", 2), key_by="zone"),
        CheckDefinition(id="x_hitters",
                        measure=MeasureSpec("heavy_hitters", {"column": "x", "phi": 0.3}),
                        constraint=Threshold("<=", 1), key_by="zone"),
        CheckDefinition(id="fare_by_x", measure=MeasureSpec("mean", {"column": "fare"}),
                        constraint=Threshold("<=", 10.0), key_by="x"),
        CheckDefinition(id="fare_points",
                        measure=MeasureSpec("percentiles", {"column": "fare",
                                                            "points": [0.5, 0.9]}),
                        constraint=Threshold("<=", 10.0)),
        CheckDefinition(id="x_complete", measure=MeasureSpec("completeness", {"column": "x"}),
                        constraint=Threshold(">=", 0.5), key_by="zone",
                        emit_per_element=True),
    ]


# Two frozen detectors on one column share a check id, so their records tie.
DETECTORS = DetectorSpecs(frozen=(FrozenColumnSpec("x", 1),
                                  FrozenColumnSpec("x", 1, key_by="zone")))

WINDOWS = {
    "tumbling": WindowSpec("tumbling", duration=MIN),
    "sliding": WindowSpec("sliding", duration=2 * MIN, slide=MIN),
    "session": WindowSpec("session", gap=timedelta(seconds=20)),
}


def stream(rng: random.Random, rows: int) -> list:
    out = []
    t = 0
    for seq in range(rows):
        t += rng.choice([0, 0, 1, 2, 5]) + (40 if rng.random() < 0.05 else 0)  # pauses close sessions
        when = max(t - (rng.choice([0, 30, 90]) if rng.random() < 0.1 else 0), 0)
        out.append(elem(at(when), seq,
                        device=rng.choice(["d1", "d2", "d3", "d4"]),
                        zone=rng.choice([None, "a", "b", "é"]),
                        x=rng.choice(ODD_VALUES),
                        fare=rng.choice([None, 1.0, 2.5, 12.0, math.inf])))
    return out


@pytest.mark.parametrize("kind", sorted(WINDOWS))
def test_streamed_meta_and_side_match_the_batch_sort_reference(kind):
    """Panes of different devices share a window end (keyed store, whole
    seconds), checks keyed by zone and by odd values tie across panes, and
    values, keys and details hold every odd value."""
    window = WINDOWS[kind]
    for trial in range(4):
        rows = stream(random.Random(trial), 400)
        meta, side = ListSink(), ListSink()
        engine = MonitorEngine(SuiteState(checks(), SCHEMA, window, detectors=DETECTORS),
                               watermark_delay=timedelta(seconds=10), key_by="device",
                               meta_sink=meta, side_sink=side)
        batches = record_batches(engine)
        collecting = MonitorEngine(SuiteState(checks(), SCHEMA, window, detectors=DETECTORS),
                                   watermark_delay=timedelta(seconds=10), key_by="device")
        for e in rows:
            engine.process(e)
            collecting.process(e)
        engine.finish()
        collecting.finish()
        want_meta, want_side, want_records = reference(
            SuiteState(checks(), SCHEMA, window, detectors=DETECTORS), batches)
        assert engine.stats.discarded > 0
        assert any(len({p.key for p in panes}) > 1 and len({p.end for p in panes}) < len(panes)
                   for panes, _, _ in batches), "no run of panes shares an end"
        assert meta.lines == want_meta, (kind, trial)
        assert side.lines == want_side, (kind, trial)
        assert engine.stats.records_emitted == len(want_meta)
        assert engine.stats.side_routed == len(want_side)
        # The collected path keeps the same records in the same order.
        assert [old_line(r) for r in collecting.collected] == want_meta
        assert [r.order_key() for r in collecting.collected] == \
            [r.order_key() for r in want_records]


def merged_checks() -> list[CheckDefinition]:
    """Checks of merged measures only, keyed by plain and by odd values."""
    return [
        CheckDefinition(id="fare_mean", measure=MeasureSpec("mean", {"column": "fare"}),
                        constraint=Threshold("<=", 10.0)),
        CheckDefinition(id="fare_trend", measure=MeasureSpec("mean", {"column": "fare"}),
                        constraint=Predicate("value <= mu_H + 2 * sigma_H"), key_by="zone",
                        context=ContextSpec(horizon=10 * MIN)),
        CheckDefinition(id="fare_complete",
                        measure=MeasureSpec("completeness", {"column": "fare"}),
                        constraint=Threshold(">=", 0.9), key_by="x"),
        CheckDefinition(id="zone_volume", measure=MeasureSpec("volume"),
                        constraint=Threshold(">=", 2), key_by="zone"),
        CheckDefinition(id="x_count", measure=MeasureSpec("count", {"column": "x"}),
                        constraint=Threshold(">=", 1), key_by="zone"),
        CheckDefinition(id="x_distinct", measure=MeasureSpec("distinct_count", {"column": "x"}),
                        constraint=Threshold(">=", 1)),
        CheckDefinition(id="x_approx", measure=MeasureSpec("distinct_count",
                                                           {"column": "x", "mode": "approx"}),
                        constraint=Threshold(">=", 1), key_by="zone"),
        CheckDefinition(id="x_unique", measure=MeasureSpec("uniqueness", {"column": "x"}),
                        constraint=Threshold(">=", 0.5), key_by="x"),
        CheckDefinition(id="zone_known",
                        measure=MeasureSpec("in_set", {"column": "zone", "allowed": ["a", "b"],
                                                       "proper": True}),
                        constraint=Threshold(">=", 0.5)),
    ]


@pytest.mark.parametrize("window_key", [None, "device"])
def test_released_slices_write_the_bytes_of_kept_ones(monkeypatch, window_key):
    """A suite of merged measures over sliding panes with lateness, keyed
    by odd values and with context, writes the same meta lines whether each
    slice releases its rows at its first close or keeps them to its last."""
    released = []
    release = Slice.release
    monkeypatch.setattr(Slice, "release", lambda part: released.append(1) or release(part))
    window = WindowSpec("sliding", duration=5 * MIN, slide=MIN, allowed_lateness=MIN // 2)
    for trial in range(3):
        rows = stream(random.Random(100 + trial), 600)
        lines = []
        for retention in (Retention.PARTIALS, Retention.ROWS):
            meta = ListSink()
            engine = MonitorEngine(SuiteState(merged_checks(), SCHEMA, window),
                                   watermark_delay=timedelta(seconds=10), key_by=window_key,
                                   meta_sink=meta)
            assert engine.store.retention is Retention.PARTIALS
            engine.store.retention = retention
            for e in rows:
                engine.process(e)
            engine.finish()
            assert engine.stats.late_accepted > 0
            lines.append(meta.lines)
        assert lines[0] == lines[1], (window_key, trial)
    assert len(released) > 100


def test_to_json_line_matches_json_dumps_of_the_full_record():
    rng = random.Random(5)
    for _ in range(2000):
        start = ts(2015, 5, 7, 11, rng.randrange(60), rng.randrange(60), rng.randrange(1000))
        end = start + timedelta(milliseconds=rng.randrange(1, 10**7))
        detail = rng.choice([
            None, {}, {"element_ref": rng.randrange(10**6)},
            {"items": [{"item": value_to_json(rng.choice(ODD_VALUES)), "lo": 1, "hi": 2}],
             "mode": "exact"},
            {"values": [rng.choice([math.nan, math.inf, 0.1, None])], "nested": {"é": [[]]}},
        ])
        r = MetaRecord(start, end, rng.choice(ODD_VALUES), rng.choice(["c", "_late", "é\"x"]),
                       rng.choice(ODD_VALUES), rng.choice([True, False]), detail)
        assert r.to_json_line() == old_line(r)


# ---------------------------------------------------------------------------
# Line templates against the encoder


class _Int(int):
    pass


class _Float(float):
    pass


class _Text(str):
    pass


def test_value_json_matches_the_encoder():
    """The renderer by exact type is wire_json(value_to_json(v)) for every
    kind of value, subclasses included (they take the encoder's path)."""
    rng = random.Random(3)
    floats = [5e-324, -5e-324, 2.2250738585072014e-308, 1e-310, 1e16, -1e16, 1e22,
              9007199254740993.0, -0.0, 0.1, 1 / 3, sys.float_info.max, -sys.float_info.max]
    floats += [struct.unpack(">d", rng.getrandbits(64).to_bytes(8, "big"))[0]
               for _ in range(3000)]  # every bit pattern: NaNs, infinities, subnormals
    floats += [rng.uniform(-1e6, 1e6) for _ in range(500)]
    ints = [0, -1, 2**63 - 1, 2**63, -(2**63), -(2**63) - 1, 2**64, 10**30, -(10**40)]
    ints += [rng.getrandbits(rng.randrange(1, 300)) * rng.choice([1, -1]) for _ in range(300)]
    texts = ["", "plain", "\x00\x1f\x7f", "tab\tnew\nline\r", 'quote " back \\ slash', "/",
             "zoné", "東京", "😀", "\u2028\u2029", "\ud800 lone", "\udfff"]
    texts += ["".join(chr(rng.randrange(0x110000)) for _ in range(rng.randrange(8)))
              for _ in range(300)]
    stamps = [ts(1, 1, 1), ts(1, 1, 1, 0, 0, 0, 1), ts(9999, 12, 31, 23, 59, 59, 999),
              TS_MIN, TS_MAX, ts(2016, 2, 29, 12, 0, 0, 5)]
    odd = [_Int(7), _Int(-(2**70)), _Float(1.5), _Float(math.inf), _Float(math.nan),
           _Text("sub é")]
    values = ODD_VALUES + floats + ints + texts + stamps + odd + [True, False, None]
    for v in values:
        assert value_json(v) == wire_json(value_to_json(v)), repr(v)


def tail_checks() -> list[CheckDefinition]:
    """checks() and one check for each other template path: a warming and
    then live context, a reference hit and miss, a skipped Null verdict, a
    per-element check that skips Nulls, and a forced failure."""
    return checks() + [
        CheckDefinition(id="fare_trend", measure=MeasureSpec("mean", {"column": "fare"}),
                        constraint=Predicate("value <= mu_H + 3 * sigma_H"),
                        key_by="zone", context=ContextSpec(horizon=2 * MIN)),
        CheckDefinition(id="fare_vs_ref", measure=MeasureSpec("max", {"column": "fare"}),
                        constraint=Predicate("value <= ref_cap"),
                        reference=ReferenceSpec("caps", "window_start")),
        CheckDefinition(id="x_max_soft", measure=MeasureSpec("max", {"column": "fare"}),
                        constraint=Threshold("<", 100.0), null_verdict="skip"),
        CheckDefinition(id="zone_known",
                        measure=MeasureSpec("in_set", {"column": "zone",
                                                       "allowed": ["a", "b", "é"],
                                                       "proper": True}),
                        constraint=Threshold(">=", 0.0), emit_per_element=True,
                        null_verdict="skip"),
    ]


def test_every_tail_is_its_record_rendered_whole():
    """Each record assessment makes carries the tail of its line, and the
    prefix plus that tail is json.dumps of the whole record: pane records
    (plain, detailed, warming, reference miss, skipped Null, forced
    failure), per-element records, zero and nonzero `_late_discards`, and
    the dead-stream and frozen-column detectors' alerts and recoveries.
    Grid panes run keyed by device and unkeyed; the dead-stream detector,
    which a keyed window rules out, runs unkeyed, where a five-minute
    silence makes the empty panes a dead stream needs."""
    # Grid panes starting on an even minute find their row; the rest miss.
    table = ReferenceTable("caps", "start", ("start", "cap"),
                           {canonical_bytes(at(m * 60)): {"start": at(m * 60), "cap": 5.0}
                            for m in range(0, 60, 2)})
    rows = [e if e.arrival_seq < 200 else elem(e.event_time + 5 * MIN, e.arrival_seq, **e.attrs)
            for e in stream(random.Random(7), 400)]
    seen = set()
    for kind, window in sorted(WINDOWS.items()):
        for key_by in ("device", None):
            dead = DeadStreamSpec(2 * MIN) if kind != "session" and key_by is None else None
            engine = MonitorEngine(SuiteState(tail_checks(), SCHEMA, window,
                                              references={"caps": table},
                                              detectors=DetectorSpecs(dead, DETECTORS.frozen)),
                                   watermark_delay=timedelta(seconds=10), key_by=key_by)
            for e in rows:
                engine.process(e)
            engine.finish()
            for r in engine.collected:
                assert r.tail is not None, r
                assert meta_line_prefix(r.window_start, r.window_end, r.key) + r.tail == \
                    old_line(r)
                if r.check_id.startswith("_"):
                    seen.add((r.check_id, r.ok))
                else:
                    seen.add(next(iter(r.detail)) if r.detail else "plain")
    assert seen >= {"plain", "element_ref", "warming", "reference_miss", "skipped_null",
                    "proper_subset_violated", ("_late_discards", True),
                    ("_late_discards", False), ("_dead_stream", False), ("_dead_stream", True),
                    ("_frozen_stream.x", False), ("_frozen_stream.x", True)}, seen


def test_warming_reference_miss_and_skipped_null_lines_are_pinned():
    """The exact bytes of a warming record, a reference miss and a skipped
    Null verdict: `true` is no `1`, and the missed key renders as on the
    wire. The references above render the records the engine made, so only
    literal lines pin these details."""
    window_start = '{"window_start":"2015-05-07T11:0%d:00.000Z","window_end":' \
        '"2015-05-07T11:0%d:00.000Z","key":null,"check":'
    checks = [
        CheckDefinition(id="fare_trend", measure=MeasureSpec("mean", {"column": "fare"}),
                        constraint=Predicate("value <= mu_H + 3 * sigma_H"),
                        context=ContextSpec(horizon=2 * MIN)),
        CheckDefinition(id="fare_vs_ref", measure=MeasureSpec("max", {"column": "fare"}),
                        constraint=Predicate("value <= ref_cap"),
                        reference=ReferenceSpec("caps", "window_start")),
        CheckDefinition(id="fare_max_soft", measure=MeasureSpec("max", {"column": "fare"}),
                        constraint=Threshold("<", 100.0), null_verdict="skip"),
    ]
    table = ReferenceTable("caps", "start", ("start", "cap"),
                           {canonical_bytes(at(60)): {"start": at(60), "cap": 5.0}})
    sink = ListSink()
    engine = MonitorEngine(SuiteState(checks, SCHEMA, WindowSpec("tumbling", duration=MIN),
                                      references={"caps": table}), meta_sink=sink)
    for seq, (seconds, fare) in enumerate([(10, 2.5), (70, None)]):
        engine.process(elem(at(seconds), seq, fare=fare))
    engine.finish()
    first, second = window_start % (0, 1), window_start % (1, 2)
    assert sink.lines == [
        first + '"_late_discards","value":0,"ok":true,"detail":null}',
        first + '"fare_max_soft","value":2.5,"ok":true,"detail":null}',
        first + '"fare_trend","value":2.5,"ok":true,"detail":{"warming":true}}',
        first + '"fare_vs_ref","value":null,"ok":false,'
                '"detail":{"reference_miss":"2015-05-07T11:00:00.000Z"}}',
        second + '"_late_discards","value":0,"ok":true,"detail":null}',
        second + '"fare_max_soft","value":null,"ok":true,"detail":{"skipped_null":true}}',
        second + '"fare_trend","value":null,"ok":true,"detail":{"warming":true}}',
        second + '"fare_vs_ref","value":null,"ok":false,"detail":null}',
    ]


# ---------------------------------------------------------------------------
# Routing keeps no per-row memory


@pytest.mark.parametrize("kind", ["sliding", "session", "warming"])
def test_the_engine_keeps_no_routing_state(kind):
    """Every row fails, forever: the engine holds no container among its
    own fields, the suite's containers keep the sizes they were built with,
    and the side stream is the reference's, which remembers every routed
    seq. "warming" gives the check a context, so the rows of the first
    panes are routed only from the first pane that judges them, and those
    only in warming panes never."""
    window = (WindowSpec("session", gap=timedelta(seconds=20)) if kind == "session"
              else WindowSpec("sliding", duration=5 * MIN, slide=MIN))
    check = CheckDefinition(id="fare_complete",
                            measure=MeasureSpec("completeness", {"column": "fare"}),
                            constraint=Threshold(">=", 1.0), emit_per_element=True,
                            context=ContextSpec(horizon=10 * MIN) if kind == "warming" else None)
    meta, side = ListSink(), ListSink()
    engine = MonitorEngine(SuiteState([check], SCHEMA, window),
                           watermark_delay=timedelta(seconds=30),
                           key_by="device" if kind == "session" else None,
                           meta_sink=meta, side_sink=side)
    batches = record_batches(engine)
    rng = random.Random(11)
    span_rows = 5 * 60 // 5  # one row per 5 s over a 5m pane
    containers = (dict, list, set, frozenset, tuple, deque)

    def suite_containers():
        return {name: len(value) for name, value in vars(engine.state).items()
                if isinstance(value, containers)}
    built = suite_containers()
    for seq in range(3000):
        t = at(seq * 5 + rng.uniform(-20, 0))
        engine.process(elem(t, seq, device=rng.choice(["d1", "d2"]), fare=None))
        assert not [name for name, value in vars(engine).items()
                    if isinstance(value, containers)]
        assert suite_containers() == built
    engine.finish()
    if kind == "warming":
        assert 0 < engine.stats.side_routed < 3000 - engine.stats.discarded - span_rows
    else:
        assert engine.stats.side_routed == 3000 - engine.stats.discarded
    _, want_side, _ = reference(SuiteState([check], SCHEMA, window), batches)
    assert side.lines == want_side


@pytest.mark.parametrize("kind", ["sliding", "tumbling", "session"])
def test_only_sliding_panes_mark_the_slices_they_judged(kind):
    """Only a sliding pane's slices can be read by a later pane, so only
    they carry marks, at most one per per-element check and open slice."""
    window = {"sliding": WindowSpec("sliding", duration=5 * MIN, slide=MIN),
              "tumbling": WindowSpec("tumbling", duration=MIN),
              "session": WindowSpec("session", gap=timedelta(seconds=20))}[kind]
    suite = routing_checks("elements")
    engine = MonitorEngine(SuiteState(suite, SCHEMA, window),
                           watermark_delay=timedelta(seconds=30))
    batches = record_batches(engine)
    rng = random.Random(5)
    most = 0
    for seq in range(1500):
        engine.process(elem(at(seq * 2 + rng.uniform(-20, 0)), seq,
                            zone=rng.choice([None, "a", "c"]), fare=rng.choice([None, 1.0, -3.0])))
        if kind == "sliding":
            held = engine.store._slices.values()
            assert marks(held) <= len(suite) * len(held)
            most = max(most, marks(held))
    engine.finish()
    drawn = marks(part for panes, _, _ in batches for pane in panes for part in pane.parts)
    assert engine.stats.side_routed > 0
    if kind == "sliding":
        assert most > 0 and drawn > 0
    else:
        assert drawn == 0


def test_a_zero_key_renders_as_the_row_its_group_rule_picks():
    """0.0 and -0.0 share an encoding but render apart, so a group's key
    renders as one chosen row's. A keyed window's pane takes the first row
    to arrive of its key in the first slice holding the key (at 11:00-11:02
    that is -0.0 from 11:00:30, not 0.0 from 11:01:30, which arrived
    earlier); a check keyed on the column takes its group's first row in
    pane order. The lines are pinned."""
    rows = [elem(at(90), 0, fare=0.0), elem(at(30), 1, fare=-0.0), elem(at(10), 2, fare=0.0),
            elem(at(70), 3, fare=-0.0)]

    def lines(window, window_key, check_key):
        sink = ListSink()
        check = CheckDefinition(id="volume", measure=MeasureSpec("volume"),
                                constraint=Threshold(">=", 0), key_by=check_key)
        engine = MonitorEngine(SuiteState([check], SCHEMA, window), watermark_delay=2 * MIN,
                               key_by=window_key, meta_sink=sink)
        for e in rows:
            engine.process(e)
        engine.finish()
        return sink.lines

    assert lines(WINDOWS["tumbling"], "fare", None) == [
        ('{"window_start":"2015-05-07T11:00:00.000Z","window_end":"2015-05-07T11:01:00.000Z",'
         '"key":-0.0,"check":"_late_discards","value":0,"ok":true,"detail":null}'),
        ('{"window_start":"2015-05-07T11:00:00.000Z","window_end":"2015-05-07T11:01:00.000Z",'
         '"key":-0.0,"check":"volume","value":2,"ok":true,"detail":null}'),
        ('{"window_start":"2015-05-07T11:01:00.000Z","window_end":"2015-05-07T11:02:00.000Z",'
         '"key":0.0,"check":"_late_discards","value":0,"ok":true,"detail":null}'),
        ('{"window_start":"2015-05-07T11:01:00.000Z","window_end":"2015-05-07T11:02:00.000Z",'
         '"key":0.0,"check":"volume","value":2,"ok":true,"detail":null}'),
    ]
    assert lines(WINDOWS["sliding"], "fare", None) == [
        ('{"window_start":"2015-05-07T10:59:00.000Z","window_end":"2015-05-07T11:01:00.000Z",'
         '"key":-0.0,"check":"_late_discards","value":0,"ok":true,"detail":null}'),
        ('{"window_start":"2015-05-07T10:59:00.000Z","window_end":"2015-05-07T11:01:00.000Z",'
         '"key":-0.0,"check":"volume","value":2,"ok":true,"detail":null}'),
        ('{"window_start":"2015-05-07T11:00:00.000Z","window_end":"2015-05-07T11:02:00.000Z",'
         '"key":-0.0,"check":"_late_discards","value":0,"ok":true,"detail":null}'),
        ('{"window_start":"2015-05-07T11:00:00.000Z","window_end":"2015-05-07T11:02:00.000Z",'
         '"key":-0.0,"check":"volume","value":4,"ok":true,"detail":null}'),
        ('{"window_start":"2015-05-07T11:01:00.000Z","window_end":"2015-05-07T11:03:00.000Z",'
         '"key":0.0,"check":"_late_discards","value":0,"ok":true,"detail":null}'),
        ('{"window_start":"2015-05-07T11:01:00.000Z","window_end":"2015-05-07T11:03:00.000Z",'
         '"key":0.0,"check":"volume","value":2,"ok":true,"detail":null}'),
    ]
    assert lines(WINDOWS["tumbling"], None, "fare") == [
        ('{"window_start":"2015-05-07T11:00:00.000Z","window_end":"2015-05-07T11:01:00.000Z",'
         '"key":null,"check":"_late_discards","value":0,"ok":true,"detail":null}'),
        ('{"window_start":"2015-05-07T11:00:00.000Z","window_end":"2015-05-07T11:01:00.000Z",'
         '"key":0.0,"check":"volume","value":2,"ok":true,"detail":null}'),
        ('{"window_start":"2015-05-07T11:01:00.000Z","window_end":"2015-05-07T11:02:00.000Z",'
         '"key":null,"check":"_late_discards","value":0,"ok":true,"detail":null}'),
        ('{"window_start":"2015-05-07T11:01:00.000Z","window_end":"2015-05-07T11:02:00.000Z",'
         '"key":-0.0,"check":"volume","value":2,"ok":true,"detail":null}'),
    ]


# ---------------------------------------------------------------------------
# Work done per closed pane


def test_session_pane_is_split_by_key_once(monkeypatch):
    """Three checks keyed by zone over a session pane, which is one slice,
    share one split of it."""
    calls = []
    split = Slice.split

    def counting(part, key_by):
        calls.append(key_by)
        return split(part, key_by)

    monkeypatch.setattr(Slice, "split", counting)
    checks = [CheckDefinition(id=f"zone_{m}", measure=MeasureSpec(m, {"column": "fare"}),
                              key_by="zone", constraint=Threshold(">=", 0.0))
              for m in ("mean", "std", "count")]
    engine = MonitorEngine(SuiteState(checks, SCHEMA, WINDOWS["session"]))
    for seq in range(600):
        burst, i = divmod(seq, 40)  # 15 bursts of 40 rows, a minute apart
        engine.process(elem(at(burst * 60 + i), seq, zone=["a", "b", "c"][seq % 3],
                            fare=float(seq % 7)))
    engine.finish()
    assert engine.stats.panes_closed == 15
    assert len(calls) == 15


def test_close_ready_works_only_once_a_pane_can_close(monkeypatch):
    """Panes are built only when the watermark has reached the next close
    instant, and then one closes."""
    outcomes = []
    close_grid = PaneStore._close_grid

    def counting(self, upto):
        outcomes.append(0)
        for pane in close_grid(self, upto):
            outcomes[-1] += 1
            yield pane

    monkeypatch.setattr(PaneStore, "_close_grid", counting)
    window = WindowSpec("sliding", duration=5 * MIN, slide=MIN)
    check = CheckDefinition(id="fare_mean", measure=MeasureSpec("mean", {"column": "fare"}),
                            constraint=Threshold("<=", 10.0))
    engine = MonitorEngine(SuiteState([check], SCHEMA, window),
                           watermark_delay=timedelta(seconds=30))
    rng = random.Random(2)
    for seq in range(1200):
        engine.process(elem(at(seq * 2 + rng.uniform(-20, 0)), seq, fare=1.0))
    closed_before_flush = engine.stats.panes_closed
    engine.finish()
    assert closed_before_flush > 30
    assert all(outcomes[:-1]) and len(outcomes) < 1200 / 10


# ---------------------------------------------------------------------------
# Each failing row is routed from the first pane that fails it: pinned bytes

ROUTING_WINDOWS = {
    "sliding5m": WindowSpec("sliding", duration=5 * MIN, slide=MIN, allowed_lateness=MIN),
    "sliding7m": WindowSpec("sliding", duration=7 * MIN, slide=2 * MIN),
    "tumbling3m": WindowSpec("tumbling", duration=3 * MIN, allowed_lateness=MIN),
    "session40s": WindowSpec("session", gap=timedelta(seconds=40),
                             allowed_lateness=timedelta(seconds=10)),
}


def routing_checks(suite: str) -> list[CheckDefinition]:
    """Per-element checks only ("elements": judged on arrival wherever the
    store allows it), then with a keyed conforms check ("keyed"), then with
    a merged mean as well ("mean"). "context" and "reference" give the keyed
    suite's first, third and fourth checks a rolling context, or a reference
    row keyed by window_start, so a pane may judge none of a row's checks
    and a later pane over it some."""
    out = [
        CheckDefinition(id="fare_complete",
                        measure=MeasureSpec("completeness", {"column": "fare"}),
                        constraint=Threshold(">=", 0.9), emit_per_element=True),
        CheckDefinition(id="zone_known",
                        measure=MeasureSpec("in_set", {"column": "zone", "allowed": ["a", "b"]}),
                        constraint=Threshold(">=", 0.5), emit_per_element=True,
                        null_verdict="skip"),
        CheckDefinition(id="fare_sane",
                        measure=MeasureSpec("conforms", {"expression": "fare >= 0 and fare < 100"}),
                        constraint=Threshold(">=", 0.8), emit_per_element=True),
    ]
    if suite != "elements":
        out.append(CheckDefinition(id="x_by_zone",
                                   measure=MeasureSpec("conforms", {"expression": "x != 'bad'"}),
                                   constraint=Threshold(">=", 0.9), key_by="zone",
                                   emit_per_element=True))
    if suite == "mean":
        out.append(CheckDefinition(id="fare_mean",
                                   measure=MeasureSpec("mean", {"column": "fare"}),
                                   constraint=Threshold("<=", 10.0)))
    warm = {"context": {"context": ContextSpec(horizon=10 * MIN)},
            "reference": {"constraint": Predicate("value >= ref_floor"),
                          "reference": ReferenceSpec("floors", "window_start")}}.get(suite)
    if warm is not None:
        for i in (0, 2, 3):
            out[i] = replace(out[i], **warm)
    return out


def floors(rows: list) -> ReferenceTable:
    """A floor for two of every five whole minutes the rows span, and the
    ten minutes before them: a pane starting on another instant misses."""
    first = min(e.event_time for e in rows) - 10 * MIN
    minutes = (max(e.event_time for e in rows) - first) // MIN
    starts = [first - (first - EPOCH) % MIN + m * MIN for m in range(minutes + 1)]
    return ReferenceTable("floors", "start", ("start", "floor"), {
        canonical_bytes(t): {"start": t, "floor": 0.5}
        for t in starts if (t - EPOCH) // MIN % 5 < 2})


def routing_stream(near_end: bool) -> list:
    """1,500 rows over at most 40 minutes, a tenth of them 5 s to 400 s late
    and some pauses a minute long; near_end puts the newest at TS_MAX, so
    the panes over the last minutes end past the datetime range."""
    rng = random.Random(29)
    offsets, attrs, now = [], [], 0
    for _ in range(1500):
        now += rng.choice([0, 1, 1, 1]) + (60 if rng.random() < 0.01 else 0)
        offsets.append(now - (rng.choice([5, 20, 50, 100, 400]) if rng.random() < 0.1 else 0))
        attrs.append({"device": rng.choice(["d1", "d2", "d3"]),
                      "zone": rng.choice([None, "a", "b", "c"]),
                      "x": rng.choice(["ok", "ok", "bad", None]),
                      "fare": rng.choice([None, 1.0, 2.5, 12.0, -3.0, 150.0])})
    span = max(offsets)
    assert span <= 40 * 60
    return [elem(TS_MAX - timedelta(seconds=span - offset) if near_end else at(offset),
                 seq, **row) for seq, (offset, row) in enumerate(zip(offsets, attrs))]


ROUTING_CASES = [f"{window}-{key}-{suite}-{era}" for window in ROUTING_WINDOWS
                 for key in ("unkeyed", "device")
                 for suite in ("elements", "keyed", "mean", "context", "reference")
                 for era in ("2015", "ts_max")]

# (meta sha256, side sha256) of each case, as written when the engine
# remembered every routed row. The eight device-context cases were
# pinned again when a keyed check's context came to be kept per window
# key as well as per check key: their zone contexts no longer mix devices.
ROUTING_PINS = {
    "sliding5m-unkeyed-elements-2015": (
        "237b783e4f5d3092471297ab141d2bf2dce489ce947ef84dbfb2f465a43d11bd",
        "f74956fc54758c9e4d14ec073a2c194c15b7e5a552451d5ddfefe745f2ea9a4a"),
    "sliding5m-unkeyed-elements-ts_max": (
        "c6ac8ae615e39499bd4437f03e10adcdb86f9c21c7a4187dbad60fc89b9d5729",
        "b3ad9ec75503a9cbb2534602f98d536450ac026943640ee766228031bdd96535"),
    "sliding5m-unkeyed-keyed-2015": (
        "2c780e08fd46373ff6bcb0adc6aa3dacedfab4c16fb36d1b981e9fc1a2b7a84d",
        "931dd00037de4d5872069c26c42cd4526072eac934d909b3d21465b43f4d9e52"),
    "sliding5m-unkeyed-keyed-ts_max": (
        "d5b2a923338aaaeb2499b9615ae0085a4c1f8dcd561fd214c4a26f7db17ad23e",
        "bb5d5b3b2edc3906eb45837f1378168ecf601efb8ce678a6fd8bcfdc57103156"),
    "sliding5m-unkeyed-mean-2015": (
        "b23811cb59c38b62e760872145ca6857adca18964e26eb075ae33285e315ce42",
        "931dd00037de4d5872069c26c42cd4526072eac934d909b3d21465b43f4d9e52"),
    "sliding5m-unkeyed-mean-ts_max": (
        "3272bbfff398b47b404cb3e7ae89f3242c2a64ad957a5c62415925553af7af83",
        "bb5d5b3b2edc3906eb45837f1378168ecf601efb8ce678a6fd8bcfdc57103156"),
    "sliding5m-unkeyed-context-2015": (
        "cc3474bada14675c7997d2bbb09590363e5e900309de0ed416c7e235dba30a25",
        "f9d63bad8e0fefd0d79555c168c65715d7e90659649dda684e1d94ece9f31970"),
    "sliding5m-unkeyed-context-ts_max": (
        "c0f05228637b4c42139cad8a98e8a436c920f8bcc991767c6a5d616314017081",
        "81f7481672c486885e365ac3a9e648b48dd1e299957375eabb6046ae21adcfe0"),
    "sliding5m-unkeyed-reference-2015": (
        "c0fe328ab189bcdff36194f335bc173d9f022a42f385113d67d2c8fcc190803b",
        "4318347db15d98d22cce84466871832c09107c575fac49ce7c1430f0b8146931"),
    "sliding5m-unkeyed-reference-ts_max": (
        "76a68068d7e51dd96a7319928eec2e1abfdafb60a01b61773e94803571c00663",
        "496c14c41ff51fa46ae670bf3fe07f6b10faf31812bf6114d722ae53d13584e0"),
    "sliding5m-device-elements-2015": (
        "0ae754b2769b3e8d2713ac858f85b94b97df986bbe2b8894c2c4c43de88993af",
        "4f0f70bf5d43494e469b13bcaac878bc3043ab72b1ea9ee70d9716776d35534a"),
    "sliding5m-device-elements-ts_max": (
        "60fab347758eb947afbb32981257fcb1ab0eae6e13cfe4cb05218236f792dad1",
        "7f1c533fb60de7d87d04abebaf0173c65234d53e9ddb5e0cd8d7cbacc9ed8e95"),
    "sliding5m-device-keyed-2015": (
        "735c5acd5a315f00be065bc10b2551377d71edb929097c30f906222fad2bcf54",
        "8840d9b717f4f0d8efe418254649f25967e34cc23c433e9d12fea3721a10e88a"),
    "sliding5m-device-keyed-ts_max": (
        "3596f6ab5f0cdb0026e14e61e6adf3fffdfe8d4ac14ba4244039b95bc6080d7f",
        "da8f6cd19e7a391d267054a24c0d05ca5bbef171ec4105d99bf54a94335a6244"),
    "sliding5m-device-mean-2015": (
        "b32641ac4edec84aad407cd20d4aa7dab26df1570fa7ee5c4a3535adfdff99c3",
        "8840d9b717f4f0d8efe418254649f25967e34cc23c433e9d12fea3721a10e88a"),
    "sliding5m-device-mean-ts_max": (
        "8a5c5c75523ec022be0aed5dc71aa6b33700ea6b8f4a98cfa47134c0dad41a82",
        "da8f6cd19e7a391d267054a24c0d05ca5bbef171ec4105d99bf54a94335a6244"),
    "sliding5m-device-context-2015": (
        "eed03d3939b12bc7c8fe9c8692dbfd10e8a59a978a2be844a7c683bf784d4cd6",
        "9cec79bef750115c9c603d9e1cf8672d307cf0946e686a73dc230e4bae9a2c30"),
    "sliding5m-device-context-ts_max": (
        "ffa974b809ef6706ca4e36689aa72231db912e2fbd635eb937ababbc88b331dd",
        "c62d23aae384d9efd4c465e2a3a84a2be2eda98f262d6c36fce3eeed7ef7d8ee"),
    "sliding5m-device-reference-2015": (
        "edb5812a1d56b18fe04c84a9450e75f598c512d4fb382de3c108806d4b1e0610",
        "6bb8dc264041c25f8125eed30f90d56d1fd62fbfa6e2f86229dd971f83ba1e2c"),
    "sliding5m-device-reference-ts_max": (
        "af2be7d55dc52bfb628e5fdcdcec6037167a7ebfc6b5580e582f032cea1b5c41",
        "a034292b4ecdb1cec30a1fbc6ad005a7c73785e34e59dae2b2c61c992bc7c898"),
    "sliding7m-unkeyed-elements-2015": (
        "315f6eda631ae16ca458906152937c4ead56411f901b58ac19ff89997f9afb15",
        "2e652dd7f85ab19256e44052c53a9caa4d97efbdfb321cf38adefff4310f5c7c"),
    "sliding7m-unkeyed-elements-ts_max": (
        "fc9ac746637ec946655501807a4b5556f6792eb2bc94ad38be6aaf49b0b62e36",
        "d293c1f367eddf7c9e4f9daad7ee447bd46d47e6ca597b2832495ac7aababa7b"),
    "sliding7m-unkeyed-keyed-2015": (
        "5a054cae0e870b90c52ce022e7bfb349d1233e0402c7e621ac4f70f060b96202",
        "45be68d04bcfcd65c5df43e4f0db0b582f35acc4aa085e82be4d528f14c5ab95"),
    "sliding7m-unkeyed-keyed-ts_max": (
        "7e86006aec792f446519380c882b1fdf45e1413fcf0e3ce8af5c591c2611be63",
        "cc3636ecec81e9d1e6ca04f3c3245e0fa00beac60f7850672469740c052d1a63"),
    "sliding7m-unkeyed-mean-2015": (
        "a0767ddddbc2ba1e27a98754f672dbd60fc153c7cd9b16b9174db7768914f90f",
        "45be68d04bcfcd65c5df43e4f0db0b582f35acc4aa085e82be4d528f14c5ab95"),
    "sliding7m-unkeyed-mean-ts_max": (
        "74ba34813d41b7b61bef9f5674c7a7ce2eb40afa7cb37829d993ccbeb221a915",
        "cc3636ecec81e9d1e6ca04f3c3245e0fa00beac60f7850672469740c052d1a63"),
    "sliding7m-unkeyed-context-2015": (
        "31713d87f413b6874e6d1a95efd638d2d78263479d86417563cf94c1360b4460",
        "dbeb1d89744eeaadec00a5b25a7407c83a02c01efdceb0386f0cd56a185d01a5"),
    "sliding7m-unkeyed-context-ts_max": (
        "9ad7a9cc3cfbdd0928d77289e4cbf97cbbac7fb81f5e72457fa0ad16f9b01a9a",
        "c16fff9eef3da947a7757504302546bc7e7a504af66da12ab2d32be6d40d8eef"),
    "sliding7m-unkeyed-reference-2015": (
        "b9c036ce7a8ca08fbecf8a5e74350da835fdf968fab82fa8cfc854a0da171263",
        "dddc80cdb12830e2a4c80293b958022981ffe6d95677efcc8c61afbba0831365"),
    "sliding7m-unkeyed-reference-ts_max": (
        "c5fce42fd80e9945745c6d2c3ad353c7648aee7e13e18f7df6a95a32b52c4e30",
        "f79e761d2254c2284135d08d82cebd2fb19be0cb7117dcbf6527a2bb80469a34"),
    "sliding7m-device-elements-2015": (
        "c1261cd2ea3377e3e108ca306205acc4d2694a1091266a6a32d4584f434ff985",
        "9c572c194bf08d39abc2135e78d6e00f171e2c6d907ed55ec20d123dfc6a499a"),
    "sliding7m-device-elements-ts_max": (
        "f924c118c08bf10dddd7d8a971462607fc424ae6ac46c01acdf458a77e1c07d8",
        "1153d831b62ef7cd657927730ceab94e48bddf2934f6a5b45242c1d9d7e0b46b"),
    "sliding7m-device-keyed-2015": (
        "a3e258626fb01dff3fd20000ed01b4671bb63d62013256977f3f9898ee15a132",
        "1e0ed34be1a43f1eb3f30e9f5a3b767df16ae376c3f266ff6eb59e732e7bcc70"),
    "sliding7m-device-keyed-ts_max": (
        "17d87b2fc21fd1c58e13f52dd9da51ff27c62f4b3ecadc69c148d8366227b92a",
        "e9134f978e8190784517d37c3e3a9097cfd185a54993194c64e14c076e5954d6"),
    "sliding7m-device-mean-2015": (
        "cb80f55eeaa036261b85b25565ff7cd00381f6f574058e17bba72826db16b8ee",
        "1e0ed34be1a43f1eb3f30e9f5a3b767df16ae376c3f266ff6eb59e732e7bcc70"),
    "sliding7m-device-mean-ts_max": (
        "674ab82ea0bbb3d3e5920771f5e418fc39b36737d268ece4d6df849b50a4009e",
        "e9134f978e8190784517d37c3e3a9097cfd185a54993194c64e14c076e5954d6"),
    "sliding7m-device-context-2015": (
        "e1c658573d8d611c9d0517eccfd195468352ed692530d23c40adae0ffcc0378d",
        "130c950234daaebf4c6cd7f976156d818512393796a46e3547042f062689fea7"),
    "sliding7m-device-context-ts_max": (
        "4c7e07a73bebf8e07e3a7bcb81aac8fe463dc205d3740be57adc62a8d5163108",
        "30b14d9109d4148f064f9e1f16d5a9a4798722bb149da3b028b7082072b6b09f"),
    "sliding7m-device-reference-2015": (
        "a7f53e1d79a7e89135de15635754bb62779002929ad577f41dc81dfcf2dee4b1",
        "74ec3d1025d42569c03c85cbd0fba789676116e030f183f4b0159d17ccbef0cb"),
    "sliding7m-device-reference-ts_max": (
        "43e03ebc8d61863efd414f5c915e7bf2e99ef740a3559a48e17ec1d726f589a4",
        "e3e4eae60c83cfcfb6607c67a6f025bf974733ba47a736c4cd0df3adfa02894e"),
    "tumbling3m-unkeyed-elements-2015": (
        "1780bcc2c67d384fbc8798009f86fb83def601464590a9ef70150517543a31d7",
        "4d1e00e9348bef2b8d8ea8bf37c49c38138f00608e01181d9f6b39eac3739a1e"),
    "tumbling3m-unkeyed-elements-ts_max": (
        "4b0e491c7a418abc3abedb47a7498e7405a11b7831114dddbca2dc53eaf7b051",
        "3c08845dc3e393c67ec68dad02368e2e5449484a31c42bd67c5022f5c83b1a9a"),
    "tumbling3m-unkeyed-keyed-2015": (
        "b6ee859405e876102c470ea9ff37d620a1bbdda73c667e6bcd13552e8a3c8fc9",
        "729eefe76a482a6a62b2f61308fd8cf486e5392d219f781c2a7d43d13a726e60"),
    "tumbling3m-unkeyed-keyed-ts_max": (
        "6e25f20ce69acf409dc9737e78b98e5209bd482178e87429e4a6e2e1d9b49b18",
        "bf642d59144e1011c3ccf0fc1d0e3e26169fdce7ada6ac2796bbdb084526b1cb"),
    "tumbling3m-unkeyed-mean-2015": (
        "9de655e57d79dac98a93f08b3845a6e1e5daf4c043d02cc10d43d005a3188497",
        "729eefe76a482a6a62b2f61308fd8cf486e5392d219f781c2a7d43d13a726e60"),
    "tumbling3m-unkeyed-mean-ts_max": (
        "9fcddeac054155374ff6962147ea6ca33242f3a4c5b86317776b8a0d1e5d94fd",
        "bf642d59144e1011c3ccf0fc1d0e3e26169fdce7ada6ac2796bbdb084526b1cb"),
    "tumbling3m-unkeyed-context-2015": (
        "6af78a30ffbd035e43cac1639f9a8f2a2012257fbf3783cf020feeeadeaea1b7",
        "a9357ffb7f8d64f1f7e85da4e178f44ccf837fdf93bc5653ecc8c3e5b506009e"),
    "tumbling3m-unkeyed-context-ts_max": (
        "6b203244ab264945b626c1850a9ed7c5b9e86a3d5f4cc92f5abb184bd1179c74",
        "83528dfa11def203b87703f5bdd9a24108ed0380839780d97a22517374f71dbf"),
    "tumbling3m-unkeyed-reference-2015": (
        "e54f90d535cd2bcf5afc88126c2a8872fe0c212b03c9a05a4846668af41850b3",
        "fc4c74aa4c0f8e32321142f1fd9169bf83e1cc3489d19d45d412a1e5f20d897c"),
    "tumbling3m-unkeyed-reference-ts_max": (
        "35e855e8bfd5d5dadef9025927f3426f2b2384ffeb2954e5c19bf45baadec20f",
        "bac55a1cd7618dd1aa71ed18e35425a58c0f0c671c78252ab15fb1708e58b532"),
    "tumbling3m-device-elements-2015": (
        "b38607bf242d55db5dfd2d7f223596783cb1f489b9a4d4b09924de80704ba401",
        "b5dd709bc8a291d77828b7764f9867c86cb77493f34b864e39fbde1624f8cffd"),
    "tumbling3m-device-elements-ts_max": (
        "6eb678c0d2e7043459acb72457e0c9b8c92265d4f0f5de3da104f6208116e27e",
        "05d2cccea65b16ef916c8aa38c7b5bdeb9e17cd08dd5a2c882dfe27d5912868c"),
    "tumbling3m-device-keyed-2015": (
        "cfa2f9f625882d6f17e629584995c8a7de56216b53ea627816a14c819219d230",
        "6452c9c92ee91fcd5614ec435f8e8ac5754c1c6b34418ab541d8f6d8edb83346"),
    "tumbling3m-device-keyed-ts_max": (
        "a8bc0d5cbcef7adde298f8158b053aee0e36b17f7be8416b2e8dd4492f24988c",
        "6c70e0cdbfd38c20b2f0b2f19820fff009ed181599161e9c766f0cfcc8593c37"),
    "tumbling3m-device-mean-2015": (
        "ee2d0d0ca65291323b23c243650d28fb3945d3d36136094ae54fbea9c8031a20",
        "6452c9c92ee91fcd5614ec435f8e8ac5754c1c6b34418ab541d8f6d8edb83346"),
    "tumbling3m-device-mean-ts_max": (
        "6d13d4938c7dafa568d4b02b8e5e7e2c66550be5da2195e1b5bb935a8b4a7fbf",
        "6c70e0cdbfd38c20b2f0b2f19820fff009ed181599161e9c766f0cfcc8593c37"),
    "tumbling3m-device-context-2015": (
        "3d14fc3acd54ae19add8152942e0dd37b0b63f6fc4a99cda46c27c199e0d9ba0",
        "b9d3e80bded067e7e438c324a543af4124cb3e3eabc1c048a8f1f159f849089f"),
    "tumbling3m-device-context-ts_max": (
        "e9b2abe22ef115a3c8c3e74b3711e2493ddf19802b32d74558c496b6593f73f9",
        "c97c4c9ada1a9ca4cf8f20255d1c2104c81834797a434f0e756702f975c365cf"),
    "tumbling3m-device-reference-2015": (
        "404a8c74ffa6d166ce0d356f00ef8ffadadc83d68764759560b1a0e16fa5656f",
        "598802941de78eb50aafc9b042a5ae8b78891679c8f9e168fbaeb2877cde1611"),
    "tumbling3m-device-reference-ts_max": (
        "3fd719fb906833811b9d4c247201050861befce2a2a04cbaeb3eda12e0916f18",
        "1b3af5548dff9ce9f93ca1a1d1ea04c81820ee0710f286c0de96745775ae83c1"),
    "session40s-unkeyed-elements-2015": (
        "b9f56fb34fed843ed3e043ec5e3f31232b70a1996ecc4ed4edd52d65e94e5768",
        "4fce53a672fd5bb381144fa3b58a71210e4555be3d49660048d5bb58c4993189"),
    "session40s-unkeyed-elements-ts_max": (
        "e72fd94fefb7ba9434bf1a0a5e80ac5ec03a2eabf04fdb07f083d8727dcc4d39",
        "c1ae97401512a543478ca4a08366fff42eff4a0499e2a840455d9d85921d051d"),
    "session40s-unkeyed-keyed-2015": (
        "25ffb81479296a538a39927a0a4f5256aeadb7097ff39a5114dde35841e02d38",
        "23127808e14ac9ce66e07937e5704824abb379ba7dc68c499ce99357a011f516"),
    "session40s-unkeyed-keyed-ts_max": (
        "a08dc0906a79e50b3b1e8ca73446bd4e195424656b372e9de700c3a8b1cf631a",
        "8ae8bb6bc04b33382efb5569f5db21431ac71fd9f3b06635382d58e689edc937"),
    "session40s-unkeyed-mean-2015": (
        "fe23adc0ae15f29dcee9412e6a879c8c135839d45c373095a7fced524adbe347",
        "23127808e14ac9ce66e07937e5704824abb379ba7dc68c499ce99357a011f516"),
    "session40s-unkeyed-mean-ts_max": (
        "c8fb5411982aa7a96eab98b1fb63270eca53740ff9783c3cbb67531d3d0cfd78",
        "8ae8bb6bc04b33382efb5569f5db21431ac71fd9f3b06635382d58e689edc937"),
    "session40s-unkeyed-context-2015": (
        "79cf0a0949746bddcd6bf069b4b090eb5fcb3686c64c557e664a2c83c8f81d90",
        "cad7f63c97c9ead0dfcc2f73896f3caadc5f429304137ac9b65354d903c3517c"),
    "session40s-unkeyed-context-ts_max": (
        "85cffac106e8f9e3fc75df571c8b2011ebd71dc22e7615eeb77e7d76c019349c",
        "baa6794e97081c3be5affc5233bf64dc090401e0a78f9c653568434d46f9a23c"),
    "session40s-unkeyed-reference-2015": (
        "022200b870c9dc8b7fbcfae4f3f55c7576b5349768797e831fbcdf02ca0f4a6b",
        "2b2de290d3918fdaeb3186686ac3c4c513973539a606e872823a078e8e7c6366"),
    "session40s-unkeyed-reference-ts_max": (
        "fbc80e14c87b2380124ebf5c370d8ff9d59df37cba5d149d564605d90b79af7e",
        "aafc2debc35977dd00f0aa33768acf0de4e9977befcb6634c43d9e36ea8cbd17"),
    "session40s-device-elements-2015": (
        "204f6035d28c2f0478c5bccfa12cec632252cfa2947702874ce80366c6d9227f",
        "118d8bbbdbe45cb1d64adfef998535b4269ce72cf22e9f390545ca81ec472c91"),
    "session40s-device-elements-ts_max": (
        "691993cdf51acef012e11faa735543b5034035c3dc29f315d00ef234ea46536b",
        "4b69157fe7291843ad1cf4041ae844b41f7fac33cf46b6c230d08e4b300076b6"),
    "session40s-device-keyed-2015": (
        "14f53d871f8ebd09b6c09adc150f5214e8e9605a58c7145539fff4f8c6ec250c",
        "3325207659b538cf0bc610f2b8c18bcc5cbcd502f85935d3534bac9066bf60a3"),
    "session40s-device-keyed-ts_max": (
        "0638b64b6dcebf16adb56adb8665968eaaa0befc2c2f58e40fb67c325233d78a",
        "1ac89e353ecb12f15ae44380a09b2a139c6e5ac20c27bc9be6e84c2f213904a7"),
    "session40s-device-mean-2015": (
        "a6fd1b85d8bf8b1d830a32cf9b986f69a45fcbb8ae0d913ecf06653f4f89d451",
        "3325207659b538cf0bc610f2b8c18bcc5cbcd502f85935d3534bac9066bf60a3"),
    "session40s-device-mean-ts_max": (
        "17fd4641969c3549c49b8d1b0a83a4e7bf2e6a15363ad596f7a0e9f5f17ac087",
        "1ac89e353ecb12f15ae44380a09b2a139c6e5ac20c27bc9be6e84c2f213904a7"),
    "session40s-device-context-2015": (
        "5ea6dd819adc353d78a17106308d566a571f8bc3da772b312846a8e6770cfc1b",
        "4f26768658ecb9a3b106c27db663adb4e5c1ff2be145d0302b3f757b7adb94b2"),
    "session40s-device-context-ts_max": (
        "12537dc869676c334a3b9cfe5fb241e20860c160a14c5c73a5783160e6c1ef04",
        "3a9be721d8799c63c45e4070b3130a687e9b663e2d29945e75678f59849817f9"),
    "session40s-device-reference-2015": (
        "8466ad006383dde81c464bb948c5717fc2ce5088ef344a2026b904991228cf77",
        "66fff1fdb1e7d78e6b8e690a167fa92ce41e27af5ce78a4c7977285611895dde"),
    "session40s-device-reference-ts_max": (
        "a4fa315f34336fde8eb32a9671cc0d1cc575373ec8a4d74cd701172100cea88d",
        "f2196a15c74e1f9eed00eeacdffb1d93d3759c6d059b87d162e1e34d80752b8c"),
}


def _sha(lines: list[str]) -> str:
    return hashlib.sha256("".join(line + "\n" for line in lines).encode()).hexdigest()


def routing_run(case: str, meta_sink) -> tuple[list, list[CheckDefinition], MonitorEngine, ListSink]:
    """A case's rows driven through a new engine (window-key-suite-era);
    returns the rows, the checks, the engine and its side sink."""
    window, key, suite, era = case.split("-")
    rows = routing_stream(era == "ts_max")
    if suite in ("context", "reference"):
        # A zone and a device first seen halfway: their contexts warm then.
        renamed = {"c": "d", "d3": "d4"}
        rows = rows[:750] + [elem(e.event_time, e.arrival_seq, **{
            column: renamed.get(v, v) for column, v in e.attrs.items()}) for e in rows[750:]]
    side = ListSink()
    suite_checks = routing_checks(suite)
    state = SuiteState(suite_checks, SCHEMA, ROUTING_WINDOWS[window],
                       references={"floors": floors(rows)})
    engine = MonitorEngine(state, watermark_delay=timedelta(seconds=10),
                           key_by=None if key == "unkeyed" else key,
                           meta_sink=meta_sink, side_sink=side)
    for e in rows:
        engine.process(e)
    engine.finish()
    return rows, suite_checks, engine, side


def routing_digests(case: str) -> tuple[str, str]:
    window, key, suite, era = case.split("-")
    meta = ListSink()
    _, _, engine, side = routing_run(case, meta)
    assert engine.stats.discarded > 0
    assert (engine.stats.late_accepted > 0) == (window != "sliding7m")  # the one without lateness
    assert engine.stats.side_routed == len(side.lines) > 0
    if era == "ts_max":
        assert any('"window_end":"9999-12-31T23:59:59.999Z"' in line for line in meta.lines)
    if suite in ("context", "reference"):  # some panes are not judged, and some are
        skipped = '"warming":true' if suite == "context" else '"reference_miss"'
        assert any(skipped in line for line in meta.lines)
        assert any('"element_ref"' in line for line in meta.lines)
    return _sha(meta.lines), _sha(side.lines)


@pytest.mark.parametrize("case", ROUTING_CASES)
def test_failing_rows_route_from_the_first_pane_failing_them(case):
    """Overlapping, tumbling and session panes, unkeyed and keyed, judged
    on arrival or not, with late and discarded rows, near 2015 and with
    pane ends clamped at TS_MAX, with checks that warm or miss their
    reference in some panes: the meta and side bytes are pinned."""
    assert routing_digests(case) == ROUTING_PINS[case]


# A session store keyed by a nullable column, with a keyed check that warms.
ORACLE_CASES = ROUTING_CASES + ["session40s-zone-context-2015"]


@pytest.mark.parametrize("case", ORACLE_CASES)
def test_side_lines_are_each_failing_rows_first_records(case):
    """An oracle from the meta records alone: each row with per-element
    records has one side line, from its pane with the smallest (end,
    start), listing the checks of its records there in config order."""
    rows, suite_checks, engine, side = routing_run(case, None)
    by_seq = {e.arrival_seq: e for e in rows}
    order = {check.id: i for i, check in enumerate(suite_checks)}
    first: dict[int, tuple] = {}
    for r in engine.collected:
        if r.detail is not None and "element_ref" in r.detail:
            seq, bounds = r.detail["element_ref"], (r.window_end, r.window_start)
            if seq not in first or bounds < first[seq][0]:
                first[seq] = (bounds, set())
            if bounds == first[seq][0]:
                first[seq][1].add(r.check_id)
    want = [old_side_line(by_seq[seq], sorted(ids, key=order.get))
            for seq, (_, ids) in first.items()]
    assert want
    assert sorted(side.lines) == sorted(want)
