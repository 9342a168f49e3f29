"""The meta and side streams against a reference emitter.

The reference sorts all of a batch's records with MetaRecord.order_key (one
stable sort) and renders each as json.dumps of its full dict, and it routes
each failing element once, remembering every seq it has routed. The engine
streams each run of panes sharing a window end, renders shared fields once
per key group, and forgets routed seqs that no open pane can hold again; its
bytes must be the reference's.
"""

from __future__ import annotations

import json
import math
import random
import struct
import sys
from datetime import timedelta

import pytest

from streamqc.model import (
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
# Routed seqs stay bounded


@pytest.mark.parametrize("kind", ["sliding", "session"])
def test_routed_seqs_stay_within_one_pane_span(kind):
    """Every row fails, forever: the routed set holds at most one pane
    span of rows (none between session batches), and the side stream is
    the reference's."""
    window = (WindowSpec("sliding", duration=5 * MIN, slide=MIN) if kind == "sliding"
              else WindowSpec("session", gap=timedelta(seconds=20)))
    check = CheckDefinition(id="fare_complete",
                            measure=MeasureSpec("completeness", {"column": "fare"}),
                            constraint=Threshold(">=", 1.0), emit_per_element=True)
    meta, side = ListSink(), ListSink()
    engine = MonitorEngine(SuiteState([check], SCHEMA, window),
                           watermark_delay=timedelta(seconds=30),
                           key_by="device" if kind == "session" else None,
                           meta_sink=meta, side_sink=side)
    batches = record_batches(engine)
    rng = random.Random(11)
    span_rows = 5 * 60 // 5  # one row per 5 s over a 5m pane
    held = 0
    for seq in range(3000):
        t = at(seq * 5 + rng.uniform(-20, 0))
        engine.process(elem(t, seq, device=rng.choice(["d1", "d2"]), fare=None))
        held = max(held, len(engine._routed))
    engine.finish()
    assert held <= (span_rows if kind == "sliding" else 0)
    assert engine.stats.side_routed == 3000 - engine.stats.discarded
    _, want_side, _ = reference(SuiteState([check], SCHEMA, window), batches)
    assert side.lines == want_side


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
