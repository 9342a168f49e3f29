"""Assessment state machine: contexts, references, detectors, emission."""

import json
import math
import random
from collections import Counter
from dataclasses import replace
from datetime import timedelta

import pytest

from streamqc import expression, measures
from streamqc.model import (
    CheckDefinition,
    ColumnSpec,
    ContextSpec,
    MeasureSpec,
    MetaRecord,
    Predicate,
    ReferenceSpec,
    Threshold,
    ValueRange,
    WindowInstance,
    WindowSpec,
    canonical_bytes,
)
from streamqc.monitor import (
    ContextState,
    DeadStreamSpec,
    DetectorSpecs,
    FrozenColumnSpec,
    MonitorEngine,
    ReferenceTable,
    SuiteState,
    relative_volume_check,
    validate_suite,
)
from streamqc.sketches import CardinalityEstimator
from streamqc.windowing import PaneStore, Watermark

from helpers import T0, at, elem, elems, values_win, win

MIN = timedelta(minutes=1)

SCHEMA = [
    ColumnSpec("t", "timestamp"),
    ColumnSpec("fare", "float", nullable=True),
    ColumnSpec("zone", "text", nullable=True),
]
TUMBLING = WindowSpec("tumbling", duration=MIN)


def suite(checks, *, window=TUMBLING, schema=None, **kwargs):
    return SuiteState(checks, schema or SCHEMA, window, **kwargs)


def fare_elems(values, start=None, step_s=10.0, seq0=0):
    start = start or T0
    return [elem(start + timedelta(seconds=i * step_s), seq0 + i, fare=v)
            for i, v in enumerate(values)]


def pane(values, start, end, seq0=0):
    return win(fare_elems(values, start=start, seq0=seq0), start=start, end=end)


class ListSink:
    def __init__(self):
        self.lines = []

    def write_line(self, line):
        self.lines.append(line)


# ---------------------------------------------------------------------------
# ContextState


def test_context_selection_oracle():
    ctx = ContextState(horizon=timedelta(minutes=3))
    ctx.fold(at(60), 1, 1)
    ctx.fold(at(120), 2, 2)
    ctx.fold(at(180), 4, 4)
    ctx.fold(at(240), 6, 6)
    # Window starting at 11:04 sees ends in (11:01, 11:04]: values 2, 4, 6.
    b = ctx.bindings(at(240))
    assert b["mu_H"] == 4.0
    assert b["sigma_H"] == pytest.approx(math.sqrt(8 / 3))
    assert b["count_H"] == 12
    assert b["prev_value"] == 6


def test_context_evicts_stale_entries():
    ctx = ContextState(horizon=timedelta(minutes=2))
    ctx.fold(at(60), 100, 1)
    ctx.fold(at(120), 2, 1)
    ctx.fold(at(180), 4, 1)
    # Selection is ends in (start - H, start]: 11:02 sits exactly on the open
    # edge for a start of 11:04, so only the end-11:03 entry survives.
    b = ctx.bindings(at(240))
    assert b["mu_H"] == 4.0 and b["count_H"] == 1
    assert len(ctx._entries) == 1


def test_context_excludes_overlapping_future_panes():
    # Sliding panes fold in end order but a pane starting earlier than a
    # folded end must not see it.
    ctx = ContextState(horizon=timedelta(minutes=5))
    ctx.fold(at(300), 10, 1)
    ctx.fold(at(360), 20, 1)
    b = ctx.bindings(at(300))
    assert b["mu_H"] == 10.0 and b["prev_value"] == 10


def test_context_warming_boundary():
    ctx = ContextState(horizon=timedelta(minutes=3))
    assert ctx.warming(at(0))
    ctx.fold(at(60), 1, 1)
    assert ctx.warming(at(180))      # 11:03 < 11:01 + 3m
    assert not ctx.warming(at(240))  # one full horizon observed


def test_context_null_values_skip_statistics_not_counts():
    ctx = ContextState(horizon=timedelta(minutes=3))
    ctx.fold(at(60), None, 5)
    ctx.fold(at(120), 8, 3)
    b = ctx.bindings(at(180))
    assert b["mu_H"] == 8.0 and b["sigma_H"] == 0.0
    assert b["count_H"] == 8
    assert b["prev_value"] == 8


def test_context_empty_history_binds_nulls():
    ctx = ContextState(horizon=timedelta(minutes=3))
    assert ctx.bindings(at(0)) == {
        "mu_H": None, "sigma_H": None, "count_H": 0, "prev_value": None}


# ---------------------------------------------------------------------------
# Plain checks through SuiteState


def mean_check(**kwargs):
    return CheckDefinition(id="fare_mean", measure=MeasureSpec("mean", {"column": "fare"}),
                           constraint=Threshold("<=", 10.0), **kwargs)


def test_simple_check_pass_fail():
    st = suite([mean_check()])
    ok_pane = pane([9.0, 9.5], at(0), at(60))
    bad_pane = pane([11.0, 12.0], at(60), at(120), seq0=2)
    records, failing = st.on_window_close(ok_pane)
    assert [r.check_id for r in records] == ["fare_mean"]
    assert records[0].ok is True and records[0].value == 9.25
    assert failing == {}
    records, _ = st.on_window_close(bad_pane)
    assert records[0].ok is False and records[0].value == 11.5


def test_range_and_predicate_constraints():
    checks = [
        CheckDefinition(id="fare_range", measure=MeasureSpec("mean", {"column": "fare"}),
                        constraint=ValueRange(5.0, 10.0)),
        CheckDefinition(id="fare_pred", measure=MeasureSpec("mean", {"column": "fare"}),
                        constraint=Predicate("value * 2 < 25")),
    ]
    st = suite(checks)
    records, _ = st.on_window_close(pane([12.0, 12.4], at(0), at(60)))
    by_id = {r.check_id: r for r in records}
    assert by_id["fare_range"].ok is False
    assert by_id["fare_pred"].ok is True  # 24.4 < 25


def test_null_verdict_fail_and_skip():
    st = suite([
        mean_check(),
        CheckDefinition(id="fare_mean_soft", measure=MeasureSpec("mean", {"column": "fare"}),
                        constraint=Threshold("<=", 10.0), null_verdict="skip"),
    ])
    records, _ = st.on_window_close(pane([None, None], at(0), at(60)))
    by_id = {r.check_id: r for r in records}
    assert by_id["fare_mean"].ok is False and by_id["fare_mean"].value is None
    soft = by_id["fare_mean_soft"]
    assert soft.ok is True and soft.value is None
    assert soft.detail == {"skipped_null": True}


def test_force_fail_overrides_satisfied_constraint():
    check = CheckDefinition(
        id="zones_proper",
        measure=MeasureSpec("in_set", {"column": "zone", "allowed": ["A", "B"],
                                       "proper": True}),
        constraint=Threshold(">=", 1.0))
    st = suite([check])
    w = win([elem(at(0), 0, zone="A"), elem(at(1), 1, zone="B")],
            start=at(0), end=at(60))
    records, _ = st.on_window_close(w)
    assert records[0].value == 1.0
    assert records[0].ok is False
    assert records[0].detail == {"proper_subset_violated": True}


# ---------------------------------------------------------------------------
# Keyed checks


def test_keyed_checks_emit_per_key_in_canonical_order():
    check = CheckDefinition(id="zone_volume", measure=MeasureSpec("volume"),
                            constraint=Threshold(">=", 2), key_by="zone")
    st = suite([check])
    w = win([
        elem(at(0), 0, zone="uptown"),
        elem(at(1), 1, zone="airport"),
        elem(at(2), 2, zone=None),  # Null key: dropped from keyed assessment
        elem(at(3), 3, zone="airport"),
    ], start=at(0), end=at(60))
    records, _ = st.on_window_close(w)
    assert [(r.key, r.value, r.ok) for r in records] == [
        ("airport", 2, True),
        ("uptown", 1, False),
    ]


def test_keyed_context_series_are_independent():
    check = CheckDefinition(
        id="zone_volume", measure=MeasureSpec("volume"),
        constraint=Predicate("value >= mu_H"), key_by="zone",
        context=ContextSpec(horizon=MIN))
    st = suite([check])

    def zp(start, end, zones, seq0):
        return win([elem(start, seq0 + i, zone=z) for i, z in enumerate(zones)],
                   start=start, end=end)

    r1, _ = st.on_window_close(zp(at(0), at(60), ["a", "a", "b"], 0))
    assert all(r.ok and r.detail == {"warming": True} for r in r1)
    r2, _ = st.on_window_close(zp(at(60), at(120), ["a", "a", "b"], 3))
    assert all(r.ok and r.detail == {"warming": True} for r in r2)
    r3, _ = st.on_window_close(zp(at(120), at(180), ["a", "b", "b"], 6))
    by_key = {r.key: r for r in r3}
    # Context covers the prior pane only (horizon = one window).
    assert by_key["a"].ok is False  # 1 < mu_H 2 for a's own series
    assert by_key["b"].ok is True   # 2 >= 1


# ---------------------------------------------------------------------------
# Context through the suite (warming, fold-after-bindings)


def test_context_warming_then_assessment():
    check = CheckDefinition(
        id="vol_drift", measure=MeasureSpec("volume"),
        constraint=Predicate("value >= 0.5 * mu_H"),
        context=ContextSpec(horizon=timedelta(minutes=3)))
    st = suite([check])
    volumes = [2, 2, 2, 2, 0]  # five tumbling panes; last one collapses
    seq = 0
    out = []
    for i, v in enumerate(volumes):
        w = pane([1.0] * v, at(60 * i), at(60 * (i + 1)), seq0=seq)
        seq += v
        records, _ = st.on_window_close(w)
        out.append(records[0])
    # Panes 1..4 warm up (history spans < horizon at their starts).
    for r in out[:4]:
        assert r.ok is True and r.detail == {"warming": True}
    # Pane 5 assessed: mu_H over ends 11:02..11:04 is 2; 0 < 1 fails.
    assert out[4].ok is False and out[4].value == 0


def test_window_never_sees_itself_in_context():
    check = CheckDefinition(
        id="vol", measure=MeasureSpec("volume"),
        constraint=Predicate("value = prev_value"),
        context=ContextSpec(horizon=MIN))
    st = suite([check])
    st.on_window_close(pane([1.0, 2.0], at(0), at(60)))
    records, _ = st.on_window_close(pane([3.0, 4.0], at(60), at(120), seq0=2))
    # prev_value is the prior pane's volume, not this pane's.
    assert records[0].ok is True and records[0].value == 2


def test_relative_volume_check_builder():
    check = relative_volume_check("vol_band", 0.5, 2.0, horizon=timedelta(minutes=2))
    st = suite([check])
    seq = 0
    results = []
    for i, v in enumerate([4, 4, 4, 4, 1]):
        w = pane([1.0] * v, at(60 * i), at(60 * (i + 1)), seq0=seq)
        seq += v
        records, _ = st.on_window_close(w)
        results.append((records[0].ok, records[0].detail))
    # Warming until a start lies a full horizon past the first fold (11:03).
    assert results[:3] == [(True, {"warming": True})] * 3
    assert results[3] == (True, None)   # 4 within [2, 8] of mu_H 4
    assert results[4] == (False, None)  # 1 below 0.5 * 4


# ---------------------------------------------------------------------------
# Reference tables


def ref_table():
    return ReferenceTable(
        table_id="hourly", key_column="hour", columns=("hour", "max_mean"),
        rows={canonical_bytes(11): {"hour": 11, "max_mean": 10.0}},
        default_row={"hour": "*", "max_mean": 99.0})


def ref_check(key_expr="hour_of(window_start)"):
    return CheckDefinition(
        id="fare_vs_ref", measure=MeasureSpec("mean", {"column": "fare"}),
        constraint=Predicate("value <= ref_max_mean"),
        reference=ReferenceSpec(table="hourly", key_expr=key_expr))


def test_reference_hit_binds_row_columns():
    st = suite([ref_check()], references={"hourly": ref_table()})
    records, _ = st.on_window_close(pane([9.0, 9.5], at(0), at(60)))
    assert records[0].ok is True
    records, _ = st.on_window_close(pane([11.0, 12.0], at(60), at(120), seq0=2))
    assert records[0].ok is False


def test_reference_default_row_catches_unknown_keys():
    st = suite([ref_check()], references={"hourly": ref_table()})
    late = T0 + timedelta(hours=3)  # hour 14: no explicit row, "*" applies
    records, _ = st.on_window_close(pane([50.0], late, late + MIN))
    assert records[0].ok is True  # 50 <= 99 from the default row


def test_reference_miss_fails_with_detail():
    table = ReferenceTable(table_id="hourly", key_column="hour",
                           columns=("hour", "max_mean"),
                           rows={canonical_bytes(11): {"hour": 11, "max_mean": 10.0}})
    st = suite([ref_check()], references={"hourly": table})
    late = T0 + timedelta(hours=3)
    records, _ = st.on_window_close(pane([1.0], late, late + MIN))
    r = records[0]
    assert r.ok is False and r.value is None
    assert r.detail == {"reference_miss": 14}


# ---------------------------------------------------------------------------
# Per-element emission and side routing


def pe_check(**kwargs):
    return CheckDefinition(
        id="fare_nonneg",
        measure=MeasureSpec("valid_range", {"column": "fare", "lo": 0.0}),
        constraint=Threshold(">=", 1.0), emit_per_element=True, **kwargs)


def test_per_element_records_only_for_failures():
    st = suite([pe_check()])
    w = win([elem(at(0), 0, fare=5.0), elem(at(1), 1, fare=-2.0),
             elem(at(2), 2, fare=None), elem(at(3), 3, fare=7.0)],
            start=at(0), end=at(60))
    records, failing = st.on_window_close(w)
    assert [r.detail.get("element_ref") if r.detail else None for r in records] == \
        [None, 1, 2]  # window record first, then failing elements by seq
    elem_records = records[1:]
    assert all(r.value is False and r.ok is False for r in elem_records)
    assert sorted(failing) == [1, 2]
    assert failing[1][1] == ["fare_nonneg"]


def test_per_element_skip_nulls_when_lenient():
    st = suite([pe_check(null_verdict="skip")])
    w = win([elem(at(0), 0, fare=-1.0), elem(at(1), 1, fare=None)],
            start=at(0), end=at(60))
    records, failing = st.on_window_close(w)
    # The Null cell produces no element record under skip; -1.0 still does.
    refs = [r.detail["element_ref"] for r in records if r.detail]
    assert refs == [0]
    assert sorted(failing) == [0]


def test_warming_suppresses_per_element_records():
    check = CheckDefinition(
        id="fare_nonneg",
        measure=MeasureSpec("valid_range", {"column": "fare", "lo": 0.0}),
        constraint=Predicate("value >= mu_H"), emit_per_element=True,
        context=ContextSpec(horizon=MIN))
    st = suite([check])
    records, failing = st.on_window_close(pane([-5.0], at(0), at(60)))
    assert len(records) == 1 and records[0].detail == {"warming": True}
    assert failing == {}


def test_failing_element_collects_all_rejecting_checks():
    second = CheckDefinition(
        id="fare_cap",
        measure=MeasureSpec("valid_range", {"column": "fare", "hi": 100.0}),
        constraint=Threshold(">=", 1.0), emit_per_element=True)
    st = suite([pe_check(), second])
    w = win([elem(at(0), 0, fare=-1.0)], start=at(0), end=at(60))
    _, failing = st.on_window_close(w)
    assert failing[0][1] == ["fare_nonneg"]  # -1 is under the cap, over nothing


# ---------------------------------------------------------------------------
# Detectors


def empty_pane(start, end):
    return WindowInstance(start=start, end=end)


def test_dead_stream_alert_and_auto_recovery():
    st = suite([mean_check()],
               detectors=DetectorSpecs(dead=DeadStreamSpec(threshold=timedelta(minutes=3))))
    outs = []
    panes = [
        pane([1.0], at(0), at(60)),
        empty_pane(at(60), at(120)),
        empty_pane(at(120), at(180)),
        empty_pane(at(180), at(240)),
        empty_pane(at(240), at(300)),
        pane([2.0], at(300), at(360), seq0=1),
    ]
    for w in panes:
        records, _ = st.on_window_close(w)
        outs.append([r for r in records if r.check_id == "_dead_stream"])
    assert outs[0] == [] and outs[1] == [] and outs[2] == []
    alert = outs[3][0]  # silence spans [11:01, 11:04) = 3 minutes: alert fires
    assert alert.ok is False and alert.value == 180.0
    assert alert.detail == {"silent_since": "2015-05-07T11:01:00.000Z"}
    assert outs[4] == []  # already alerted: stay quiet while still dead
    recovery = outs[5][0]
    assert recovery.ok is True and recovery.detail == {"recovered": True}
    assert recovery.value == 240.0  # the full silent span, for the record


def test_dead_stream_manual_restart_skips_recovery():
    st = suite([mean_check()],
               detectors=DetectorSpecs(dead=DeadStreamSpec(threshold=MIN, restart="manual")))
    st.on_window_close(empty_pane(at(0), at(60)))
    records, _ = st.on_window_close(pane([1.0], at(60), at(120)))
    assert [r for r in records if r.check_id == "_dead_stream"] == []


def test_frozen_column_alert_recovery_and_null_skip():
    st = suite([mean_check()],
               detectors=DetectorSpecs(frozen=(FrozenColumnSpec("fare", windows=3),)))

    def frozen_records(w):
        records, _ = st.on_window_close(w)
        return [r for r in records if r.check_id == "_frozen_stream.fare"]

    assert frozen_records(pane([5.0, 5.0], at(0), at(60))) == []
    assert frozen_records(pane([None], at(60), at(120), seq0=2)) == []  # no evidence
    assert frozen_records(pane([5.0], at(120), at(180), seq0=3)) == []
    alert = frozen_records(pane([5.0], at(180), at(240), seq0=4))[0]
    assert alert.ok is False and alert.value == 5.0
    assert alert.detail == {"column": "fare", "windows": 3}
    # Still frozen: no repeat alert.
    assert frozen_records(pane([5.0], at(240), at(300), seq0=5)) == []
    recovery = frozen_records(pane([5.0, 7.0], at(300), at(360), seq0=6))[0]
    assert recovery.ok is True and recovery.value == 2
    assert recovery.detail == {"column": "fare", "recovered": True}


def test_frozen_streak_resets_on_distinct_values():
    st = suite([mean_check()],
               detectors=DetectorSpecs(frozen=(FrozenColumnSpec("fare", windows=2),)))
    st.on_window_close(pane([5.0], at(0), at(60)))
    st.on_window_close(pane([5.0, 6.0], at(60), at(120), seq0=1))
    records, _ = st.on_window_close(pane([5.0], at(120), at(180), seq0=3))
    assert [r for r in records if r.check_id.startswith("_frozen")] == []


def test_frozen_detector_keyed_by_sensor():
    st = suite([mean_check()],
               detectors=DetectorSpecs(frozen=(FrozenColumnSpec("fare", windows=2,
                                                                key_by="zone"),)))

    def zp(start, end, rows, seq0):
        return win([elem(start, seq0 + i, fare=f, zone=z)
                    for i, (z, f) in enumerate(rows)], start=start, end=end)

    st.on_window_close(zp(at(0), at(60), [("a", 1.0), ("b", 1.0)], 0))
    records, _ = st.on_window_close(zp(at(60), at(120), [("a", 1.0), ("b", 2.0)], 2))
    frozen = [r for r in records if r.check_id == "_frozen_stream.fare"]
    assert [(r.key, r.ok) for r in frozen] == [("a", False)]


# ---------------------------------------------------------------------------
# Engine loop: late discards, routing dedup, determinism


def engine_with(checks, **kwargs):
    st = suite(checks, window=kwargs.pop("window", TUMBLING))
    return MonitorEngine(st, **kwargs)


def drive(engine, elements):
    for e in elements:
        engine.process(e)
    engine.finish()


def test_late_discards_accounting():
    eng = engine_with([mean_check()], watermark_delay=MIN)
    stream = [
        elem(at(10), 0, fare=1.0),
        elem(at(130), 1, fare=1.0),   # wm 11:01:10: pane [11:00,11:01) closes
        elem(at(5), 2, fare=1.0),     # below wm with zero lateness: discarded
        elem(at(250), 3, fare=1.0),   # closes [11:01,11:02) and [11:02,11:03)
    ]
    drive(eng, stream)
    assert eng.stats.discarded == 1
    assert eng.stats.assigned == 3
    discards = [r for r in eng.collected if r.check_id == "_late_discards"]
    # One record per closed pane (grid fills [11:00,11:05) with five panes);
    # deltas sum to the discard counter.
    assert len(discards) == eng.stats.panes_closed == 5
    assert sum(r.value for r in discards) == 1
    flagged = [r for r in discards if r.value]
    assert len(flagged) == 1
    assert flagged[0].window_start == at(60)  # first pane of the next batch
    assert flagged[0].ok is False and flagged[0].detail == {"total": 1}
    clean = [r for r in discards if not r.value]
    assert all(r.ok is True and r.detail is None for r in clean)


def test_late_accepted_element_is_assessed():
    lenient = WindowSpec("tumbling", duration=MIN, allowed_lateness=3 * MIN)
    eng = engine_with([mean_check()], window=lenient, watermark_delay=MIN)
    stream = [
        elem(at(30), 0, fare=1.0),
        elem(at(200), 1, fare=2.0),  # wm 11:02:20; lateness keeps panes open
        elem(at(90), 2, fare=4.0),   # behind the watermark but inside lateness
    ]
    drive(eng, stream)
    assert eng.stats.late_accepted == 1
    assert eng.stats.discarded == 0
    means = {r.window_start: r.value for r in eng.collected if r.check_id == "fare_mean"}
    assert means[at(60)] == 4.0  # the late element got its pane


def test_side_routing_dedupes_across_sliding_panes():
    check = pe_check()
    st = SuiteState([check], SCHEMA, WindowSpec("sliding", duration=2 * MIN, slide=MIN))
    side = ListSink()
    eng = MonitorEngine(st, side_sink=side)
    meta = ListSink()
    eng.meta_sink = meta
    eng.collected = None
    drive(eng, [elem(at(70), 0, fare=-4.0)])
    # The element fails in both panes [11:00,11:02) and [11:01,11:03)
    assert eng.stats.side_routed == 1
    assert len(side.lines) == 1
    parsed = json.loads(side.lines[0])
    assert parsed == {
        "seq": 0,
        "event_time": "2015-05-07T11:01:10.000Z",
        "checks": ["fare_nonneg"],
        "attrs": {"fare": -4.0},
    }
    per_elem = [l for l in meta.lines if "element_ref" in l]
    assert len(per_elem) == 2  # meta keeps both pane verdicts


def test_emitted_lines_have_wire_key_order():
    meta = ListSink()
    st = suite([mean_check()])
    eng = MonitorEngine(st, meta_sink=meta)
    drive(eng, fare_elems([4.0, 5.0]))
    obj = json.loads(meta.lines[0])
    assert list(obj) == ["window_start", "window_end", "key", "check",
                         "value", "ok", "detail"]


def test_two_runs_are_byte_identical():
    def one_run():
        meta = ListSink()
        st = suite([mean_check(), pe_check()])
        eng = MonitorEngine(st, watermark_delay=MIN, meta_sink=meta)
        stream = [elem(at(i * 7 % 300), i, fare=float(i % 13) - 2.0)
                  for i in range(120)]
        drive(eng, stream)
        return meta.lines

    assert one_run() == one_run()


def test_batch_records_sorted_globally():
    # Close two panes in one batch; records interleave by (end, key, check).
    st = suite([mean_check()])
    eng = MonitorEngine(st, watermark_delay=timedelta(0))
    drive(eng, [elem(at(10), 0, fare=1.0), elem(at(70), 1, fare=2.0),
                elem(at(260), 2, fare=3.0)])
    keys = [r.order_key() for r in eng.collected]
    assert keys == sorted(keys)
    ends = [r.window_end for r in eng.collected]
    assert ends == sorted(ends)


def test_stats_snapshot():
    eng = engine_with([mean_check()], watermark_delay=MIN)
    drive(eng, fare_elems([1.0, 2.0, 3.0]))
    d = eng.stats.as_dict()
    assert d["read"] == 3 and d["assigned"] == 3 and d["discarded"] == 0
    assert d["panes_closed"] == 1
    assert d["records_emitted"] == len(eng.collected)


# ---------------------------------------------------------------------------
# Suite validation


def errs(checks, **kwargs):
    return validate_suite(checks, kwargs.pop("schema", SCHEMA),
                          kwargs.pop("window", TUMBLING), **kwargs)


def test_validate_clean_suite():
    assert errs([mean_check(), pe_check()]) == []


def test_validate_duplicate_ids():
    assert any("duplicate" in e for e in errs([mean_check(), mean_check()]))


def test_validate_unknown_measure_and_params():
    bad = CheckDefinition(id="x", measure=MeasureSpec("meen", {}),
                          constraint=Threshold(">", 0))
    assert errs([bad])
    bad2 = CheckDefinition(id="x", measure=MeasureSpec("mean", {"column": "ghost"}),
                           constraint=Threshold(">", 0))
    assert any("ghost" in e for e in errs([bad2]))


def test_validate_key_by_must_exist():
    c = CheckDefinition(id="x", measure=MeasureSpec("volume"),
                        constraint=Threshold(">", 0), key_by="ghost")
    assert any("key_by" in e for e in errs([c]))


def test_validate_match_ratio_needs_secondary_and_no_key():
    c = CheckDefinition(id="x", measure=MeasureSpec("match_ratio", {"on": "zone"}),
                        constraint=Threshold(">=", 1.0))
    assert any("secondary" in e for e in errs([c]))
    assert errs([c], has_secondary=True) == []
    keyed = CheckDefinition(id="x", measure=MeasureSpec("match_ratio", {"on": "zone"}),
                            constraint=Threshold(">=", 1.0), key_by="zone")
    assert any("key_by" in e for e in errs([keyed], has_secondary=True))


def test_validate_per_element_needs_element_form():
    c = CheckDefinition(id="x", measure=MeasureSpec("mean", {"column": "fare"}),
                        constraint=Threshold(">", 0), emit_per_element=True)
    assert any("per-element" in e for e in errs([c]))


def test_validate_horizon_against_duration():
    c = CheckDefinition(id="x", measure=MeasureSpec("volume"),
                        constraint=Predicate("value > mu_H"),
                        context=ContextSpec(horizon=timedelta(seconds=30)))
    assert any("horizon" in e for e in errs([c]))
    # Sessions have no fixed duration to compare against.
    assert errs([c], window=WindowSpec("session", gap=MIN)) == []


def test_validate_predicate_names_and_syntax():
    broken = CheckDefinition(id="x", measure=MeasureSpec("volume"),
                             constraint=Predicate("value >"))
    assert errs([broken])
    unknown = CheckDefinition(id="x", measure=MeasureSpec("volume"),
                              constraint=Predicate("value > mu_H"))
    assert any("mu_H" in e for e in errs([unknown]))  # no context declared


def test_validate_constraint_type_compatibility():
    text_bound = CheckDefinition(id="x", measure=MeasureSpec("mean", {"column": "fare"}),
                                 constraint=Threshold("<=", "ten"))
    assert errs([text_bound])
    bool_order = CheckDefinition(id="x", measure=MeasureSpec("schema_check",
                                                             {"expected": ["fare"]}),
                                 constraint=Threshold(">", True))
    assert errs([bool_order])
    bool_eq = CheckDefinition(id="x", measure=MeasureSpec("schema_check",
                                                          {"expected": ["fare"]}),
                              constraint=Threshold("=", True))
    assert errs([bool_eq]) == []


def test_validate_reference_bits():
    missing = CheckDefinition(id="x", measure=MeasureSpec("mean", {"column": "fare"}),
                              constraint=Threshold("<=", 1.0),
                              reference=ReferenceSpec("ghost", "hour_of(window_start)"))
    assert any("ghost" in e for e in errs([missing]))
    bad_key = CheckDefinition(id="x", measure=MeasureSpec("mean", {"column": "fare"}),
                              constraint=Threshold("<=", 1.0),
                              reference=ReferenceSpec("hourly", "hour_of(fare)"))
    assert any("fare" in e for e in errs([bad_key], references={"hourly": ref_table()}))


def test_validate_detectors():
    assert any("threshold" in e for e in errs(
        [], detectors=DetectorSpecs(dead=DeadStreamSpec(threshold=timedelta(0)))))
    assert any("restart" in e for e in errs(
        [], detectors=DetectorSpecs(dead=DeadStreamSpec(threshold=MIN, restart="later"))))
    assert any("session" in e or "tumbling" in e for e in errs(
        [], window=WindowSpec("session", gap=MIN),
        detectors=DetectorSpecs(dead=DeadStreamSpec(threshold=MIN))))
    assert any("frozen" in e for e in errs(
        [], detectors=DetectorSpecs(frozen=(FrozenColumnSpec("ghost", windows=2),))))
    assert any("windows" in e for e in errs(
        [], detectors=DetectorSpecs(frozen=(FrozenColumnSpec("fare", windows=0),))))


def test_suite_state_refuses_invalid():
    with pytest.raises(ValueError, match="invalid suite"):
        suite([mean_check(), mean_check()])


# ---------------------------------------------------------------------------
# Sliding panes assessed from slices


def test_sliced_panes_assess_like_whole_panes():
    """Records from slice-built panes equal those from the same panes with
    no parts, for unkeyed, keyed, context and detector paths."""
    window = WindowSpec("sliding", duration=10 * MIN, slide=4 * MIN)  # 2m slices
    checks = [
        mean_check(),
        CheckDefinition(id="fare_std", measure=MeasureSpec("std", {"column": "fare"}),
                        constraint=Threshold(">=", 0.0)),
        CheckDefinition(id="fare_complete",
                        measure=MeasureSpec("completeness", {"column": "fare"}),
                        constraint=Threshold(">=", 0.5)),
        CheckDefinition(id="zones", measure=MeasureSpec("distinct_count", {"column": "zone"}),
                        constraint=Threshold(">", 0)),
        CheckDefinition(id="zones_approx",
                        measure=MeasureSpec("distinct_count",
                                            {"column": "fare", "mode": "approx"}),
                        constraint=Threshold(">", 0)),
        CheckDefinition(id="fare_unique", measure=MeasureSpec("uniqueness", {"column": "fare"}),
                        constraint=Threshold(">=", 0.5)),
        CheckDefinition(id="zone_mean", measure=MeasureSpec("mean", {"column": "fare"}),
                        key_by="zone", context=ContextSpec(horizon=20 * MIN),
                        constraint=Predicate("value <= mu_H + 3 * sigma_H")),
    ]
    detectors = DetectorSpecs(frozen=(FrozenColumnSpec("fare", 2, key_by="zone"),))
    sliced = suite(checks, window=window, detectors=detectors)
    whole = suite(checks, window=window, detectors=detectors)
    store = PaneStore(window)
    wm = Watermark(delay=MIN)
    rng = random.Random(3)
    panes = []
    for seq in range(900):
        t = at(seq * 4 + rng.uniform(-50, 0))
        e = elem(t, seq, fare=rng.choice([None, 1.0, 2.5, float(seq % 17)]),
                 zone=rng.choice([None, "a", "b", "c"]))
        wm.observe(t)
        store.route(e, wm)
        panes.extend(store.close_ready(wm.value))
    panes.extend(store.flush())
    assert sum(1 for p in panes if p.parts is not None and len(p.parts) == 5) > 10
    for p in panes:
        got, _ = sliced.on_window_close(p, watermark=wm.value)
        want, _ = whole.on_window_close(replace(p, parts=None), watermark=wm.value)
        assert [r.to_json_line() for r in got] == [r.to_json_line() for r in want]


def test_conforms_parses_its_expression_once_per_check(monkeypatch):
    calls = []
    parse = expression.parse
    monkeypatch.setattr(expression, "parse", lambda text: calls.append(text) or parse(text))
    text = "fare > -7.25 and fare < 1000"
    check = CheckDefinition(id="fare_ok", measure=MeasureSpec("conforms", {"expression": text}),
                            constraint=Threshold(">=", 0.5))

    def parses(panes):
        calls.clear()
        eng = engine_with([check])
        drive(eng, fare_elems([1.0] * panes, step_s=60.0))
        assert eng.stats.panes_closed == panes
        return len(calls)

    few, many = parses(3), parses(40)
    assert many <= few < 3


def test_checks_compile_once_when_the_suite_is_built(monkeypatch):
    """Expressions are parsed and per-element checkers built while SuiteState
    is built, and not again on any pane."""
    parses = []
    parse = expression.parse
    monkeypatch.setattr(expression, "parse", lambda text: parses.append(text) or parse(text))
    made = Counter()
    for measure_id, name in (("conforms", "_conforms_checker"), ("in_set", "_in_set_checker"),
                             ("valid_range", "_range_checker"),
                             ("completeness", "_completeness_checker")):
        factory = getattr(measures, name)

        def counting(params, env, factory=factory, measure_id=measure_id):
            made[measure_id] += 1
            return factory(params, env)
        monkeypatch.setattr(measures, name, counting)
        monkeypatch.setitem(measures.MEASURES, measure_id,
                            replace(measures.MEASURES[measure_id], make_elem_checker=counting))
    text = "fare > -3.75 and fare < 987"  # a text no other test parses
    checks = [
        pe_check(),
        CheckDefinition(id="fare_conforms", measure=MeasureSpec("conforms", {"expression": text}),
                        constraint=Threshold(">=", 0.5), emit_per_element=True),
        CheckDefinition(id="zone_known",
                        measure=MeasureSpec("in_set", {"column": "zone", "allowed": ["a", "b"],
                                                       "proper": True}),
                        constraint=Threshold(">=", 0.5), emit_per_element=True),
        CheckDefinition(id="fare_present",
                        measure=MeasureSpec("completeness", {"column": "fare",
                                                             "missing_tokens": [-1.0]}),
                        constraint=Threshold(">=", 0.5), key_by="zone", emit_per_element=True),
        CheckDefinition(id="zone_mean", measure=MeasureSpec("mean", {"column": "fare"}),
                        constraint=Predicate("value <= mu_H + 3 * sigma_H"), key_by="zone",
                        context=ContextSpec(horizon=3 * MIN)),
        ref_check(),
    ]
    state = suite(checks, references={"hourly": ref_table()})
    built_parses, built_made = list(parses), Counter(made)
    assert set(built_parses) == {text, "value <= mu_H + 3 * sigma_H", "value <= ref_max_mean",
                                 "hour_of(window_start)"}
    assert set(built_made) == {"conforms", "in_set", "valid_range", "completeness"}
    eng = MonitorEngine(state)
    rng = random.Random(5)
    drive(eng, [elem(at(i * 7), i, fare=rng.choice([None, -1.0, 2.0, 50.0, 150.0]),
                     zone=rng.choice(["a", "b", "c"])) for i in range(200)])
    assert eng.stats.panes_closed == 24
    assert any(r.detail and "element_ref" in r.detail for r in eng.collected)
    assert parses == built_parses
    assert made == built_made


def test_sliding_sketch_sees_each_value_once(monkeypatch):
    adds = []
    add = CardinalityEstimator.add
    monkeypatch.setattr(CardinalityEstimator, "add",
                        lambda self, v: adds.append(v) or add(self, v))
    check = CheckDefinition(id="fare_distinct",
                            measure=MeasureSpec("distinct_count",
                                                {"column": "fare", "mode": "approx"}),
                            constraint=Threshold(">", 0))
    eng = engine_with([check], window=WindowSpec("sliding", duration=5 * MIN, slide=MIN))
    values = [None if i % 7 == 0 else float(i % 50) for i in range(600)]
    drive(eng, fare_elems(values, step_s=3.0))
    assert eng.stats.panes_closed == 34  # 30 minutes of rows, 5 panes over each
    assert len(adds) == sum(v is not None for v in values)
