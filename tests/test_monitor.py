"""Assessment state machine: contexts, references, detectors, emission."""

import gc
import hashlib
import json
import math
import random
import tracemalloc
from collections import Counter
from dataclasses import replace
from datetime import timedelta

import pytest

from streamqc import expression, measures, model, monitor, sketches, windowing
from streamqc.model import (
    NULL_CODE,
    CheckDefinition,
    ColumnSpec,
    ContextSpec,
    MeasureSpec,
    MetaRecord,
    ModelError,
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
    InvalidSuite,
    MonitorEngine,
    ReferenceTable,
    SuiteState,
)
from streamqc.windowing import PaneStore, Retention, Watermark

from helpers import T0, assess, at, count_order_walks, elem, elems, values_win, walks_of, win

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


def test_context_over_both_infinities_binds_null_statistics():
    ctx = ContextState(horizon=timedelta(minutes=3))
    ctx.fold(at(60), math.inf, 1)
    ctx.fold(at(120), -math.inf, 1)
    b = ctx.bindings(at(180))
    assert b["mu_H"] is None and b["sigma_H"] is None
    assert b["count_H"] == 2 and b["prev_value"] == -math.inf
    ctx = ContextState(horizon=timedelta(minutes=3))
    ctx.fold(at(60), math.inf, 1)
    ctx.fold(at(120), 1.0, 1)
    b = ctx.bindings(at(180))
    assert b["mu_H"] == math.inf and b["sigma_H"] is None


def test_percentile_between_the_infinities_writes_null_on_the_meta_line():
    check = CheckDefinition(id="fare_p50",
                            measure=MeasureSpec("percentiles", {"column": "fare", "points": [0.5]}),
                            constraint=Threshold(">=", 0.0))
    sink = ListSink()
    drive(MonitorEngine(suite([check]), meta_sink=sink),
          fare_elems([-math.inf, math.inf]))
    line = next(line for line in sink.lines if '"check":"fare_p50"' in line)
    assert json.loads(line)["value"] is None
    assert json.loads(line)["detail"] == {"points": [0.5], "values": [None]}
    assert "NaN" not in line and "Infinity" not in line


def test_max_over_a_nan_writes_null_on_the_meta_line():
    """A NaN built through the library API is not a value: max over a pane
    holding nan then 1.0 measures NaN, and the meta line reads null, not
    "-Infinity"."""
    check = CheckDefinition(id="fare_max", measure=MeasureSpec("max", {"column": "fare"}),
                            constraint=Threshold("<=", 10.0))
    rows = fare_elems([math.nan, 1.0])
    assert math.isnan(measures.apply_measure(check.measure, win(rows), measures.EngineEnv()).value)
    sink = ListSink()
    drive(MonitorEngine(suite([check]), meta_sink=sink), rows)
    line = next(line for line in sink.lines if '"check":"fare_max"' in line)
    assert json.loads(line)["value"] is None
    assert "NaN" not in line and "Infinity" not in line


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
    records, failing = assess(st, ok_pane)
    assert [r.check_id for r in records] == ["fare_mean"]
    assert records[0].ok is True and records[0].value == 9.25
    assert failing == {}
    records, _ = assess(st, bad_pane)
    assert records[0].ok is False and records[0].value == 11.5


def test_range_and_predicate_constraints():
    checks = [
        CheckDefinition(id="fare_range", measure=MeasureSpec("mean", {"column": "fare"}),
                        constraint=ValueRange(5.0, 10.0)),
        CheckDefinition(id="fare_pred", measure=MeasureSpec("mean", {"column": "fare"}),
                        constraint=Predicate("value * 2 < 25")),
    ]
    st = suite(checks)
    records, _ = assess(st, pane([12.0, 12.4], at(0), at(60)))
    by_id = {r.check_id: r for r in records}
    assert by_id["fare_range"].ok is False
    assert by_id["fare_pred"].ok is True  # 24.4 < 25


def test_null_verdict_fail_and_skip():
    st = suite([
        mean_check(),
        CheckDefinition(id="fare_mean_soft", measure=MeasureSpec("mean", {"column": "fare"}),
                        constraint=Threshold("<=", 10.0), null_verdict="skip"),
    ])
    records, _ = assess(st, pane([None, None], at(0), at(60)))
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
    records, _ = assess(st, w)
    assert records[0].value == 1.0
    assert records[0].ok is False
    assert records[0].detail == {"proper_subset_violated": True}


_DIFF_T1, _DIFF_T2 = at(10), at(20)
_DIFF_BOUNDS = {  # a measure whose result type fits each kind of bound
    "number": MeasureSpec("mean", {"column": "fare"}),
    "timestamp": MeasureSpec("max", {"column": "t"}),
    "bool": MeasureSpec("schema_check", {"expected": ["fare"]}),
}
_DIFF_CONSTRAINTS = [
    *[("number", Threshold(op, bound))
      for op in ("<", "<=", "=", "!=", ">=", ">") for bound in (2, 2.5, -math.inf)],
    *[("timestamp", Threshold(op, _DIFF_T1)) for op in ("<", "<=", "=", "!=", ">=", ">")],
    *[("bool", Threshold(op, True)) for op in ("=", "!=")],
    *[("number", ValueRange(lo, hi, lo_inclusive=li, hi_inclusive=hi_in))
      for lo, hi in ((2, 3), (2.0, 2.0), (-math.inf, 0), (0, math.inf))
      for li in (True, False) for hi_in in (True, False)
      if lo != hi or (li and hi_in)],
    *[("timestamp", ValueRange(_DIFF_T1, _DIFF_T2, lo_inclusive=li, hi_inclusive=hi_in))
      for li in (True, False) for hi_in in (True, False)],
]
_DIFF_VALUES = [None, True, False, 0, 2, 3, -1, 10 ** 20, 2.0, 2.5, -0.0, 3.0000001,
                math.inf, -math.inf, "", "2", _DIFF_T1, _DIFF_T2, at(15)]


@pytest.mark.parametrize("null_verdict", ["fail", "skip"])
def test_value_constraints_judge_as_constraint_verdict(monkeypatch, null_verdict):
    """A Threshold or ValueRange check tests the measured value directly;
    its records agree with constraint_verdict over the name table, for
    every operator, both kinds of range end and values of every type,
    with the Null rule, force_fail and a measure's detail applied."""
    checks = [CheckDefinition(id=f"c{i}", measure=_DIFF_BOUNDS[kind], constraint=constraint,
                              null_verdict=null_verdict)
              for i, (kind, constraint) in enumerate(_DIFF_CONSTRAINTS)]
    st = suite(checks)
    verdicts = {c.id: model.constraint_verdict(c.constraint) for c in checks}
    result = [None]
    monkeypatch.setattr(monitor, "apply_measure", lambda spec, w, env, run: result[0])
    for value in _DIFF_VALUES:
        for force_fail in (False, True):
            for detail in (None, {}, {"n": 1}):
                result[0] = measures.MeasureResult(value, detail, force_fail)
                records, _ = assess(st, pane([1.0], at(0), at(60)))
                assert sorted(r.check_id for r in records) == sorted(verdicts)
                for record in records:
                    verdict = verdicts[record.check_id]({"value": value})
                    want_detail = detail or None
                    if verdict is None and null_verdict == "skip":
                        want_detail = {**(want_detail or {}), "skipped_null": True}
                    want_ok = (null_verdict == "skip" if verdict is None else verdict)
                    want_ok = want_ok and not force_fail
                    assert record.value is value
                    assert (record.ok, record.detail) == (want_ok, want_detail), \
                        (record.check_id, value, force_fail, detail)


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
    records, _ = assess(st, w)
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

    r1, _ = assess(st, zp(at(0), at(60), ["a", "a", "b"], 0))
    assert all(r.ok and r.detail == {"warming": True} for r in r1)
    r2, _ = assess(st, zp(at(60), at(120), ["a", "a", "b"], 3))
    assert all(r.ok and r.detail == {"warming": True} for r in r2)
    r3, _ = assess(st, zp(at(120), at(180), ["a", "b", "b"], 6))
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
        records, _ = assess(st, w)
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
    assess(st, pane([1.0, 2.0], at(0), at(60)))
    records, _ = assess(st, pane([3.0, 4.0], at(60), at(120), seq0=2))
    # prev_value is the prior pane's volume, not this pane's.
    assert records[0].ok is True and records[0].value == 2


def test_relative_volume_check_builder():
    # A volume band relative to the horizon's mean pane volume, as a config writes it.
    check = CheckDefinition(
        id="vol_band", measure=MeasureSpec("volume"),
        constraint=Predicate("value >= 0.5 * mu_H and value <= 2.0 * mu_H"),
        context=ContextSpec(horizon=timedelta(minutes=2)))
    st = suite([check])
    seq = 0
    results = []
    for i, v in enumerate([4, 4, 4, 4, 1]):
        w = pane([1.0] * v, at(60 * i), at(60 * (i + 1)), seq0=seq)
        seq += v
        records, _ = assess(st, w)
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
    records, _ = assess(st, pane([9.0, 9.5], at(0), at(60)))
    assert records[0].ok is True
    records, _ = assess(st, pane([11.0, 12.0], at(60), at(120), seq0=2))
    assert records[0].ok is False


def test_reference_default_row_catches_unknown_keys():
    st = suite([ref_check()], references={"hourly": ref_table()})
    late = T0 + timedelta(hours=3)  # hour 14: no explicit row, "*" applies
    records, _ = assess(st, pane([50.0], late, late + MIN))
    assert records[0].ok is True  # 50 <= 99 from the default row


def test_reference_miss_fails_with_detail():
    table = ReferenceTable(table_id="hourly", key_column="hour",
                           columns=("hour", "max_mean"),
                           rows={canonical_bytes(11): {"hour": 11, "max_mean": 10.0}})
    st = suite([ref_check()], references={"hourly": table})
    late = T0 + timedelta(hours=3)
    records, _ = assess(st, pane([1.0], late, late + MIN))
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
    records, failing = assess(st, w)
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
    records, failing = assess(st, w)
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
    records, failing = assess(st, pane([-5.0], at(0), at(60)))
    assert len(records) == 1 and records[0].detail == {"warming": True}
    assert failing == {}


def test_failing_element_collects_all_rejecting_checks():
    second = CheckDefinition(
        id="fare_cap",
        measure=MeasureSpec("valid_range", {"column": "fare", "hi": 100.0}),
        constraint=Threshold(">=", 1.0), emit_per_element=True)
    st = suite([pe_check(), second])
    w = win([elem(at(0), 0, fare=-1.0)], start=at(0), end=at(60))
    _, failing = assess(st, w)
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
        records, _ = assess(st, w)
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
    assess(st, empty_pane(at(0), at(60)))
    records, _ = assess(st, pane([1.0], at(60), at(120)))
    assert [r for r in records if r.check_id == "_dead_stream"] == []


def test_engine_refuses_a_dead_stream_detector_over_a_keyed_window():
    """A keyed grid store makes no empty pane, so a dead-stream detector
    over a keyed window would never fire: the engine refuses the pairing.
    Unkeyed, the same rows (0-20 s, then one 30 minutes later) close 31
    panes and make an alert and a recovery."""
    def dead_suite():
        return suite([mean_check()], detectors=DetectorSpecs(dead=DeadStreamSpec(2 * MIN)))
    engine = MonitorEngine(dead_suite())
    for e in fare_elems([1.0, 2.0, 3.0]) + [elem(at(1800), 3, fare=4.0)]:
        engine.process(e)
    engine.finish()
    assert engine.stats.panes_closed == 31
    assert [r.ok for r in engine.collected if r.check_id == "_dead_stream"] == [False, True]
    with pytest.raises(InvalidSuite, match="unkeyed window"):
        MonitorEngine(dead_suite(), key_by="zone")
    MonitorEngine(suite([mean_check()]), key_by="zone")  # no detector: fine


def test_engine_refuses_match_ratio_over_a_keyed_window():
    """A secondary source's panes are never keyed, so match_ratio over a
    keyed window would never find a match: the engine refuses the pairing,
    by the rule that refuses a keyed dead-stream detector."""
    check = CheckDefinition(id="m", measure=MeasureSpec("match_ratio", {"on": "zone"}),
                            constraint=Threshold(">=", 1.0))
    st = suite([check], secondary=lambda start, end, key: None)
    with pytest.raises(InvalidSuite, match="'m': match_ratio needs an unkeyed window"):
        MonitorEngine(st, key_by="zone")
    MonitorEngine(st)  # unkeyed: fine


def test_frozen_column_alert_recovery_and_null_skip():
    st = suite([mean_check()],
               detectors=DetectorSpecs(frozen=(FrozenColumnSpec("fare", windows=3),)))

    def frozen_records(w):
        records, _ = assess(st, w)
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
    assess(st, pane([5.0], at(0), at(60)))
    assess(st, pane([5.0, 6.0], at(60), at(120), seq0=1))
    records, _ = assess(st, pane([5.0], at(120), at(180), seq0=3))
    assert [r for r in records if r.check_id.startswith("_frozen")] == []


def test_frozen_detector_keyed_by_sensor():
    st = suite([mean_check()],
               detectors=DetectorSpecs(frozen=(FrozenColumnSpec("fare", windows=2,
                                                                key_by="zone"),)))

    def zp(start, end, rows, seq0):
        return win([elem(start, seq0 + i, fare=f, zone=z)
                    for i, (z, f) in enumerate(rows)], start=start, end=end)

    assess(st, zp(at(0), at(60), [("a", 1.0), ("b", 1.0)], 0))
    records, _ = assess(st, zp(at(60), at(120), [("a", 1.0), ("b", 2.0)], 2))
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


def errs(checks, schema=SCHEMA, window=TUMBLING, has_secondary=False, **kwargs):
    """Every problem SuiteState reports for the suite (empty: it builds)."""
    secondary = (lambda start, end, key: None) if has_secondary else None
    try:
        SuiteState(checks, schema, window, secondary=secondary, **kwargs)
    except InvalidSuite as exc:
        return exc.problems
    return []


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
        got, _ = assess(sliced, p, watermark=wm.value)
        want, _ = assess(whole, replace(p, parts=None), watermark=wm.value)
        assert [r.to_json_line() for r in got] == [r.to_json_line() for r in want]


def test_key_sub_slices_are_walked_once(monkeypatch):
    """Two checks keyed by zone over 5m/1m panes: each key's share of a
    slice is checked for order at most once, however many panes and checks
    use it; the share of a slice the store sorted is not walked at all."""
    walked = count_order_walks(monkeypatch)
    window = WindowSpec("sliding", duration=5 * MIN, slide=MIN)
    checks = [CheckDefinition(id=f"zone_{m}", measure=MeasureSpec(m, {"column": "fare"}),
                              key_by="zone", constraint=Threshold(">=", 0.0))
              for m in ("mean", "std")]
    st = suite(checks, window=window)
    store = PaneStore(window)
    wm = Watermark(delay=MIN)
    rng = random.Random(4)
    panes = []
    for seq in range(400):
        t = at(seq * 6 + rng.uniform(-30, 0))
        wm.observe(t)
        store.route(elem(t, seq, fare=float(seq % 7), zone=rng.choice([None, "a", "b"])), wm)
        panes.extend(store.close_ready(wm.value))
    panes.extend(store.flush())
    for p in panes:
        assess(st, p, watermark=wm.value)
    subs = [sub for p in panes for part in p.parts or ()
            for enc, sub in part.split("zone").items() if enc != NULL_CODE]
    assert len({id(sub) for sub in subs}) * 4 < len(subs)  # shared by panes and checks
    for sub in {id(sub): sub for sub in subs}.values():
        assert sub.ordered == len(sub.elements)
        assert walks_of(walked, sub.elements) == 0


@pytest.mark.parametrize("case", ["sliding", "sliding-keyed", "session-keyed"])
def test_the_pane_path_leaves_no_reference_cycles(case):
    """Closed panes, their slices and the slices' key shares are freed by
    reference counting alone: with the cycle collector off, a replay leaves
    no unreachable cycle behind. A share whose source reached back to the
    memo holding it would put every split slice in a cycle, and a run's
    memory would wait on the collector."""
    if case.startswith("sliding"):
        window = WindowSpec("sliding", duration=5 * MIN, slide=MIN)
        checks = [
            CheckDefinition(id="zone_fare_mean", measure=MeasureSpec("mean", {"column": "fare"}),
                            key_by="zone", constraint=Threshold(">=", 0.0)),
            CheckDefinition(id="zone_fare_distinct", key_by="zone",
                            measure=MeasureSpec("distinct_count", {"column": "fare"}),
                            constraint=Threshold(">=", 2)),
            CheckDefinition(id="fare_distinct",
                            measure=MeasureSpec("distinct_count", {"column": "fare"}),
                            constraint=Threshold(">=", 2)),
        ]
    else:
        window = WindowSpec("session", gap=timedelta(seconds=30))
        checks = [
            CheckDefinition(id="fare_complete", emit_per_element=True, key_by="zone",
                            measure=MeasureSpec("completeness", {"column": "fare"}),
                            constraint=Threshold(">=", 1.0)),
            CheckDefinition(id="fare_ok", emit_per_element=True,
                            measure=MeasureSpec("conforms", {"expression": "fare < 5"}),
                            constraint=Threshold(">=", 1.0)),
        ]
    schema = SCHEMA + [ColumnSpec("device", "text")]
    rng = random.Random(7)
    rows = [elem(at(seq * 2 + seq // 25 * 60 + rng.uniform(-20, 0)), seq,  # pauses end sessions
                 fare=rng.choice([None, 1.0, 2.5, 7.0]),
                 zone=rng.choice([None, "a", "b", "c"]), device=rng.choice(["d1", "d2", "d3"]))
            for seq in range(3000)]
    meta, side = ListSink(), ListSink()
    gc.collect()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        engine = MonitorEngine(SuiteState(checks, schema, window),
                               watermark_delay=timedelta(seconds=30),
                               key_by=None if case == "sliding" else "device",
                               meta_sink=meta, side_sink=side)
        drive(engine, rows)
        gc.collect()
        garbage = Counter(type(o).__name__ for o in gc.garbage)
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        gc.enable()
    assert engine.stats.panes_closed > 50 and meta.lines
    assert not garbage, garbage


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


def test_suite_build_parses_each_conforms_text_once(monkeypatch):
    calls = Counter()
    parse = expression.parse
    monkeypatch.setattr(expression, "parse", lambda text: calls.update([text]) or parse(text))
    texts = ["fare > -1.25", "zone != 'q' or fare < 3.5"]
    checks = [CheckDefinition(id=f"c{i}", measure=MeasureSpec("conforms", {"expression": text}),
                              constraint=Threshold(">=", 0.5), emit_per_element=True)
              for i, text in enumerate(texts)]
    suite(checks)
    assert calls == Counter(texts)


def test_checks_compile_once_when_the_suite_is_built(monkeypatch):
    """Expressions are parsed and compiled, and per-element checkers built,
    while SuiteState is built, and not again on any pane."""
    parses = []
    parse = expression.parse
    monkeypatch.setattr(expression, "parse", lambda text: parses.append(text) or parse(text))
    compiles = []  # the text of each top-level expression.compile call
    compile_, depth = expression.compile, [0]

    def counting_compile(node):
        if depth[0] == 0:
            compiles.append(expression.to_text(node))
        depth[0] += 1
        try:
            return compile_(node)
        finally:
            depth[0] -= 1
    monkeypatch.setattr(expression, "compile", counting_compile)
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
    built_compiles = list(compiles)
    assert sorted(built_compiles) == sorted(expression.to_text(parse(t)) for t in built_parses)
    assert set(built_made) == {"conforms", "in_set", "valid_range", "completeness"}
    eng = MonitorEngine(state)
    rng = random.Random(5)
    drive(eng, [elem(at(i * 7), i, fare=rng.choice([None, -1.0, 2.0, 50.0, 150.0]),
                     zone=rng.choice(["a", "b", "c"])) for i in range(200)])
    assert eng.stats.panes_closed == 24
    assert any(r.detail and "element_ref" in r.detail for r in eng.collected)
    assert parses == built_parses
    assert compiles == built_compiles
    assert made == built_made


def test_sliding_sketch_sees_each_value_once(monkeypatch):
    """The approx distinct count hashes a slice's encodings into registers
    (sketches.registers_of) once per slice; every value reaches it once."""
    hashed = []
    registers_of = measures.registers_of

    def counting(encodings, precision, seed):
        encodings = list(encodings)
        hashed.extend(encodings)
        return registers_of(encodings, precision, seed)

    monkeypatch.setattr(measures, "registers_of", counting)
    check = CheckDefinition(id="fare_distinct",
                            measure=MeasureSpec("distinct_count",
                                                {"column": "fare", "mode": "approx"}),
                            constraint=Threshold(">", 0))
    eng = engine_with([check], window=WindowSpec("sliding", duration=5 * MIN, slide=MIN))
    values = [None if i % 7 == 0 else float(i % 50) for i in range(600)]
    drive(eng, fare_elems(values, step_s=3.0))
    assert eng.stats.panes_closed == 34  # 30 minutes of rows, 5 panes over each
    assert Counter(hashed) == Counter(canonical_bytes(v) for v in values if v is not None)


# ---------------------------------------------------------------------------
# Per-element measures: one verdict per element and check feeds both the
# pane's value and its per-element records


PER_ELEMENT = {
    "completeness": {"column": "fare", "missing_tokens": [-1.0]},
    "valid_range": {"column": "fare", "lo": 0.0, "hi": 40.0},
    "in_set": {"column": "zone", "allowed": ["a", "b"], "proper": True},
    "matches_pattern": {"column": "zone", "pattern": "[ab]"},
    "conforms": {"expression": "fare > 1 or zone != 'c'"},
    "schema_check": {"expected": ["fare", "zone"], "mode": "presence_absence"},
    "type_check": {"column": "zone", "expected": "text"},
}
SESSIONS = WindowSpec("session", gap=timedelta(seconds=30))
SLIDING_5_1 = WindowSpec("sliding", duration=5 * MIN, slide=MIN)


def per_element_checks(**kwargs):
    return [CheckDefinition(id=m, measure=MeasureSpec(m, params),
                            constraint=Threshold("=", True) if m == "schema_check"
                            else Threshold(">=", 0.5), **kwargs)
            for m, params in PER_ELEMENT.items()]


def quality_rows(n, rng, jitter_s=2.0, late=None):
    """Rows 3 s apart with a 60 s pause every 40 rows, and Null, placeholder,
    out-of-range, mistyped and missing cells; a row whose seq is in late is
    pushed back by late[seq] seconds."""
    late = late or {}
    rows = []
    for seq in range(n):
        t = seq * 3 + (seq // 40) * 60 - rng.uniform(0, jitter_s) - late.get(seq, 0)
        attrs = {"fare": rng.choice([None, -1.0, 2.0, 0.5, 50.0]),
                 "zone": rng.choice([None, "a", "b", "c", 7])}
        if seq % 11 == 0:
            del attrs["zone"]
        rows.append(elem(at(t), seq, **attrs))
    return rows


def count_checker_calls(monkeypatch) -> Counter:
    """Count every call of a checker from monitor.elem_checker_for, by
    (measure id, arrival_seq)."""
    calls: Counter = Counter()
    make = monitor.elem_checker_for

    def counting(measure, env):
        check = make(measure, env)
        if check is None:
            return None
        measure_id = measure.definition.id

        def counted(e):
            calls[measure_id, e.arrival_seq] += 1
            return check(e)
        return counted
    monkeypatch.setattr(monitor, "elem_checker_for", counting)
    return calls


@pytest.mark.parametrize("emit", [False, True], ids=["value-only", "per-element"])
@pytest.mark.parametrize("key_by", [None, "zone"], ids=["unkeyed", "keyed"])
@pytest.mark.parametrize("window", [SESSIONS, SLIDING_5_1], ids=["sessions", "sliding"])
def test_each_element_is_checked_once_per_check(monkeypatch, window, key_by, emit):
    """However many panes span an element (five at 5m/1m) and whether or not
    the check emits per-element records, its checker sees the element once."""
    calls = count_checker_calls(monkeypatch)
    rows = quality_rows(600, random.Random(8))
    eng = MonitorEngine(suite(per_element_checks(key_by=key_by, emit_per_element=emit),
                              window=window), watermark_delay=MIN)
    drive(eng, rows)
    assert eng.stats.discarded == 0
    if emit:
        assert any(r.detail and "element_ref" in r.detail for r in eng.collected)
    seqs = [e.arrival_seq for e in rows if key_by is None or e.attrs.get(key_by) is not None]
    assert calls == Counter({(m, seq): 1 for m in PER_ELEMENT for seq in seqs})


def test_each_value_is_encoded_once_per_row_and_column(monkeypatch):
    """Exact and approx distinct counts, uniqueness and a key_by split over
    the same columns share each slice's encodings, and a key group's share
    of a slice reads them from the whole slice: on 5m/1m panes, where a row
    lies in five panes, each (row, column) value is encoded at most once,
    and a text repeated within a slice is encoded once for the slice."""
    encoded = Counter()
    encode = model.canonical_bytes

    def counting(v):
        encoded[v] += 1
        return encode(v)

    for module in (model, measures, monitor, sketches, windowing):
        monkeypatch.setattr(module, "canonical_bytes", counting)
    schema = SCHEMA + [ColumnSpec("ride", "text")]
    checks = [CheckDefinition(id=cid, measure=MeasureSpec(mid, params),
                              constraint=Threshold(">=", 0), key_by=key_by)
              for cid, mid, params, key_by in [
                  ("zone_rides", "distinct_count", {"column": "ride", "mode": "approx"}, "zone"),
                  ("zones", "distinct_count", {"column": "zone"}, None),
                  ("rides_unique", "uniqueness", {"column": "ride"}, None),
                  ("rides_approx", "distinct_count", {"column": "ride", "mode": "approx"}, None),
                  ("zone_fare", "mean", {"column": "fare"}, "zone")]]
    eng = MonitorEngine(suite(checks, window=SLIDING_5_1, schema=schema),
                        watermark_delay=MIN)
    rng = random.Random(4)
    rows = [elem(at(seq * 7 - rng.uniform(0, 30)), seq, fare=1.0, ride=f"R{seq}",
                 zone=rng.choice(["north", "south", None]))
            for seq in range(400)]
    drive(eng, rows)
    assert eng.stats.discarded == 0 and eng.stats.panes_closed > 50
    # One encoding per zone per 1m slice that holds it.
    zones = Counter(zone for _, zone in {(e.event_time.replace(second=0, microsecond=0),
                                          e.attrs["zone"]) for e in rows}
                    if zone is not None)
    assert {v: n for v, n in encoded.items() if v in zones} == zones
    assert sum(zones.values()) * 2 < sum(1 for e in rows if e.attrs["zone"] is not None)
    assert {v: n for v, n in encoded.items() if isinstance(v, str) and v[0] == "R"} == \
        {e.attrs["ride"]: 1 for e in rows}


def test_patterns_alike_in_their_first_200_characters_keep_their_own_verdicts():
    """Verdicts are shared through the slice memo by measure and parameters;
    a compiled pattern's repr is cut at 200 characters, so two long patterns
    must still be told apart."""
    prefix = "x" * 250
    checks = [CheckDefinition(id=f"ends_{c}", constraint=Threshold(">=", 0.5),
                              measure=MeasureSpec("matches_pattern",
                                                  {"column": "zone", "pattern": prefix + c}))
              for c in "ab"]
    eng = engine_with(checks, window=SLIDING_5_1)
    drive(eng, [elem(at(i * 20), i, zone=prefix + "a") for i in range(60)])
    values = Counter((r.check_id, r.value) for r in eng.collected if r.check_id != "_late_discards")
    assert values == Counter({("ends_a", 1.0): 24, ("ends_b", 0.0): 24})


# Pinned output of the suite below: sharing verdicts must not change a byte.
LATE_AND_DISCARDED = (14, 10)
META_LINES_AND_DIGEST = (8792, "538d578575785cf5b7e527edf85ea8b9967078cd09debe445f9ec2dd45f18202")
SIDE_LINES_AND_DIGEST = (499, "3a2b2a6b5ad8e207672218846af0e9467abc08d3c017c6d76ccce9c0acc2c093")


def test_per_element_checks_on_sliding_panes_keep_their_bytes():
    """The meta and side bytes of the seven per-element measures over 5m/1m
    panes, one check keyed and one lenient, with late rows accepted and
    discarded, are pinned."""
    window = WindowSpec("sliding", duration=5 * MIN, slide=MIN, allowed_lateness=MIN)
    checks = [replace(c, key_by="zone" if c.id == "completeness" else None,
                      null_verdict="skip" if c.id == "type_check" else "fail")
              for c in per_element_checks(emit_per_element=True)]
    rng = random.Random(21)
    late = {seq: 75 for seq in range(50, 600, 37)} | {seq: 500 for seq in range(70, 600, 53)}
    meta, side = ListSink(), ListSink()
    eng = MonitorEngine(suite(checks, window=window), watermark_delay=timedelta(seconds=30),
                        meta_sink=meta, side_sink=side)
    eng.collected = None
    drive(eng, quality_rows(600, rng, jitter_s=10.0, late=late))
    assert (eng.stats.late_accepted, eng.stats.discarded) == LATE_AND_DISCARDED
    digest = lambda lines: hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert (len(meta.lines), digest(meta.lines)) == META_LINES_AND_DIGEST
    assert (len(side.lines), digest(side.lines)) == SIDE_LINES_AND_DIGEST


class _HashSink:
    """Hashes the bytes a file sink would write, holding no line."""

    def __init__(self):
        self.sha = hashlib.sha256()

    def write_line(self, line):
        self.sha.update(line.encode() + b"\n")


def _jump_peak(days):
    """2,000 rows at 2 rows/s on 1m tumbling panes, one row `days` ahead,
    then 1,000 rows (all discarded). Returns the tracemalloc peak over the
    run above what was held before it, the meta sha256 and the engine."""
    fare = lambda i: (i % 13) * 1.5
    rows = [elem(at(i * 0.5), i, fare=fare(i)) for i in range(2000)]
    rows.append(elem(at(999.5) + timedelta(days=days), 2000, fare=1.0))
    rows += [elem(at(1000 + i * 0.5), 2001 + i, fare=fare(i)) for i in range(1000)]
    check = CheckDefinition(id="fare_mean", measure=MeasureSpec("mean", {"column": "fare"}),
                            constraint=Threshold("<=", 10.0))
    sink = _HashSink()
    eng = MonitorEngine(suite([check]), meta_sink=sink)
    tracemalloc.start()
    try:
        held = tracemalloc.get_traced_memory()[0]
        drive(eng, rows)
        peak = tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()
    return peak, sink.sha.hexdigest(), eng


def test_memory_under_an_event_time_jump_does_not_grow_with_the_panes_it_closes():
    """One far row closes every pane up to it in one watermark step. The
    engine draws them from the store one at a time, so a 7-day jump (10,097
    panes, once 5.6 MiB of peak) holds no more than a 1-day jump (1,457).
    The bytes are pinned."""
    day_peak, day_sha, _ = _jump_peak(1)
    week_peak, week_sha, eng = _jump_peak(7)
    assert eng.stats.panes_closed == 10_097 and eng.stats.discarded == 1000
    assert week_peak <= day_peak + 64 * 1024, (day_peak, week_peak)
    assert day_sha == "c0661b6b88820caddc8c9a8f2b6847ab134600301367e004820509ec82924992"
    assert week_sha == "f174d33ad4d1b5ecbe068ca09e185d074090cf4edb6403d9db1e870d46115b78"


_RIDES = [ColumnSpec("t", "timestamp"), ColumnSpec("fare", "float", nullable=True),
          ColumnSpec("zone", "text"), ColumnSpec("ride", "text")]
# A slice of a suite of these checks keeps only its partials after its first close.
_PARTIAL_CHECKS = [
    CheckDefinition(id=f"c{i}", measure=MeasureSpec(mid, params), constraint=Threshold(">=", 0),
                    key_by=key_by)
    for i, (mid, params, key_by) in enumerate([
        ("mean", {"column": "fare"}, None),
        ("std", {"column": "fare"}, None),
        ("completeness", {"column": "fare"}, None),
        ("distinct_count", {"column": "zone"}, None),
        ("distinct_count", {"column": "ride", "mode": "approx"}, None),
        ("uniqueness", {"column": "ride"}, None),
        ("volume", {}, None),
        ("mean", {"column": "fare"}, "zone"),
    ])]


def _ride_rows():
    """25 minutes of rows at 5 rows/s, a little out of order, each made as
    a source would make it, when it is read."""
    for i in range(7500):
        yield elem(at(i * 0.2 - (i % 7) * 1.5), i, fare=None if i % 17 == 0 else (i % 89) * 0.25,
                   zone="abcde"[i % 5], ride=f"R{i:07d}")


def _sliding_peak(checks, minutes, retention=None):
    """The tracemalloc peak of a replay of _ride_rows over minutes/1m
    sliding panes, above what was held before it, the meta sha256, the
    engine and the last pane it assessed. retention, when given, overrides
    the store's."""
    window = WindowSpec("sliding", duration=minutes * MIN, slide=MIN)
    sink = _HashSink()
    eng = MonitorEngine(suite(checks, window=window, schema=_RIDES),
                        watermark_delay=timedelta(seconds=10), meta_sink=sink)
    if retention is not None:
        eng.store.retention = retention
    assessed = []
    assess = eng.state.on_window_close

    def keeping_the_last(w, watermark=None):
        assessed[:] = [w]
        return assess(w, watermark)

    eng.state.on_window_close = keeping_the_last
    tracemalloc.start()
    try:
        held = tracemalloc.get_traced_memory()[0]
        drive(eng, _ride_rows())
        peak = tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()
    return peak, sink.sha.hexdigest(), eng, assessed[0]


def test_a_partial_suite_holds_its_partials_not_its_rows():
    """A sliding slice whose suite reads only partials releases its rows at
    its first close. Ten more minutes of open panes (3,000 more rows) then
    cost about 150 bytes of peak per row on this suite (about 570 when each
    slice kept its rows to its last pane), and the meta bytes match a
    replay that keeps the rows. Per-element records read the rows a check
    missed from its partial, so a check that emits them releases rows too,
    and so does percentiles, whose partial is a slice's numbers (above 450
    bytes per row when such a suite kept its rows). A released pane's rows
    cannot be read, only counted."""
    extra_rows = 10 * 60 * 5

    def per_row(checks):
        (short, _, _, _), (long, long_sha, eng, last) = (
            _sliding_peak(checks, 5), _sliding_peak(checks, 15))
        return (long - short) / extra_rows, long_sha, eng, last

    partial, sha, eng, last = per_row(_PARTIAL_CHECKS)
    assert eng.state.retention is eng.store.retention is Retention.PARTIALS
    assert partial < 300, partial
    assert _sliding_peak(_PARTIAL_CHECKS, 15, retention=Retention.ROWS)[1] == sha
    assert len(last.elements) == len(last) > 0
    with pytest.raises(ModelError, match="released"):
        list(last.elements)

    emitting = CheckDefinition(id="e", measure=MeasureSpec("completeness", {"column": "fare"}),
                               constraint=Threshold(">=", 0), emit_per_element=True)
    released, sha, eng, _ = per_row(_PARTIAL_CHECKS + [emitting])
    assert eng.state.retention is Retention.PARTIALS
    assert released < 300, released
    assert _sliding_peak(_PARTIAL_CHECKS + [emitting], 15, retention=Retention.ROWS)[1] == sha

    ordered = CheckDefinition(id="p", measure=MeasureSpec("percentiles", {"column": "fare",
                                                                           "points": [0.5]}),
                              constraint=Threshold(">=", 0))
    released, sha, eng, _ = per_row(_PARTIAL_CHECKS + [ordered])
    assert eng.state.retention is eng.store.retention is Retention.PARTIALS
    assert released < 300, released
    assert _sliding_peak(_PARTIAL_CHECKS + [ordered], 15, retention=Retention.ROWS)[1] == sha
