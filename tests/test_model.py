"""Value domain, durations, timestamps, specs, and the wire format."""

import json
import math
from datetime import datetime, timedelta, timezone

import pytest
from hypothesis import given, strategies as st

from streamqc.model import (
    EPOCH,
    CheckDefinition,
    ColumnSpec,
    MeasureSpec,
    MetaRecord,
    ModelError,
    Predicate,
    Threshold,
    ValueRange,
    WindowInstance,
    WindowSpec,
    canonical_bytes,
    compare_verdict,
    epoch_millis,
    ensure_value,
    format_duration,
    format_ts,
    from_epoch_millis,
    meta_record_from_json,
    parse_duration,
    parse_ts,
    sort_key,
    threshold_holds,
    ts,
    utc_ms,
    value_from_json,
    value_to_json,
    value_type,
    values_equal,
)

from helpers import at, elem, win


# ---------------------------------------------------------------------------
# Durations


@pytest.mark.parametrize("text,expected", [
    ("90s", timedelta(seconds=90)),
    ("1h30m", timedelta(minutes=90)),
    ("250ms", timedelta(milliseconds=250)),
    ("1d", timedelta(days=1)),
    ("5m", timedelta(minutes=5)),
    ("1h0m30s", timedelta(hours=1, seconds=30)),
    ("0.5s", timedelta(milliseconds=500)),
])
def test_parse_duration(text, expected):
    assert parse_duration(text) == expected


def test_parse_duration_numeric_means_seconds():
    assert parse_duration(90) == timedelta(seconds=90)
    assert parse_duration(2.5) == timedelta(seconds=2.5)


@pytest.mark.parametrize("bad", ["", "5x", "m5", "-10s", "1h 30m", "s"])
def test_parse_duration_rejects(bad):
    with pytest.raises(ModelError):
        parse_duration(bad)


def test_format_duration_round_trips():
    import random

    rng = random.Random(101)
    for _ in range(300):
        d = timedelta(milliseconds=rng.randrange(0, 10 * 86_400_000))
        assert parse_duration(format_duration(d)) == d


# ---------------------------------------------------------------------------
# Timestamps


def test_format_ts_wire_shape():
    assert format_ts(ts(2015, 5, 7, 11, 35)) == "2015-05-07T11:35:00.000Z"
    assert format_ts(ts(2015, 5, 7, 11, 35, 0, 45)) == "2015-05-07T11:35:00.045Z"


def test_parse_ts_round_trip():
    t = ts(2021, 12, 31, 23, 59, 59, 999)
    assert parse_ts(format_ts(t)) == t


def test_parse_ts_is_lenient_for_config_input():
    # Config timestamps accept any ISO form; naive values are taken as UTC.
    assert parse_ts("2015-05-07T11:35:00Z") == ts(2015, 5, 7, 11, 35)
    assert parse_ts("2015-05-07 11:35:00+02:00") == ts(2015, 5, 7, 9, 35)
    assert parse_ts("2015-05-07") == ts(2015, 5, 7)


@pytest.mark.parametrize("bad", ["not a time", "2015-13-01T00:00:00Z", ""])
def test_parse_ts_rejects_garbage(bad):
    with pytest.raises(ModelError):
        parse_ts(bad)


def test_utc_ms_truncates_and_requires_tz():
    dt = datetime(2015, 5, 7, 11, 35, 0, 123_456, tzinfo=timezone.utc)
    assert utc_ms(dt).microsecond == 123_000
    with pytest.raises(ModelError):
        utc_ms(datetime(2015, 5, 7, 11, 35))


def test_epoch_millis_exact_round_trip():
    for ms in (0, 1, -1, 1430998500000, -62135596800000 + 86_400_000):
        assert epoch_millis(from_epoch_millis(ms)) == ms
    assert epoch_millis(EPOCH) == 0


# ---------------------------------------------------------------------------
# Values


def test_value_type_names():
    assert value_type(None) == "null"
    assert value_type(True) == "bool"
    assert value_type(3) == "int"
    assert value_type(3.0) == "float"
    assert value_type("3") == "text"
    assert value_type(ts(2020, 1, 1)) == "timestamp"


def test_ensure_value_nan_becomes_null():
    assert ensure_value(float("nan")) is None
    assert ensure_value(float("inf")) == float("inf")
    with pytest.raises(ModelError):
        ensure_value([1, 2])


def test_canonical_bytes_separates_types():
    # 1, 1.0 and True compare equal in Python; canonically they are distinct.
    encodings = {canonical_bytes(v) for v in (1, 1.0, True, "1", None)}
    assert len(encodings) == 5


def test_canonical_bytes_negative_zero():
    assert canonical_bytes(-0.0) == canonical_bytes(0.0)


def test_canonical_bytes_big_ints():
    big = 2 ** 70
    assert canonical_bytes(big) != canonical_bytes(big + 1)
    assert canonical_bytes(big) != canonical_bytes(-big)


def test_sort_key_total_order_is_stable():
    values = [None, False, True, -2, 0, 3, -1.5, 2.5, "a", "b", ts(2020, 1, 1)]
    once = sorted(values, key=sort_key)
    again = sorted(list(reversed(values)), key=sort_key)
    assert [value_to_json(v) for v in once] == [value_to_json(v) for v in again]


def test_values_equal_widens_numbers_only():
    assert values_equal(1, 1.0) is True
    assert values_equal(True, 1) is None  # bool and int do not widen
    assert values_equal("a", "a") is True
    assert values_equal(None, 1) is None
    assert values_equal(ts(2020, 1, 1), ts(2020, 1, 1)) is True


# ---------------------------------------------------------------------------
# JSON value mapping


def test_value_json_round_trip_basics():
    for v in (None, True, False, 0, -7, 2.5, "text", ts(2015, 5, 7, 11, 35)):
        assert value_from_json(value_to_json(v)) == v


def test_value_json_infinities_use_strings():
    assert value_to_json(float("inf")) == "Infinity"
    assert value_from_json("-Infinity") == float("-inf")


def test_timestamp_shaped_text_parses_back_as_timestamp():
    # The wire format cannot tell a timestamp-shaped string from a timestamp;
    # such strings round back as timestamps by design.
    assert value_from_json("2015-05-07T11:35:00.000Z") == ts(2015, 5, 7, 11, 35)


_scalar = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2 ** 62), max_value=2 ** 62),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=30).filter(lambda s: not (len(s) == 24 and s.endswith("Z"))),
    st.datetimes(min_value=datetime(1900, 1, 1), max_value=datetime(2200, 1, 1))
      .map(lambda d: utc_ms(d.replace(tzinfo=timezone.utc))),
)


@given(_scalar)
def test_value_json_round_trip_property(v):
    got = value_from_json(value_to_json(v))
    if isinstance(v, float) and v == 0.0:
        assert got == 0.0
    else:
        assert got == v and type(got) is type(v)


# ---------------------------------------------------------------------------
# Comparisons and constraints


def test_threshold_holds_table():
    assert threshold_holds(9, "<=", 10) is True
    assert threshold_holds(10, "<", 10) is False
    assert threshold_holds(1, "=", 1.0) is True
    assert threshold_holds("a", "!=", "b") is True
    assert threshold_holds(None, "<", 10) is None
    assert threshold_holds("a", "<", 10) is None  # incomparable types
    assert threshold_holds(True, "<", False) is None  # bools are unordered


def test_compare_verdict_threshold_and_range():
    assert compare_verdict(9, Threshold("<=", 10), {}) is True
    assert compare_verdict(None, Threshold("<=", 10), {}) is None
    r = ValueRange(0, 10, lo_inclusive=False, hi_inclusive=True)
    assert compare_verdict(0, r, {}) is False
    assert compare_verdict(10, r, {}) is True
    assert compare_verdict(0.001, r, {}) is True


def test_compare_verdict_predicate_binds_value():
    from streamqc import expression

    p = expression.parse("value > 2 * mu")  # a Predicate's compiled form
    assert compare_verdict(7, p, {"mu": 3}) is True
    assert compare_verdict(5, p, {"mu": 3}) is False
    assert compare_verdict(5, p, {"mu": None}) is None
    with pytest.raises(ModelError):  # the text alone is not evaluable
        compare_verdict(7, Predicate("value > 2 * mu"), {"mu": 3})


# ---------------------------------------------------------------------------
# Window specs and instances


def test_window_spec_field_rules():
    WindowSpec(kind="tumbling", duration=timedelta(minutes=1))
    with pytest.raises(ModelError):
        WindowSpec(kind="tumbling")  # duration required
    with pytest.raises(ModelError):
        WindowSpec(kind="tumbling", duration=timedelta(minutes=1),
                   slide=timedelta(seconds=30))  # slide is a sliding-only field
    with pytest.raises(ModelError):
        WindowSpec(kind="sliding", duration=timedelta(minutes=1),
                   slide=timedelta(minutes=2))  # slide must not exceed duration
    with pytest.raises(ModelError):
        WindowSpec(kind="session")  # gap required
    with pytest.raises(ModelError):
        WindowSpec(kind="tumbling", duration=timedelta(minutes=1),
                   allowed_lateness=timedelta(seconds=-1))


def test_window_instance_validates_bounds_and_order():
    good = win([elem(at(1), 0, x=1), elem(at(2), 1, x=2)], start=at(0), end=at(60))
    assert len(good) == 2
    assert good.values("x") == [1, 2]
    with pytest.raises(ModelError):
        WindowInstance(start=at(60), end=at(0))
    with pytest.raises(ModelError):
        WindowInstance(start=at(0), end=at(60),
                       elements=(elem(at(2), 0), elem(at(1), 1)))


def test_column_spec_rejects_unknown_type():
    ColumnSpec("fare", "float")
    with pytest.raises(ModelError):
        ColumnSpec("fare", "double")


def test_check_definition_guards():
    ok = CheckDefinition(id="c", measure=MeasureSpec("count"),
                         constraint=Threshold(">", 0))
    assert ok.null_verdict == "fail"
    with pytest.raises(ModelError):
        CheckDefinition(id="_reserved", measure=MeasureSpec("count"),
                        constraint=Threshold(">", 0))
    with pytest.raises(ModelError):
        CheckDefinition(id="c", measure=MeasureSpec("count"),
                        constraint=Threshold(">", 0), null_verdict="maybe")


# ---------------------------------------------------------------------------
# Meta records


def test_meta_record_wire_key_order_and_shape():
    r = MetaRecord(window_start=ts(2015, 5, 7, 11, 35),
                   window_end=ts(2015, 5, 7, 11, 40),
                   key=None, check_id="fare_mean", value=9.29, ok=True,
                   detail=None)
    line = r.to_json_line()
    assert list(json.loads(line)) == [
        "window_start", "window_end", "key", "check", "value", "ok", "detail"]
    assert ": " not in line and ", " not in line  # compact separators
    assert '"2015-05-07T11:35:00.000Z"' in line


def test_meta_record_json_round_trip():
    r = MetaRecord(window_start=ts(2015, 5, 7, 11, 35),
                   window_end=ts(2015, 5, 7, 11, 40),
                   key="zone-A", check_id="c1", value=None, ok=False,
                   detail={"element_ref": 7})
    assert meta_record_from_json(r.to_json_line()) == r


def test_meta_record_from_json_rejects_wrong_keys():
    with pytest.raises(ModelError):
        meta_record_from_json('{"window_start":"2015-05-07T11:35:00.000Z"}')


def test_meta_record_order_key_sorts_elements_after_window():
    base = dict(window_start=ts(2015, 5, 7, 11, 35), window_end=ts(2015, 5, 7, 11, 40),
                key=None, check_id="c", ok=False)
    window_level = MetaRecord(value=0.5, detail=None, **base)
    per_element = MetaRecord(value=False, detail={"element_ref": 3}, **base)
    assert sorted([per_element, window_level], key=MetaRecord.order_key) == \
        [window_level, per_element]
