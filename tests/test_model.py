"""Value domain, durations, timestamps, specs, and the wire format."""

import json
import math
import operator
from datetime import datetime, timedelta, timezone, tzinfo

import pytest
from hypothesis import given, settings, strategies as st

from streamqc.model import (
    EPOCH,
    CheckDefinition,
    ColumnSpec,
    MeasureSpec,
    MetaRecord,
    ModelError,
    Predicate,
    Slice,
    Threshold,
    ValueRange,
    WindowInstance,
    WindowSpec,
    canonical_bytes,
    comparator,
    constraint_verdict,
    epoch_millis,
    format_duration,
    format_ts,
    from_epoch_millis,
    parse_duration,
    parse_ts,
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


# A JSON value of any kind but text or a number (null, a bool, a list, an
# object) is a ModelError too, which a config reports, not an AttributeError.
@pytest.mark.parametrize("bad", ["", "5x", "m5", "-10s", "1h 30m", "s",
                                 None, True, False, [], ["5m"], {}, {"a": 1}])
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


def _format_ts_reference(dt: datetime) -> str:
    # The isoformat rendering that format_ts replaces.
    return utc_ms(dt).isoformat(timespec="milliseconds")[:-6] + "Z"


class _ZeroOffset(tzinfo):
    """UTC by offset, but not the timezone.utc object."""

    def utcoffset(self, dt):
        return timedelta(0)

    def dst(self, dt):
        return timedelta(0)


_OFFSETS = st.sampled_from([timezone.utc, _ZeroOffset(),
                            timezone(timedelta(hours=5, minutes=30)),
                            timezone(-timedelta(hours=11, minutes=45)),
                            timezone(timedelta(hours=23, minutes=59))])


@settings(max_examples=1000, deadline=None)
@given(st.datetimes(min_value=datetime(1, 1, 2), max_value=datetime(9999, 12, 30),
                    timezones=_OFFSETS))
def test_format_ts_matches_the_isoformat_rendering(dt):
    """Random instants at any offset and any microsecond: the converted and
    truncated rendering is byte-identical to the isoformat one."""
    assert format_ts(dt) == _format_ts_reference(dt)


@pytest.mark.parametrize("dt", [
    datetime(1, 1, 1, tzinfo=timezone.utc),
    datetime(1, 1, 1, 23, 59, 59, 999999, tzinfo=timezone.utc),
    datetime(9999, 12, 31, 23, 59, 59, 999000, tzinfo=timezone.utc),
    datetime.max.replace(tzinfo=timezone.utc),  # the engine's end of time: .999
    datetime(9999, 12, 31, 23, 0, tzinfo=timezone(-timedelta(minutes=30))),
    datetime(1, 1, 1, 5, 30, tzinfo=timezone(timedelta(hours=5, minutes=30))),
    datetime(2024, 2, 29, 12, 0, 0, 1, tzinfo=timezone.utc),
    datetime(2024, 2, 29, 12, 0, 0, 999, tzinfo=timezone(timedelta(hours=-3))),
    datetime(2024, 2, 29, 12, 0, 0, 45000, tzinfo=timezone(timedelta(hours=5, minutes=30))),
])
def test_format_ts_matches_the_isoformat_rendering_at_the_edges(dt):
    assert format_ts(dt) == _format_ts_reference(dt)


def test_format_ts_of_the_end_of_time_and_a_naive_datetime():
    from streamqc.windowing import _END_OF_TIME

    assert format_ts(_END_OF_TIME) == "9999-12-31T23:59:59.999Z"
    with pytest.raises(ModelError):
        format_ts(datetime(2024, 1, 1))


def test_parse_ts_round_trip():
    t = ts(2021, 12, 31, 23, 59, 59, 999)
    assert parse_ts(format_ts(t)) == t


def test_parse_ts_is_lenient_for_config_input():
    # Config timestamps accept any ISO form; naive values are taken as UTC.
    assert parse_ts("2015-05-07T11:35:00Z") == ts(2015, 5, 7, 11, 35)
    assert parse_ts("2015-05-07 11:35:00+02:00") == ts(2015, 5, 7, 9, 35)
    assert parse_ts("2015-05-07") == ts(2015, 5, 7)


# Any JSON value but text (null, a bool, a number, a list, an object) is
# a ModelError too.
@pytest.mark.parametrize("bad", ["not a time", "2015-13-01T00:00:00Z", "",
                                 None, True, 0, 1431000000, 2.5, [], ["5m"], {}, {"a": 1}])
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
    once = sorted(values, key=canonical_bytes)
    again = sorted(list(reversed(values)), key=canonical_bytes)
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


def test_value_json_nan_is_null():
    assert value_to_json(math.nan) is None
    assert value_to_json(-math.nan) is None


def test_timestamp_shaped_text_parses_back_as_timestamp():
    # The wire format cannot tell a timestamp-shaped string from a timestamp;
    # such strings round back as timestamps by design.
    assert value_from_json("2015-05-07T11:35:00.000Z") == ts(2015, 5, 7, 11, 35)


def test_infinity_text_parses_back_as_float_infinity():
    # Float infinities travel as these two texts, so the texts themselves
    # round back as floats by design; the output bytes are the same.
    assert value_to_json("Infinity") == value_to_json(math.inf) == "Infinity"
    assert value_to_json("-Infinity") == value_to_json(-math.inf) == "-Infinity"
    assert value_from_json(value_to_json("Infinity")) == math.inf
    assert value_from_json(value_to_json("-Infinity")) == -math.inf


_scalar = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2 ** 62), max_value=2 ** 62),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=30).filter(lambda s: not (len(s) == 24 and s.endswith("Z"))
                                and s not in ("Infinity", "-Infinity")),
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


def _reference_equal(a, b):
    """values_equal by the isinstance rules alone, without the exact-type
    fast path."""
    if a is None or b is None:
        return None
    if isinstance(a, bool) or isinstance(b, bool):
        return a is b if isinstance(a, bool) and isinstance(b, bool) else None
    for kinds in ((int, float), (str,), (datetime,)):
        if isinstance(a, kinds) and isinstance(b, kinds):
            return a == b
    return None


def _reference_compare(op, a, b):
    """comparator(op)(a, b) by the isinstance rules alone."""
    if op in ("=", "!="):
        eq = _reference_equal(a, b)
        return eq if op == "=" or eq is None else not eq
    if isinstance(a, bool) or isinstance(b, bool):
        return None
    if (isinstance(a, (int, float)) and isinstance(b, (int, float))
            or isinstance(a, datetime) and isinstance(b, datetime)):
        return {"<": operator.lt, "<=": operator.le, ">=": operator.ge, ">": operator.gt}[op](a, b)
    return None


class _Int(int):
    pass


class _Float(float):
    pass


_operand = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(min_value=-3, max_value=3),
    st.integers(min_value=-(2 ** 70), max_value=2 ** 70),
    st.floats(),
    st.sampled_from([0.0, -0.0, 1.0, 2.0, -3.0, math.inf, -math.inf, math.nan]),
    st.text(max_size=4),
    st.sampled_from(["", "a", "b"]),
    st.datetimes(timezones=st.just(timezone.utc)).map(utc_ms),
    st.sampled_from([ts(2020, 1, 1), ts(2020, 1, 2)]),
    st.integers(min_value=-3, max_value=3).map(_Int),
    st.sampled_from([0.0, 1.0, 2.0, math.nan]).map(_Float),
)


@settings(max_examples=2000, deadline=None)
@given(_operand, _operand)
def test_comparisons_match_the_isinstance_rules(a, b):
    """The exact-type fast paths of values_equal and comparator answer as
    the isinstance rules do, for every operator and mixed operand types,
    subclasses of int and float included."""
    got, want = values_equal(a, b), _reference_equal(a, b)
    assert got == want and type(got) is type(want), (a, b)
    for op in ("<", "<=", "=", "!=", ">=", ">"):
        got, want = comparator(op)(a, b), _reference_compare(op, a, b)
        assert got == want and type(got) is type(want), (op, a, b)


def test_threshold_holds_table():
    assert comparator("<=")(9, 10) is True
    assert comparator("<")(10, 10) is False
    assert comparator("=")(1, 1.0) is True
    assert comparator("!=")("a", "b") is True
    assert comparator("<")(None, 10) is None
    assert comparator("<")("a", 10) is None  # incomparable types
    assert comparator("<")(True, False) is None  # bools are unordered
    with pytest.raises(ModelError):
        comparator("<>")


def test_constraint_verdict_threshold_and_range():
    assert constraint_verdict(Threshold("<=", 10))({"value": 9}) is True
    assert constraint_verdict(Threshold("<=", 10))({"value": None}) is None
    r = constraint_verdict(ValueRange(0, 10, lo_inclusive=False, hi_inclusive=True))
    assert r({"value": 0}) is False
    assert r({"value": 10}) is True
    assert r({"value": 0.001}) is True


def test_constraint_verdict_predicate_binds_value():
    from streamqc import expression

    # A Predicate's compiled form, over value and the bindings.
    p = constraint_verdict(expression.compile(expression.parse("value > 2 * mu")))
    assert p({"value": 7, "mu": 3}) is True
    assert p({"value": 5, "mu": 3}) is False
    assert p({"value": 5, "mu": None}) is None
    assert constraint_verdict(expression.compile(expression.parse("value + 1")))(
        {"value": 1}) is None  # a result that is not a boolean is a Null verdict
    with pytest.raises(ModelError):  # the text alone is not evaluable
        constraint_verdict(Predicate("value > 2 * mu"))


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
    assert [e.attrs["x"] for e in good.elements] == [1, 2]
    with pytest.raises(ModelError):
        WindowInstance(start=at(60), end=at(0))
    with pytest.raises(ModelError, match="ordered"):
        WindowInstance(start=at(0), end=at(60),
                       elements=(elem(at(2), 0), elem(at(1), 1)))
    with pytest.raises(ModelError, match="ordered"):  # an arrival-order tie
        WindowInstance(at(0), at(60), None, (elem(at(1), 1), elem(at(1), 0)))
    with pytest.raises(ModelError, match="outside"):  # first element before start
        WindowInstance(at(0), at(60), None, (elem(at(-1), 0), elem(at(1), 1)))
    with pytest.raises(ModelError, match="outside"):  # last element at end
        WindowInstance(at(0), at(60), None, (elem(at(1), 0), elem(at(60), 1)))


def _sliced(*runs, start=at(0), end=at(60)):
    """A pane built from parts, one Slice per run of elements."""
    parts = tuple(Slice(list(run)) for run in runs)
    return WindowInstance(start, end, None, tuple(e for run in runs for e in run), parts)


def test_window_instance_from_parts_keeps_the_invariant():
    a = [elem(at(1), 0), elem(at(2), 1)]
    b = [elem(at(2), 2), elem(at(59), 3)]
    assert len(_sliced(a, [], b)) == 4
    with pytest.raises(ModelError, match="ordered"):  # disorder inside one part
        _sliced([elem(at(2), 0), elem(at(1), 1)], b)
    with pytest.raises(ModelError, match="ordered"):  # an arrival-order tie inside one part
        _sliced([elem(at(1), 1), elem(at(1), 0)])
    with pytest.raises(ModelError, match="ordered"):  # disorder across a part boundary
        _sliced(b, a)
    with pytest.raises(ModelError, match="ordered"):  # across an empty part too
        _sliced([elem(at(3), 5)], [], [elem(at(3), 4)])
    with pytest.raises(ModelError, match="outside"):  # first element before start
        _sliced([elem(at(-1), 0)] + a)
    with pytest.raises(ModelError, match="outside"):  # last element at end
        _sliced(a, [elem(at(60), 5)])
    with pytest.raises(ModelError, match="outside"):  # a later part past the end
        _sliced(a, b, start=at(0), end=at(50))
    with pytest.raises(ModelError, match="concatenate"):
        WindowInstance(at(0), at(60), None, tuple(a), (Slice(a), Slice(b)))


def test_window_instance_without_parts_is_one_slice():
    a = (elem(at(1), 0, x=1), elem(at(2), 1, x=2))
    w = WindowInstance(at(0), at(60), None, a)
    assert len(w.parts) == 1 and w.parts[0].elements is a and w.parts[0].ordered == 2
    w.parts[0].memo["k"] = 1  # one memo, shared by every reader
    assert w.parts[0].memo == {"k": 1}
    assert WindowInstance(at(0), at(60)).parts[0].elements == ()


def test_slice_order_is_checked_once_and_again_after_it_grows():
    part = Slice([elem(at(1), 0), elem(at(2), 1)])
    WindowInstance(at(0), at(60), None, tuple(part.elements), (part,))
    assert part.ordered == 2
    part.elements.append(elem(at(1), 2))  # out of order, added after the check
    with pytest.raises(ModelError, match="ordered"):
        WindowInstance(at(0), at(60), None, tuple(part.elements), (part,))
    assert part.ordered == 2  # a failed check marks nothing


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


def test_meta_record_equality_and_repr_ignore_the_tail():
    r = MetaRecord(ts(2015, 5, 7, 11, 35), ts(2015, 5, 7, 11, 40), "k", "c1", 0.5, True,
                   None, "rendered tail")
    assert r == MetaRecord(ts(2015, 5, 7, 11, 35), ts(2015, 5, 7, 11, 40), "k", "c1", 0.5,
                           True)
    assert r != MetaRecord(ts(2015, 5, 7, 11, 35), ts(2015, 5, 7, 11, 40), "k", "c1", 0.5,
                           False)
    assert repr(r).startswith("MetaRecord(window_start=")
    assert repr(r).endswith("ok=True, detail=None)")
    assert list(MetaRecord.__dataclass_fields__) == [
        "window_start", "window_end", "key", "check_id", "value", "ok", "detail", "tail"]
    with pytest.raises(TypeError):  # mutable, so unhashable
        hash(r)


def test_meta_record_order_key_sorts_elements_after_window():
    base = dict(window_start=ts(2015, 5, 7, 11, 35), window_end=ts(2015, 5, 7, 11, 40),
                key=None, check_id="c", ok=False)
    window_level = MetaRecord(value=0.5, detail=None, **base)
    per_element = MetaRecord(value=False, detail={"element_ref": 3}, **base)
    assert sorted([per_element, window_level], key=MetaRecord.order_key) == \
        [window_level, per_element]
