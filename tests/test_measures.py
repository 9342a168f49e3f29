"""Window measures against hand-computed and library oracles."""

import csv
import json
import math
import random
import re
import statistics
import tempfile
from datetime import timedelta
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from streamqc.connectors import SourceCounters, iter_csv, iter_jsonl, parse_time
from streamqc.measures import (
    MEASURES,
    EngineEnv,
    _numbers,
    apply_measure,
    elem_checker_for,
    parse_measure,
)
from streamqc.model import (
    REQUIRED,
    CheckDefinition,
    ColumnSpec,
    MeasureSpec,
    ModelError,
    Predicate,
    Slice,
    WindowInstance,
    WindowSpec,
    ts,
    value_from_json,
    values_equal,
)
from streamqc.monitor import SuiteState

from helpers import assess, at, elem, elems, values_win, win

ENV = EngineEnv()


def run(mid, params, w, env=ENV):
    return apply_measure(MeasureSpec(mid, params), w, env)


def val(mid, params, w, env=ENV):
    return run(mid, params, w, env).value


# ---------------------------------------------------------------------------
# Basic statistics


def test_count_ignores_nulls_volume_does_not():
    w = values_win([1, None, 3, None])
    assert val("count", {"column": "x"}, w) == 2
    assert val("volume", {}, w) == 4


def test_min_max():
    w = values_win([5, 1, None, 9])
    assert val("min", {"column": "x"}, w) == 1
    assert val("max", {"column": "x"}, w) == 9


def test_min_max_timestamps():
    w = values_win([ts(2020, 1, 2), ts(2020, 1, 1)])
    assert val("min", {"column": "x"}, w) == ts(2020, 1, 1)


def test_mean_oracle():
    # 6.13 + 9.50 + 12.45 = 28.08; 28.08 / 3 = 9.36
    w = values_win([6.13, 9.50, 12.45])
    assert abs(val("mean", {"column": "x"}, w) - 9.36) < 1e-12


def test_std_is_population():
    # mu = 20; var = (4 * 400 + 6400) / 5 = 1600; sigma = 40
    w = values_win([0, 0, 0, 0, 100])
    assert val("std", {"column": "x"}, w) == 40.0
    assert val("mean", {"column": "x"}, w) == 20.0


def test_mean_skips_non_numeric_strays():
    # Validation already rejects text columns; a stray bad cell at runtime
    # is dropped rather than poisoning the whole statistic.
    w = values_win([1, 2, "three"])
    assert val("mean", {"column": "x"}, w) == 1.5


def test_mean_std_order_invariant_exactly():
    rng = random.Random(55)
    data = [rng.uniform(-1e6, 1e6) for _ in range(500)]
    base_mean = val("mean", {"column": "x"}, values_win(data))
    base_std = val("std", {"column": "x"}, values_win(data))
    for _ in range(20):
        rng.shuffle(data)
        w = values_win(data)
        assert val("mean", {"column": "x"}, w) == base_mean  # bit-exact
        assert val("std", {"column": "x"}, w) == base_std


def test_z_outlier_count_oracle():
    # mu=20 sigma=40: only |100-20|=80 exceeds 1.5*40=60.
    w = values_win([0, 0, 0, 0, 100])
    assert val("z_outlier_count", {"column": "x", "z": 1.5}, w) == 1
    assert val("z_outlier_count", {"column": "x", "z": 2.1}, w) == 0


def test_z_outlier_count_zero_sigma():
    w = values_win([5, 5, 5])
    assert val("z_outlier_count", {"column": "x", "z": 1.0}, w) == 0


# ---------------------------------------------------------------------------
# Non-finite values: a NaN statistic is Null, and nothing raises


INF = math.inf


def test_mean_over_both_infinities_is_null():
    assert val("mean", {"column": "x"}, values_win([INF, -INF, 1.0])) is None
    assert val("mean", {"column": "x"}, values_win([INF, 1.0])) == INF


def test_mean_and_std_whose_exact_sums_overflow():
    assert val("mean", {"column": "x"}, values_win([1e308, 1e308])) == INF
    assert val("std", {"column": "x"}, values_win([1e200, -1e200])) == INF


def test_std_around_an_infinite_mean_is_null():
    assert val("std", {"column": "x"}, values_win([INF, 1.0])) is None
    assert val("std", {"column": "x"}, values_win([INF, -INF])) is None


def test_z_outlier_count_over_both_infinities_is_null():
    assert val("z_outlier_count", {"column": "x", "z": 1.0}, values_win([INF, -INF, 1.0])) is None


def test_correlation_over_infinities_is_null():
    params = {"column_a": "a", "column_b": "b"}
    assert val("correlation", params, corr_win([INF, -INF, 1.0], [1.0, 2.0, 3.0])) is None
    assert val("correlation", params, corr_win([INF, 1.0, 2.0], [1.0, 2.0, 3.0])) is None


def test_percentile_between_the_infinities_is_null():
    r = run("percentiles", {"column": "x", "points": [0.5]}, values_win([-INF, INF]))
    assert r.value is None and r.detail["values"] == [None]
    r = run("percentiles", {"column": "x", "points": [0.0, 1.0]}, values_win([INF, -INF]))
    assert r.detail["values"] == [-INF, INF]


def test_an_int_beyond_the_float_range_counts_as_an_infinity():
    huge = 10 ** 400
    assert val("mean", {"column": "x"}, values_win([huge, 1])) == INF
    assert val("mean", {"column": "x"}, values_win([1, -huge])) == -INF
    assert val("mean", {"column": "x"}, values_win([huge, -huge, 1])) is None
    assert val("std", {"column": "x"}, values_win([huge, 1])) is None
    assert val("z_outlier_count", {"column": "x", "z": 1.0}, values_win([huge, 1])) is None
    params = {"column_a": "a", "column_b": "b"}
    assert val("correlation", params, corr_win([huge, 1, 2], [1.0, 2.0, 3.0])) is None
    r = run("percentiles", {"column": "x", "points": [0.0, 0.5, 1.0]}, values_win([-huge, 1]))
    assert r.detail["values"] == [-INF, None, 1.0]  # as for the float -inf


# ---------------------------------------------------------------------------
# Completeness and placeholders


def test_completeness_oracle():
    w = values_win([1.0] * 17 + [None] * 3)
    assert val("completeness", {"column": "x"}, w) == 0.85


def test_completeness_with_missing_tokens():
    w = values_win(["a", "N/A", "b", "N/A", "c"])
    r = run("completeness", {"column": "x", "missing_tokens": ["N/A"]}, w)
    assert r.value == 0.6


def test_completeness_empty_text():
    w = values_win(["a", "", "b"])
    assert val("completeness", {"column": "x"}, w) == 1.0
    assert val("completeness", {"column": "x", "empty_text_missing": True}, w) == \
        pytest.approx(2 / 3)


def test_placeholder_report_oracle():
    w = values_win(["99", "ok", "99", "-", "fine", "-"])
    r = run("placeholder_report", {"column": "x", "tokens": ["99", "-", "N/A"]}, w)
    assert r.value == 2  # distinct placeholders actually present
    assert r.detail == {"distinct_placeholders_present": 2,
                        "placeholder_fraction": pytest.approx(4 / 6)}
    assert val("placeholder_report",
               {"column": "x", "tokens": ["99"], "output": "fraction"}, w) == \
        pytest.approx(2 / 6)


# ---------------------------------------------------------------------------
# Distinctness


def test_distinct_count_exact():
    w = values_win(["a", "b", "b", "c", None])
    assert val("distinct_count", {"column": "x"}, w) == 3


def test_distinct_count_type_tagged():
    w = values_win([1, 1.0, True, "1"])
    assert val("distinct_count", {"column": "x"}, w) == 4


def test_distinct_count_approx_close_to_exact():
    for seed in (0, 1, 2):
        env = EngineEnv(hash_seed=seed)
        w = values_win([f"v{i}" for i in range(10_000)])
        got = val("distinct_count", {"column": "x", "mode": "approx"}, w, env)
        assert abs(got - 10_000) / 10_000 <= 0.05


def test_uniqueness_oracle():
    # Only "a" appears exactly once: unique_count 1, ratio 1/3.
    w = values_win(["a", "b", "b"])
    r = run("uniqueness", {"column": "x"}, w)
    assert r.value == pytest.approx(1 / 3)
    assert r.detail == {"unique_count": 1, "ratio": pytest.approx(1 / 3)}
    assert val("uniqueness", {"column": "x", "output": "unique_count"}, w) == 1


def test_heavy_hitters_exact_oracle():
    w = values_win(["a"] * 5 + ["b"] * 3 + ["c"] * 2)
    r = run("heavy_hitters", {"column": "x", "phi": 0.4}, w)
    assert r.value == 1
    assert r.detail["items"] == [{"item": "a", "lo": 5, "hi": 5}]
    r2 = run("heavy_hitters", {"column": "x", "phi": 0.2}, w)
    assert [i["item"] for i in r2.detail["items"]] == ["a", "b", "c"]


def test_heavy_hitters_approx_bounds():
    rng = random.Random(19)
    data = [f"hot-{rng.randrange(4)}" if rng.random() < 0.5 else f"c-{rng.randrange(900)}"
            for _ in range(8000)]
    from collections import Counter

    truth = Counter(data)
    r = run("heavy_hitters",
            {"column": "x", "phi": 0.05, "mode": "approx", "capacity": 64},
            values_win(data))
    assert r.detail["mode"] == "approx"
    for item in r.detail["items"]:
        assert item["lo"] <= truth[item["item"]] <= item["hi"]
    for v, c in truth.items():
        if c > len(data) * 0.05:
            assert v in {i["item"] for i in r.detail["items"]}


# ---------------------------------------------------------------------------
# Percentiles and lengths


def test_percentiles_type7_oracle():
    w = values_win([1, 2, 3, 4])
    # h = (n-1) q: q=0.5 -> 2.5, q=0.25 -> 1.75
    assert val("percentiles", {"column": "x", "points": [0.5]}, w) == 2.5
    assert val("percentiles", {"column": "x", "points": [0.25]}, w) == 1.75
    r = run("percentiles", {"column": "x", "points": [0.25, 0.5]}, w)
    assert r.value is None
    assert r.detail == {"points": [0.25, 0.5], "values": [1.75, 2.5]}


def test_percentiles_match_numpy_linear():
    rng = random.Random(77)
    data = [rng.uniform(0, 100) for _ in range(257)]
    w = values_win(data)
    for q in (0.0, 0.1, 0.25, 0.5, 0.9, 0.99, 1.0):
        got = val("percentiles", {"column": "x", "points": [q]}, w)
        want = float(np.percentile(data, q * 100, method="linear"))
        assert got == pytest.approx(want, rel=1e-12), q


def test_length_stats():
    w = values_win(["ab", "héllo", "", None])
    assert val("length_stats", {"column": "x", "statistic": "min"}, w) == 0
    assert val("length_stats", {"column": "x", "statistic": "max"}, w) == 5
    assert val("length_stats", {"column": "x", "statistic": "mean"}, w) == \
        pytest.approx(7 / 3)


# ---------------------------------------------------------------------------
# Correlation


def corr_win(xs, ys):
    return win([elem(at(i), i, a=x, b=y) for i, (x, y) in enumerate(zip(xs, ys))])


def test_correlation_pearson_oracle():
    w = corr_win([1, 2, 3], [2, 4, 6])
    assert val("correlation", {"column_a": "a", "column_b": "b"}, w) == \
        pytest.approx(1.0)
    w2 = corr_win([1, 2, 3], [6, 4, 2])
    assert val("correlation", {"column_a": "a", "column_b": "b"}, w2) == \
        pytest.approx(-1.0)


def test_correlation_matches_statistics_module():
    rng = random.Random(31)
    xs = [rng.gauss(0, 1) for _ in range(200)]
    ys = [x * 0.5 + rng.gauss(0, 1) for x in xs]
    got = val("correlation", {"column_a": "a", "column_b": "b"}, corr_win(xs, ys))
    assert got == pytest.approx(statistics.correlation(xs, ys), rel=1e-9)


def test_correlation_spearman_matches_scipy():
    from scipy.stats import spearmanr

    rng = random.Random(41)
    xs = [rng.randrange(10) for _ in range(150)]  # heavy ties
    ys = [x + rng.randrange(5) for x in xs]
    got = val("correlation",
              {"column_a": "a", "column_b": "b", "method": "spearman"},
              corr_win(xs, ys))
    assert got == pytest.approx(spearmanr(xs, ys).statistic, rel=1e-9)


def test_correlation_pairwise_complete_and_degenerate():
    w = corr_win([1, None, 3, 4], [2, 5, None, 8])
    # Complete pairs: (1,2) and (4,8) only -> n=2, still defined.
    assert val("correlation", {"column_a": "a", "column_b": "b"}, w) == \
        pytest.approx(1.0)
    assert val("correlation", {"column_a": "a", "column_b": "b"},
               corr_win([1], [2])) is None  # n < 2
    assert val("correlation", {"column_a": "a", "column_b": "b"},
               corr_win([3, 3, 3], [1, 2, 3])) is None  # zero variance


# ---------------------------------------------------------------------------
# Ordering, intervals, arrival order


def test_ordering_violations_oracle():
    assert val("ordering_violations", {"column": "x"}, values_win([1, 2, 2, 3])) == 0
    assert val("ordering_violations", {"column": "x", "strict": True},
               values_win([1, 2, 2, 3])) == 1
    assert val("ordering_violations", {"column": "x"}, values_win([3, 1, 2])) == 1
    assert val("ordering_violations", {"column": "x", "direction": "desc"},
               values_win([3, 1, 2])) == 1
    with pytest.raises(ModelError, match="'direction' must be one of asc/desc"):
        val("ordering_violations", {"column": "x", "direction": "descending"},
            values_win([3, 1, 2]))


def test_ordering_null_breaks_chain():
    # Null is one violation and resets the chain: 1, (null), 0 -> exactly 1.
    assert val("ordering_violations", {"column": "x"}, values_win([1, None, 0])) == 1
    assert val("ordering_violations", {"column": "x"}, values_win([None, None])) == 2


def iv_win(pairs, with_null=None):
    out = []
    for i, p in enumerate(pairs):
        s = at(p[0]) if p[0] is not None else None
        e = at(p[1]) if p[1] is not None else None
        out.append(elem(at(i), i, s=s, e=e))
    return win(out)


IV = {"start_column": "s", "end_column": "e"}


def test_interval_conflicts_oracle():
    assert val("interval_conflicts", {**IV, "policy": "gaps_allowed"},
               iv_win([(0, 5), (5, 9)])) == 0
    assert val("interval_conflicts", {**IV, "policy": "gaps_disallowed"},
               iv_win([(0, 5), (5, 9)])) == 0  # touching is contiguous
    assert val("interval_conflicts", {**IV, "policy": "gaps_required"},
               iv_win([(0, 5), (5, 9)])) == 1  # touching violates required gaps
    assert val("interval_conflicts", {**IV, "policy": "gaps_allowed"},
               iv_win([(0, 5), (3, 9)])) == 1  # overlap always violates
    assert val("interval_conflicts", {**IV, "policy": "gaps_disallowed"},
               iv_win([(0, 5), (6, 9)])) == 1  # gap violates disallowed


def test_interval_conflicts_malformed():
    # A Null endpoint or end < start is one violation per interval.
    assert val("interval_conflicts", {**IV}, iv_win([(5, 2), (None, 3)])) == 2


def test_out_of_order_count_oracle():
    w = values_win([1, 3, 2, 5, 4])
    assert val("out_of_order_count", {"column": "x"}, w) == 2
    assert val("out_of_order_count", {"column": "x"}, values_win([1, 2, 3])) == 0


def test_out_of_order_count_uses_arrival_order():
    # Arrival order deliberately disagrees with event-time order.
    e0 = elem(at(10), 0, x=at(10))
    e1 = elem(at(5), 1, x=at(5))
    w = WindowInstance(start=at(0), end=at(60), elements=(e1, e0))
    assert val("out_of_order_count", {}, w) == 1


def test_freshness_against_watermark_and_fixed():
    w = win([elem(at(0), 0), elem(at(90), 1)], start=at(0), end=at(120))
    env = EngineEnv(watermark=at(150))
    assert val("freshness", {"reference": "watermark"}, w, env) == 60.0
    iso = (at(300)).strftime("%Y-%m-%dT%H:%M:%S.000Z")
    assert val("freshness", {"reference": iso}, w) == 210.0


# ---------------------------------------------------------------------------
# Schema and types


def test_schema_check_modes():
    w = win([elem(at(0), 0, a=1, b="x"), elem(at(1), 1, a=2, b="y")])
    assert val("schema_check", {"expected": ["a", "b"]}, w) is True
    w_missing = win([elem(at(0), 0, a=1)])
    assert val("schema_check", {"expected": ["a", "b"]}, w_missing) is False
    w_extra = win([elem(at(0), 0, a=1, b="x", c=3)])
    assert val("schema_check", {"expected": ["a", "b"]}, w_extra) is True
    assert val("schema_check",
               {"expected": ["a", "b"], "mode": "presence_absence"}, w_extra) is False
    w_swapped = win([elem(at(0), 0, b="x", a=1)])
    assert val("schema_check",
               {"expected": ["a", "b"], "mode": "presence_order"}, w_swapped) is False


def test_type_check_fractions():
    w = values_win(["1.5", "2x", "3", None])
    # Parseability over non-Null cells: 2 of 3.
    assert val("type_check", {"column": "x", "expected": "float"}, w) == \
        pytest.approx(2 / 3)
    assert val("type_check", {"column": "x", "expected": "int"},
               values_win(["07", "7.5", "x"])) == pytest.approx(1 / 3)


def test_type_check_timestamp_formats():
    w = values_win(["2015-05-07 11:35:00", "nope"])
    got = val("type_check",
              {"column": "x", "expected": "timestamp",
               "formats": ["%Y-%m-%d %H:%M:%S"]}, w)
    assert got == 0.5


# Cells that a source rejects as timestamps under the format: padded ISO
# text, epoch text or numbers that are not finite or lie past the timestamp
# range, fractional epoch_ms text or numbers, and bools.
REJECTED_TIMESTAMPS = [(" 2015-05-07T11:00:00Z", "iso"), ("1.5", "epoch_ms"),
                       ("1431000000.5", "epoch_ms"), (1431000000.7, "epoch_ms")] + [
    (cell, fmt) for fmt in ("epoch_s", "epoch_ms")
    for cell in ("nan", "inf", "-inf", "1e300", math.inf, 1e300, 10 ** 30, True, False)]


def type_verdict(cell, expected, formats=("iso",)):
    checker = elem_checker_for(MeasureSpec("type_check", {
        "column": "x", "expected": expected, "formats": list(formats)}), ENV)
    return checker(elem(at(0), 0, x=cell))


@pytest.mark.parametrize("cell,fmt", REJECTED_TIMESTAMPS)
def test_type_check_fails_a_timestamp_the_source_rejects(cell, fmt):
    assert parse_time(cell, fmt) is None
    assert type_verdict(cell, "timestamp", [fmt]) is False
    assert type_verdict(cell, "timestamp", ["%Y", fmt]) is False


def test_type_check_passes_a_timestamp_the_source_reads():
    for cell, fmt in [("2015-05-07T11:00:00Z", "iso"), ("1431000000.5", "epoch_s"),
                      ("1431000000", "epoch_ms"), (1431000000, "epoch_s"),
                      (1431000000.5, "epoch_s"), (1431000000, "epoch_ms"),
                      (ts(2015, 5, 7), "%Y")]:
        assert type_verdict(cell, "timestamp", [fmt]) is True, (cell, fmt)
    assert type_verdict(" 2015-05-07T11:00:00Z", "timestamp", ["%Y", "iso", " %Y-%m-%dT%H:%M:%SZ"])
    assert type_verdict(True, "timestamp", ["epoch_s"]) is False  # a bool is only a bool


# The other expected types' verdicts on the edge cells, which reading a
# cell by the source's coercers leaves as they were: the types each passes.
TYPE_GRID = [
    (" 2015-05-07T11:00:00Z", {"text"}), ("nan", {"text"}), ("inf", {"float", "text"}),
    ("-inf", {"float", "text"}), ("1e300", {"float", "text"}), ("1.5", {"float", "text"}),
    ("1431000000.5", {"float", "text"}), ("1431000000", {"int", "float", "text"}),
    (" 7 ", {"int", "float", "text"}), ("1_000", {"int", "float", "text"}),
    ("", {"text"}), ("true", {"bool", "text"}), ("FALSE", {"bool", "text"}), ("x", {"text"}),
    (math.inf, {"float"}), (1e300, {"float"}), (10 ** 30, {"int", "float"}), (7, {"int", "float"}),
    (1.5, {"float"}), (True, {"bool"}), (False, {"bool"}), (ts(2015, 5, 7), set()),
    (10 ** 400, {"int"}),
]


@pytest.mark.parametrize("cell,passes", TYPE_GRID)
def test_type_check_verdicts_of_the_other_types(cell, passes):
    for expected in ("int", "float", "bool", "text"):
        assert type_verdict(cell, expected) is (expected in passes), expected


DIFFERENTIAL_FORMATS = [("int", "iso"), ("float", "iso"), ("bool", "iso"), ("text", "iso")] + [
    ("timestamp", fmt) for fmt in ("iso", "epoch_s", "epoch_ms", "%Y-%m-%d %H:%M:%S")]
TEXT_GRID = [cell for cell, _ in REJECTED_TIMESTAMPS + TYPE_GRID if isinstance(cell, str)] + [
    "2015-05-07T11:00:00.000Z", "2015-05-07T11:00:00.0004z", "2015-05-07T13:00:00+02:00",
    "2015-05-07", "20150507T110000Z", "0001-01-01T00:00:00+01:00", "9999-12-31T23:59:59.999Z",
    "2015-05-07 11:35:00", "-62135596800", "253402300800000", "1e3", "0x10", "+5"]


def source_reads(cells, type_name, fmt, path):
    """Per cell: whether a source holding the cells in a column of that type
    and format yields a non-Null value with no parse failure: iter_jsonl
    when path ends in .jsonl, else iter_csv."""
    jsonl = path.endswith(".jsonl")
    with open(path, "w", encoding="utf-8", newline="") as fp:
        if jsonl:
            fp.writelines(json.dumps({"t": "2015-05-07T11:00:00Z", "c": c}) + "\n" for c in cells)
        else:
            csv.writer(fp).writerows([["t", "c"]] + [["2015-05-07T11:00:00Z", c] for c in cells])
    counters = SourceCounters()
    schema = [ColumnSpec("t", "timestamp"), ColumnSpec("c", type_name, nullable=True)]
    reads, failed = [], 0
    for e in (iter_jsonl if jsonl else iter_csv)(path, schema, "t", {"c": fmt}, counters):
        now = counters.parse_failures.get("c", 0)
        reads.append(e.attrs["c"] is not None and now == failed)
        failed = now
    assert len(reads) == len(cells)
    return reads


@settings(max_examples=40, deadline=None)
@given(st.lists(st.one_of(
    st.text(max_size=12),
    st.from_regex(r"\s?[+-]?(\d{1,20}(\.\d{0,4})?|inf|nan)(e[+-]?\d{1,3})?\s?", fullmatch=True),
    st.from_regex(r"\d{4}-\d\d-\d\d([T ]\d\d:\d\d(:\d\d(\.\d{1,6})?)?)?"
                  r"(Z|z|[+-]\d\d:\d\d)?", fullmatch=True)), max_size=20))
def test_type_check_agrees_with_the_csv_source(drawn):
    """type_check's verdict on a text cell is whether a CSV source reads
    the cell as a non-Null value of the type, under the format."""
    cells = TEXT_GRID + drawn
    with tempfile.TemporaryDirectory() as tmp:
        for type_name, fmt in DIFFERENTIAL_FORMATS:
            reads = source_reads(cells, type_name, fmt, str(Path(tmp) / "cells.csv"))
            verdicts = [type_verdict(cell, type_name, [fmt]) for cell in cells]
            assert verdicts == reads, [(c, v) for c, v, r in zip(cells, verdicts, reads)
                                       if v != r][:5]


# JSON values of each kind but Null, which type_check leaves to null_verdict;
# a NaN is Null before any check sees it.
JSON_GRID = [True, False, 0, 7, -3, 10 ** 30, 10 ** 400, 1.5, 7.0, -0.0, 1e300, math.inf,
             -math.inf, 1431000000, 1431000000.5, 1431000000.0, 1431000000123, 253402300800000,
             [1], {"a": 1}]


@settings(max_examples=40, deadline=None)
@given(st.lists(st.one_of(st.booleans(), st.integers(), st.floats(allow_nan=False),
                          st.text(max_size=12)), max_size=20))
def test_type_check_agrees_with_the_jsonl_source(drawn):
    """type_check's verdict on a JSON value is whether a JSONL source reads
    the value as a non-Null value of the type, under the format. Text is
    compared for timestamps and text only: a JSONL source reads no text as
    an int, float or bool, while type_check reads it by the CSV rule."""
    with tempfile.TemporaryDirectory() as tmp:
        for type_name, fmt in DIFFERENTIAL_FORMATS:
            cells = [c for c in JSON_GRID + TEXT_GRID + drawn
                     if type_name in ("timestamp", "text") or not isinstance(c, str)]
            reads = source_reads(cells, type_name, fmt, str(Path(tmp) / "cells.jsonl"))
            verdicts = [type_verdict(cell, type_name, [fmt]) for cell in cells]
            assert verdicts == reads, [(c, v) for c, v, r in zip(cells, verdicts, reads)
                                       if v != r][:5]


# ---------------------------------------------------------------------------
# Cross-stream matching


def test_match_ratio_oracle():
    secondary_pane = values_win(["a", "b"], start=at(0), end=at(60))

    def lookup(start, end, key):
        return secondary_pane if (start, end) == (at(0), at(60)) else None

    env = EngineEnv(secondary=lookup)
    w = values_win(["a", "b", "c"], start=at(0), end=at(60))
    assert val("match_ratio", {"on": "x"}, w, env) == pytest.approx(2 / 3)


def test_match_ratio_missing_secondary_pane():
    env = EngineEnv(secondary=lambda s, e, k: None)
    w = values_win(["a"], start=at(0), end=at(60))
    assert val("match_ratio", {"on": "x"}, w, env) == 0.0


# ---------------------------------------------------------------------------
# Element-level measures


def test_valid_range():
    # Fractions are over all elements: a Null cell is not a pass.
    w = values_win([0.0, 5.0, -1.0, None])
    params = {"column": "x", "lo": 0.0}
    assert val("valid_range", params, w) == 0.5
    assert val("valid_range", {"column": "x", "lo": 0.0, "lo_inclusive": False}, w) \
        == 0.25
    assert val("valid_range", {"column": "x", "lo": 0.0, "hi": 4.0}, w) == 0.25


def test_valid_range_timestamps():
    w = values_win([ts(2020, 1, 1), ts(2030, 1, 1)])
    got = val("valid_range", {"column": "x", "hi": "2025-01-01T00:00:00.000Z"}, w)
    assert got == 0.5


def test_in_set_widening_membership():
    w = values_win([1, 1.0, 2])
    assert val("in_set", {"column": "x", "allowed": [1, 2]}, w) == 1.0


# JSON forms of set members: text in two cases, widening numbers, bools, a
# timestamp and an infinity.
_MEMBERS = ["a", "A", "b", "é", 1, 1.0, 2, True, False, 0,
            "2015-05-07T11:00:00.000Z", "Infinity"]


class _Int(int):
    pass


class _Float(float):
    pass


@settings(deadline=None)
@given(st.lists(st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(), st.text(max_size=3),
    st.integers().map(_Int), st.floats().map(_Float), st.builds(lambda: at(0)))))
def test_numbers_keep_the_isinstance_rule(values):
    """The exact-type fast path of _numbers keeps what the isinstance chain
    alone keeps: ints and floats and their subclasses, never a bool (an
    int subclass), each as the same object and in element order."""
    elements = [elem(at(i), i, x=v) for i, v in enumerate(values)]
    want = [v for v in values
            if v is not None and not isinstance(v, bool) and isinstance(v, (int, float))]
    got = _numbers(elements, "x")
    assert len(got) == len(want) and all(a is b for a, b in zip(got, want))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.sampled_from(_MEMBERS), min_size=1, max_size=4),
       st.lists(st.sampled_from(_MEMBERS + [None]), max_size=12))
def test_in_set_verdicts_follow_values_equal(allowed, values):
    """A row is in the set when values_equal finds it among the allowed
    values; a Null row has a Null verdict. The result's misses are the rows
    whose verdict is not True, with it, in pane order."""
    values = [value_from_json(v) for v in values]
    window = values_win(values)
    result = run("in_set", {"column": "x", "allowed": allowed}, window)
    members = [value_from_json(a) for a in allowed]
    verdicts = [None if v is None else any(values_equal(v, a) is True for a in members)
                for v in values]
    assert [(e.arrival_seq, v) for e, v in result.misses] == \
        [(e.arrival_seq, v) for e, v in zip(window.elements, verdicts) if v is not True]
    assert result.value == (verdicts.count(True) / len(values) if values else None)


def test_in_set_proper_subset_guard():
    params = {"column": "x", "allowed": ["A", "B", "C"], "proper": True}
    full = run("in_set", params, values_win(["A", "B", "C"]))
    assert full.value == 1.0 and full.force_fail
    partial = run("in_set", params, values_win(["A", "B"]))
    assert partial.value == 1.0 and not partial.force_fail


def test_matches_pattern():
    w = values_win(["TX-1234", "TX-12", "ZZ-0000"])
    assert val("matches_pattern", {"column": "x", "pattern": "TX-[0-9]{4}"}, w) == \
        pytest.approx(1 / 3)


def test_conforms_expression():
    w = win([elem(at(0), 0, fare=10.0, tip=1.0),
             elem(at(1), 1, fare=5.0, tip=9.0)])
    assert val("conforms", {"expression": "tip < fare"}, w) == 0.5


def test_elem_checker_matches_window_fraction():
    checker = elem_checker_for(MeasureSpec("valid_range", {"column": "x", "lo": 0}), ENV)
    assert checker(elem(at(0), 0, x=5)) is True
    assert checker(elem(at(0), 1, x=-5)) is False
    assert checker(elem(at(0), 2, x=None)) is None


# ---------------------------------------------------------------------------
# Empty-window contract


EMPTY_EXPECTATIONS = {
    "count": ({"column": "x"}, 0),
    "min": ({"column": "x"}, None),
    "max": ({"column": "x"}, None),
    "mean": ({"column": "x"}, None),
    "std": ({"column": "x"}, None),
    "z_outlier_count": ({"column": "x", "z": 2.0}, 0),
    "completeness": ({"column": "x"}, None),
    "placeholder_report": ({"column": "x", "tokens": ["-"]}, 0),
    "distinct_count": ({"column": "x"}, 0),
    "uniqueness": ({"column": "x"}, None),
    "heavy_hitters": ({"column": "x", "phi": 0.1}, 0),
    "percentiles": ({"column": "x", "points": [0.5]}, None),
    "length_stats": ({"column": "x", "statistic": "mean"}, None),
    "correlation": ({"column_a": "a", "column_b": "b"}, None),
    "ordering_violations": ({"column": "x"}, 0),
    "interval_conflicts": ({"start_column": "s", "end_column": "e"}, 0),
    "out_of_order_count": ({}, 0),
    "freshness": ({"reference": "2015-05-07T12:00:00.000Z"}, None),
    "volume": ({}, 0),
    "schema_check": ({"expected": ["x"]}, True),
    "type_check": ({"column": "x", "expected": "int"}, None),
    "match_ratio": ({"on": "x"}, None),
    "valid_range": ({"column": "x", "lo": 0}, None),
    "in_set": ({"column": "x", "allowed": ["a"]}, None),
    "matches_pattern": ({"column": "x", "pattern": "a+"}, None),
    "conforms": ({"expression": "x > 0"}, None),
}


@pytest.mark.parametrize("mid", sorted(EMPTY_EXPECTATIONS))
def test_empty_window_contract(mid):
    # Counts report 0 on empty windows; statistics and fractions report Null.
    params, expected = EMPTY_EXPECTATIONS[mid]
    empty = WindowInstance(start=at(0), end=at(60))
    got = val(mid, params, empty,
              EngineEnv(secondary=lambda s, e, k: None) if mid == "match_ratio" else ENV)
    assert got == expected if expected is not None else got is None


def test_every_registered_measure_has_empty_expectation():
    from streamqc.measures import MEASURES

    assert set(MEASURES) == set(EMPTY_EXPECTATIONS)


# ---------------------------------------------------------------------------
# Validation


def test_validate_measure_catches_problems():
    columns = {"fare": "float", "zone": "text", "t": "timestamp"}
    assert parse_measure(MeasureSpec("mean", {"column": "fare"}), columns)[1] == []
    assert parse_measure(MeasureSpec("nope", {}), columns)[1]
    assert parse_measure(MeasureSpec("mean", {"column": "missing"}), columns)[1]
    assert parse_measure(MeasureSpec("mean", {"column": "fare", "bogus": 1}), columns)[1]
    assert parse_measure(MeasureSpec("mean", {"column": "zone"}), columns)[1]  # not numeric
    assert parse_measure(MeasureSpec("z_outlier_count", {"column": "fare", "z": -1}), columns)[1]
    assert parse_measure(MeasureSpec("heavy_hitters", {"column": "zone", "phi": 1.5}), columns)[1]
    assert parse_measure(MeasureSpec("percentiles", {"column": "fare", "points": []}), columns)[1]
    assert parse_measure(MeasureSpec("in_set", {"column": "zone", "allowed": []}), columns)[1]
    assert parse_measure(MeasureSpec("matches_pattern", {"column": "zone", "pattern": "("}),
                         columns)[1]
    assert parse_measure(MeasureSpec("conforms", {"expression": "fare >"}), columns)[1]
    assert parse_measure(MeasureSpec("conforms", {"expression": "ghost > 0"}), columns)[1]
    assert parse_measure(MeasureSpec("valid_range", {"column": "fare"}), columns)[1]  # no bound
    assert parse_measure(MeasureSpec("valid_range", {"column": "fare", "lo": "low"}), columns)[1]


def test_underscore_params_are_rejected():
    assert parse_measure(MeasureSpec("conforms", {"expression": "fare > 0", "_expr": 1}),
                         {"fare": "float"})[1]


TYPED_COLUMNS = {"n": "float", "i": "int", "s": "text", "ts": "timestamp", "ts2": "timestamp",
                 "flag": "bool"}

# A valid spec for every measure that sets every declared parameter.
FULL_SPECS = {
    "count": {"column": "n"},
    "min": {"column": "ts"},
    "max": {"column": "i"},
    "mean": {"column": "n"},
    "std": {"column": "i"},
    "z_outlier_count": {"column": "n", "z": 2.0},
    "completeness": {"column": "n", "missing_tokens": [-1, "?"], "empty_text_missing": True},
    "placeholder_report": {"column": "s", "tokens": ["-", 0], "output": "fraction"},
    "distinct_count": {"column": "s", "mode": "approx", "precision": 10},
    "uniqueness": {"column": "s", "output": "unique_count"},
    "heavy_hitters": {"column": "s", "phi": 0.25, "mode": "approx", "capacity": 8},
    "percentiles": {"column": "n", "points": [0.5, 1]},
    "length_stats": {"column": "s", "statistic": "max"},
    "correlation": {"column_a": "n", "column_b": "i", "method": "spearman"},
    "ordering_violations": {"column": "ts", "direction": "desc", "strict": True},
    "interval_conflicts": {"start_column": "ts", "end_column": "ts2", "policy": "gaps_required"},
    "out_of_order_count": {"column": "ts"},
    "freshness": {"reference": "2015-05-07T12:00:00.000Z"},
    "volume": {},
    "schema_check": {"expected": ["n", "s"], "mode": "presence_order"},
    "type_check": {"column": "s", "expected": "timestamp", "formats": ["iso", "epoch_s"]},
    "match_ratio": {"on": "s"},
    "valid_range": {"column": "n", "lo": 0, "hi": 10.5, "lo_inclusive": False,
                    "hi_inclusive": True},
    "in_set": {"column": "s", "allowed": ["a", "b"], "proper": True},
    "matches_pattern": {"column": "s", "pattern": "[a-z]+"},
    "conforms": {"expression": "n > 0 and s != 'x'"},
}

# One value of each JSON type, plus lists and objects nested in a list.
WRONG_VALUES = [[], [1], [[1]], [{"x": 1}], ["a", None], {}, {"x": 1}, True, False, "",
                "zzz", "2015-05-07T11:00:00.000Z", 0, 3, -1.5, 1e300, None]


def _suite_of(mid, params):
    # A predicate constraint: it type-checks against any measure result.
    check = CheckDefinition(id="c", measure=MeasureSpec(mid, params),
                            constraint=Predicate("value = value"), emit_per_element=False)
    schema = [ColumnSpec(name, kind, nullable=True) for name, kind in TYPED_COLUMNS.items()]
    return SuiteState([check], schema, WindowSpec("tumbling", duration=timedelta(minutes=1)),
                      secondary=lambda start, end, key: None)


def test_full_specs_cover_every_declared_parameter():
    assert set(FULL_SPECS) == set(MEASURES)
    for mid, params in FULL_SPECS.items():
        assert set(params) == set(MEASURES[mid].params), mid
        assert parse_measure(MeasureSpec(mid, params), TYPED_COLUMNS)[1] == [], mid


@pytest.mark.parametrize("mid", sorted(FULL_SPECS))
def test_wrong_json_types_are_errors_or_build_never_crash(mid):
    """validate and run agree: a parameter value either fails validation
    with a message naming the parameter, or the suite builds and measures."""
    pane = win([elem(at(0), 0, n=1.0, i=2, s="a", ts=at(1), ts2=at(2), flag=True),
                elem(at(5), 1, n=None, i=None, s="2015-05-07T11:00:00.000Z", ts=at(0),
                     ts2=None, flag=None)])
    for name in MEASURES[mid].params:
        for wrong in WRONG_VALUES:
            params = {**FULL_SPECS[mid], name: wrong}
            errors = parse_measure(MeasureSpec(mid, params), TYPED_COLUMNS)[1]
            if errors:
                assert any(f"'{name}'" in e for e in errors), (name, wrong, errors)
                with pytest.raises(ValueError, match="invalid suite"):
                    _suite_of(mid, params)
            else:
                records, _ = assess(_suite_of(mid, params), pane)
                assert [r.check_id for r in records] == ["c"], (name, wrong)


# ---------------------------------------------------------------------------
# Per-slice partials merged per pane


MERGED_SPECS = [
    ("mean", {"column": "x"}),
    ("std", {"column": "x"}),
    ("completeness", {"column": "x"}),
    ("completeness", {"column": "x", "missing_tokens": [-1, "?"], "empty_text_missing": True}),
    ("distinct_count", {"column": "x"}),
    ("distinct_count", {"column": "x", "mode": "approx"}),
    ("distinct_count", {"column": "x", "mode": "approx", "precision": 6}),
    ("uniqueness", {"column": "x"}),
    ("uniqueness", {"column": "x", "output": "unique_count"}),
    ("volume", {}),
    ("count", {"column": "x"}),
    ("valid_range", {"column": "x", "lo": -40, "hi": 1000.5, "hi_inclusive": False}),
    ("in_set", {"column": "x", "allowed": [-1, "?", 3, 7.5]}),
    ("in_set", {"column": "x", "allowed": [-1, "?", ""], "proper": True}),
    ("matches_pattern", {"column": "x", "pattern": "[?]?"}),
    ("conforms", {"expression": "x > 0 or x = -1"}),
    ("schema_check", {"expected": ["x"]}),
    ("type_check", {"column": "x", "expected": "int"}),
    ("min", {"column": "x"}),
    ("max", {"column": "x"}),
    ("z_outlier_count", {"column": "x", "z": 1.5}),
    ("placeholder_report", {"column": "x", "tokens": [-1, "?", ""]}),
    ("placeholder_report", {"column": "x", "tokens": [-1, 7.5], "output": "fraction"}),
    ("heavy_hitters", {"column": "x", "phi": 0.02}),
    ("heavy_hitters", {"column": "x", "phi": 0.05, "mode": "approx", "capacity": 6}),
    ("percentiles", {"column": "x", "points": [0, 0.3, 0.5, 1]}),
    ("length_stats", {"column": "x", "statistic": "std"}),
    ("length_stats", {"column": "x", "statistic": "min"}),
    ("correlation", {"column_a": "x", "column_b": "y"}),
    ("correlation", {"column_a": "x", "column_b": "y", "method": "spearman"}),
    ("ordering_violations", {"column": "x"}),
    ("ordering_violations", {"column": "x", "direction": "desc", "strict": True}),
    ("interval_conflicts", {"start_column": "x", "end_column": "y",
                            "policy": "gaps_disallowed"}),
    ("out_of_order_count", {"column": "x"}),
    ("out_of_order_count", {}),
    ("freshness", {"reference": "2015-05-07T12:00:00.000Z"}),
    ("freshness", {}),
    ("match_ratio", {"on": "x"}),
]


def test_every_measure_has_a_partial_oracle_case():
    """MERGED_SPECS covers every measure: each reads a pane only through
    the partials its slices keep, so a slice may release its rows once
    they are kept."""
    assert set(MEASURES) == {mid for mid, _ in MERGED_SPECS}


def _random_value(rng):
    roll = rng.random()
    if roll < 0.15:
        return None
    if roll < 0.25:
        return rng.choice([-1, "?", ""])
    if roll < 0.6:
        return rng.randint(-50, 50)
    return round(rng.uniform(-1e6, 1e6), rng.randint(0, 9))


def _random_number(rng):
    """A number in a small range, so that ties are common, among them equal
    values that render apart (1 and 1.0, 0.0 and -0.0); a few are Null,
    NaN or infinite."""
    roll = rng.random()
    if roll < 0.1:
        return None
    if roll < 0.13:
        return rng.choice([math.nan, math.inf, -math.inf])
    if roll < 0.5:
        return rng.randint(-5, 5)
    if roll < 0.8:
        return float(rng.randint(-5, 5)) * rng.choice([1, -1])
    return round(rng.uniform(-5, 5), 2)


def _random_text(rng):
    return None if rng.random() < 0.1 else "ab"[:rng.randint(0, 2)] * rng.randint(1, 3)


# The values of each measure's rows, by its columns, where _random_value
# does not fit: ordered measures read one column type.
_ROW_VALUES = {
    "min": {"x": _random_number}, "max": {"x": _random_number},
    "z_outlier_count": {"x": _random_number}, "percentiles": {"x": _random_number},
    "ordering_violations": {"x": _random_number}, "out_of_order_count": {"x": _random_number},
    "heavy_hitters": {"x": _random_number},
    "length_stats": {"x": _random_text},
    "correlation": {"x": _random_number, "y": _random_number},
    "interval_conflicts": {"x": _random_number, "y": _random_number},
}
# match_ratio's secondary pane, and the watermark freshness reads.
_SECONDARY = values_win([-1, "?", 3, 2.0, 0, None, 7.5, -38])
_ORACLE_WATERMARK = at(4000)


def _random_pane(rng, mid, size):
    """A pane of size rows, a second apart, that arrived in a random order."""
    columns = _ROW_VALUES.get(mid, {"x": _random_value})
    seqs = rng.sample(range(size), size)
    return win([elem(at(i), seqs[i], **{c: value(rng) for c, value in columns.items()})
                for i in range(size)])


@pytest.mark.parametrize("mid,params", MERGED_SPECS)
def test_partials_over_random_splits_equal_the_whole_pane(mid, params):
    rng = random.Random(f"{mid}{sorted(params.items())}")
    env = EngineEnv(hash_seed=rng.randint(0, 1 << 30), watermark=_ORACLE_WATERMARK,
                    secondary=lambda start, end, key: _SECONDARY)
    spec = MeasureSpec(mid, params)
    for size in [0, 1, 2, 7, 60, 400, 3000]:
        whole = _random_pane(rng, mid, size)
        want = apply_measure(spec, whole, env)
        for _ in range(4):
            cuts = sorted(rng.randint(0, size) for _ in range(rng.randint(0, 6)))
            bounds = [0] + cuts + [size]
            parts = tuple(Slice(list(whole.elements[a:b])) for a, b in zip(bounds, bounds[1:]))
            split = WindowInstance(whole.start, whole.end, None, whole.elements, parts)
            assert apply_measure(spec, split, env) == want, (mid, params, size, bounds)
            # A second pane over the same slices reads the memoized partials,
            # also once the slices have released their rows.
            assert all(part.memo for part in parts)
            assert apply_measure(spec, split, env) == want
            for part in parts:
                part.release()
            again = WindowInstance(whole.start, whole.end, None, parts=parts)
            assert len(again) == size
            assert apply_measure(spec, again, env) == want, (mid, params, size, bounds)


def test_min_and_max_over_slices_are_the_builtins_over_the_pane():
    """Over any split into slices, min and max report what Python's min and
    max report over the pane's non-Null values: the first of equal values
    (1 or 1.0, 0.0 or -0.0), and a NaN only when it comes first."""
    rng = random.Random(17)
    for _ in range(400):
        values = [_random_number(rng) for _ in range(rng.randint(1, 8))]
        whole = values_win(values)
        present = [v for v in values if v is not None]
        cuts = sorted(rng.randint(0, len(values)) for _ in range(rng.randint(0, 3)))
        bounds = [0] + cuts + [len(values)]
        parts = tuple(Slice(list(whole.elements[a:b])) for a, b in zip(bounds, bounds[1:]))
        split = WindowInstance(whole.start, whole.end, None, whole.elements, parts)
        for mid, builtin in (("min", min), ("max", max)):
            got = run(mid, {"column": "x"}, split).value
            want = builtin(present) if present else None
            assert repr(got) == repr(want) and type(got) is type(want), (values, bounds, mid)


def test_mean_and_std_share_one_partial_per_slice():
    part = Slice(elems([1.0, 2.0, None, 4.0]))
    w = WindowInstance(part.elements[0].event_time, at(60), None,
                       tuple(part.elements), (part,))
    run("mean", {"column": "x"}, w)
    run("std", {"column": "x"}, w)
    assert len(part.memo) == 1


# ---------------------------------------------------------------------------
# Documentation


def _readme() -> str:
    return (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def _readme_measures_table():
    """measure id -> the backquoted items of its params cell, in order."""
    text = _readme()
    rows: dict[str, list[str]] = {}
    for line in text.split("\n## Measures\n", 1)[1].splitlines():
        if line.startswith("| `"):
            _, names, params, _value, _ = line.split("|")
            for name in re.findall(r"`([^`]+)`", names):
                assert name not in rows, name
                rows[name] = re.findall(r"`([^`]+)`", params)
        elif rows:
            break  # end of the table
    return rows


def test_readme_measures_table_matches_the_registry():
    def documented(name, param):
        if param.default is REQUIRED:
            return name
        if param.default is None:
            return f"{name}?"
        return f"{name} = {json.dumps(param.default)}"

    assert _readme_measures_table() == {
        mid: [documented(name, param) for name, param in measure.params.items()]
        for mid, measure in MEASURES.items()}
    text = " ".join(_readme().split())
    sentence = text.split("The measures with a per-element form are ", 1)[1].split(";", 1)[0]
    listed = re.findall(r"`([^`]+)`", sentence)
    assert sorted(listed) == sorted(mid for mid, measure in MEASURES.items()
                                    if measure.make_elem_checker is not None), sentence
