"""Unit tests for the benchmark's own arithmetic: percentiles, self times,
output checks.

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import os
import statistics
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(HERE))

import run  # noqa: E402
import stats  # noqa: E402
import tracer as tracing  # noqa: E402

# -- percentile and sample-count rule ----------------------------------------


def test_nearest_rank_percentile_is_a_measured_sample():
    values = [float(v) for v in range(100, 0, -1)]
    assert stats.percentile(values, 0.5) == 50.0
    assert stats.percentile(values, 0.9) == 90.0
    assert stats.percentile(values, 1.0) == 100.0
    assert stats.percentile([3.0], 0.9) == 3.0
    assert stats.percentile([1.0, 2.0, 3.0], 0.5) == 2.0


@pytest.mark.parametrize("n, beyond", [(0, 0), (1, 0), (10, 1), (99, 9), (100, 10), (495, 49)])
def test_tail_count(n, beyond):
    assert stats.tail_count(n, 0.9) == beyond
    if n:
        ordered = list(range(n))
        p90 = stats.percentile(ordered, 0.9)
        assert sum(1 for v in ordered if v > p90) == beyond


def test_p90_needs_ten_samples_beyond_it():
    assert not stats.tail_ok(99, 0.9)
    assert stats.tail_ok(100, 0.9)
    assert stats.tail_ok(20, 0.5)


def test_percentile_rejects_bad_input():
    with pytest.raises(ValueError):
        stats.percentile([], 0.5)
    with pytest.raises(ValueError):
        stats.percentile([1.0], 0.0)


def test_summary_quartiles_match_statistics_quantiles():
    values = [5.0, 1.0, 4.0, 2.0, 3.0, 9.0]
    s = stats.summary(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    assert (s["median"], s["q1"], s["q3"], s["n"]) == (3.5, q1, q3, 6)
    assert stats.summary([7.0]) == {"median": 7.0, "q1": 7.0, "q3": 7.0, "n": 1}


# -- self-time arithmetic -----------------------------------------------------


def test_span_self_times_subtract_children_and_counted_calls():
    spans = [
        # id, parent, name, label, start, end, counted children
        (1, None, "process", None, 0.0, 10.0, 1.0),
        (2, 1, "on_window_close", None, 2.0, 8.0, 0.5),
        (3, 2, "apply_measure", "a", 2.5, 4.5, 0.25),
        (4, 2, "apply_measure", "b", 5.0, 6.0, 0.0),
        (5, 1, "sink_write", None, 8.5, 9.0, 0.0),
    ]
    own = tracing.span_self_times(spans)
    assert own == {1: 10.0 - 6.0 - 0.5 - 1.0, 2: 6.0 - 3.0 - 0.5, 3: 2.0 - 0.25,
                   4: 1.0, 5: 0.5}
    totals = tracing.span_totals(spans)
    assert totals[("apply_measure", "a")] == [1, 2.0, 1.75]
    assert totals[("process", None)] == [1, 10.0, 2.5]


class FakeClock:
    """Each call advances time by one tick."""

    def __init__(self):
        self.now = 0.0

    def __call__(self) -> float:
        self.now += 1.0
        return self.now


def test_tracer_nesting_with_a_fake_clock():
    tr = tracing.Tracer(clock=FakeClock())
    leaf = tr.counted("leaf", lambda: None)

    def middle():
        leaf()
        leaf()

    mid = tr.spanned("mid", middle)
    top = tr.spanned("top", lambda: mid())
    top()
    # Ticks: top t0=1; mid t0=2; leaf 3-4, leaf 5-6; mid end 7; top end 8.
    assert tr.counters["leaf"] == [2, 2.0, 2.0]
    by_id = {s[0]: s for s in tr.spans}
    top_span = next(s for s in tr.spans if s[2] == "top")
    mid_span = next(s for s in tr.spans if s[2] == "mid")
    assert mid_span[1] == top_span[0] and by_id[top_span[0]][1] is None
    assert (mid_span[4], mid_span[5], mid_span[6]) == (2.0, 7.0, 2.0)
    own = tracing.span_self_times(tr.spans)
    assert own[mid_span[0]] == 5.0 - 2.0
    assert own[top_span[0]] == 7.0 - 5.0
    # Self times of all layers add up to the outermost duration.
    assert own[mid_span[0]] + own[top_span[0]] + tr.counters["leaf"][2] == 7.0


def test_spans_not_kept_fold_into_a_counter():
    tr = tracing.Tracer(clock=FakeClock())
    leaf = tr.counted("leaf", lambda: None)
    maybe = tr.spanned("maybe", lambda: leaf(), keep=lambda: False)
    maybe()
    assert tr.spans == []
    assert tr.counters["maybe"] == [1, 3.0, 2.0]  # t0=1, leaf 2-3, end 4


def test_iterate_counts_time_in_next():
    tr = tracing.Tracer(clock=FakeClock())
    assert list(tr.iterate("decode", iter([1, 2]))) == [1, 2]
    assert tr.counters["decode"] == [2, 3.0, 3.0]  # two items and the StopIteration


def test_reset_keeps_wrappers_live():
    tr = tracing.Tracer(clock=FakeClock())
    leaf = tr.counted("leaf", lambda: None)
    leaf()
    tr.reset()
    leaf()
    assert tr.counters["leaf"] == [1, 1.0, 1.0]


# -- output check -------------------------------------------------------------


def _rep(**over):
    rep = {"rows": 10, "meta_lines": 6, "proxy_lines": 6, "side_lines": 2,
           "meta_sha256": "m" * 64, "side_sha256": "s" * 64,
           "stats": {"read": 10, "assigned": 9, "discarded": 1,
                     "records_emitted": 6, "side_routed": 2}}
    rep.update(over)
    return rep


def test_digest_check_accepts_matching_output():
    expected = {"meta_sha256": "m" * 64, "side_sha256": "s" * 64}
    assert run.rep_problems(_rep(), expected) == []
    assert run.rep_problems(_rep(), None) == []


def test_digest_check_rejects_changed_bytes():
    expected = {"meta_sha256": "m" * 64, "side_sha256": "s" * 64}
    problems = run.rep_problems(_rep(meta_sha256="x" * 64), expected)
    assert len(problems) == 1 and problems[0].startswith("meta_sha256")
    problems = run.rep_problems(_rep(side_sha256="y" * 64), expected)
    assert len(problems) == 1 and problems[0].startswith("side_sha256")


def test_accounting_check():
    bad = _rep(stats={"read": 10, "assigned": 8, "discarded": 1,
                      "records_emitted": 6, "side_routed": 2})
    assert "read 10 != assigned 8 + discarded 1" in run.rep_problems(bad, None)
    assert run.rep_problems(_rep(meta_lines=5), None)
    assert run.rep_problems(_rep(proxy_lines=7), None)
    assert run.rep_problems(_rep(side_lines=3), None)


def test_consensus_takes_the_majority_digest():
    reps = [_rep(), _rep(meta_sha256="x" * 64), _rep()]
    agreed = run.consensus(reps)
    assert agreed == {"meta_sha256": "m" * 64, "side_sha256": "s" * 64}
    assert [bool(run.rep_problems(r, agreed)) for r in reps] == [False, True, False]
