"""Pane assignment, watermarks, lateness routing, and session merging."""

import random
from datetime import timedelta

import pytest

from streamqc.model import TS_MAX, WindowSpec, ts
from streamqc.windowing import (
    PaneStore,
    RouteOutcome,
    Watermark,
    assign_sliding,
    assign_tumbling,
)

from helpers import T0, at, elem

MIN = timedelta(minutes=1)


def spec_tumbling(minutes=5, lateness=0):
    return WindowSpec(kind="tumbling", duration=minutes * MIN,
                      allowed_lateness=lateness * MIN)


def spec_sliding(duration=10, slide=5, lateness=0):
    return WindowSpec(kind="sliding", duration=duration * MIN, slide=slide * MIN,
                      allowed_lateness=lateness * MIN)


def spec_session(gap=2, lateness=0):
    return WindowSpec(kind="session", gap=gap * MIN,
                      allowed_lateness=lateness * MIN)


# ---------------------------------------------------------------------------
# Assignment


def test_tumbling_assignment():
    t = ts(2015, 5, 7, 11, 35, 30)
    assert assign_tumbling(t, spec_tumbling(5)) == \
        (ts(2015, 5, 7, 11, 35), ts(2015, 5, 7, 11, 40))
    # Half-open panes: a boundary timestamp belongs to the pane it starts.
    assert assign_tumbling(ts(2015, 5, 7, 11, 35), spec_tumbling(5))[0] == \
        ts(2015, 5, 7, 11, 35)
    assert assign_tumbling(ts(2015, 5, 7, 11, 34, 59, 999), spec_tumbling(5))[0] == \
        ts(2015, 5, 7, 11, 30)


def test_tumbling_respects_origin():
    spec = WindowSpec(kind="tumbling", duration=5 * MIN,
                      origin=ts(2015, 5, 7, 11, 2))
    start, end = assign_tumbling(ts(2015, 5, 7, 11, 35, 30), spec)
    assert start == ts(2015, 5, 7, 11, 32) and end == ts(2015, 5, 7, 11, 37)


def test_tumbling_before_origin():
    spec = WindowSpec(kind="tumbling", duration=5 * MIN,
                      origin=ts(2015, 5, 7, 12, 0))
    start, end = assign_tumbling(ts(2015, 5, 7, 11, 58), spec)
    assert (start, end) == (ts(2015, 5, 7, 11, 55), ts(2015, 5, 7, 12, 0))


def test_sliding_assignment_earliest_first():
    panes = assign_sliding(ts(2015, 5, 7, 11, 7), spec_sliding(10, 5))
    assert panes == [
        (ts(2015, 5, 7, 11, 0), ts(2015, 5, 7, 11, 10)),
        (ts(2015, 5, 7, 11, 5), ts(2015, 5, 7, 11, 15)),
    ]


def test_sliding_pane_count_when_divisible():
    spec = spec_sliding(duration=6, slide=2)
    panes = assign_sliding(ts(2015, 5, 7, 11, 7), spec)
    assert len(panes) == 3  # duration / slide


def test_assignment_brute_force_equivalence():
    # Oracle: a pane owns t iff start <= t < start + duration with start on
    # the slide grid. Checked for random specs and timestamps.
    rng = random.Random(404)
    for _ in range(2000):
        slide_s = rng.choice([1, 5, 30, 60, 300])
        mult = rng.randint(1, 6)
        spec = WindowSpec(kind="sliding",
                          duration=timedelta(seconds=slide_s * mult),
                          slide=timedelta(seconds=slide_s))
        t = T0 + timedelta(milliseconds=rng.randrange(-3_600_000, 3_600_000))
        got = assign_sliding(t, spec)
        dur_ms = slide_s * mult * 1000
        slide_ms = slide_s * 1000
        t_ms = int((t - spec.origin) / timedelta(milliseconds=1))
        expected = []
        k_lo = (t_ms - dur_ms) // slide_ms + 1
        k_hi = t_ms // slide_ms
        for k in range(k_lo, k_hi + 1):
            start = spec.origin + timedelta(milliseconds=k * slide_ms)
            expected.append((start, start + spec.duration))
        assert got == expected, (t, spec.duration, spec.slide)
        for start, end in got:
            assert start <= t < end


# ---------------------------------------------------------------------------
# Watermark


def test_watermark_observe():
    wm = Watermark(delay=1 * MIN)
    wm.observe(ts(2015, 5, 7, 12, 0))
    assert wm.value == ts(2015, 5, 7, 11, 59)


def test_watermark_is_monotone():
    wm = Watermark(delay=0 * MIN)
    wm.observe(at(100))
    wm.observe(at(50))  # out-of-order observation cannot move it back
    assert wm.value == at(100)


def test_watermark_rejects_negative_delay():
    with pytest.raises(Exception):
        Watermark(delay=timedelta(seconds=-1))


# ---------------------------------------------------------------------------
# Routing


def test_route_late_and_discard():
    store = PaneStore(spec_tumbling(1, lateness=3))
    wm = Watermark(delay=0 * MIN)
    wm.observe(ts(2015, 5, 7, 12, 5))

    ok = store.route(elem(ts(2015, 5, 7, 12, 6), 0), wm)
    assert ok is RouteOutcome.ASSIGNED
    late = store.route(elem(ts(2015, 5, 7, 12, 3), 1), wm)
    assert late is RouteOutcome.LATE  # within [wm - lateness, wm)
    dead = store.route(elem(ts(2015, 5, 7, 12, 1), 2), wm)
    assert dead is RouteOutcome.DISCARDED  # below the lateness floor


def test_late_element_lands_in_its_own_pane():
    store = PaneStore(spec_tumbling(1, lateness=3))
    wm = Watermark(delay=0 * MIN)
    wm.observe(at(0))
    store.route(elem(at(0), 0, x=1), wm)
    wm.observe(at(125))
    store.route(elem(at(125), 1, x=2), wm)
    late = elem(at(70), 2, x=3)  # pane [60, 120) while wm sits at 125
    assert store.route(late, wm) is RouteOutcome.LATE
    wm.observe(at(600))
    panes = store.close_ready(wm.value)
    by_start = {p.start: p for p in panes}
    assert late in by_start[at(60)].elements


# ---------------------------------------------------------------------------
# Grid pane lifecycle


def test_pane_closes_when_watermark_passes_end_plus_lateness():
    store = PaneStore(spec_tumbling(1, lateness=2))
    wm = Watermark(delay=0 * MIN)
    wm.observe(at(30))
    store.route(elem(at(30), 0), wm)

    assert store.close_ready(at(120)) == []     # end 60 + lateness 120 > 120? no: 180 > 120
    assert store.close_ready(at(179)) == []
    closed = store.close_ready(at(180))         # 60 + 120 <= 180
    assert [p.start for p in closed] == [at(0)]


def test_silent_minutes_emit_empty_panes():
    store = PaneStore(spec_tumbling(1))
    wm = Watermark(delay=0 * MIN)
    for t, seq in ((at(30), 0), (at(330), 1)):
        wm.observe(t)
        store.route(elem(t, seq), wm)
    panes = store.close_ready(wm.value)
    assert [(p.start, len(p.elements)) for p in panes] == [
        (at(0), 1), (at(60), 0), (at(120), 0), (at(180), 0), (at(240), 0)]


def test_keyed_grid_splits_per_key_and_skips_empty():
    store = PaneStore(spec_tumbling(1), key_by="zone")
    wm = Watermark(delay=0 * MIN)
    batch = [elem(at(10), 0, zone="B"), elem(at(20), 1, zone="A"),
             elem(at(40), 2, zone="B"), elem(at(200), 3, zone="A")]
    for e in batch:
        wm.observe(e.event_time)
        store.route(e, wm)
    panes = store.close_ready(wm.value)
    # Keys in canonical order inside a pane; no empty keyed panes for [60,120).
    assert [(p.start, p.key, len(p.elements)) for p in panes] == [
        (at(0), "A", 1), (at(0), "B", 2)]


def test_elements_inside_pane_are_event_time_ordered():
    store = PaneStore(spec_tumbling(1, lateness=1))
    wm = Watermark(delay=1 * MIN)
    sequence = [(at(40), 0), (at(10), 1), (at(25), 2), (at(55), 3)]
    for t, seq in sequence:
        wm.observe(t)
        store.route(elem(t, seq), wm)
    panes = store.flush()
    assert [e.arrival_seq for e in panes[0].elements] == [1, 2, 0, 3]


def test_flush_closes_everything():
    store = PaneStore(spec_sliding(10, 5))
    wm = Watermark(delay=0 * MIN)
    e = elem(at(7 * 60), 0)
    wm.observe(e.event_time)
    store.route(e, wm)
    panes = store.flush()
    assert [(p.start, p.end) for p in panes] == [
        (at(0), at(10 * 60)), (at(5 * 60), at(15 * 60))]
    assert store.open_pane_count() == 0


def test_close_order_is_end_then_key():
    store = PaneStore(spec_tumbling(1), key_by="k")
    wm = Watermark(delay=2 * MIN)  # generous delay: nothing goes stale
    batch = [elem(at(10), 0, k="b"), elem(at(70), 1, k="a"),
             elem(at(15), 2, k="a")]
    for e in batch:
        wm.observe(e.event_time)
        store.route(e, wm)
    panes = store.flush()
    assert [(p.end, p.key) for p in panes] == [
        (at(60), "a"), (at(60), "b"), (at(120), "a")]


# ---------------------------------------------------------------------------
# Sessions


def test_session_gap_split():
    store = PaneStore(spec_session(gap=2))
    wm = Watermark(delay=0 * MIN)
    times = [ts(2015, 5, 7, 11, 0), ts(2015, 5, 7, 11, 1), ts(2015, 5, 7, 11, 5)]
    for i, t in enumerate(times):
        wm.observe(t)
        store.route(elem(t, i), wm)
    sessions = store.flush()
    assert [(s.start, s.end, len(s.elements)) for s in sessions] == [
        (ts(2015, 5, 7, 11, 0), ts(2015, 5, 7, 11, 3), 2),
        (ts(2015, 5, 7, 11, 5), ts(2015, 5, 7, 11, 7), 1)]


def test_session_merge_by_bridge():
    store = PaneStore(spec_session(gap=2))
    wm = Watermark(delay=10 * MIN)  # keep everything routable
    for i, t in enumerate((at(0), at(240), at(120))):  # 11:00, 11:04, then 11:02
        wm.observe(t)
        store.route(elem(t, i), wm)
    sessions = store.flush()
    assert [(s.start, s.end, len(s.elements)) for s in sessions] == [
        (at(0), at(360), 3)]


def test_session_closes_on_watermark():
    store = PaneStore(spec_session(gap=2))
    wm = Watermark(delay=0 * MIN)
    wm.observe(at(0))
    store.route(elem(at(0), 0), wm)
    assert store.close_ready(at(119)) == []
    closed = store.close_ready(at(120))  # max_t + gap <= wm
    assert [(s.start, s.end) for s in closed] == [(at(0), at(120))]


def test_session_arrival_order_invariance():
    base_times = [0, 30, 90, 300, 310, 700, 705, 706, 1500]

    def final_sessions(order):
        store = PaneStore(spec_session(gap=2))
        wm = Watermark(delay=60 * MIN)
        for seq, idx in enumerate(order):
            t = at(base_times[idx])
            wm.observe(t)
            store.route(elem(t, seq), wm)
        return [(s.start, s.end, len(s.elements)) for s in store.flush()]

    expected = final_sessions(range(len(base_times)))
    rng = random.Random(11)
    for _ in range(50):
        order = list(range(len(base_times)))
        rng.shuffle(order)
        assert final_sessions(order) == expected, order


def test_keyed_sessions_are_independent():
    spec = spec_session(gap=2)
    store = PaneStore(spec, key_by="user")
    wm = Watermark(delay=10 * MIN)
    stream = [(at(0), "u1"), (at(60), "u2"), (at(90), "u1"), (at(400), "u2")]
    for i, (t, user) in enumerate(stream):
        wm.observe(t)
        store.route(elem(t, i, user=user), wm)
    sessions = store.flush()
    # Emission is (end, key) ordered: u2's first session ends before u1's.
    assert [(s.key, s.start, s.end) for s in sessions] == [
        ("u2", at(60), at(180)),
        ("u1", at(0), at(210)),
        ("u2", at(400), at(520))]


def test_flush_equals_close_at_infinity():
    store = PaneStore(spec_tumbling(1))
    wm = Watermark(delay=0 * MIN)
    wm.observe(at(30))
    store.route(elem(at(30), 0), wm)
    store2 = PaneStore(spec_tumbling(1))
    store2.route(elem(at(30), 0), wm)
    assert [p.start for p in store.flush()] == \
        [p.start for p in store2.close_ready(TS_MAX)]


# ---------------------------------------------------------------------------
# Slices against a brute-force oracle


def _grid_starts(spec, t):
    if spec.kind == "tumbling":
        return [assign_tumbling(t, spec)[0]]
    return [s for s, _ in assign_sliding(t, spec)]


def _replay(spec, key_by, rows, delay):
    """Route rows through a store, closing after each; returns (panes, kept)."""
    store = PaneStore(spec, key_by=key_by)
    wm = Watermark(delay=delay)
    panes, kept = [], []
    for e in rows:
        wm.observe(e.event_time)
        if store.route(e, wm) is not RouteOutcome.DISCARDED:
            kept.append(e)
        panes.extend(store.close_ready(wm.value))
    panes.extend(store.flush())
    assert store.open_element_count() == 0
    return panes, kept


def _brute_force(spec, key_by, kept):
    """Every pane the store must emit, by filtering and sorting all kept rows."""
    starts = [s for e in kept for s in _grid_starts(spec, e.event_time)]
    if key_by is None:
        grid, s = [], min(starts)
        while s <= max(starts):
            grid.append((s, None))
            s += spec.step
    else:
        grid = sorted({(s, e.attrs[key_by]) for e in kept
                       for s in _grid_starts(spec, e.event_time)})
    out = []
    for start, key in grid:
        end = start + spec.duration
        members = [e for e in kept if start <= e.event_time < end
                   and (key_by is None or e.attrs[key_by] == key)]
        members.sort(key=lambda e: (e.event_time, e.arrival_seq))
        out.append((start, end, key, [e.arrival_seq for e in members]))
    return out


@pytest.mark.parametrize("duration,slide", [
    (5, None), (10, 4), (5, 1), (6, 6), (7, 3)])
def test_slice_panes_match_brute_force(duration, slide):
    rng = random.Random(duration * 100 + (slide or 0))
    for trial in range(12):
        lateness = rng.choice([0, 1, 3])
        if slide is None:
            spec = spec_tumbling(duration, lateness=lateness)
        else:
            spec = spec_sliding(duration, slide, lateness=lateness)
        key_by = rng.choice([None, "k"])
        delay = timedelta(seconds=rng.choice([0, 30, 90]))
        rows = []
        t = 0.0
        for seq in range(rng.randint(1, 150)):
            t += rng.expovariate(1 / 20.0)
            if rng.random() < 0.1:
                t += rng.uniform(300, 900)  # a silent stretch: empty panes
            jitter = rng.uniform(0, 400) if rng.random() < 0.25 else 0.0
            rows.append(elem(at(t - jitter), seq, k=rng.choice(["a", "b", "c"])))
        panes, kept = _replay(spec, key_by, rows, delay)
        got = [(p.start, p.end, p.key, [e.arrival_seq for e in p.elements])
               for p in panes]
        assert sorted(got, key=lambda p: (p[0], str(p[2]))) == \
            _brute_force(spec, key_by, kept), (trial, spec, key_by)
        for p in panes:
            if p.parts is not None:
                assert tuple(e for part in p.parts for e in part.elements) == p.elements


def test_late_rows_reach_the_slices_of_open_panes():
    spec = spec_sliding(10, 4, lateness=3)  # 2m slices
    rows = [elem(at(60 * m), i) for i, m in enumerate([1, 9, 13, 11, 10.5, 5, 17, 15])]
    panes, kept = _replay(spec, None, rows, timedelta(0))
    assert [e.arrival_seq for e in kept] == [0, 1, 2, 3, 4, 6, 7]  # row 5 is too late
    got = [(p.start, p.end, p.key, [e.arrival_seq for e in p.elements]) for p in panes]
    assert sorted(got, key=lambda p: p[0]) == _brute_force(spec, None, kept)


# ---------------------------------------------------------------------------
# Each row is stored once


def test_sliding_store_holds_each_open_row_once():
    spec = spec_sliding(5, 1)
    store = PaneStore(spec)
    wm = Watermark(delay=timedelta(seconds=20))
    rng = random.Random(5)
    routed: list = []
    next_open = None  # start of the earliest pane not yet closed
    for seq in range(3000):
        t = at(seq * 0.5 + rng.uniform(-10, 0))
        e = elem(t, seq)
        wm.observe(t)
        if store.route(e, wm) is not RouteOutcome.DISCARDED:
            routed.append(e)
        closed = store.close_ready(wm.value)
        if closed or seq % 97 == 0:
            if closed:
                next_open = closed[-1].start + spec.slide
            # A row is dropped once no open pane can hold it.
            held = [e for e in routed if next_open is None
                    or max(_grid_starts(spec, e.event_time)) >= next_open]
            assert store.open_element_count() == len(held)
    assert store.open_element_count() < len(routed) / 4
