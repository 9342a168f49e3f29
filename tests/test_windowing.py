"""Pane assignment, watermarks, lateness routing, and session merging."""

import gc
import math
import random
import statistics
import time
from collections import Counter
from datetime import timedelta

import pytest

from streamqc import windowing
from streamqc.model import (
    TS_MAX,
    TS_MIN,
    CheckDefinition,
    ColumnSpec,
    MeasureSpec,
    Slice,
    Threshold,
    WindowInstance,
    WindowSpec,
    canonical_bytes,
    format_ts,
    ts,
)
from streamqc.monitor import SuiteState
from streamqc.windowing import PaneStore, Retention, RouteOutcome, Watermark

from helpers import (
    T0,
    assign_sliding,
    assign_tumbling,
    at,
    count_order_walks,
    elem,
    walks_of,
)

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


def drawn(closed):
    """Draw one close's panes, which must come in meta-stream order,
    (end, key encoding, start), no two alike."""
    panes = list(closed)
    order = [(p.end, canonical_bytes(p.key), p.start) for p in panes]
    assert order == sorted(set(order)), order
    return panes


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
    panes = store.close_ready(None)
    assert [e.arrival_seq for e in panes[0].elements] == [1, 2, 0, 3]


def test_flush_closes_everything():
    store = PaneStore(spec_sliding(10, 5))
    wm = Watermark(delay=0 * MIN)
    e = elem(at(7 * 60), 0)
    wm.observe(e.event_time)
    store.route(e, wm)
    panes = store.close_ready(None)
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
    panes = store.close_ready(None)
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
    sessions = store.close_ready(None)
    assert [(s.start, s.end, len(s.elements)) for s in sessions] == [
        (ts(2015, 5, 7, 11, 0), ts(2015, 5, 7, 11, 3), 2),
        (ts(2015, 5, 7, 11, 5), ts(2015, 5, 7, 11, 7), 1)]


def test_session_merge_by_bridge():
    store = PaneStore(spec_session(gap=2))
    wm = Watermark(delay=10 * MIN)  # keep everything routable
    for i, t in enumerate((at(0), at(240), at(120))):  # 11:00, 11:04, then 11:02
        wm.observe(t)
        store.route(elem(t, i), wm)
    sessions = store.close_ready(None)
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
        return [(s.start, s.end, len(s.elements)) for s in store.close_ready(None)]

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
    sessions = store.close_ready(None)
    # Emission is (end, key) ordered: u2's first session ends before u1's.
    assert [(s.key, s.start, s.end) for s in sessions] == [
        ("u2", at(60), at(180)),
        ("u1", at(0), at(210)),
        ("u2", at(400), at(520))]


def test_session_heap_holds_one_entry_per_session_not_yet_popped(monkeypatch):
    """A session is pushed when it opens and not when it grows, so the heap
    never holds more entries than sessions opened and not yet closed (a
    session merged into another keeps its entry until it is popped)."""
    opened = []
    session = windowing._Session
    monkeypatch.setattr(windowing, "_Session", lambda *args: opened.append(1) or session(*args))
    store = PaneStore(spec_session(gap=1), key_by="device")
    wm = Watermark(delay=30 * timedelta(seconds=1))
    rng = random.Random(11)
    closed = 0
    for i in range(3000):
        # 20 devices, one row every 2 s with up to 20 s of disorder, and a
        # 3-minute silence every 500 rows so that sessions close.
        t = at(i * 2 + (i // 500) * 180 - rng.uniform(0, 20))
        wm.observe(t)
        store.route(elem(t, i, device=rng.randrange(20)), wm)
        assert len(store._session_heap) <= len(opened) - closed
        closed += len(store.close_ready(wm.value))
        assert len(store._session_heap) <= len(opened) - closed
    closed += len(store.close_ready(None))
    assert closed >= 6 * 20 and not store._session_heap


def test_a_growing_session_costs_no_close_that_closes_nothing(monkeypatch):
    """One device whose session keeps growing: each time the watermark
    passes the session's pushed close instant the entry is stale, and the
    store settles it without a close pass. Every close pass closes a
    session, and every session still closes."""
    passes = []
    close_sessions = PaneStore._close_sessions

    def counting(self, last_end):
        passes.append(0)
        for pane in close_sessions(self, last_end):
            passes[-1] += 1
            yield pane

    monkeypatch.setattr(PaneStore, "_close_sessions", counting)
    store = PaneStore(spec_session(gap=1))
    wm = Watermark()
    closed = 0
    for i in range(600):
        # A row every 10 s, and a 5-minute silence every 100 rows.
        t = at(i * 10 + (i // 100) * 300)
        wm.observe(t)
        store.route(elem(t, i), wm)
        closed += len(store.close_ready(wm.value))
        assert len(store._session_heap) == 1
    closed += len(store.close_ready(None))
    assert closed == 6
    assert passes and all(passes), passes.count(0)


def _session_oracle(gap, key_by, kept):
    """Every session pane, by brute force: per key, link each two kept rows
    at most gap apart; each connected component is one pane
    [first row, last row + gap), the end clamped to the datetime range."""
    out = []
    for key in {e.attrs[key_by] if key_by else None for e in kept}:
        rows = [e for e in kept if key_by is None or e.attrs[key_by] == key]
        component = list(range(len(rows)))  # a representative row per row

        def find(i):
            while component[i] != i:
                i = component[i]
            return i

        for i, a in enumerate(rows):
            for j, b in enumerate(rows[:i]):
                if abs(a.event_time - b.event_time) <= gap:
                    component[find(i)] = find(j)
        members = {}
        for i, e in enumerate(rows):
            members.setdefault(find(i), []).append(e)
        for group in members.values():
            group.sort(key=lambda e: (e.event_time, e.arrival_seq))
            out.append((group[0].event_time, windowing._shift(group[-1].event_time, gap), key,
                        [e.arrival_seq for e in group]))
    return sorted(out, key=lambda p: (p[0], str(p[2])))


def test_sessions_match_brute_force(monkeypatch):
    """Random keyed streams with out-of-order rows that bridge two sessions,
    late rows, discards and lateness: the store's panes are the oracle's
    components of the kept rows."""
    opened = []
    session = windowing._Session
    monkeypatch.setattr(windowing, "_Session",
                        lambda *args: opened.append(session(*args)) or opened[-1])
    rng = random.Random(808)
    outcomes = Counter()
    for trial in range(60):
        gap = timedelta(seconds=rng.choice([20, 60, 150]))
        spec = WindowSpec(kind="session", gap=gap,
                          allowed_lateness=timedelta(seconds=rng.choice([0, 30, 200])))
        key_by = rng.choice([None, "k"])
        store, wm = PaneStore(spec, key_by=key_by), Watermark(
            delay=timedelta(seconds=rng.choice([0, 30, 120])))
        panes, kept, t = [], [], 0.0
        for seq in range(rng.randint(1, 120)):
            t += rng.expovariate(1 / 40.0)
            back = rng.uniform(0, 500) if rng.random() < 0.3 else 0.0
            e = elem(at(t - back), seq, k=rng.choice(["a", "b", "c"]))
            outcome, closed = store.push(e, wm)
            outcomes[outcome] += 1
            if outcome is not RouteOutcome.DISCARDED:
                kept.append(e)
            panes.extend(drawn(closed))
        panes.extend(drawn(store.closing(None)))
        assert store.open_element_count() == 0
        got = [(p.start, p.end, p.key, [e.arrival_seq for e in p.elements]) for p in panes]
        assert sorted(got, key=lambda p: (p[0], str(p[2]))) == \
            _session_oracle(gap, key_by, kept), (trial, spec, key_by)
    bridges = sum(s.merged for s in opened)
    assert bridges >= 10 and min(outcomes.values()) >= 100, (bridges, outcomes)


@pytest.mark.parametrize("last", [T0, TS_MAX], ids=["2015", "ts-max"])
def test_session_closes_come_in_meta_stream_order(last):
    """Rows of three keys on a 10 s grid: ends tie across keys, a row that
    comes behind its session's first row lowers the session's start, and
    near TS_MAX ends clamp to the datetime max, so they tie too. Every close
    yields its panes in meta-stream order, and they are the oracle's. The
    gaps lie off the grid: a row exactly gap past a session the watermark
    closes at that instant is an open question of its own (ROADMAP)."""
    rng = random.Random(1717)
    ties = lowered = clamped = 0
    for trial in range(40):
        gap = timedelta(seconds=rng.choice([25, 65]))
        spec = WindowSpec(kind="session", gap=gap,
                          allowed_lateness=timedelta(seconds=rng.choice([0, 30])))
        store, wm = PaneStore(spec, key_by="k"), Watermark(delay=timedelta(seconds=60))
        panes, kept, n = [], [], rng.randint(20, 80)
        for seq in range(n):
            e = elem(last - timedelta(seconds=(n - 1 - seq + rng.randint(0, 9)) * 10), seq,
                     k=rng.choice("abc"))
            outcome, closed = store.push(e, wm)
            if outcome is not RouteOutcome.DISCARDED:
                t, same_key = e.event_time, [f.event_time for f in kept if f.attrs == e.attrs]
                lowered += (any(timedelta(0) < u - t <= gap for u in same_key)
                            and not any(timedelta(0) <= t - u <= gap for u in same_key))
                kept.append(e)
            closed = drawn(closed)
            ties += sum(a.end == b.end for a, b in zip(closed, closed[1:]))
            panes.extend(closed)
        flushed = drawn(store.closing(None))
        ties += sum(a.end == b.end for a, b in zip(flushed, flushed[1:]))
        clamped += sum(a.end == b.end == windowing._END_OF_TIME
                       for a, b in zip(flushed, flushed[1:]))
        panes.extend(flushed)
        got = [(p.start, p.end, p.key, [e.arrival_seq for e in p.elements]) for p in panes]
        assert sorted(got, key=lambda p: (p[0], str(p[2]))) == \
            _session_oracle(gap, "k", kept), (trial, spec)
    assert ties >= 40 and lowered >= 100, (ties, lowered)
    assert clamped >= 10 if last == TS_MAX else clamped == 0, clamped


def _one_device_sessions_s(n):
    """CPU seconds to route, close and flush n rows of one device, 2 s apart,
    on 1 s sessions under a 10 h watermark delay: every session stays open.

    The objects alive before the run are frozen out of the garbage
    collector, so a full collection that lands in the run walks what the
    store holds, not everything the test process holds; CPU time leaves out
    the time other processes on the host hold the CPU.
    """
    rows = [elem(at(2 * i), i, device="d") for i in range(n)]
    store = PaneStore(WindowSpec(kind="session", gap=timedelta(seconds=1)), key_by="device")
    wm = Watermark(delay=timedelta(hours=10))
    gc.collect()
    gc.freeze()
    try:
        began = time.process_time()
        for e in rows:
            wm.observe(e.event_time)
            store.route(e, wm)
            store.close_ready(wm.value)
        panes = store.close_ready(None)
        elapsed = time.process_time() - began
    finally:
        gc.unfreeze()
    assert len(panes) == n
    return elapsed


def test_many_open_sessions_of_one_key_route_in_near_linear_time():
    """A row finds the sessions it touches by bisection, not by testing
    every open session of its key (4k rows took over 5 s that way)."""
    half = statistics.median(_one_device_sessions_s(8_000) for _ in range(3))
    full = statistics.median(_one_device_sessions_s(16_000) for _ in range(3))
    assert full < 3.0
    assert full / half <= 3.0, (half, full)


def test_flush_equals_close_at_infinity():
    store = PaneStore(spec_tumbling(1))
    wm = Watermark(delay=0 * MIN)
    wm.observe(at(30))
    store.route(elem(at(30), 0), wm)
    store2 = PaneStore(spec_tumbling(1))
    store2.route(elem(at(30), 0), wm)
    assert [p.start for p in store.close_ready(None)] == \
        [p.start for p in store2.close_ready(TS_MAX)]


@pytest.mark.parametrize("spec", [
    WindowSpec(kind="tumbling", duration=MIN, allowed_lateness=timedelta(days=3_000_000)),
    WindowSpec(kind="tumbling", duration=timedelta(days=4_000_000)),
    WindowSpec(kind="sliding", duration=5 * MIN, slide=2 * MIN,
               allowed_lateness=timedelta(days=3_000_000)),
    WindowSpec(kind="session", gap=MIN, allowed_lateness=timedelta(days=3_000_000)),
])
def test_flush_closes_panes_that_close_past_ts_max(spec):
    """When end + allowed_lateness lies beyond TS_MAX no watermark closes
    the pane, and the end of stream still does."""
    store, wm = PaneStore(spec), Watermark()
    for seq, t in enumerate((at(0), at(300))):
        wm.observe(t)
        assert store.route(elem(t, seq), wm) is RouteOutcome.ASSIGNED
    assert store.close_ready(TS_MAX) == []
    panes = store.close_ready(None)
    held = Counter(e.arrival_seq for p in panes for e in p.elements)
    assert set(held) == {0, 1} and panes
    assert store.open_element_count() == 0 and store.close_ready(None) == []


# ---------------------------------------------------------------------------
# Slices against a brute-force oracle


def _grid_panes(spec, t):
    if spec.kind == "tumbling":
        return [assign_tumbling(t, spec)]
    return assign_sliding(t, spec)


def _grid_starts(spec, t):
    return [s for s, _ in _grid_panes(spec, t)]


def _replay(spec, key_by, rows, delay):
    """Push rows through a store as the engine does; returns (panes, kept).
    Each row's watermark and outcome are those of observe and route, and a
    pane closes at the first row whose watermark reaches its close instant."""
    store = PaneStore(spec, key_by=key_by)
    wm = Watermark(delay=delay)
    panes, kept = [], []
    for e in rows:
        before = wm.value
        outcome, closed = store.push(e, wm)
        shifted = windowing._shift(e.event_time, -delay)
        assert wm.value == max(before, shifted)
        assert outcome is (RouteOutcome.ASSIGNED if e.event_time >= wm.value
                           else RouteOutcome.LATE
                           if wm.value - e.event_time <= spec.allowed_lateness
                           else RouteOutcome.DISCARDED)
        if outcome is not RouteOutcome.DISCARDED:
            kept.append(e)
        for p in drawn(closed):
            assert before < windowing._shift(p.end, spec.allowed_lateness) <= wm.value
            panes.append(p)
    panes.extend(drawn(store.closing(None)))
    assert store.open_element_count() == 0
    return panes, kept


def _slice_number(spec, t):
    """The grid slice holding t: slices are gcd(duration, slide) wide."""
    us = timedelta(microseconds=1)
    width = math.gcd(spec.duration // us, spec.step // us) * us
    return (t - spec.origin) // width


def _brute_force(spec, key_by, kept):
    """Every pane the store must emit, by filtering and sorting all kept rows,
    in (start, end, key encoding) order.

    Unkeyed, that is every pane over an instant from the first row to the
    last; each such pane lies over the last row or over one of the instants
    a step apart from the first. Bounds beyond the datetime range come
    clamped from the reference assignment, so several panes may share a
    start; they are told apart by their ends. Keyed, rows group by the
    encoding of their key (a Null key is a group of its own), and a pane's
    key is the value of its key's first-arrived row in the first slice
    holding the key.
    """
    if key_by is None:
        first, last = min(e.event_time for e in kept), max(e.event_time for e in kept)
        sweep = [first + i * spec.step for i in range((last - first) // spec.step + 1)]
        grid = sorted({(pane, canonical_bytes(None)) for t in sweep + [last]
                       for pane in _grid_panes(spec, t)})
    else:
        grid = sorted({(pane, canonical_bytes(e.attrs[key_by])) for e in kept
                       for pane in _grid_panes(spec, e.event_time)})
    out = []
    for (start, end), enc in grid:
        members = [e for e in kept if start <= e.event_time < end
                   and (key_by is None or canonical_bytes(e.attrs[key_by]) == enc)]
        members.sort(key=lambda e: (e.event_time, e.arrival_seq))
        key = None
        if key_by is not None:
            lead = min(_slice_number(spec, e.event_time) for e in members)
            key = min((e for e in members if _slice_number(spec, e.event_time) == lead),
                      key=lambda e: e.arrival_seq).attrs[key_by]
        out.append((start, end, key, [e.arrival_seq for e in members]))
    return out


# Keys that are hard to group: Null, two zeros that share an encoding but
# render apart, and 1, 1.0 and True, which compare equal but encode apart.
HARD_KEYS = [None, 0.0, -0.0, 1, 1.0, True, "a"]


def _shown(panes):
    """(start, end, key, seqs) rows in (start, end, key encoding) order,
    each key by its repr, so keys that compare equal but differ show."""
    return [(start, end, repr(key), seqs) for start, end, key, seqs
            in sorted(panes, key=lambda p: (p[0], p[1], canonical_bytes(p[2])))]


def _hard_rows(rng):
    """Up to 150 rows with keys k from HARD_KEYS and w from "x" and "y",
    some out of order, some after a silent stretch (empty panes)."""
    rows = []
    t = 0.0
    for seq in range(rng.randint(1, 150)):
        t += rng.expovariate(1 / 20.0)
        if rng.random() < 0.1:
            t += rng.uniform(300, 900)  # a silent stretch: empty panes
        jitter = rng.uniform(0, 400) if rng.random() < 0.25 else 0.0
        rows.append(elem(at(t - jitter), seq, k=rng.choice(HARD_KEYS), w=rng.choice("xy")))
    return rows


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
        panes, kept = _replay(spec, key_by, _hard_rows(rng), delay)
        got = [(p.start, p.end, p.key, [e.arrival_seq for e in p.elements])
               for p in panes]
        assert _shown(got) == _shown(_brute_force(spec, key_by, kept)), (trial, spec, key_by)
        for p in panes:
            if p.parts is not None:
                assert tuple(e for part in p.parts for e in part.elements) == p.elements


@pytest.mark.parametrize("window_key", [None, "k", "w"])
@pytest.mark.parametrize("spec", [spec_tumbling(5, lateness=1), spec_sliding(7, 3),
                                  spec_session(2, lateness=1)],
                         ids=["tumbling", "sliding", "session"])
def test_keyed_check_groups_match_brute_force(spec, window_key):
    """A check keyed on k groups each closed pane's rows by the encoding of
    their k, skips the Null group, and takes its key from the group's first
    row in pane order; its records come in key encoding order. Checked
    against a grouping of each pane's rows, over panes of keyed and unkeyed
    windows."""
    check = CheckDefinition(id="volume", measure=MeasureSpec("volume"),
                            constraint=Threshold(">=", 0), key_by="k")
    schema = [ColumnSpec("k", "text"), ColumnSpec("w", "text")]
    rng = random.Random(len(spec.kind) + len(window_key or ""))
    grouped = 0
    for trial in range(8):
        delay = timedelta(seconds=rng.choice([0, 30, 90]))
        panes, _ = _replay(spec, window_key, _hard_rows(rng), delay)
        state = SuiteState([check], schema, spec)
        for p in panes:
            groups = {}
            for e in p.elements:
                enc = canonical_bytes(e.attrs["k"])
                if enc != canonical_bytes(None):
                    groups.setdefault(enc, []).append(e)
            want = [(enc, repr(members[0].attrs["k"]), len(members))
                    for enc, members in sorted(groups.items())]
            entries, _ = state.on_window_close(p)
            records = [r for _, r in entries if r.check_id == "volume"]
            assert all((r.window_start, r.window_end) == (p.start, p.end) for r in records)
            got = [(canonical_bytes(r.key), repr(r.key), r.value) for r in records]
            assert got == want, (trial, p.start, p.end, p.key)
            grouped += len(want)
    assert grouped > 50


@pytest.mark.parametrize("base", [T0, TS_MIN], ids=["2015", "ts-min"])
@pytest.mark.parametrize("delay", [0, 30])
@pytest.mark.parametrize("duration,slide", [(5, None), (5, 1), (10, 4)])
def test_rows_at_slice_bounds_and_at_the_watermark_match_brute_force(
        monkeypatch, base, delay, duration, slide):
    """Rows exactly at a slice bound or a millisecond before one, exactly at
    the watermark, and exactly at or just past the lateness floor, with and
    without a watermark delay, also where the delay reaches back past
    TS_MIN: push keeps the outcomes, watermarks and panes of observe, route
    and close_ready (checked row by row in _replay). Rows take both its
    paths: the open slice and the general one."""
    routed = []
    route = PaneStore.route
    monkeypatch.setattr(PaneStore, "route",
                        lambda self, e, wm: routed.append(e) or route(self, e, wm))
    rng = random.Random(duration * 10 + (slide or 0) + delay)
    spec = (spec_tumbling(duration, lateness=1) if slide is None
            else spec_sliding(duration, slide, lateness=1))
    delay, ms = timedelta(seconds=delay), timedelta(milliseconds=1)
    for trial in range(10):
        rows, newest = [elem(base, 0)], base
        for seq in range(1, 200):
            wm = max(windowing._shift(newest, -delay), TS_MIN)
            bound = base + MIN * rng.randint(0, 2 + seq // 10)
            t = rng.choice([bound, bound - ms if bound > TS_MIN else bound, wm, wm,
                            windowing._shift(wm, -spec.allowed_lateness),
                            windowing._shift(wm, -spec.allowed_lateness - ms),
                            newest, newest + rng.choice([ms, 7 * ms, MIN / 3])])
            rows.append(elem(max(t, TS_MIN), seq))
            newest = max(newest, rows[-1].event_time)
        panes, kept = _replay(spec, None, rows, delay)
        got = [(p.start, p.end, p.key, [e.arrival_seq for e in p.elements]) for p in panes]
        assert sorted(got, key=lambda p: (p[0], p[1])) == \
            _brute_force(spec, None, kept), (trial, spec)
        assert len(kept) < len(rows)  # rows past the lateness floor were discarded
    assert 0.1 < len(routed) / (10 * 200) < 0.9, len(routed)


@pytest.mark.parametrize("base", [T0, TS_MIN], ids=["2015", "ts-min"])
@pytest.mark.parametrize("delay", [0, 30])
@pytest.mark.parametrize("key_by", [None, "k"])
@pytest.mark.parametrize("spec", [spec_tumbling(5, lateness=1), spec_sliding(10, 4, lateness=1),
                                  spec_session(2, lateness=1)], ids=["tumbling", "sliding",
                                                                     "session"])
def test_push_equals_observe_route_and_close_ready(spec, key_by, delay, base):
    """On every store kind, keyed or not, push gives each row the outcome,
    the watermark and the closed panes that observe, route and close_ready
    give it on a twin store, for rows at slice bounds, at the watermark and
    at the lateness floor, with and without a delay, also near TS_MIN."""
    rng = random.Random(delay + (key_by is None) + (base == T0))
    delay, ms = timedelta(seconds=delay), timedelta(milliseconds=1)
    pushed, stepped = PaneStore(spec, key_by=key_by), PaneStore(spec, key_by=key_by)
    wm_pushed, wm_stepped = Watermark(delay=delay), Watermark(delay=delay)

    def rows_of(panes):
        return [(p.start, p.end, p.key, [e.arrival_seq for e in p.elements]) for p in panes]

    newest = base
    for seq in range(600):
        wm = wm_stepped.value if seq else base  # the first row sets the watermark
        t = rng.choice([base + MIN * rng.randint(0, 3 + seq // 20), wm, wm,
                        windowing._shift(wm, -spec.allowed_lateness),
                        windowing._shift(wm, -spec.allowed_lateness - ms),
                        newest, newest + rng.choice([ms, 7 * ms, MIN / 3, 3 * MIN])])
        e = elem(max(t, TS_MIN), seq, k=rng.choice(["a", "b"]))
        newest = max(newest, e.event_time)
        outcome, closed = pushed.push(e, wm_pushed)
        wm_stepped.observe(e.event_time)
        assert outcome is stepped.route(e, wm_stepped), seq
        assert wm_pushed.value == wm_stepped.value, seq
        assert rows_of(closed) == rows_of(stepped.close_ready(wm_stepped.value)), seq
    assert rows_of(pushed.close_ready(None)) == rows_of(stepped.close_ready(None))


def test_on_time_rows_of_a_keyed_grid_store_take_the_append(monkeypatch):
    """A keyed grid store's slice holds every key's rows, so an on-time row
    in the open slice is appended by push whatever its key, Null included:
    only the rows that open a slice reach route. Keys are split at close,
    the Null key a group of its own, first in key order."""
    routed = []
    route = PaneStore.route
    monkeypatch.setattr(PaneStore, "route",
                        lambda self, e, wm: routed.append(e.arrival_seq) or route(self, e, wm))
    store, wm = PaneStore(spec_tumbling(1), key_by="k"), Watermark()
    rows = [elem(at(t), seq, k=k) for seq, (t, k) in enumerate(
        [(0, "a"), (10, "b"), (20, "a"), (30, None), (59, "b"), (60, "a"), (61, "b")])]
    panes = []
    for e in rows:
        outcome, closed = store.push(e, wm)
        assert outcome is RouteOutcome.ASSIGNED
        panes += closed
    assert routed == [0, 5]  # the rows that open a slice
    assert [(p.key, [e.arrival_seq for e in p.elements]) for p in panes] == [
        (None, [3]), ("a", [0, 2]), ("b", [1, 4])]
    assert store.open_pane_count() == 2 and store.open_element_count() == 2


def test_late_rows_reach_the_slices_of_open_panes():
    spec = spec_sliding(10, 4, lateness=3)  # 2m slices
    rows = [elem(at(60 * m), i) for i, m in enumerate([1, 9, 13, 11, 10.5, 5, 17, 15])]
    panes, kept = _replay(spec, None, rows, timedelta(0))
    assert [e.arrival_seq for e in kept] == [0, 1, 2, 3, 4, 6, 7]  # row 5 is too late
    got = [(p.start, p.end, p.key, [e.arrival_seq for e in p.elements]) for p in panes]
    assert sorted(got, key=lambda p: p[0]) == _brute_force(spec, None, kept)


def test_rows_return_to_earlier_open_slices_and_panes_close_on_time(monkeypatch):
    """A row inside the slice the store last routed to skips the grid
    arithmetic. Out-of-order rows move that slice back to earlier open ones
    and forward again; the panes still match the brute-force oracle, and
    each closes at the first watermark at or past end + allowed_lateness,
    including when an early row moves the first pane back before any close."""
    opened = []
    open_slice = PaneStore._open_slice

    def counting(self, t):
        opened.append(t)
        open_slice(self, t)

    monkeypatch.setattr(PaneStore, "_open_slice", counting)
    spec = spec_sliding(10, 4, lateness=3)  # 2m slices
    rng = random.Random(3)
    rows = [elem(at(600), 0), elem(at(450), 1)]  # the second opens an earlier pane
    for seq in range(2, 400):
        back = rng.uniform(100, 400) if seq % 10 == 7 else 0.0
        rows.append(elem(at(600 + seq * 6.0 - back), seq))
    store, wm = PaneStore(spec), Watermark(delay=timedelta(seconds=20))
    panes, kept, returns = [], [], 0
    for e in rows:
        previous = wm.value
        wm.observe(e.event_time)
        before = len(opened)
        if store.route(e, wm) is not RouteOutcome.DISCARDED:
            returns += len(opened) > before and bool(kept) and e.event_time < kept[-1].event_time
            kept.append(e)
        for p in store.close_ready(wm.value):
            assert previous < p.end + spec.allowed_lateness <= wm.value
            panes.append(p)
    panes.extend(store.close_ready(None))
    got = [(p.start, p.end, p.key, [e.arrival_seq for e in p.elements]) for p in panes]
    assert sorted(got, key=lambda p: p[0]) == _brute_force(spec, None, kept)
    assert returns > 10  # rows went back to an earlier, still open slice
    assert len(opened) < len(kept) / 2  # most rows reused the slice of the row before


def test_a_dropped_slice_is_never_routed_to():
    """Once closing drops the slice rows were last routed to, a row in its
    span goes to a new slice, not the dropped one."""
    store = PaneStore(spec_tumbling(5))
    wm = Watermark()
    store.route(elem(at(10), 0), wm)
    assert [len(p) for p in store.close_ready(None)] == [1]
    assert store.open_element_count() == 0
    assert store.route(elem(at(20), 1), wm) is RouteOutcome.ASSIGNED
    assert store.open_element_count() == 1


@pytest.mark.parametrize("near", [TS_MIN, TS_MAX])
@pytest.mark.parametrize("duration,slide", [(5, None), (5, 2), (10, 4)])
def test_slice_panes_at_the_ends_of_time_match_brute_force(near, duration, slide):
    """Rows within a few panes of TS_MIN or TS_MAX: the pane bounds beyond
    the datetime range come out clamped, as the reference assignment clamps
    them, and each pane holds the rows of the brute-force oracle."""
    rng = random.Random(duration * 10 + (slide or 0) + (near == TS_MAX))
    for trial in range(8):
        lateness = rng.choice([0, 3])
        spec = (spec_tumbling(duration, lateness) if slide is None
                else spec_sliding(duration, slide, lateness))
        key_by = rng.choice([None, "k"])
        sign = 1 if near == TS_MIN else -1
        rows = [elem(near, 0, k="a")]
        rows += [elem(near + sign * timedelta(milliseconds=rng.randrange(1_200_000)), seq,
                      k=rng.choice(["a", "b"])) for seq in range(1, 60)]
        panes, kept = _replay(spec, key_by, rows, timedelta(seconds=rng.choice([0, 90, 1200])))
        got = [(p.start, p.end, p.key, [e.arrival_seq for e in p.elements]) for p in panes]
        assert sorted(got, key=lambda p: (p[0], p[1], str(p[2]))) == \
            _brute_force(spec, key_by, kept), (trial, spec, key_by)
        edges = {format_ts(p.start if near == TS_MIN else p.end) for p in panes}
        assert edges >= {"0001-01-01T00:00:00.000Z" if near == TS_MIN
                         else "9999-12-31T23:59:59.999Z"}


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


@pytest.mark.parametrize("key_by", [None, "k"])
@pytest.mark.parametrize("lateness", [0, 3])
def test_released_slices_keep_their_counts_and_keys_and_get_no_rows(monkeypatch, key_by,
                                                                     lateness):
    """Under PARTIALS, each slice gives up its rows once its first pane
    is drawn. Replayed beside a store that keeps them, every pane has the
    bounds, key and row count of the brute-force oracle, open_pane_count is
    the same (a released slice's keys come from its split), and
    open_element_count counts exactly the rows whose first pane is still
    open. No released slice's rows grow: no row is routed to one."""
    released = []  # (a released slice's rows, their count then)
    release = Slice.release

    def recording(self):
        released.append((self.elements, len(self.elements)))
        release(self)

    monkeypatch.setattr(Slice, "release", recording)
    spec = spec_sliding(10, 4, lateness=lateness)  # 2m slices, each in up to 5 panes
    rng = random.Random(11 + lateness + (key_by is not None))
    rows = [elem(at(seq * 3 - rng.uniform(0, 400 if seq % 9 == 4 else 20)), seq,
                 k=rng.choice(HARD_KEYS)) for seq in range(600)]
    stores = [PaneStore(spec, key_by=key_by, retention=retention)
              for retention in (Retention.ROWS, Retention.PARTIALS)]
    marks = [Watermark(delay=timedelta(seconds=30)) for _ in range(2)]
    panes: list[list] = [[], []]
    kept = []
    for e in rows:
        outcomes = set()
        for store, wm, out in zip(stores, marks, panes):
            outcome, closed = store.push(e, wm)
            outcomes.add(outcome)
            out += [(p.start, p.end, p.key, len(p)) for p in closed]  # each as it is drawn
        (outcome,) = outcomes
        if outcome is not RouteOutcome.DISCARDED:
            kept.append(e)
        assert stores[1].open_pane_count() == stores[0].open_pane_count()
        # The start of the first pane number not yet closed: a keyed pane
        # number passed without rows held no row's first pane.
        floor = max(start for start, _, _, _ in panes[1]) + spec.step if panes[1] else TS_MIN
        assert stores[1].open_element_count() == sum(
            1 for e in kept if min(_grid_starts(spec, e.event_time)) >= floor)
    for store, out in zip(stores, panes):
        out += [(p.start, p.end, p.key, len(p)) for p in store.closing(None)]
    want = [(start, end, key, len(seqs))
            for start, end, key, seqs in _shown(_brute_force(spec, key_by, kept))]
    assert _shown(panes[0]) == _shown(panes[1]) == want
    assert len(released) >= 10 and all(len(elements) == n for elements, n in released)
    assert sum(1 for r in rows if r not in kept) > 10  # some rows came too late


def test_each_slice_is_walked_once_across_its_panes(monkeypatch):
    """A slice the store sorted is never walked for order; the same slices
    given to panes unverified are walked once each, however many panes
    span them."""
    walked = count_order_walks(monkeypatch)
    spec = spec_sliding(5, 1)
    rng = random.Random(9)
    rows = [elem(at(seq * 5 + rng.uniform(-40, 0)), seq) for seq in range(600)]
    panes, kept = _replay(spec, None, rows, timedelta(minutes=1))
    parts = {id(part): part for p in panes for part in p.parts or ()}
    spans = Counter(id(part) for p in panes for part in p.parts or ())
    assert sum(1 for n in spans.values() if n == 5) > 30  # a slice lies in 5 panes
    assert walked == []
    assert sum(len(part.elements) for part in parts.values()) == len(kept)
    fresh = {key: Slice(list(part.elements)) for key, part in parts.items()}
    for p in panes:
        WindowInstance(p.start, p.end, p.key, parts=tuple(fresh[id(part)] for part in p.parts))
    for part in fresh.values():
        assert walks_of(walked, part.elements) == len(part.elements)
