"""Event-time windowing: watermarks, pane assignment, and pane lifecycle.

Panes are half-open [start, end). A single watermark tracks max(event_time)
minus a bounded delay; a pane closes once watermark >= end + allowed_lateness,
and every pane still open closes at end of stream. Elements older than
watermark - allowed_lateness are discarded (route says which; the monitor's
RunStats counts them).

Tumbling and sliding panes are built from slices: non-overlapping spans of
width gcd(duration, slide) on the same grid. Slice k covers
origin + [k, k+1) * width and pane p covers slices p*r to p*r + q - 1, for
r = slide / width and q = duration / width. Each element is stored once, in
its slice, and a pane is the concatenation of the slices it spans (a
tumbling pane is one slice). A keyed store's slice holds every key's rows
and is split by key once, when its first pane closes, and a keyed pane is
its key's share of each slice, grouped by model.key_groups, the one
grouping by key that keyed checks use too. What a slice or session keeps
of its rows is the store's Retention: every row until its last pane
closes; or, for a grid slice, its rows until its first pane has been drawn
and assessed, and then just its partials, row count and key split
(Slice.release); or, from the start, only a judgement of each row
(model.JudgedRows). Unkeyed, the store
materializes empty panes between the first and last observed event times,
so downstream consumers see silence as zero-volume windows. Session panes
are built per key by gap extension and are never empty. A pane bound
beyond the datetime range is clamped to it.

Closing is streamed: PaneStore.closing yields the panes one watermark step
closes in meta-stream order, (end, key, start), building each as it is
drawn. Memory does not grow with the number of panes one step closes (a
far-future row can close millions); the time to close them still does.
"""

from __future__ import annotations

import heapq
import math
from bisect import bisect_left, bisect_right, insort
from dataclasses import dataclass
from datetime import datetime, timedelta, timezone
from enum import Enum
from operator import attrgetter, itemgetter
from typing import Iterable, Iterator

from .model import (
    NULL_CODE,
    TS_MAX,
    TS_MIN,
    Judge,
    JudgedRows,
    ReleasedRows,
    Slice,
    StreamElement,
    Value,
    WindowInstance,
    WindowSpec,
    canonical_bytes,
    element_order,
    key_groups,
)

__all__ = ["Watermark", "RouteOutcome", "Retention", "PaneStore"]

# The upper clamp of a pane bound: past TS_MAX, as which it renders.
_END_OF_TIME = datetime.max.replace(tzinfo=timezone.utc)


def _shift(dt: datetime, td: timedelta) -> datetime:
    """dt + td, clamped to [TS_MIN, _END_OF_TIME]."""
    try:
        return dt + td
    except OverflowError:
        return TS_MIN if td < timedelta(0) else _END_OF_TIME


@dataclass
class Watermark:
    """Monotone event-time low watermark with bounded out-of-orderness."""

    delay: timedelta = timedelta(0)
    value: datetime = TS_MIN

    def __post_init__(self) -> None:
        if self.delay < timedelta(0):
            raise ValueError("watermark delay must be >= 0")

    def observe(self, event_time: datetime) -> None:
        candidate = _shift(event_time, -self.delay)
        if candidate > self.value:
            self.value = candidate


class RouteOutcome(str, Enum):
    ASSIGNED = "assigned"
    LATE = "late"
    DISCARDED = "discarded"


class Retention(Enum):
    """What a store keeps of the rows routed to it, for a consumer that
    reads each pane as it is drawn (MonitorEngine takes its SuiteState's).

    ROWS: every row, until the last pane over it has closed: the default, for
    a library caller that reads panes' rows (a suite reads slice partials).
    PARTIALS: a grid slice releases its rows once its first pane has been
    drawn and assessed; later panes over it read only the partials that
    pane left in its memo. A session pane is drawn once, so its rows go
    with it.
    FAILING: each row is judged as it is routed (model.JudgedRows), and a
    slice or session keeps its row count, its verdict counts and the rows
    some check fails. A keyed grid store splits a slice by its rows when
    the slice's first pane closes, so it keeps them until then, as under
    PARTIALS.
    """

    ROWS = "rows"
    PARTIALS = "partials"
    FAILING = "failing"


# push's answer for an on-time row that closes nothing.
_ON_TIME = (RouteOutcome.ASSIGNED, ())


def _pane_bounds(spec: WindowSpec, p: int) -> tuple[datetime, datetime]:
    """Grid pane p: [origin + p * step, that + duration), clamped."""
    offset = p * spec.step
    return _shift(spec.origin, offset), _shift(spec.origin, offset + spec.duration)


@dataclass(eq=False, slots=True)
class _Session:
    key: Value
    min_t: datetime
    max_t: datetime
    elements: list[StreamElement] | JudgedRows
    merged: bool = False  # bridged into another session; its heap entry is dead


_min_t = attrgetter("min_t")


class PaneStore:
    """Open panes for one window spec: grid slices by number, sessions by key.

    key_by optionally partitions the stream before windowing (sessions are
    per key; grid panes are usually unkeyed, and keyed at close). Keyed grid
    stores do not materialize empty panes since the key universe is unknown.
    Closed panes are streamed (closing): the store never holds a batch of
    them.

    retention says what each slice and session keeps of its rows
    (Retention); FAILING needs the judge that judges them.

    A key's grid panes close in number order over the same slices (a keyed
    pane over its key's shares), whose rows are final once a pane over
    them closes: what a pane leaves in a slice's memo serves later panes.
    """

    def __init__(self, spec: WindowSpec, key_by: str | None = None,
                 retention: Retention = Retention.ROWS, judge: Judge | None = None):
        self.spec = spec
        self.key_by = key_by
        if retention is Retention.FAILING and key_by is not None and spec.kind != "session":
            retention = Retention.PARTIALS
        self.retention = retention
        # A new slice's or session's row holder.
        self._rows = judge.rows if retention is Retention.FAILING else list
        # Grid state: slice number -> slice, and the numbers in ascending order.
        self._slices: dict[int, Slice] = {}
        self._numbers: list[int] = []
        if spec.kind != "session":
            micros = timedelta(microseconds=1)
            self._width = math.gcd(spec.duration // micros, spec.step // micros) * micros
            self._r, self._q = spec.step // self._width, spec.duration // self._width
            self._hold = spec.duration + spec.allowed_lateness  # pane start to close
        # The first pane not yet closed, when it closes, and the last pane any
        # slice lies in; None while no slice is open.
        self._next: int | None = None
        self._close_at: datetime | None = None
        self._last: int | None = None
        # The slice rows were last routed to, [start, end) and its row
        # holder, which a row inside it is appended to without the grid
        # arithmetic. Empty and None when unset.
        self._open_start, self._open_end = TS_MAX, TS_MIN
        self._tail: list[StreamElement] | JudgedRows | None = None
        # Session state: canonical key -> sessions sorted by min_t, and one heap
        # entry per session, (end, key, start, id, session) as when pushed, so
        # the heap pops in meta-stream order; id() breaks ties.
        self._sessions: dict[bytes, list[_Session]] = {}
        self._session_heap: list[tuple[datetime, bytes, datetime, int, _Session]] = []

    # -- routing ------------------------------------------------------------

    def push(self, e: StreamElement, wm: Watermark
             ) -> tuple[RouteOutcome, Iterable[WindowInstance]]:
        """One row's whole path: advance the watermark by its event time,
        route the row, and close the panes the watermark then reaches;
        returns the outcome and closing's iterator of the closed panes.

        An on-time row in the open slice of a grid store is appended to it
        directly, and closing runs only once the watermark reaches the next
        close instant. Every other row (late or discarded, in a session, or
        one whose watermark shift clamps) takes observe, route and
        closing."""
        t = e.event_time
        tail = self._tail
        if tail is not None and wm.value <= t and self._open_start <= t < self._open_end:
            try:
                candidate = t - wm.delay
            except OverflowError:
                pass
            else:
                if candidate > wm.value:
                    wm.value = candidate
                tail.append(e)
                if wm.value < self._close_at:
                    return _ON_TIME
                return RouteOutcome.ASSIGNED, self.closing(wm.value)
        wm.observe(t)
        outcome = self.route(e, wm)
        return outcome, self.closing(wm.value)

    def route(self, e: StreamElement, wm: Watermark) -> RouteOutcome:
        """Assign an element to its panes, or discard it as too late.

        On time (event_time >= watermark) assigns normally; within
        allowed_lateness assigns to still-open panes flagged late; older
        elements are dropped. The caller counts the outcomes.
        """
        t = e.event_time
        if t >= wm.value:
            outcome = RouteOutcome.ASSIGNED
        elif wm.value - t <= self.spec.allowed_lateness:
            outcome = RouteOutcome.LATE
        else:
            return RouteOutcome.DISCARDED
        if self.spec.kind == "session":
            self.update_session(e.attrs.get(self.key_by) if self.key_by is not None else None, e)
        else:
            if not self._open_start <= t < self._open_end:
                self._open_slice(t)
            self._tail.append(e)
        return outcome

    def _open_slice(self, t: datetime) -> None:
        """Make the slice containing t the one rows are routed to, creating it if new."""
        origin, width = self.spec.origin, self._width
        k = (t - origin) // width
        part = self._slices.get(k)
        if part is None:
            part = self._slices[k] = Slice(self._rows())
            insort(self._numbers, k)
            # Every element of slice k lies in panes (k - q) // r + 1 to k // r.
            first, last = (k - self._q) // self._r + 1, k // self._r
            if self._next is None or first < self._next:
                self._next = first
                self._close_at = _shift(origin, first * self.spec.step + self._hold)
            if self._last is None or last > self._last:
                self._last = last
        self._tail = part.elements
        self._open_start = _shift(origin, k * width)
        self._open_end = _shift(origin, (k + 1) * width)

    def update_session(self, key: Value, e: StreamElement) -> None:
        """Fold an element into the per-key session set: open a session, join
        one, or bridge its two neighbours into the left one. A key's sessions
        lie more than gap apart, so only the sessions either side of t can
        touch it. Only an opened session is pushed on the heap; a session
        that grows keeps its entry, which _due_session settles."""
        gap = self.spec.gap
        key_enc = canonical_bytes(key)
        sessions = self._sessions.get(key_enc)
        if sessions is None:
            sessions = self._sessions[key_enc] = []
        t = e.event_time
        i = bisect_right(sessions, t, key=_min_t)
        left = sessions[i - 1] if i and t - sessions[i - 1].max_t <= gap else None
        right = sessions[i] if i < len(sessions) and sessions[i].min_t - t <= gap else None
        if left is None and right is None:
            opened = _Session(key, t, t, self._rows())
            opened.elements.append(e)
            sessions.insert(i, opened)
            heapq.heappush(self._session_heap,
                           (_shift(t, gap), key_enc, t, id(opened), opened))
        elif left is not None and right is not None:  # t bridges the two
            left.max_t = right.max_t
            left.elements.append(e)
            left.elements.extend(right.elements)
            right.merged = True
            del sessions[i]
        else:
            joined = right if left is None else left
            joined.min_t, joined.max_t = min(joined.min_t, t), max(joined.max_t, t)
            joined.elements.append(e)

    # -- closing ------------------------------------------------------------

    def closing(self, wm_value: datetime | None) -> Iterable[WindowInstance]:
        """Every pane with end + allowed_lateness <= watermark, as an iterator
        in meta-stream order, (end, key, start). Each pane is built as it is
        drawn and closes exactly once, so memory does not grow with the
        panes one watermark step closes; draw the iterator to its end before
        the store is used again. Until the watermark reaches the next close
        instant this returns () at once. None is the end-of-stream
        watermark, +inf: every pane closes, also one whose close instant
        lies beyond TS_MAX."""
        if self.spec.kind == "session":
            if wm_value is None:
                last_end = _END_OF_TIME  # every end
            else:
                try:
                    last_end = wm_value - self.spec.allowed_lateness
                except OverflowError:  # no end plus lateness reaches wm_value
                    return ()
            if self._due_session(last_end) is None:
                return ()
            return self._close_sessions(last_end)
        if wm_value is not None:
            if self._close_at is None or wm_value < self._close_at:
                return ()
            return self._close_grid((wm_value - self.spec.origin - self._hold) // self.spec.step)
        return self._close_grid(self._last) if self._next is not None else ()

    def close_ready(self, wm_value: datetime | None) -> list[WindowInstance]:
        """closing(wm_value), drawn into a list."""
        return list(self.closing(wm_value))

    def _close_grid(self, upto: int) -> Iterator[WindowInstance]:
        """Close panes _next to upto (at most _last) from their slices, sorting
        a slice when a pane first uses it and dropping it after the last. No
        element reaches a slice after a pane over it has closed: it would lie
        below the lateness floor and be discarded. So under PARTIALS, once
        the consumer has drawn (and assessed) pane p, for every key, each
        slice of it that a later pane spans releases its rows.

        Pane p ends before pane p + 1, and one pane's keys come in encoding
        order, so panes come out in meta-stream order as they are built.
        Only panes whose ends clamp to _END_OF_TIME share an end; the few
        a row can reach are held and put in key order last."""
        r, q, slices, numbers = self._r, self._q, self._slices, self._numbers
        key_by = self.key_by
        keyed = key_by is not None
        release = self.retention is Retention.PARTIALS
        clamped: list[tuple[bytes, WindowInstance]] = []
        for p in range(self._next, min(upto, self._last) + 1):
            # The pane's slices: none is below p * r.
            parts = [slices[k] for k in numbers[:bisect_left(numbers, p * r + q)]]
            for part in parts:
                if not part.ordered and not part.released:  # no pane has used it yet
                    part.elements.sort(key=element_order)
                    part.ordered = len(part.elements)  # sorted here, so no pane walks it
            start, end = _pane_bounds(self.spec, p)
            if parts:
                for key_enc, own in key_groups(parts, key_by) if keyed else [(NULL_CODE, parts)]:
                    # A key's value is that of its first arrived row (rows
                    # arrive in arrival_seq order) in the first slice holding
                    # it; equal encodings render alike except 0.0 and -0.0.
                    key = own[0].arrived_key if keyed else None
                    pane = WindowInstance(start, end, key, parts=tuple(own))
                    if end == _END_OF_TIME:
                        clamped.append((key_enc, pane))
                    else:
                        yield pane
            elif not keyed:
                yield WindowInstance(start, end)
            done = bisect_left(numbers, p * r + r)  # slices in no later pane
            for k in numbers[:done]:
                self._unroute(slices.pop(k))
            del numbers[:done]
            if release and end != _END_OF_TIME:  # a clamped pane is drawn after the loop
                for part in parts[done:]:
                    if not part.released:
                        self._unroute(part)
                        part.release()
            self._next = p + 1
        for _, pane in sorted(clamped, key=itemgetter(0)):  # stable: a key's stay in start order
            yield pane
        self._close_at = _shift(self.spec.origin, self._next * self.spec.step + self._hold)

    def _unroute(self, part: Slice) -> None:
        """Forget the slice rows were last routed to if it is part."""
        if part.elements is self._tail:
            self._open_start, self._open_end = TS_MAX, TS_MIN
            self._tail = None

    def _due_session(self, last_end: datetime) -> _Session | None:
        """The session at the heap top if it is due, its end at most
        last_end, else None. A top entry whose pushed end is due but stale
        is settled first: a merged-away session's entry is dropped, and a
        session whose end or start has moved since its entry was pushed is
        re-pushed at its live bounds, so each session keeps one entry.

        An end never moves down, and two open sessions of one key never
        share an end (a start moves down only within its end and key), so
        an entry never sorts above a live session that its own session sorts
        below: the heap pops live sessions in meta-stream order, and as a
        close instant rises with the end, exactly the due ones."""
        heap = self._session_heap
        gap = self.spec.gap
        while heap and heap[0][0] <= last_end:
            end, key_enc, start, _, session = heap[0]
            if session.merged:
                heapq.heappop(heap)
                continue
            live_end = _shift(session.max_t, gap)
            if live_end != end or session.min_t != start:
                heapq.heapreplace(heap, (live_end, key_enc, session.min_t, id(session), session))
                continue
            return session
        return None

    def _close_sessions(self, last_end: datetime) -> Iterator[WindowInstance]:
        """Close each session due by last_end, building its pane as it is popped."""
        heap = self._session_heap
        while self._due_session(last_end) is not None:
            end, key_enc, start, _, session = heapq.heappop(heap)
            sessions = self._sessions[key_enc]
            del sessions[bisect_left(sessions, start, key=_min_t)]
            if not sessions:
                del self._sessions[key_enc]
            rows = session.elements
            if type(rows) is list:
                rows.sort(key=element_order)
                rows = tuple(rows)
            part = Slice(rows)
            part.ordered = len(rows)  # sorted here, so the pane need not walk it
            yield WindowInstance(start, end, session.key, None if part.released else rows, (part,))

    def open_pane_count(self) -> int:
        """Panes (per key) that hold at least one element and have not closed.
        A released slice's keys are those of its key split."""
        if self.spec.kind == "session":
            return sum(len(s) for s in self._sessions.values())
        panes: set[tuple[int, bytes]] = set()
        for k, part in self._slices.items():
            keys = ({NULL_CODE} if self.key_by is None
                    else part.split(self.key_by).keys() if part.released
                    else {canonical_bytes(e.attrs.get(self.key_by)) for e in part.elements})
            for p in range(max((k - self._q) // self._r + 1, self._next), k // self._r + 1):
                panes.update((p, key_enc) for key_enc in keys)
        return len(panes)

    def open_element_count(self) -> int:
        """Elements still held for panes that have not closed, each counted
        once. Under FAILING these are the rows that some check fails; a
        released slice holds none (a per-element partial in its memo may
        still hold the rows it missed, Tally.misses)."""
        if self.spec.kind == "session":
            return sum(_held(s.elements) for ss in self._sessions.values() for s in ss)
        return sum(_held(part.elements) for part in self._slices.values())


def _held(rows: list[StreamElement] | ReleasedRows) -> int:
    return rows.held if isinstance(rows, ReleasedRows) else len(rows)
