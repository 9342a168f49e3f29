"""Event-time windowing: watermarks, pane assignment, and pane lifecycle.

Panes are half-open [start, end). A single watermark tracks max(event_time)
minus a bounded delay; a pane closes once watermark >= end + allowed_lateness.
Elements older than watermark - allowed_lateness are discarded (route says
which; the monitor's RunStats counts them).

Tumbling and sliding panes are built from slices: non-overlapping spans of
width gcd(duration, slide) on the same grid. Each element is stored once, in
its slice, and a pane is the concatenation of the slices it spans (a
tumbling pane is one slice). For these specs the store materializes empty
panes between the first and last observed event times, so downstream
consumers see silence as zero-volume windows. Session panes are built per
key by gap extension and are never empty.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from datetime import datetime, timedelta
from enum import Enum
from itertools import chain

from .model import (
    TS_MAX,
    TS_MIN,
    Slice,
    StreamElement,
    Value,
    WindowInstance,
    WindowSpec,
    canonical_bytes,
    sort_key,
)

__all__ = [
    "Watermark", "RouteOutcome", "PaneStore",
    "assign_tumbling", "assign_sliding",
]


def _minus_clamped(dt: datetime, td: timedelta) -> datetime:
    try:
        return dt - td
    except OverflowError:
        return TS_MIN


def _plus_clamped(dt: datetime, td: timedelta) -> datetime:
    try:
        out = dt + td
    except OverflowError:
        return TS_MAX
    return min(out, TS_MAX)


@dataclass
class Watermark:
    """Monotone event-time low watermark with bounded out-of-orderness."""

    delay: timedelta = timedelta(0)
    value: datetime = TS_MIN

    def __post_init__(self) -> None:
        if self.delay < timedelta(0):
            raise ValueError("watermark delay must be >= 0")

    def observe(self, event_time: datetime) -> None:
        candidate = _minus_clamped(event_time, self.delay)
        if candidate > self.value:
            self.value = candidate


class RouteOutcome(str, Enum):
    ASSIGNED = "assigned"
    LATE = "late"
    DISCARDED = "discarded"


def assign_tumbling(t: datetime, spec: WindowSpec) -> tuple[datetime, datetime]:
    """The unique tumbling pane [start, start+duration) containing t."""
    periods = (t - spec.origin) // spec.duration
    start = spec.origin + periods * spec.duration
    return start, start + spec.duration


def assign_sliding(t: datetime, spec: WindowSpec) -> list[tuple[datetime, datetime]]:
    """All sliding panes containing t, earliest start first.

    Starts lie on the slide grid anchored at origin; s is included when
    s <= t < s + duration.
    """
    periods = (t - spec.origin) // spec.slide
    latest = spec.origin + periods * spec.slide
    out = []
    start = latest
    floor = t - spec.duration
    while start > floor:
        out.append((start, start + spec.duration))
        start -= spec.slide
    out.reverse()
    return out


@dataclass(eq=False)
class _Session:
    key: Value
    min_t: datetime
    max_t: datetime
    elements: list[StreamElement]
    merged: bool = False  # bridged into another session; its heap entry is dead


_UNKEYED = canonical_bytes(None)


class PaneStore:
    """Open panes for one window spec, indexed by (key, start).

    key_by optionally partitions the stream before windowing (sessions are
    per key; grid panes are usually unkeyed). Keyed grid stores do not
    materialize empty panes since the key universe is unknown.
    """

    def __init__(self, spec: WindowSpec, key_by: str | None = None):
        self.spec = spec
        self.key_by = key_by
        # Grid state: slice start -> {canonical key -> (key value, slice)}.
        # Slices before _sorted_to are sorted; before _cursor, dropped.
        self._slices: dict[datetime, dict[bytes, tuple[Value, Slice]]] = {}
        if spec.kind != "session":
            micros = timedelta(microseconds=1)
            self._width = math.gcd(spec.duration // micros, spec.step // micros) * micros
            self._hold = spec.duration + spec.allowed_lateness  # pane start to close
        self._min_start: datetime | None = None
        self._max_start: datetime | None = None
        self._cursor: datetime | None = None
        self._sorted_to: datetime = TS_MIN
        # The slice rows were last routed to, [start, end) and its by-key
        # dict; a row inside it skips the grid arithmetic. Empty when unset.
        self._open_start, self._open_end = TS_MAX, TS_MIN
        self._open: dict[bytes, tuple[Value, Slice]] = {}
        # When the next grid pane closes: cursor (or _min_start) + _hold.
        self._close_at: datetime | None = None
        # Session state: canonical key -> sessions, and one heap entry per session,
        # (close instant when pushed, key, id, session); id() breaks ties.
        self._sessions: dict[bytes, list[_Session]] = {}
        self._session_heap: list[tuple[datetime, bytes, int, _Session]] = []

    # -- routing ------------------------------------------------------------

    def route(self, e: StreamElement, wm: Watermark) -> RouteOutcome:
        """Assign an element to its panes, or discard it as too late.

        On time (event_time >= watermark) assigns normally; within
        allowed_lateness assigns to still-open panes flagged late; older
        elements are dropped. The caller counts the outcomes.
        """
        t = e.event_time
        if t >= wm.value:
            outcome = RouteOutcome.ASSIGNED
        elif t >= _minus_clamped(wm.value, self.spec.allowed_lateness):
            outcome = RouteOutcome.LATE
        else:
            return RouteOutcome.DISCARDED
        key = e.attrs.get(self.key_by) if self.key_by is not None else None
        if self.spec.kind == "session":
            self.update_session(key, e)
        else:
            self._add_grid(key, e)
        return outcome

    def _add_grid(self, key: Value, e: StreamElement) -> None:
        t = e.event_time
        if not self._open_start <= t < self._open_end:
            self._open_slice(t)
        by_key = self._open
        key_enc = canonical_bytes(key) if self.key_by is not None else _UNKEYED
        slot = by_key.get(key_enc)
        if slot is None:
            by_key[key_enc] = (key, Slice([e]))
        else:
            slot[1].elements.append(e)

    def _open_slice(self, t: datetime) -> None:
        """Make the slice containing t the one rows are routed to, creating it if new."""
        origin, width = self.spec.origin, self._width
        start = origin + (t - origin) // width * width
        by_key = self._slices.get(start)
        if by_key is None:
            by_key = self._slices[start] = {}
            # Every element of a slice lies in the same panes, those of its start.
            first, last = self._pane_starts(start)
            if self._min_start is None or first < self._min_start:
                self._min_start = first
                if self._cursor is None:
                    self._close_at = _plus_clamped(first, self._hold)
            if self._max_start is None or last > self._max_start:
                self._max_start = last
        self._open = by_key
        self._open_start, self._open_end = start, _plus_clamped(start, width)

    def _pane_starts(self, t: datetime) -> tuple[datetime, datetime]:
        """First and last start of the grid panes containing t."""
        if self.spec.kind == "tumbling":
            start = assign_tumbling(t, self.spec)[0]
            return start, start
        panes = assign_sliding(t, self.spec)
        return panes[0][0], panes[-1][0]

    def update_session(self, key: Value, e: StreamElement) -> None:
        """Fold an element into the per-key session set: open a session, join
        one, or bridge several into the first. Only an opened session is
        pushed on the heap; a session that grows keeps its entry."""
        gap = self.spec.gap
        key_enc = canonical_bytes(key)
        sessions = self._sessions.setdefault(key_enc, [])
        t = e.event_time
        touching = [s for s in sessions
                    if _minus_clamped(s.min_t, gap) <= t <= _plus_clamped(s.max_t, gap)]
        if not touching:
            opened = _Session(key, t, t, [e])
            sessions.append(opened)
            heapq.heappush(self._session_heap,
                           (self._session_close(opened), key_enc, id(opened), opened))
            return
        merged = touching[0]
        merged.min_t, merged.max_t = min(merged.min_t, t), max(merged.max_t, t)
        merged.elements.append(e)
        for other in touching[1:]:
            merged.min_t = min(merged.min_t, other.min_t)
            merged.max_t = max(merged.max_t, other.max_t)
            merged.elements.extend(other.elements)
            other.merged = True
            sessions.remove(other)

    def _session_close(self, session: _Session) -> datetime:
        return _plus_clamped(session.max_t, self.spec.gap + self.spec.allowed_lateness)

    # -- closing ------------------------------------------------------------

    def close_ready(self, wm_value: datetime) -> list[WindowInstance]:
        """Emit every pane with end + allowed_lateness <= watermark, in
        (end, key) order. Each pane is emitted exactly once. Until the
        watermark reaches the next close instant this returns at once."""
        if self.spec.kind == "session":
            heap = self._session_heap
            if not heap or wm_value < heap[0][0]:
                return []
            out = self._close_sessions(wm_value)
        else:
            if self._close_at is None or wm_value < self._close_at:
                return []
            out = self._close_grid(wm_value)
        out.sort(key=lambda w: (w.end, sort_key(w.key), w.start))
        return out

    def flush(self) -> list[WindowInstance]:
        """Close every remaining pane (end-of-stream: watermark jumps to +inf)."""
        return self.close_ready(TS_MAX)

    def _close_grid(self, wm_value: datetime) -> list[WindowInstance]:
        """Build each closing pane from its slices, sorting a slice when a
        pane first uses it and dropping it once no open pane spans it.

        No element can reach a slice after a pane over it has closed: such
        an element would lie below the lateness floor and be discarded.
        """
        if self._max_start is None:
            return []
        duration = self.spec.duration
        threshold = _minus_clamped(wm_value, duration + self.spec.allowed_lateness)
        first = cursor = self._cursor if self._cursor is not None else self._min_start
        out: list[WindowInstance] = []
        step = self.spec.step
        slices = self._slices
        while cursor <= self._max_start and cursor <= threshold:
            end = cursor + duration
            starts = sorted(s for s in slices if s < end)
            by_key: dict[bytes, tuple[Value, list[Slice]]] = {}
            for start in starts:
                for key_enc, (key, part) in slices[start].items():
                    if start >= self._sorted_to:
                        part.elements.sort(key=_pane_order)
                    slot = by_key.get(key_enc)
                    if slot is None:
                        by_key[key_enc] = (key, [part])
                    else:
                        slot[1].append(part)
            self._sorted_to = end  # pane ends only grow
            if by_key:
                for key_enc in sorted(by_key):
                    key, parts = by_key[key_enc]
                    elements = tuple(chain.from_iterable(part.elements for part in parts))
                    out.append(WindowInstance(cursor, end, key, elements, tuple(parts)))
            elif self.key_by is None:
                out.append(WindowInstance(cursor, end, None, ()))
            cursor += step
            for start in starts:
                if start >= cursor:
                    break
                del slices[start]
                if start == self._open_start:
                    self._open_start, self._open_end = TS_MAX, TS_MIN
        if cursor != first:
            self._cursor = cursor
            self._close_at = _plus_clamped(cursor, self._hold)
        return out

    def _close_sessions(self, wm_value: datetime) -> list[WindowInstance]:
        """Pop each entry due by wm_value: skip a merged-away session, re-push
        one that grew past its entry (never later than its close), close the rest."""
        out: list[WindowInstance] = []
        heap = self._session_heap
        while heap and heap[0][0] <= wm_value:
            pushed_at, key_enc, _, session = heapq.heappop(heap)
            if session.merged:
                continue
            close_at = self._session_close(session)
            if close_at > pushed_at:
                heapq.heappush(heap, (close_at, key_enc, id(session), session))
                continue
            sessions = self._sessions[key_enc]
            sessions.remove(session)
            if not sessions:
                del self._sessions[key_enc]
            session.elements.sort(key=_pane_order)
            end = _plus_clamped(session.max_t, self.spec.gap)
            out.append(WindowInstance(session.min_t, end, session.key, tuple(session.elements)))
        return out

    def closed_floor(self) -> datetime:
        """An element that a closed pane held, with event time before this
        instant, lies in no open or future pane. On a grid this is the start
        of the first pane not yet closed. A session pane holds its elements
        alone, so for sessions every such element qualifies."""
        if self.spec.kind == "session":
            return TS_MAX
        return self._cursor if self._cursor is not None else TS_MIN

    def open_pane_count(self) -> int:
        """Panes (per key) that hold at least one element and have not closed."""
        if self.spec.kind == "session":
            return sum(len(s) for s in self._sessions.values())
        step = self.spec.step
        panes: set[tuple[datetime, bytes]] = set()
        for start, by_key in self._slices.items():
            pane, last = self._pane_starts(start)
            while pane <= last:
                if self._cursor is None or pane >= self._cursor:
                    panes.update((pane, key_enc) for key_enc in by_key)
                pane += step
        return len(panes)

    def open_element_count(self) -> int:
        """Elements held for panes that have not closed, each counted once."""
        if self.spec.kind == "session":
            return sum(len(s.elements) for ss in self._sessions.values() for s in ss)
        return sum(len(part.elements) for by_key in self._slices.values()
                   for _, part in by_key.values())


def _pane_order(e: StreamElement) -> tuple[datetime, int]:
    return e.event_time, e.arrival_seq
