"""Builders shared across the test modules."""

from __future__ import annotations

import subprocess
import sys
import time
from datetime import datetime, timedelta

from streamqc import model
from streamqc.model import StreamElement, Value, WindowInstance, WindowSpec, ts
from streamqc.windowing import _shift

T0 = ts(2015, 5, 7, 11, 0, 0)


def at(seconds: float) -> datetime:
    """Timestamp `seconds` after the shared test origin."""
    return T0 + timedelta(seconds=seconds)


def elem(t: datetime, seq: int = 0, **attrs: Value) -> StreamElement:
    return StreamElement(event_time=t, arrival_seq=seq, attrs=attrs)


def _grid_pane(spec: WindowSpec, p: int) -> tuple[datetime, datetime]:
    """Grid pane p: [origin + p * step, that + duration), clamped to the datetime range."""
    offset = p * spec.step
    return _shift(spec.origin, offset), _shift(spec.origin, offset + spec.duration)


def assign_tumbling(t: datetime, spec: WindowSpec) -> tuple[datetime, datetime]:
    """The reference assignment: the unique tumbling pane containing t."""
    return _grid_pane(spec, (t - spec.origin) // spec.duration)


def assign_sliding(t: datetime, spec: WindowSpec) -> list[tuple[datetime, datetime]]:
    """The reference assignment: every sliding pane containing t, earliest
    start first. Starts lie on the slide grid anchored at origin; s is
    included when s <= t < s + duration."""
    offset = t - spec.origin
    first = (offset - spec.duration) // spec.slide + 1
    return [_grid_pane(spec, p) for p in range(first, offset // spec.slide + 1)]


def elems(values, column: str = "x", start: datetime | None = None,
          step_s: float = 1.0) -> list[StreamElement]:
    """One element per value, event times step_s apart, seq in list order."""
    start = start if start is not None else T0
    return [elem(start + timedelta(seconds=i * step_s), i, **{column: v})
            for i, v in enumerate(values)]


def win(elements, start: datetime | None = None, end: datetime | None = None,
        key: Value = None) -> WindowInstance:
    """Window around the given elements; bounds default to a snug fit."""
    ordered = sorted(elements, key=lambda e: (e.event_time, e.arrival_seq))
    if start is None:
        start = ordered[0].event_time if ordered else T0
    if end is None:
        end = (ordered[-1].event_time + timedelta(seconds=1)) if ordered else at(60)
    return WindowInstance(start=start, end=end, key=key, elements=tuple(ordered))


def values_win(values, column: str = "x", **kwargs) -> WindowInstance:
    return win(elems(values, column=column), **kwargs)


def count_order_walks(monkeypatch) -> list:
    """Record (elements, count walked) for every order check a pane makes."""
    walked = []
    check = model._check_order

    def counting(elements, begin=0):
        walked.append((elements, max(len(elements) - begin, 0)))
        check(elements, begin)

    monkeypatch.setattr(model, "_check_order", counting)
    return walked


def walks_of(walked, elements) -> int:
    return sum(n for seen, n in walked if seen is elements)


# The child reports the peak RSS of its own address space (Linux VmHWM) as
# its last stderr line. ru_maxrss would not do: a child keeps the peak of
# the process it was spawned from, here the test runner.
_PEAK_RSS_CHILD = ("import re, sys; from streamqc.cli import main; rc = main(sys.argv[1:]); "
                   "status = open('/proc/self/status').read(); "
                   "print(re.search(r'VmHWM:\\s*(\\d+) kB', status)[1], file=sys.stderr); "
                   "sys.exit(rc)")


def run_cli_child(argv: list[str], timeout: float
                  ) -> tuple[subprocess.CompletedProcess, float, int | None]:
    """Run `streamqc` with argv in a child process. Returns the finished
    process (its stderr without the peak line), its wall time in seconds,
    and its own peak RSS in KiB (None when the child died before reporting)."""
    t0 = time.monotonic()
    proc = subprocess.run([sys.executable, "-c", _PEAK_RSS_CHILD, *argv],
                          capture_output=True, text=True, timeout=timeout)
    wall = time.monotonic() - t0
    lines = proc.stderr.splitlines()
    rss_kb = int(lines.pop()) if lines and lines[-1].isdigit() else None
    proc.stderr = "".join(line + "\n" for line in lines)
    return proc, wall, rss_kb


def assess(state, w: WindowInstance, watermark: datetime | None = None):
    """A pane's records in meta-stream order, and its failing elements."""
    entries, failing = state.on_window_close(w, watermark=watermark)
    entries.sort(key=lambda entry: entry[0])
    return [record for _, record in entries], failing
