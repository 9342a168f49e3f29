"""Outside-in tracing: wrappers installed on streamqc's public functions.

Nothing in streamqc is edited. A traced replay patches module and class
attributes from the benchmark's own process, so the untraced replay runs the
program exactly as shipped.

Two kinds of record are kept in memory:

* counters, for calls made once per row or per value (decode, observe,
  route, close_ready, element checks, sketch adds, expression parses),
  none of which contains another wrapped call: call count, total seconds
  and self seconds, summed in place;
* spans, for batch-level calls (emitting `process` calls, `finish`,
  `on_window_close`, `apply_measure`, `to_json_line`, sink writes):
  (id, parent id, name, label, start, end, seconds of counted children).

Every span pushes a frame on one stack, and every wrapped call adds its
duration to the innermost frame, so a call's self time is its duration
minus the time of wrapped calls made inside it. For spans the subtraction
is done afterwards from the span list (`span_self_times`).
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from typing import Any, Callable, Iterable, Iterator

# Frame layout: [seconds in all wrapped children, seconds in counted
# children, span id or None].
_CHILD, _COUNTED, _SPAN = 0, 1, 2


class Tracer:
    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.counters: dict[str, list] = {}  # name -> [calls, total_s, self_s]
        self.spans: list[tuple] = []
        self.stats: dict[str, float] = defaultdict(float)
        self._stack: list[list] = [[0.0, 0.0, None]]
        self._ids = 0

    def reset(self) -> None:
        """Forget everything recorded so far (set-up calls, say)."""
        for slot in self.counters.values():
            slot[:] = [0, 0.0, 0.0]
        self.spans.clear()
        self.stats.clear()
        self._stack[:] = [[0.0, 0.0, None]]

    # -- wrappers -----------------------------------------------------------

    def _slot(self, name: str) -> list:
        slot = self.counters.get(name)
        if slot is None:
            slot = self.counters[name] = [0, 0.0, 0.0]
        return slot

    def counted(self, name: str, fn: Callable, after: Callable | None = None) -> Callable:
        """Wrap a per-row call that makes no other wrapped call, so its
        self time is its duration; `after(result, args)` runs outside the
        clock."""
        stack, clock = self._stack, self.clock
        slot = self._slot(name)

        def wrapped(*args, **kwargs):
            t0 = clock()
            result = fn(*args, **kwargs)
            d = clock() - t0
            parent = stack[-1]
            parent[_CHILD] += d
            parent[_COUNTED] += d
            slot[0] += 1
            slot[1] += d
            slot[2] += d
            if after is not None:
                after(result, args)
            return result

        return wrapped

    def spanned(self, name: str, fn: Callable,
                label: Callable[[tuple], Any] | None = None,
                keep: Callable[[], bool] | None = None) -> Callable:
        """Wrap a batch-level call as a span.

        `label(args)` names the span's subject (a check id, say). When
        `keep()` returns False after the call, the call is folded into the
        counter `name` instead of becoming a span.
        """
        stack, clock, spans = self._stack, self.clock, self.spans
        slot = self._slot(name) if keep is not None else None
        tracer = self

        def wrapped(*args, **kwargs):
            tracer._ids += 1
            sid = tracer._ids
            frame = [0.0, 0.0, sid]
            parent = stack[-1]
            stack.append(frame)
            tag = label(args) if label is not None else None
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                d = t1 - t0
                parent[_CHILD] += d
                if keep is None or keep():
                    spans.append((sid, parent[_SPAN], name, tag, t0, t1, frame[_COUNTED]))
                else:
                    parent[_COUNTED] += d
                    slot[0] += 1
                    slot[1] += d
                    slot[2] += d - frame[_CHILD]

        return wrapped

    def iterate(self, name: str, items: Iterable) -> Iterator:
        """Yield from `items`, counting the time spent in each next()."""
        it = iter(items)
        stack, clock = self._stack, self.clock
        slot = self._slot(name)
        while True:
            t0 = clock()
            try:
                item = next(it)
            except StopIteration:
                d = clock() - t0
                slot[1] += d
                slot[2] += d
                stack[-1][_CHILD] += d
                stack[-1][_COUNTED] += d
                return
            d = clock() - t0
            slot[0] += 1
            slot[1] += d
            slot[2] += d
            stack[-1][_CHILD] += d
            stack[-1][_COUNTED] += d
            yield item

    def patch(self, owner: Any, attr: str, wrapper: Callable[[Callable], Callable]) -> None:
        setattr(owner, attr, wrapper(getattr(owner, attr)))

    def write(self, path: str) -> None:
        """Counters on the first line, then one span per line."""
        with open(path, "w", encoding="utf-8") as fp:
            fp.write(json.dumps({"counters": self.counters, "stats": self.stats}) + "\n")
            for span in self.spans:
                fp.write(json.dumps(span) + "\n")


def span_self_times(spans: Iterable[tuple]) -> dict[int, float]:
    """Self seconds per span id: duration minus direct child spans minus
    counted calls made directly inside it."""
    spans = list(spans)
    children: dict[int, float] = defaultdict(float)
    for sid, parent, _name, _label, start, end, _counted in spans:
        if parent is not None:
            children[parent] += end - start
    return {sid: (end - start) - children[sid] - counted
            for sid, _parent, _name, _label, start, end, counted in spans}


def span_totals(spans: Iterable[tuple]) -> dict[tuple[str, Any], list[float]]:
    """(name, label) -> [calls, total seconds, self seconds]."""
    spans = list(spans)
    own = span_self_times(spans)
    out: dict[tuple[str, Any], list[float]] = {}
    for sid, _parent, name, label, start, end, _counted in spans:
        slot = out.setdefault((name, label), [0, 0.0, 0.0])
        slot[0] += 1
        slot[1] += end - start
        slot[2] += own[sid]
    return out


# ---------------------------------------------------------------------------
# streamqc-specific installation


def install_static(tracer: Tracer, check_ids: dict[int, str]) -> None:
    """Patch module- and class-level entry points before set-up runs.

    `check_ids` maps id(MeasureSpec) to its check id, so measure spans can
    be labelled; it is filled in once the config is loaded.
    """
    from streamqc import connectors, expression, model, monitor, sketches, windowing

    stats = tracer.stats

    def after_close(panes, args):
        if panes:
            stats["close_useful"] += 1
            stats["empty_panes"] += sum(1 for w in panes if not w.elements)
            stats["closed_elements"] += sum(len(w.elements) for w in panes)
            stats["open_panes_max"] = max(stats["open_panes_max"],
                                          args[0].open_pane_count())

    def measure_label(args):
        stats["elements_scanned"] += len(args[1].elements)
        return check_ids.get(id(args[0]))

    def wrap_checker_factory(factory):
        def make(spec, env):
            checker = factory(spec, env)
            return None if checker is None else tracer.counted("elem_check", checker)
        return make

    tracer.patch(connectors, "load_reference",
                 lambda f: tracer.counted("reference_load", f))
    tracer.patch(windowing.Watermark, "observe", lambda f: tracer.counted("observe", f))
    tracer.patch(windowing.PaneStore, "route", lambda f: tracer.counted("route", f))
    tracer.patch(windowing.PaneStore, "close_ready",
                 lambda f: tracer.counted("close_ready", f, after=after_close))
    tracer.patch(monitor.SuiteState, "on_window_close",
                 lambda f: tracer.spanned("on_window_close", f))
    tracer.patch(monitor, "apply_measure",
                 lambda f: tracer.spanned("apply_measure", f, label=measure_label))
    tracer.patch(monitor, "elem_checker_for", wrap_checker_factory)
    tracer.patch(sketches.CardinalityEstimator, "add", lambda f: tracer.counted("sketch_add", f))
    tracer.patch(sketches.FrequentItemsSketch, "add", lambda f: tracer.counted("sketch_add", f))
    tracer.patch(expression, "parse", lambda f: tracer.counted("expr_parse", f))
    tracer.patch(model.MetaRecord, "to_json_line",
                 lambda f: tracer.spanned("to_json_line", f))


def install_engine(tracer: Tracer, engine: Any, meta: Any, side: Any | None) -> None:
    """Patch one engine instance and its sinks once they are built.

    `meta` is the benchmark's counting proxy around the meta sink: a
    `process` call that wrote meta lines becomes a span, any other is
    counted.
    """
    before = [0]

    def keep_process() -> bool:
        return meta.lines != before[0]

    timed_process = tracer.spanned("process", engine.process, keep=keep_process)

    def process(element):
        before[0] = meta.lines
        timed_process(element)

    engine.process = process
    engine.finish = tracer.spanned("finish", engine.finish)
    for sink in (meta.inner, side):
        if sink is not None:
            sink.write_line = tracer.spanned("sink_write", sink.write_line)


def summarize(tracer: Tracer, *, wall_s: float, rows: int, assigned: int,
              run_stats: dict, meta_bytes: int) -> dict[str, float]:
    """Per-layer metrics of one traced replay."""
    counters = tracer.counters
    stats = tracer.stats
    by_name: dict[str, list[float]] = defaultdict(lambda: [0, 0.0, 0.0])
    per_check: dict[str, float] = defaultdict(float)
    for (name, label), (calls, total, own) in span_totals(tracer.spans).items():
        slot = by_name[name]
        slot[0] += calls
        slot[1] += total
        slot[2] += own
        if name == "apply_measure" and label is not None:
            per_check[label] += total

    def counter(name: str, field: int) -> float:
        return counters.get(name, [0, 0.0, 0.0])[field]

    panes = run_stats["panes_closed"]
    engine_self = by_name["process"][2] + by_name["finish"][2] + counter("process", 2)
    layers = {
        "decode": counter("decode", 2),
        "observe": counter("observe", 2),
        "route": counter("route", 2),
        "close": counter("close_ready", 2),
        "assess": by_name["on_window_close"][2],
        "measures": by_name["apply_measure"][2],
        "elem_check": counter("elem_check", 2),
        "sketch": counter("sketch_add", 2),
        "parse": counter("expr_parse", 2),
        "to_json": by_name["to_json_line"][2],
        "sink": by_name["sink_write"][2],
        "engine": engine_self,
    }
    close_calls = counter("close_ready", 0)
    out = {
        "connectors.decode_s": counter("decode", 1),
        "connectors.decode_us_per_row": counter("decode", 1) / max(rows, 1) * 1e6,
        "connectors.rows": rows,
        "connectors.parse_failures": sum(run_stats["parse_failures"].values()),
        "connectors.skipped_bad_time": run_stats["skipped_bad_time"],
        "connectors.sink_write_s": by_name["sink_write"][1],
        "windowing.observe_s": counter("observe", 1),
        "windowing.route_s": counter("route", 1),
        "windowing.close_s": counter("close_ready", 1),
        "windowing.close_calls": close_calls,
        "windowing.close_useful_ratio": stats["close_useful"] / close_calls if close_calls else 0.0,
        "windowing.panes_closed": panes,
        "windowing.empty_panes": stats["empty_panes"],
        "windowing.assignments_per_row": stats["closed_elements"] / assigned if assigned else 0.0,
        "windowing.late_accepted": run_stats["late_accepted"],
        "windowing.discarded": run_stats["discarded"],
        "windowing.open_panes_max": stats["open_panes_max"],
        "measures.apply_s": by_name["apply_measure"][1],
        "measures.calls": by_name["apply_measure"][0],
        "measures.elements_scanned": stats["elements_scanned"],
        "measures.elem_checks": counter("elem_check", 0),
        "measures.elem_check_s": counter("elem_check", 1),
        "sketches.adds": counter("sketch_add", 0),
        "sketches.add_s": counter("sketch_add", 1),
        "expression.parse_calls": counter("expr_parse", 0),
        "expression.parse_s": counter("expr_parse", 1),
        "monitor.assess_s": by_name["on_window_close"][1],
        "monitor.assess_self_s": by_name["on_window_close"][2],
        "monitor.engine_self_s": engine_self,
        "monitor.records_per_pane": run_stats["records_emitted"] / panes if panes else 0.0,
        "monitor.side_routed": run_stats["side_routed"],
        "model.to_json_s": by_name["to_json_line"][1],
        "model.meta_bytes_per_row": meta_bytes / max(rows, 1),
        "trace.coverage": sum(layers.values()) / wall_s if wall_s > 0 else 0.0,
    }
    for check_id, seconds in per_check.items():
        out[f"measures.apply_s.{check_id}"] = seconds
    return out
