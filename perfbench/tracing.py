"""Spans recorded around calls into segclip, from outside the package.

A span has a name, a start and an end (CLOCK_MONOTONIC nanoseconds, which
processes on one machine share), the span that caused it and the measured
pass it belongs to.  Calls made once per segment are too many to record one
by one: `Tracer.aggregate` folds them into one span per parent whose `busy`
time is the sum of the calls.  A span's self time is its busy time minus the
busy time of its children, so the self times of a pass add up to its root.

Cyclic-GC pauses become `runtime.gc.gen<N>` spans through `gc.callbacks`,
children of whatever span or aggregated call they interrupted; a pause
outside every span is not recorded.
"""

from __future__ import annotations

import gc
import time
from contextlib import contextmanager, nullcontext
from dataclasses import asdict, dataclass

now = time.monotonic_ns

# Layer (metric prefix) of each clipper the benchmark runs, in its order.
CLIPPER_LAYERS = {"quadclip": "quadclip", "cs": "baselines.cs",
                  "lb": "baselines.lb"}
GC_PREFIX = "runtime.gc.gen"


@dataclass(eq=False)
class Span:
    id: int
    name: str
    parent: int | None
    pass_id: int
    start: int
    end: int = 0
    busy: int = 0   # end - start, or the summed call time of an aggregate
    calls: int = 0  # aggregated calls, or items handled by the span


class Tracer:
    """Spans of one process, kept in memory until the run ends."""

    def __init__(self):
        self.spans: list[Span] = []
        self.pass_id = 0
        self._stack: list[Span] = []
        self._inside: Span | None = None  # aggregate whose call is running
        self._gc_start = 0

    def _new(self, name: str, parent: Span | None, start: int) -> Span:
        span = Span(len(self.spans) + 1, name,
                    parent.id if parent else None, self.pass_id, start)
        self.spans.append(span)
        return span

    def open(self, name: str) -> Span:
        span = self._new(name, self._stack[-1] if self._stack else None, now())
        self._stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = now()
        span.busy = span.end - span.start
        popped = self._stack.pop()
        if popped is not span:
            raise RuntimeError(f"span {span.name} closed inside {popped.name}")

    @contextmanager
    def span(self, name: str):
        s = self.open(name)
        try:
            yield s
        finally:
            self.close(s)

    def aggregate(self, name: str, fn):
        """`fn` wrapped so that its calls add up in one span per parent."""
        per_parent: dict[int, Span] = {}
        stack = self._stack

        def call(*args):
            parent = stack[-1]
            agg = per_parent.get(parent.id)
            if agg is None:
                agg = per_parent[parent.id] = self._new(name, parent, now())
            self._inside = agg
            t = now()
            try:
                return fn(*args)
            finally:
                agg.end = now()
                agg.busy += agg.end - t
                agg.calls += 1
                self._inside = None

        return call

    def _on_gc(self, phase, info):
        if phase == "start":
            self._gc_start = now()
            return
        parent = self._inside or (self._stack[-1] if self._stack else None)
        if parent is None:
            return  # between spans: no layer to charge it to
        span = self._new(f"{GC_PREFIX}{info['generation']}", parent,
                         self._gc_start)
        span.end = now()
        span.busy = span.end - span.start

    def hook_gc(self) -> None:
        gc.callbacks.append(self._on_gc)

    def unhook_gc(self) -> None:
        gc.callbacks.remove(self._on_gc)

    def records(self) -> list[dict]:
        return [asdict(s) for s in self.spans]

    def adopt(self, records: list[dict], root: Span) -> None:
        """Add another process's spans, its top-level ones under `root`."""
        ids = {}
        for r in records:
            span = Span(**r)
            span.id = len(self.spans) + 1
            ids[r["id"]] = span.id
            span.parent = ids[r["parent"]] if r["parent"] else root.id
            span.pass_id = root.pass_id
            self.spans.append(span)


def optional_span(tracer: Tracer | None, name: str):
    """`tracer.span(name)`, or a context that records nothing."""
    return tracer.span(name) if tracer is not None else nullcontext()


def self_times(spans: list[Span]) -> dict[int, int]:
    """Busy time minus the children's busy time, by span id."""
    own = {s.id: s.busy for s in spans}
    for s in spans:
        if s.parent is not None:
            own[s.parent] -= s.busy
    return own


def layer_totals(spans: list[Span], pass_id: int) -> dict[str, int]:
    """Self nanoseconds per span name within one pass."""
    in_pass = [s for s in spans if s.pass_id == pass_id]
    own = self_times(in_pass)
    totals: dict[str, int] = {}
    for s in in_pass:
        totals[s.name] = totals.get(s.name, 0) + own[s.id]
    return totals


def gc_stats(spans: list[Span], pass_id: int) -> tuple[float, int, int]:
    """(pause ms, collections, generation-2 collections) within one pass."""
    pauses = [s for s in spans
              if s.pass_id == pass_id and s.name.startswith(GC_PREFIX)]
    return (sum(s.busy for s in pauses) / 1e6, len(pauses),
            sum(s.name == f"{GC_PREFIX}2" for s in pauses))
