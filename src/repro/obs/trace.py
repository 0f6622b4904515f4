"""Span-based tracer with Chrome trace-event export.

One global :class:`Tracer` is active at a time (swap it with
:func:`set_tracer` / :func:`use_tracer`); instrumented code opens spans
through the module-level :func:`span` helper::

    with span("pass:connectivity", package="com.app"):
        ...

Design constraints, in order:

* **Near-zero overhead when disabled.**  The default tracer is disabled;
  ``span()`` then returns one shared :data:`NULL_SPAN` singleton — no
  object allocation, no timestamp read, no lock.  The overhead-guard
  test pins this down by counting :class:`_Span` allocations during an
  untraced scan.
* **Thread-safe.**  Spans stamp the opening thread's id and append begin
  /end events under a lock, so concurrent threads interleave without
  corrupting the buffer; nesting is reconstructed per ``tid``, which is
  exactly the Chrome trace-event contract for ``B``/``E`` pairs.
* **Garbage collection shows up where it lands.**  While a tracer is
  enabled, :func:`gc_spans` records each cyclic collection as a
  :data:`GC_SPAN` span (``generation`` in its args) under whatever span
  is open on the collecting thread, so the collector's share is not
  charged to the self time of the span that happened to allocate.
* **Process-safe by export/merge.**  A tracer never crosses a process
  boundary: each :mod:`repro.pipeline.batch` worker installs its own
  enabled tracer, exports the event list (plain dicts, picklable), and
  the parent concatenates the lists.  Events carry the worker's real
  ``pid``, so Perfetto shows one track group per worker process.

The export format is the Chrome trace-event JSON array format wrapped in
the standard object envelope (``{"traceEvents": [...]}``), loadable in
``chrome://tracing`` and https://ui.perfetto.dev.
"""

from __future__ import annotations

import gc
import os
import threading
import time
from contextlib import contextmanager


class _NullSpan:
    """The do-nothing span returned while tracing is disabled."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> bool:
        return False


#: The name of the span :func:`gc_spans` records per collection.  How
#: many there are depends on the allocator's history, not on the code,
#: so profile comparisons never gate on their count.
GC_SPAN = "gc"

#: Shared no-op span — identity-comparable, never allocated per call.
NULL_SPAN = _NullSpan()


class _Span:
    """A live span: emits a ``B`` event on enter, an ``E`` on exit."""

    __slots__ = ("_tracer", "name", "args")

    def __init__(self, tracer: "Tracer", name: str, args: dict) -> None:
        self._tracer = tracer
        self.name = name
        self.args = args

    def __enter__(self) -> "_Span":
        self._tracer._emit("B", self.name, self.args)
        return self

    def __exit__(self, *exc) -> bool:
        self._tracer._emit("E", self.name, None)
        return False


class Tracer:
    """Collects trace events for one process."""

    def __init__(self, enabled: bool = False) -> None:
        self.enabled = enabled
        #: Spans opened since creation/clear — the overhead guard reads
        #: this to prove a disabled scan opened none.
        self.spans_opened = 0
        self._events: list[dict] = []
        self._lock = threading.Lock()
        self._pid = os.getpid()

    def span(self, name: str, **args):
        """A context manager tracing ``name``; :data:`NULL_SPAN` (no
        allocation) while the tracer is disabled."""
        if not self.enabled:
            return NULL_SPAN
        return _Span(self, name, args)

    def _event(self, ph: str, name: str, args) -> dict:
        event = {
            "name": name,
            "cat": "nchecker",
            "ph": ph,
            "ts": 0,
            "pid": self._pid,
            "tid": threading.get_ident(),
        }
        if args:
            event["args"] = dict(args)
        # Read the clock after the allocations: a collection one of them
        # starts has then recorded its `gc` span before this event, at
        # earlier timestamps, so stream order and time order agree.
        event["ts"] = time.time_ns() // 1_000  # microseconds, wall clock
        return event

    def _emit(self, ph: str, name: str, args) -> None:
        event = self._event(ph, name, args)
        with self._lock:
            if ph == "B":
                self.spans_opened += 1
            self._events.append(event)

    def add_span(self, name: str, start: float, end: float) -> None:
        """Record a span that has already ended, from two
        ``time.perf_counter()`` readings taken in this process."""
        if not self.enabled:
            return
        # Event times are wall-clock microseconds: shift the readings by
        # the offset between the two clocks now.
        offset_us = time.time_ns() / 1_000 - time.perf_counter() * 1e6
        begin = self._event("B", name, None)
        end_event = self._event("E", name, None)
        begin["ts"] = int(offset_us + start * 1e6)
        end_event["ts"] = int(offset_us + end * 1e6)
        with self._lock:
            self.spans_opened += 1
            self._events += (begin, end_event)

    def _gc_event(self, phase: str, info: dict) -> None:
        """A ``gc.callbacks`` hook: one ``B`` event when a collection
        starts, one ``E`` when it stops.  A collection can start inside
        any allocation, including one made while :meth:`_emit` holds
        ``_lock``, so this takes no lock: ``list.append`` is atomic."""
        if phase == "start":
            event = self._event("B", GC_SPAN, {"generation": info["generation"]})
        else:
            event = self._event("E", GC_SPAN, None)
        self._events.append(event)

    def export(self) -> list[dict]:
        """The collected events (copies the list; events are plain dicts
        and picklable, ready to ship across a process pool)."""
        with self._lock:
            return list(self._events)

    def clear(self) -> None:
        with self._lock:
            self._events.clear()
            self.spans_opened = 0


#: The active tracer; disabled by default so library users pay nothing.
_ACTIVE = Tracer(enabled=False)


def tracer() -> Tracer:
    """The currently active tracer."""
    return _ACTIVE


def set_tracer(new: Tracer) -> Tracer:
    """Install ``new`` as the active tracer; returns the previous one."""
    global _ACTIVE
    old = _ACTIVE
    _ACTIVE = new
    return old


@contextmanager
def use_tracer(new: Tracer):
    """Scoped :func:`set_tracer` (restores the previous tracer)."""
    old = set_tracer(new)
    try:
        yield new
    finally:
        set_tracer(old)


@contextmanager
def gc_spans(active: Tracer):
    """Record each cyclic garbage collection as a :data:`GC_SPAN` span on
    ``active`` until the block exits; a disabled tracer installs
    nothing."""
    if not active.enabled:
        yield
        return
    hook = active._gc_event
    gc.callbacks.append(hook)
    try:
        yield
    finally:
        gc.callbacks.remove(hook)


def span(name: str, **args):
    """Open a span on the active tracer (no-op singleton when disabled)."""
    active = _ACTIVE
    if not active.enabled:
        return NULL_SPAN
    return _Span(active, name, args)


def chrome_trace(events: list[dict]) -> dict:
    """Wrap merged event lists in the Chrome trace-event JSON envelope."""
    return {"traceEvents": list(events), "displayTimeUnit": "ms"}
