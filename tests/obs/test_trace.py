"""Tracer correctness: event schema, B/E nesting, thread safety."""

import gc
import json
import threading
import time

import pytest

from repro.obs import (
    NULL_SPAN,
    Tracer,
    chrome_trace,
    gc_spans,
    profile_from_events,
    span,
    tracer,
    use_tracer,
)
from repro.obs.trace import GC_SPAN, _Span

REQUIRED_KEYS = {"name", "cat", "ph", "ts", "pid", "tid"}


def check_balanced_be(events):
    """Every exported tid must carry a properly nested B/E sequence."""
    stacks = {}
    for event in events:
        stack = stacks.setdefault(event["tid"], [])
        if event["ph"] == "B":
            stack.append(event["name"])
        elif event["ph"] == "E":
            assert stack, f"E without open B on tid {event['tid']}"
            stack.pop()
    for tid, stack in stacks.items():
        assert not stack, f"unclosed spans on tid {tid}: {stack}"


class TestTracer:
    def test_disabled_returns_null_span_singleton(self):
        t = Tracer(enabled=False)
        with use_tracer(t):
            assert span("a") is NULL_SPAN
            assert span("b", key="v") is NULL_SPAN
            with span("c"):
                pass
        assert t.export() == []
        assert t.spans_opened == 0

    def test_default_global_tracer_is_disabled(self):
        assert not tracer().enabled
        assert span("anything") is NULL_SPAN

    def test_events_have_required_keys(self):
        t = Tracer(enabled=True)
        with use_tracer(t):
            with span("outer", package="com.x"):
                with span("inner"):
                    pass
        events = t.export()
        assert len(events) == 4
        for event in events:
            assert REQUIRED_KEYS <= set(event)
        assert events[0]["args"] == {"package": "com.x"}

    def test_nesting_is_balanced(self):
        t = Tracer(enabled=True)
        with use_tracer(t):
            with span("a"):
                with span("b"):
                    pass
                with span("c"):
                    with span("d"):
                        pass
        events = t.export()
        check_balanced_be(events)
        assert [e["name"] for e in events if e["ph"] == "B"] == [
            "a", "b", "c", "d"
        ]

    def test_timestamps_monotone_per_thread(self):
        t = Tracer(enabled=True)
        with use_tracer(t):
            with span("a"):
                with span("b"):
                    pass
        ts = [e["ts"] for e in t.export()]
        assert ts == sorted(ts)

    def test_thread_safety(self):
        t = Tracer(enabled=True)

        def work():
            for _ in range(50):
                with span("w"):
                    pass

        threads = [threading.Thread(target=work) for _ in range(4)]
        with use_tracer(t):
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        events = t.export()
        assert len(events) == 4 * 50 * 2
        check_balanced_be(events)
        assert t.spans_opened == 4 * 50

    def test_use_tracer_restores_previous(self):
        before = tracer()
        with use_tracer(Tracer(enabled=True)) as active:
            assert tracer() is active
            with span("x"):
                pass
            assert active.spans_opened == 1
        assert tracer() is before

    def test_export_is_picklable_and_json_safe(self):
        t = Tracer(enabled=True)
        with use_tracer(t), span("s", n=1):
            pass
        wrapped = chrome_trace(t.export())
        parsed = json.loads(json.dumps(wrapped))
        assert parsed["traceEvents"][0]["name"] == "s"
        assert parsed["displayTimeUnit"] == "ms"

    def test_clear_resets(self):
        t = Tracer(enabled=True)
        with use_tracer(t), span("s"):
            pass
        t.clear()
        assert t.export() == []
        assert t.spans_opened == 0

    def test_span_allocates_only_when_enabled(self):
        t = Tracer(enabled=True)
        with use_tracer(t):
            assert isinstance(span("s"), _Span)
            t.enabled = False
            assert span("s") is NULL_SPAN


class TestAddSpan:
    def test_records_an_ended_span_in_wall_clock_microseconds(self):
        t = Tracer(enabled=True)
        start = time.perf_counter()
        wall_us = time.time_ns() // 1_000
        t.add_span("done", start, start + 0.25)
        with use_tracer(t), span("later"):
            pass
        events = t.export()
        check_balanced_be(events)
        begin, end = events[:2]
        assert (begin["name"], begin["ph"], end["ph"]) == ("done", "B", "E")
        assert REQUIRED_KEYS <= set(begin)
        assert abs(begin["ts"] - wall_us) < 50_000
        assert abs(end["ts"] - begin["ts"] - 250_000) <= 1
        assert t.spans_opened == 2
        done = profile_from_events(events)["done"]
        assert done["count"] == 1 and abs(done["cum_ms"] - 250.0) < 0.01

    def test_disabled_tracer_records_nothing(self):
        t = Tracer(enabled=False)
        t.add_span("done", 0.0, 1.0)
        assert t.export() == [] and t.spans_opened == 0


class TestGcSpans:
    def test_collection_inside_a_span_is_its_gc_child(self):
        t = Tracer(enabled=True)
        with use_tracer(t), gc_spans(t):
            with span("outer"):
                gc.collect()
        events = t.export()
        check_balanced_be(events)
        begins = [e for e in events if e["name"] == GC_SPAN and e["ph"] == "B"]
        assert {"generation": 2} in [e["args"] for e in begins]
        outer = profile_from_events(events)["outer"]
        assert outer["children"][GC_SPAN]["count"] >= 1

    def test_disabled_tracer_installs_nothing(self):
        before = list(gc.callbacks)
        t = Tracer(enabled=False)
        with gc_spans(t):
            assert gc.callbacks == before
            gc.collect()
        assert t.export() == []

    def test_hook_is_removed_afterwards_even_on_error(self):
        before = list(gc.callbacks)
        t = Tracer(enabled=True)
        with pytest.raises(RuntimeError):
            with gc_spans(t):
                assert len(gc.callbacks) == len(before) + 1
                raise RuntimeError("boom")
        assert gc.callbacks == before
        gc.collect()
        assert not any(e["name"] == GC_SPAN for e in t.export())

    def test_hook_takes_no_tracer_lock(self):
        # A collection can start while `_emit` holds the lock; the hook
        # must not wait for it.
        t = Tracer(enabled=True)
        done = threading.Event()

        def collect_under_lock():
            with gc_spans(t), t._lock:
                gc.collect()
            done.set()

        worker = threading.Thread(target=collect_under_lock, daemon=True)
        worker.start()
        assert done.wait(timeout=10), "gc hook blocked on the tracer lock"
        assert [e["ph"] for e in t.export()] == ["B", "E"]
