"""Discrete-event loop tests."""

import pytest

from repro.netsim import EventLoop


class TestEventLoop:
    def test_dispatch_in_time_order(self):
        loop = EventLoop()
        order = []
        loop.schedule(30, lambda: order.append("b"))
        loop.schedule(10, lambda: order.append("a"))
        loop.schedule(20, lambda: order.append("mid"))
        loop.run()
        assert order == ["a", "mid", "b"]

    def test_clock_advances_to_event_time(self):
        loop = EventLoop()
        seen = []
        loop.schedule(50, lambda: seen.append(loop.now))
        loop.run()
        assert seen == [50.0]

    def test_ties_fifo(self):
        loop = EventLoop()
        order = []
        loop.schedule(10, lambda: order.append(1))
        loop.schedule(10, lambda: order.append(2))
        loop.run()
        assert order == [1, 2]

    def test_nested_scheduling(self):
        loop = EventLoop()
        order = []

        def outer():
            order.append("outer")
            loop.schedule(5, lambda: order.append("inner"))

        loop.schedule(10, outer)
        loop.run()
        assert order == ["outer", "inner"]
        assert loop.now == 15.0

    def test_until_limit(self):
        loop = EventLoop()
        fired = []
        loop.schedule(10, lambda: fired.append(1))
        loop.schedule(100, lambda: fired.append(2))
        loop.run(until_ms=50)
        assert fired == [1]
        assert loop.run() == 1 and fired == [1, 2]

    def test_max_events_backstop(self):
        loop = EventLoop()

        def rearm():
            loop.schedule(1, rearm)

        loop.schedule(1, rearm)
        dispatched = loop.run(max_events=100)
        assert dispatched == 100

    def test_negative_delay_rejected(self):
        loop = EventLoop()
        with pytest.raises(ValueError):
            loop.schedule(-1, lambda: None)

    def test_advance_moves_clock_without_dispatch(self):
        loop = EventLoop()
        fired = []
        loop.schedule(10, lambda: fired.append(1))
        loop.advance(100)
        assert loop.now == 100 and fired == []
