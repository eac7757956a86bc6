"""Regression tests pinning the fast-path kernel's ordering semantics.

The fast path keeps two heap-entry shapes (fire-and-forget tuples and
cancellable events), both of which must preserve the kernel's core
contract: events fire in ``(time, seq)`` order, i.e. simultaneous events
fire in the order they were *scheduled*, and cancellation or
re-scheduling never perturbs the order of surviving events.
"""

from __future__ import annotations

import pytest

from repro.simulation.kernel import SimulationError, Simulator


class TestSimultaneousOrdering:
    def test_mixed_shapes_fire_in_schedule_order(self, sim):
        """schedule / schedule_fire / periodic ticks at one instant fire by seq."""
        fired = []
        sim.schedule(1.0, fired.append, "handle-0")
        sim.schedule_fire(1.0, fired.append, "fire-1")
        proc = sim.every(1.0, fired.append, "periodic-2")
        sim.schedule_at(1.0, fired.append, "handle-3")
        sim.schedule_fire_at(1.0, fired.append, "fire-4")
        sim.run(until=1.0)
        proc.stop()
        assert fired == ["handle-0", "fire-1", "periodic-2", "handle-3", "fire-4"]

    def test_cancel_and_reschedule_keeps_late_seq(self, sim):
        """Re-scheduling after a cancel fires at the *new* schedule position.

        Regression: a cancelled event's slot must not be inherited by its
        replacement — the replacement gets a fresh (later) seq, so
        same-time peers scheduled in between fire first.
        """
        fired = []
        first = sim.schedule(1.0, fired.append, "original")
        sim.schedule(1.0, fired.append, "peer")
        first.cancel()
        sim.schedule(1.0, fired.append, "rescheduled")
        sim.run()
        assert fired == ["peer", "rescheduled"]

    def test_cancelled_events_do_not_count_or_advance_clock(self, sim):
        handle = sim.schedule(5.0, lambda: None)
        sim.schedule(1.0, lambda: None)
        handle.cancel()
        sim.run()
        assert sim.fired_events == 1
        assert sim.now == 1.0

    def test_callback_scheduling_at_now_fires_after_pending_peers(self, sim):
        """An event scheduled from a callback at t=now fires after peers
        already pending at that instant (its seq is larger)."""
        fired = []

        def spawner():
            fired.append("spawner")
            sim.schedule(0.0, fired.append, "spawned")

        sim.schedule(1.0, spawner)
        sim.schedule(1.0, fired.append, "peer")
        sim.run()
        assert fired == ["spawner", "peer", "spawned"]


class TestPeriodicProcess:
    def test_stop_cancels_pending_event(self, sim):
        ticks = []
        proc = sim.every(1.0, ticks.append, 1)
        sim.run(until=1.5)
        proc.stop()
        sim.run(until=10.0)
        assert ticks == [1]
        assert proc.stopped

    def test_stop_in_own_callback_fires_no_further_tick(self, sim):
        ticks = []

        def tick():
            ticks.append(sim.now)
            if len(ticks) == 2:
                proc.stop()

        proc = sim.every(1.0, tick)
        sim.run(until=10.0)
        assert ticks == [1.0, 2.0]
        assert proc.stopped
        assert sim.fired_events == 2


class TestRunSemantics:
    def test_fired_events_counts_all_shapes(self, sim):
        sim.schedule(1.0, lambda: None)
        sim.schedule_fire(2.0, lambda: None)
        proc = sim.every(1.0, lambda: None, start_delay=3.0)
        sim.run(until=4.0)
        proc.stop()
        sim.run()
        assert sim.fired_events == 4

    def test_until_clock_advances_past_last_event(self, sim):
        sim.schedule_fire(1.0, lambda: None)
        sim.run(until=7.5)
        assert sim.now == 7.5
        assert sim.fired_events == 1

    def test_until_excludes_strictly_later_events(self, sim):
        fired = []
        sim.schedule_fire(1.0, fired.append, "in")
        sim.schedule_fire(2.0, fired.append, "boundary")
        sim.schedule_fire(2.0000001, fired.append, "out")
        sim.run(until=2.0)
        assert fired == ["in", "boundary"]

    def test_max_events_bounds_firing(self, sim):
        fired = []
        for i in range(10):
            sim.schedule_fire(float(i), fired.append, i)
        sim.run(max_events=4)
        assert fired == [0, 1, 2, 3]
        sim.run()
        assert fired == list(range(10))

    def test_max_events_zero_fires_nothing(self, sim):
        fired = []
        sim.schedule_fire(1.0, fired.append, "a")
        sim.schedule(2.0, fired.append, "b")
        sim.run(max_events=0)
        assert fired == []
        assert sim.fired_events == 0
        assert sim.pending_events == 2
        sim.run(until=5.0, max_events=0)
        assert fired == []
        assert sim.now == 0.0

    def test_negative_max_events_rejected(self, sim):
        sim.schedule_fire(1.0, lambda: None)
        with pytest.raises(SimulationError):
            sim.run(max_events=-1)
        assert sim.fired_events == 0

    def test_max_events_cut_does_not_advance_clock_to_until(self, sim):
        """A run the limit stops short of ``until`` keeps the clock monotone.

        Regression: the clock used to jump to ``until`` even with events
        still pending before it, which a later run() then fired behind
        the clock.
        """
        clock = []
        for t in (1.0, 2.0, 3.0):
            sim.schedule_fire(t, lambda: clock.append(sim.now))
        sim.run(until=10.0, max_events=1)
        assert clock == [1.0]
        assert sim.now == 1.0
        assert sim.pending_events == 2
        sim.run(until=10.0)
        assert clock == [1.0, 2.0, 3.0]
        assert sim.now == 10.0

    def test_max_events_advances_to_until_once_nothing_is_due(self, sim):
        sim.schedule_fire(1.0, lambda: None)
        sim.schedule_fire(20.0, lambda: None)
        sim.run(until=10.0, max_events=1)
        assert sim.now == 10.0
        sim.run(until=10.0, max_events=5)
        assert sim.now == 10.0
        assert sim.pending_events == 1

    def test_step_handles_both_shapes_and_skips_cancelled(self, sim):
        fired = []
        handle = sim.schedule(1.0, fired.append, "cancelled")
        sim.schedule_fire(2.0, fired.append, "fire")
        sim.schedule(3.0, fired.append, "handle")
        handle.cancel()
        assert sim.step() is True
        assert fired == ["fire"]
        assert sim.step() is True
        assert fired == ["fire", "handle"]
        assert sim.step() is False

    def test_reentrant_run_rejected(self, sim):
        def nested():
            sim.run()

        sim.schedule(1.0, nested)
        with pytest.raises(SimulationError):
            sim.run()

    def test_negative_delay_rejected_on_fire_path(self, sim):
        with pytest.raises(SimulationError):
            sim.schedule_fire(-0.1, lambda: None)

    def test_schedule_fire_returns_no_handle(self, sim):
        assert sim.schedule_fire(1.0, lambda: None) is None
        assert sim.schedule_fire_at(2.0, lambda: None) is None


class TestEventHandle:
    def test_event_ordering_by_time_then_seq(self, sim):
        """Handles record their ``(time, seq)`` key and fire in its order."""
        fired = []
        c = sim.schedule(2.0, fired.append, "c")
        a = sim.schedule(1.0, fired.append, "a")
        b = sim.schedule(1.0, fired.append, "b")
        assert (a.time, a.seq) < (b.time, b.seq) < (c.time, c.seq)
        sim.run()
        assert fired == ["a", "b", "c"]

    def test_cancel_is_idempotent(self, sim):
        handle = sim.schedule(1.0, lambda: None)
        handle.cancel()
        handle.cancel()
        sim.run()
        assert sim.fired_events == 0
