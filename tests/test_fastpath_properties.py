"""Property-based tests for the fast-path data structures.

Hypothesis drives randomized operation sequences against the structures
the fast-path PR rewrote — :class:`~repro.engine.queues.BoundedQueue`
and the cached :class:`~repro.qos.stats.WindowedStats` aggregates —
checking each against a trivially correct reference model.
"""

from __future__ import annotations

import math
from collections import deque

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.items import DataItem
from repro.engine.queues import BoundedQueue
from repro.qos.stats import OnlineStats, StatsSnapshot, WindowedStats

# ----------------------------------------------------------------------
# BoundedQueue: FIFO, capacity, space listeners
# ----------------------------------------------------------------------

# An op is ("put", payload) or ("get",); payloads are small ints.
_queue_ops = st.lists(
    st.one_of(
        st.tuples(st.just("put"), st.integers(0, 999)),
        st.tuples(st.just("get")),
    ),
    max_size=60,
)


class TestBoundedQueueProperties:
    @given(capacity=st.integers(1, 8), ops=_queue_ops)
    def test_fifo_and_capacity_vs_model(self, capacity, ops):
        """The queue behaves exactly like a capacity-capped deque."""
        queue = BoundedQueue(capacity)
        model: deque = deque()
        enqueued = 0
        for op in ops:
            if op[0] == "put":
                item = DataItem(op[1], created_at=0.0)
                accepted = queue.try_put(item, source=None)
                assert accepted == (len(model) < capacity)
                if accepted:
                    model.append(op[1])
                    enqueued += 1
            else:
                if model:
                    item, _source = queue.get()
                    assert item.payload == model.popleft()
                else:
                    try:
                        queue.get()
                        raise AssertionError("get() on empty queue must raise")
                    except IndexError:
                        pass
            assert len(queue) == len(model)
            assert queue.free_space == capacity - len(model)
            assert queue.is_full == (len(model) >= capacity)
        assert queue.total_enqueued == enqueued

    @given(capacity=st.integers(1, 6), n_listeners=st.integers(0, 10))
    def test_space_listeners_fire_once_each_in_fifo_order(self, capacity, n_listeners):
        queue = BoundedQueue(capacity)
        for i in range(capacity):
            assert queue.try_put(DataItem(i, created_at=0.0), None)
        fired = []
        for i in range(n_listeners):
            queue.add_space_listener(lambda i=i: fired.append(i))
        queue.get()
        # One slot freed: listeners run in FIFO order; each may not refill
        # the queue here, so all of them drain on the first notification.
        assert fired == list(range(n_listeners))
        queue.get() if len(queue) else None
        assert fired == list(range(n_listeners))  # one-shot, never refire

    @given(capacity=st.integers(1, 4))
    def test_listener_refilling_queue_stops_notification(self, capacity):
        """A listener that refills the queue parks the remaining listeners."""
        queue = BoundedQueue(capacity)
        for i in range(capacity):
            queue.try_put(DataItem(i, created_at=0.0), None)
        fired = []

        def refill():
            fired.append("refill")
            queue.try_put(DataItem(99, created_at=0.0), None)

        queue.add_space_listener(refill)
        queue.add_space_listener(lambda: fired.append("second"))
        queue.get()
        # refill consumed the freed slot -> "second" must still be parked
        assert fired == ["refill"]
        queue.get()
        assert fired == ["refill", "second"]


# ----------------------------------------------------------------------
# Stats: Welford and cached window aggregates vs naive recomputation
# ----------------------------------------------------------------------

_samples = st.lists(
    st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False), max_size=100
)


class TestStatsProperties:
    @given(values=_samples)
    def test_welford_matches_naive_two_pass(self, values):
        stats = OnlineStats()
        for v in values:
            stats.add(v)
        assert stats.count == len(values)
        if not values:
            assert stats.mean == 0.0 and stats.variance == 0.0
            return
        naive_mean = math.fsum(values) / len(values)
        assert math.isclose(stats.mean, naive_mean, rel_tol=1e-9, abs_tol=1e-9)
        if len(values) >= 2:
            naive_var = math.fsum((v - naive_mean) ** 2 for v in values) / (
                len(values) - 1
            )
            assert math.isclose(
                stats.variance, naive_var, rel_tol=1e-9, abs_tol=1e-6
            )
        assert stats.min == min(values)
        assert stats.max == max(values)

    @given(
        window=st.integers(1, 6),
        intervals=st.lists(
            st.lists(st.floats(0.0, 1e3, allow_nan=False), max_size=20),
            max_size=12,
        ),
    )
    @settings(max_examples=60)
    def test_cached_window_aggregates_match_naive_rescan(self, window, intervals):
        """The memoized aggregates equal a from-scratch recomputation.

        The naive model replays the same snapshots into a *fresh*
        WindowedStats before every read, so its values can never come
        from a stale cache; the live instance interleaves reads between
        pushes to exercise cache invalidation.
        """
        live = WindowedStats(window)
        history = []
        for samples in intervals:
            acc = OnlineStats()
            for v in samples:
                acc.add(v)
            snap = acc.snapshot_and_reset()
            live.push(snap)
            history.append(snap)

            naive = WindowedStats(window)
            for s in history:
                naive.push(s)
            naive_values = (
                naive.has_data,
                naive.count,
                naive.mean,
                naive.weighted_mean,
                naive.variance,
                naive.cv,
            )
            # Read twice: once freshly invalidated, once from cache.
            for _ in range(2):
                assert live.has_data == naive_values[0]
                assert live.count == naive_values[1]
                assert math.isclose(
                    live.mean, naive_values[2], rel_tol=1e-9, abs_tol=1e-9
                )
                assert math.isclose(
                    live.weighted_mean, naive_values[3], rel_tol=1e-9, abs_tol=1e-9
                )
                assert math.isclose(
                    live.variance, naive_values[4], rel_tol=1e-9, abs_tol=1e-9
                )
                assert math.isclose(
                    live.cv, naive_values[5], rel_tol=1e-9, abs_tol=1e-9
                )
        live.clear()
        assert not live.has_data
        assert live.count == 0

    @given(
        counts=st.lists(st.integers(0, 5), min_size=1, max_size=10),
    )
    def test_empty_snapshots_age_the_window(self, counts):
        """m consecutive empty snapshots evict all data from the window."""
        window = 3
        stats = WindowedStats(window)
        for count in counts:
            acc = OnlineStats()
            for i in range(count):
                acc.add(float(i + 1))
            stats.push(acc.snapshot_and_reset())
        if all(c == 0 for c in counts[-window:]) and len(counts) >= window:
            assert not stats.has_data
        if any(c > 0 for c in counts[-window:]):
            assert stats.has_data


class TestSnapshotProperties:
    @given(
        count=st.integers(0, 100),
        mean=st.floats(-1e3, 1e3, allow_nan=False),
        variance=st.floats(0.0, 1e3, allow_nan=False),
    )
    def test_snapshot_derived_values(self, count, mean, variance):
        snap = StatsSnapshot(count, mean, variance)
        assert snap.stdev == math.sqrt(variance)
        if mean == 0.0:
            assert snap.cv == 0.0
        else:
            assert math.isclose(snap.cv, math.sqrt(variance) / mean, rel_tol=1e-12)
