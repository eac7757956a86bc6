"""QoS managers (paper Sec. IV-B).

A :class:`QoSManager` owns a subset of the constrained tasks and
channels. Once per *measurement interval* it drains their reporters and
pushes the snapshots into per-task/channel sliding windows (the paper's
``m`` past measurements, Eq. 2). Once per *adjustment interval* it emits
a :class:`~repro.qos.summary.PartialSummary` for the master and applies
the adaptive-output-batching deadlines for the channels it manages.
"""

from __future__ import annotations

from typing import Dict, List, Optional, TYPE_CHECKING, Tuple

from repro.qos.reporter import ChannelReporter, TaskReporter

if TYPE_CHECKING:  # pragma: no cover - avoids a package import cycle
    from repro.engine.channel import RuntimeChannel
    from repro.engine.task import RuntimeTask
from repro.qos.stats import WindowedStats
from repro.qos.summary import EdgeSummary, PartialSummary, VertexSummary


class _TaskWindows:
    """Sliding measurement windows for one task."""

    def __init__(self, window: int) -> None:
        self.task_latency = WindowedStats(window)
        self.service = WindowedStats(window)
        self.interarrival = WindowedStats(window)


class _ChannelWindows:
    """Sliding measurement windows for one channel."""

    def __init__(self, window: int) -> None:
        self.latency = WindowedStats(window)
        self.obl = WindowedStats(window)


class QoSManager:
    """Collects measurements for a subset of tasks/channels."""

    def __init__(self, manager_id: int, window: int = 5, metrics=None) -> None:
        self.manager_id = manager_id
        self.window = window
        #: optional MetricsRegistry; collects/summaries counted under ``qos.*``
        self.metrics = metrics
        self._tasks: Dict[int, Tuple["RuntimeTask", TaskReporter, _TaskWindows]] = {}
        self._channels: Dict[int, Tuple["RuntimeChannel", ChannelReporter, _ChannelWindows]] = {}
        #: measurements are discarded while ``now < _suppressed_until``
        #: (fault injection: reporter heartbeat loss)
        self._suppressed_until = 0.0
        #: time of the last collect that actually kept its samples
        self._last_fresh: Optional[float] = None
        #: lifetime count of collects whose samples were dropped
        self.dropped_collects = 0
        #: lifetime count of reporter samples drained by :meth:`collect`
        #: (dropout-dropped ones included; a read-ready task's shared
        #: service/latency sample counts once)
        self.samples_collected = 0

    # ------------------------------------------------------------------
    # registration
    # ------------------------------------------------------------------

    def attach_task(self, task: "RuntimeTask", reporter: TaskReporter) -> None:
        """Begin managing a task's measurements."""
        self._tasks[task.uid] = (task, reporter, _TaskWindows(self.window))

    def attach_channel(self, channel: "RuntimeChannel", reporter: ChannelReporter) -> None:
        """Begin managing a channel's measurements."""
        self._channels[channel.channel_id] = (channel, reporter, _ChannelWindows(self.window))

    @property
    def task_count(self) -> int:
        """Number of tasks currently managed."""
        return len(self._tasks)

    @property
    def channel_count(self) -> int:
        """Number of channels currently managed."""
        return len(self._channels)

    # ------------------------------------------------------------------
    # measurement interval
    # ------------------------------------------------------------------

    def suppress_measurements(self, until: float) -> None:
        """Discard all samples collected before virtual time ``until``.

        Models a measurement dropout (lost reporter heartbeats): the
        sliding windows keep their old content, so summaries built during
        the outage are increasingly *stale* — tagged via
        :attr:`~repro.qos.summary.VertexSummary.staleness` so the scaler
        can refuse to act on them.
        """
        self._suppressed_until = max(self._suppressed_until, until)

    @property
    def suppressed_until(self) -> float:
        """Virtual time until which measurement collection is suppressed."""
        return self._suppressed_until

    def staleness(self, now: float) -> float:
        """Seconds since the last collect that kept its samples."""
        if self._last_fresh is None:
            return 0.0
        return max(0.0, now - self._last_fresh)

    def collect(self, now: float) -> None:
        """Drain all reporters into the sliding windows; evict dead entries.

        During a measurement dropout the reporters are still drained
        (their interval accumulators reset) but the samples are dropped.
        """
        suppressed = now < self._suppressed_until
        if suppressed:
            self.dropped_collects += 1
        else:
            self._last_fresh = now
        if self.metrics is not None:
            self.metrics.counter("qos.collects").inc()
            if suppressed:
                self.metrics.counter("qos.suppressed_collects").inc()
        samples = 0
        dead_tasks = []
        for uid, (task, reporter, windows) in self._tasks.items():
            if task.state == "stopped":
                dead_tasks.append(uid)
                continue
            measurement = reporter.flush(now)
            task_latency = measurement.task_latency
            service = measurement.service_time
            samples += service.count + measurement.interarrival.count
            if task_latency is not service:
                samples += task_latency.count
            if suppressed:
                continue
            windows.task_latency.push(task_latency)
            windows.service.push(service)
            windows.interarrival.push(measurement.interarrival)
        for uid in dead_tasks:
            del self._tasks[uid]
        dead_channels = []
        for cid, (channel, reporter, windows) in self._channels.items():
            if channel.closed:
                dead_channels.append(cid)
                continue
            measurement = reporter.flush(now)
            samples += measurement.channel_latency.count + measurement.output_batch_latency.count
            if suppressed:
                continue
            windows.latency.push(measurement.channel_latency)
            windows.obl.push(measurement.output_batch_latency)
        for cid in dead_channels:
            del self._channels[cid]
        self.samples_collected += samples

    # ------------------------------------------------------------------
    # adjustment interval
    # ------------------------------------------------------------------

    def partial_summary(self, now: float) -> PartialSummary:
        """Aggregate the sliding windows into a partial summary (Eq. 2)."""
        summary = PartialSummary(now)
        staleness = self.staleness(now)
        if self.metrics is not None:
            self.metrics.counter("qos.partial_summaries").inc()
        per_vertex: Dict[str, List[_TaskWindows]] = {}
        for task, _reporter, windows in self._tasks.values():
            if task.state == "stopped":
                continue
            per_vertex.setdefault(task.vertex_name, []).append(windows)
        for vertex_name, group in per_vertex.items():
            with_service = [w for w in group if w.service.has_data]
            with_arrivals = [w for w in group if w.interarrival.has_data]
            with_latency = [w for w in group if w.task_latency.has_data]
            if not with_service and not with_arrivals and not with_latency:
                continue
            n = max(len(with_service), len(with_arrivals), len(with_latency))
            summary.vertices[vertex_name] = VertexSummary(
                vertex_name,
                task_latency=_mean_of(w.task_latency.mean for w in with_latency),
                service_mean=_mean_of(w.service.mean for w in with_service),
                service_cv=_mean_of(w.service.cv for w in with_service),
                interarrival_mean=_mean_of(w.interarrival.mean for w in with_arrivals),
                interarrival_cv=_mean_of(w.interarrival.cv for w in with_arrivals),
                n_tasks=n,
                staleness=staleness,
            )
        per_edge: Dict[str, List[_ChannelWindows]] = {}
        for channel, _reporter, windows in self._channels.values():
            if channel.closed:
                continue
            per_edge.setdefault(channel.edge_name, []).append(windows)
        for edge_name, group in per_edge.items():
            with_latency = [w for w in group if w.latency.has_data]
            if not with_latency:
                continue
            summary.edges[edge_name] = EdgeSummary(
                edge_name,
                channel_latency=_mean_of(w.latency.mean for w in with_latency),
                output_batch_latency=_mean_of(
                    w.obl.mean for w in with_latency if w.obl.has_data
                ),
                n_channels=len(with_latency),
            )
        return summary

    def apply_batching_deadlines(self, targets: Dict[str, float]) -> None:
        """Re-tune the flush deadline of managed tasks' output gates.

        Targets are keyed by job-edge name; every output gate of a
        managed task instantiating such an edge gets the new deadline.
        """
        for task, _reporter, _windows in self._tasks.values():
            if task.state == "stopped":
                continue
            for gate in task.out_gates:
                deadline = targets.get(gate.edge_name)
                if deadline is not None:
                    gate.set_deadline(deadline)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"QoSManager(#{self.manager_id}, tasks={self.task_count}, "
            f"channels={self.channel_count})"
        )


def _mean_of(values) -> float:
    items = list(values)
    if not items:
        return 0.0
    return sum(items) / len(items)
