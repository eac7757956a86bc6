"""QoS reporters: continuous sampling on tasks and channels.

A :class:`TaskReporter` is attached to every latency-constrained runtime
task and a :class:`ChannelReporter` to every constrained channel. The
hosting component feeds raw samples (the engine calls ``record_*`` from
the hot path); once per measurement interval the QoS manager drains the
accumulators into :mod:`~repro.qos.measurements` records (paper: reporters
"report to QoS managers once per measurement interval").

Hot-path layout: ``record_*`` is bound to a plain ``list.append``, so one
sample costs one C call and no Python frame. Once per interval
:meth:`flush` summarizes each buffer with :func:`_snapshot`, a
local-variable Welford loop that applies :meth:`~repro.qos.stats.OnlineStats.add`'s
operations in the same order (min/max, which no snapshot carries, are
skipped), so snapshots are bit-identical to the per-sample scheme. A
read-ready task's latency *is* its service time (Table I), so its
reporter buffers service times once and reports that one snapshot as
both; recording a separate task latency on it is an error.
"""

from __future__ import annotations

from typing import List

from repro.qos.measurements import ChannelMeasurement, TaskMeasurement
from repro.qos.stats import StatsSnapshot


def _snapshot(samples: List[float]) -> StatsSnapshot:
    """Sequential-Welford snapshot of one interval's buffered samples."""
    mean = 0.0
    m2 = 0.0
    n = 0
    for n, x in enumerate(samples, 1):
        delta = x - mean
        mean += delta / n
        m2 += delta * (x - mean)
    return StatsSnapshot(n, mean, m2 / (n - 1) if n > 1 else 0.0)


class TaskReporter:
    """Accumulates one task's Table-I samples for the current interval.

    ``read_ready`` marks a task whose UDF latency mode is read-ready: its
    task latency equals its service time, so only service times are
    buffered and :meth:`flush` reports their snapshot for both.
    """

    def __init__(self, vertex_name: str, task_id: str, read_ready: bool = False) -> None:
        self.vertex_name = vertex_name
        self.task_id = task_id
        self.read_ready = read_ready
        self._task_latency: List[float] = []
        self._service: List[float] = []
        self._interarrival: List[float] = []
        # Hot-path aliases: one sample = one list.append, no Python frame.
        if read_ready:
            self.record_task_latency = self._reject_task_latency
        else:
            self.record_task_latency = self._task_latency.append
        self.record_service_time = self._service.append
        self.record_interarrival = self._interarrival.append

    def _reject_task_latency(self, value: float) -> None:
        raise RuntimeError(
            f"task {self.task_id} is read-ready: its task latency is its service "
            "time, record it with record_service_time"
        )

    def flush(self, now: float) -> TaskMeasurement:
        """Freeze and reset the interval accumulators."""
        service = _snapshot(self._service)
        measurement = TaskMeasurement(
            self.vertex_name,
            self.task_id,
            now,
            service if self.read_ready else _snapshot(self._task_latency),
            service,
            _snapshot(self._interarrival),
        )
        # Clear in place: record_* stays bound to the same list objects.
        del self._task_latency[:]
        del self._service[:]
        del self._interarrival[:]
        return measurement


class ChannelReporter:
    """Accumulates one channel's Table-I samples for the current interval."""

    def __init__(self, edge_name: str, channel_id: int) -> None:
        self.edge_name = edge_name
        self.channel_id = channel_id
        self._latency: List[float] = []
        self._obl: List[float] = []
        # Hot-path aliases (see TaskReporter.__init__).
        self.record_channel_latency = self._latency.append
        self.record_output_batch_latency = self._obl.append

    def flush(self, now: float) -> ChannelMeasurement:
        """Freeze and reset the interval accumulators."""
        measurement = ChannelMeasurement(
            self.edge_name,
            self.channel_id,
            now,
            _snapshot(self._latency),
            _snapshot(self._obl),
        )
        del self._latency[:]
        del self._obl[:]
        return measurement
