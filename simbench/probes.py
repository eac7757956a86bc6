"""Once-per-run hooks that read a workload's simulated outcome.

:class:`Capture` wraps a handful of functions the simulator calls a few
times per run (engine construction, ``run``, sink-sample
draining) or once per backpressure episode (a source blocking and
unblocking). It is installed for untraced and traced runs alike, so the
untraced timings carry only this small, fixed cost. Per-item
boundaries are wrapped by the tracer alone.

:func:`collect` turns the captured engines into one :class:`Outcome`:
the simulated metrics, the deterministic work counters and the
fingerprint that every repeat of the same inputs must reproduce.
"""

from __future__ import annotations

import json
import math
import resource
from typing import Dict, List, Optional, Tuple

from simbench.stats import digest
from simbench.tracer import clock

#: integration step (sim seconds) for items due under a rate profile
DUE_STEP_S = 0.01


def integrate_rate(profile, start: float, end: float) -> float:
    """Items a rate profile makes due over ``[start, end]`` (midpoint rule)."""
    if end <= start:
        return 0.0
    steps = max(1, math.ceil((end - start) / DUE_STEP_S))
    width = (end - start) / steps
    rate = profile.rate
    return width * sum(rate(start + (i + 0.5) * width) for i in range(steps))


def peak_rss_mb() -> float:
    """Peak resident memory of this process so far (MiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Capture:
    """Collects engine handles and source stalls during one execution."""

    def __init__(self) -> None:
        self._patches: List[Tuple[object, str, object]] = []
        self.reset()

    def reset(self) -> None:
        self.engines: list = []
        #: id(job) -> every (time, latency) sample drained from its sinks
        self.samples: Dict[int, List[Tuple[float, float]]] = {}
        #: source task -> sim time its current stall began
        self.stalls: Dict[object, float] = {}
        #: items due while sources stood stalled (closed stalls)
        self.lost_due = 0.0
        self.build_s = 0.0
        self.ready_at: Optional[float] = None

    # ------------------------------------------------------------------

    def install(self) -> None:
        from repro.engine.channel import RuntimeChannel
        from repro.engine.engine import DeployedJob, StreamProcessingEngine
        from repro.engine.task import RuntimeTask

        capture = self

        def patch(owner, attr, make):
            self.replace(owner, attr, make(owner.__dict__[attr]))

        def engine_init(original):
            def __init__(engine, *args, **kwargs):
                original(engine, *args, **kwargs)
                capture.engines.append(engine)
            return __init__

        def engine_run(original):
            def run(engine, duration):
                if capture.ready_at is None:
                    capture.ready_at = clock()
                return original(engine, duration)
            return run

        def drain(original):
            def drain_sink_samples(job, vertex_name):
                drained = original(job, vertex_name)
                capture.samples.setdefault(id(job), []).extend(drained)
                return drained
            return drain_sink_samples

        def add_waiter(original):
            def add_unblock_waiter(channel, callback):
                task = getattr(callback, "__self__", None)
                if (
                    task is not None and task.__class__ is RuntimeTask
                    and task.rate_profile is not None and task not in capture.stalls
                ):
                    capture.stalls[task] = task.sim.now
                return original(channel, callback)
            return add_unblock_waiter

        def unblocked(original):
            def _on_unblocked(task):
                began = capture.stalls.pop(task, None)
                if began is not None:
                    capture.lost_due += integrate_rate(task.rate_profile, began, task.sim.now)
                return original(task)
            return _on_unblocked

        patch(StreamProcessingEngine, "__init__", engine_init)
        patch(StreamProcessingEngine, "run", engine_run)
        patch(DeployedJob, "drain_sink_samples", drain)
        patch(RuntimeChannel, "add_unblock_waiter", add_waiter)
        patch(RuntimeTask, "_on_unblocked", unblocked)

    def replace(self, owner: object, attr: str, replacement: object) -> None:
        """Set ``owner.attr`` until :meth:`uninstall` restores it."""
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def time_builds(self, owner: object, attr: str) -> None:
        """Add the time of every ``owner.attr`` call to :attr:`build_s`."""
        original = getattr(owner, attr)
        capture = self

        def build(*args, **kwargs):
            start = clock()
            try:
                return original(*args, **kwargs)
            finally:
                capture.build_s += clock() - start

        self.replace(owner, attr, build)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


class Outcome:
    """The simulated result of one execution (one engine or one shard)."""

    def __init__(self) -> None:
        self.items = 0
        self.due = 0.0
        self.lost_due = 0.0
        self.latencies: List[float] = []
        self.windows = 0
        self.violations = 0
        self.task_hours = 0.0
        self.fingerprint: Dict[str, object] = {}
        #: deterministic program counters read after the run
        self.counters: Dict[str, float] = {}

    def to_dict(self) -> Dict[str, object]:
        return dict(self.__dict__)

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "Outcome":
        outcome = cls()
        outcome.__dict__.update(data)
        return outcome


def add_count(counters: Dict[str, float], key: str, value: float) -> None:
    """``counters[key] += value``, starting from 0."""
    counters[key] = counters.get(key, 0) + value


def snapshot(capture: Capture) -> Dict[str, object]:
    """A fingerprint of the run so far, taken without disturbing it.

    It leaves out task-hours: reading them advances the resource clock,
    which would round later usage integrals differently.
    """
    fp: Dict[str, object] = {}
    for engine in capture.engines:
        for job in engine.jobs:
            for vertex, vj in job.job_graph.vertices.items():
                if not vj.outputs:
                    job.drain_sink_samples(vertex)
            samples = capture.samples.get(id(job), [])
            fp[job.job_graph.name] = {
                "time": engine.now,
                "events": engine.sim.fired_events,
                "items": sum(t.items_processed for t in job.runtime.all_tasks()
                             if t.rate_profile is not None),
                "parallelism": sorted(
                    (v, rv.parallelism) for v, rv in job.runtime.vertices.items()
                ),
                "sinks": [len(samples), digest(x for pair in samples for x in pair)],
            }
    return json.loads(json.dumps(fp))


def collect(capture: Capture) -> Outcome:
    """Read every captured engine before it is stopped."""
    outcome = Outcome()
    counters = outcome.counters
    fp = outcome.fingerprint
    parallelism, violations, sink_digests, actuation = [], [], [], []
    for engine in capture.engines:
        end = engine.now
        for job in engine.jobs:
            name = job.job_graph.name
            for vertex, vj in job.job_graph.vertices.items():
                if not vj.outputs:
                    job.drain_sink_samples(vertex)
            samples = capture.samples.get(id(job), [])
            outcome.latencies.extend(latency for _, latency in samples)
            sink_digests.append((name, len(samples), digest(x for pair in samples for x in pair)))
            for vertex, rv in job.runtime.vertices.items():
                parallelism.append((name, vertex, rv.parallelism))
            for task in job.runtime.all_tasks():
                if task.rate_profile is not None:
                    outcome.items += task.items_processed
                    outcome.due += integrate_rate(task.rate_profile, task.start_time, end)
            for tracker in job.trackers:
                outcome.windows += tracker.intervals_observed
                outcome.violations += tracker.violations
                violations.append((tracker.constraint.name, tracker.violations,
                                   tracker.intervals_observed))
            scaler = job.scaler
            if scaler is not None:
                add_count(counters, "scaler.rounds", scaler.rounds)
                add_count(counters, "scaler.actions", len(scaler.events))
            if job.reconciler is not None:
                summary = job.reconciler.summary()
                for key in ("requests", "retries", "abandoned", "applied"):
                    add_count(counters, f"actuation.{key}", summary[key])
                actuation.append(tuple(sorted(
                    (k, v) for k, v in summary.items() if not isinstance(v, dict)
                )))
            if job.state_manager is not None:
                summary = job.state_manager.summary()
                migrations = summary["migrations"]
                add_count(counters, "state.migrations", migrations["started"])
                add_count(counters, "state.rolled_back", migrations["rolled_back"])
                add_count(counters, "state.migrated_bytes", summary["state_migrated_bytes"])
        for task, began in capture.stalls.items():
            if task.sim is engine.sim:
                outcome.lost_due += integrate_rate(task.rate_profile, began, end)
        resources = engine.resources
        outcome.task_hours += resources.task_hours()
        add_count(counters, "kernel.events", engine.sim.fired_events)
        counters["kernel.max_heap"] = max(
            counters.get("kernel.max_heap", 0), engine.sim.max_heap_size
        )
        add_count(counters, "admission.denials", resources.admission_denials)
        add_count(counters, "admission.preemptions", resources.preempted_tasks)
    outcome.lost_due += capture.lost_due
    fp.update({
        "parallelism": sorted(parallelism),
        "sinks": sink_digests,
        "violations": violations,
        "task_hours": repr(outcome.task_hours),
        "items": outcome.items,
        "lost_due": repr(outcome.lost_due),
        "events": counters.get("kernel.events", 0),
        "admission": (counters.get("admission.denials", 0),
                      counters.get("admission.preemptions", 0)),
        "actuation": actuation,
    })
    # the same shape whether compared in-process or read back from a shard
    outcome.fingerprint = json.loads(json.dumps(fp))
    return outcome
