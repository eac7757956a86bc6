"""Which functions bound each layer, and the per-layer metrics they yield.

:data:`BOUNDARIES` names, per layer, the functions the traced run wraps.
The layer names follow the package layout under ``src/repro``. A
boundary on a class applies to every subclass that defines the method
itself (UDFs, distributions and rate profiles come in families).

:func:`layer_metrics` turns a merged :class:`~simbench.tracer.Tracer`
plus the run's deterministic counters into the ``module.metric`` values
the benchmark reports with ``--trace 1``.
"""

from __future__ import annotations

import importlib
from typing import Dict, Iterable, List, Optional, Tuple

from simbench.tracer import ROOT_LAYER, Boundary, Tracer


def _ship(boundary: Boundary, args: tuple, result: object) -> None:
    extra = boundary.extra
    extra["items"] = extra.get("items", 0) + len(args[1])
    extra["bytes"] = extra.get("bytes", 0) + args[2]


def _block(boundary: Boundary, args: tuple, result: object) -> None:
    boundary.extra["draws"] = boundary.extra.get("draws", 0) + len(result)


def _scaled(boundary: Boundary, args: tuple, result: object) -> None:
    extra = boundary.extra
    extra["requested"] = extra.get("requested", 0) + abs(result.requested)
    extra["applied"] = extra.get("applied", 0) + abs(result.applied)


def _admitted(boundary: Boundary, args: tuple, result: object) -> None:
    boundary.extra["admitted"] = boundary.extra.get("admitted", 0) + int(bool(result.admitted))


#: (layer, module, owner class or None for a module function, attributes,
#:  record spans?, inspect hook)
BOUNDARIES: List[Tuple[str, str, Optional[str], Tuple[str, ...], bool, object]] = [
    ("setup", "repro.builder", "PipelineBuilder", ("build",), True, None),
    ("setup", "repro.engine.engine", "StreamProcessingEngine", ("__init__", "submit"), True, None),
    ("setup", "repro.engine.scheduler", "Scheduler", ("deploy",), True, None),
    ("setup", "repro.workloads.twitter_job", None, ("build_twitter_sentiment_job",), True, None),
    ("kernel", "repro.simulation.kernel", "Simulator", ("run",), True, None),
    ("task", "repro.engine.task", "RuntimeTask", (
        "_complete_service", "_start_next", "_source_tick", "_on_unblocked",
        "_flush_window", "on_item_enqueued", "_resume", "_route_outputs",
        "_drain_backlog", "_finish_or_block", "start", "pause", "fail",
    ), False, None),
    ("task", "repro.engine.udf", "UDF", ("process",), False, None),
    ("channel", "repro.engine.channel", "RuntimeChannel", (
        "accept", "_arrive", "_deliver_pending", "_release_one",
        "_on_queue_space", "add_unblock_waiter", "close",
    ), False, None),
    ("channel", "repro.engine.channel", "RuntimeChannel", ("ship",), False, _ship),
    ("channel", "repro.engine.channel", "NetworkModel", (
        "transfer_time", "shipping_overhead",
    ), False, None),
    ("channel", "repro.engine.task", "OutputGate", (
        "emit", "_flush", "_on_flush_timer", "flush_now", "discard",
    ), False, None),
    ("rng", "repro.simulation.randomness", "Distribution", ("sample",), False, None),
    ("rng", "repro.simulation.randomness", "Distribution", ("sample_block",), False, _block),
    ("rng", "repro.simulation.randomness", None, ("block_uniforms",), False, _block),
    ("rng", "repro.simulation.randomness", "BlockSampler", ("next",), False, None),
    ("workload", "repro.workloads.rates", "RateProfile", ("next_interval",), False, None),
    ("workload", "repro.engine.udf", "SourceUDF", ("generate",), False, None),
    ("workload", "repro.workloads.tweets", "TweetTraceGenerator", ("generate",), False, None),
    ("qos", "repro.qos.stats", "OnlineStats", ("add", "snapshot_and_reset"), False, None),
    ("qos", "repro.qos.reporter", "TaskReporter", ("flush",), False, None),
    ("qos", "repro.qos.reporter", "ChannelReporter", ("flush",), False, None),
    ("qos", "repro.qos.manager", "QoSManager", (
        "collect", "partial_summary", "apply_batching_deadlines",
    ), False, None),
    ("qos", "repro.engine.engine", None, ("merge_partial_summaries",), False, None),
    ("qos", "repro.engine.engine", "DeployedJob", (
        "_measurement_tick", "_adjustment_tick",
    ), False, None),
    ("qos", "repro.core.constraints", "ConstraintTracker", ("observe",), False, None),
    ("scaler", "repro.core.elastic_scaler", "ElasticScaler", ("on_global_summary",), True, None),
    ("scaler", "repro.core.batching_policy", "AdaptiveBatchingPolicy", ("compute_targets",), False, None),
    ("scheduler", "repro.engine.scheduler", "Scheduler", ("set_parallelism",), True, _scaled),
    ("scheduler", "repro.engine.scheduler", "Scheduler", (
        "scale_up", "scale_down", "_materialize_scale_up", "preempt_slots",
        "fail_task", "stop_all", "_on_task_stopped", "_create_task", "_create_channel",
    ), False, None),
    ("scheduler", "repro.engine.resources", "ResourceManager", (
        "allocate_slot", "release_slot", "cancel_reservation",
    ), False, None),
    ("scheduler", "repro.engine.resources", "ResourceManager", ("request_slots",), False, _admitted),
    ("actuation", "repro.actuation.reconciler", "ReconciliationController", (
        "request", "on_adjustment_tick", "_complete", "_succeed", "_fail", "_retry",
        "_begin_migration", "_finish_transfer", "_rollback_migration",
    ), False, None),
    ("state", "repro.engine.state", "StateManager", (
        "on_event", "record", "_checkpoint", "plan_migration", "apply_migration",
        "rollback_migration", "on_task_failed",
    ), False, None),
    ("obs", "repro.obs.manifest", None, ("export_run", "git_provenance"), True, None),
    ("obs", "repro.experiments.recording", "SeriesRecorder", ("_tick",), False, None),
    ("sweep", "repro.sweep.orchestrator", None, ("run_pool",), True, None),
    ("sweep", "repro.sweep.orchestrator", None, (
        "load_shard_result", "merge_shard_results", "write_aggregate",
    ), False, None),
    ("sweep", "repro.sweep.shard", None, ("run_shard",), True, None),
    ("sweep", "repro.experiments.report", None, ("write_json",), False, None),
]

#: display order of the layer table (the root layer last)
LAYERS = (
    "setup", "kernel", "task", "channel", "rng", "workload", "qos", "scaler",
    "scheduler", "actuation", "state", "obs", "sweep", ROOT_LAYER,
)


def _classes(root: type) -> Iterable[type]:
    seen = []
    pending = [root]
    while pending:
        cls = pending.pop()
        if cls not in seen:
            seen.append(cls)
            pending.extend(cls.__subclasses__())
    return seen


def install(tracer: Tracer) -> None:
    """Wrap every boundary in :data:`BOUNDARIES` (undo with ``unwrap_all``)."""
    # operator and workload modules define UDF/distribution subclasses
    for extra in ("repro.engine.operators", "repro.workloads.twitter_job"):
        importlib.import_module(extra)
    for layer, module_name, owner_name, attrs, span, inspect in BOUNDARIES:
        module = importlib.import_module(module_name)
        if owner_name is None:
            for attr in attrs:
                tracer.wrap(module, attr, f"{layer}:{attr}", layer, span, inspect)
            continue
        for cls in _classes(getattr(module, owner_name)):
            for attr in attrs:
                if attr in cls.__dict__:
                    name = f"{layer}:{cls.__name__}.{attr}"
                    tracer.wrap(cls, attr, name, layer, span, inspect)


def layer_self_times(tracer: Tracer) -> Dict[str, float]:
    """Self seconds per layer; they add up to the traced process time.

    In-process, children are accounted by the wrapper stack. A span
    whose children ran in other processes (the pool waiting on shard
    processes) additionally loses the interval those children cover.
    """
    from simbench.stats import covered_length

    totals = {layer: 0.0 for layer in LAYERS}
    for boundary in tracer.boundaries.values():
        totals[boundary.layer] = totals.get(boundary.layer, 0.0) + boundary.self_s
    by_id = {span["id"]: span for span in tracer.spans}
    foreign: Dict[str, List[Tuple[float, float]]] = {}
    for span in tracer.spans:
        parent = by_id.get(span["parent"])
        if parent is not None and parent["pid"] != span["pid"]:
            foreign.setdefault(parent["id"], []).append((span["start"], span["end"]))
    for span_id, intervals in foreign.items():
        parent = by_id[span_id]
        totals[parent["layer"]] -= covered_length(intervals, parent["start"], parent["end"])
    return totals


def _calls(tracer: Tracer, *names: str) -> int:
    return sum(tracer.boundaries[n].calls for n in names if n in tracer.boundaries)


def _sum(tracer: Tracer, prefix: str, suffix: str, field: str = "total_s") -> float:
    return sum(
        getattr(b, field) for name, b in tracer.boundaries.items()
        if name.startswith(prefix) and name.endswith(suffix)
    )


def _extra(tracer: Tracer, prefix: str, suffix: str, key: str) -> float:
    return sum(
        b.extra.get(key, 0) for name, b in tracer.boundaries.items()
        if name.startswith(prefix) and name.endswith(suffix)
    )


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(
    tracer: Tracer, counters: Dict[str, float], items: int
) -> Dict[str, float]:
    """Per-layer metrics of one traced execution.

    ``counters`` are the deterministic program counters of the same
    execution (:attr:`simbench.probes.Outcome.counters` plus the
    workload's own), ``items`` the source items it simulated.
    """
    self_s = layer_self_times(tracer)
    edges = tracer.edges
    get = counters.get

    sample_calls = _sum(tracer, "rng:", ".sample", "calls")
    in_blocks = sum(
        n for (parent, child), n in edges.items()
        if parent.endswith(".sample_block") and child.endswith(".sample")
    )
    block_draws = _extra(tracer, "rng:", ".sample_block", "draws")
    draws = sample_calls - in_blocks + block_draws
    flushes = _calls(tracer, "channel:OutputGate._flush") + edges.get(
        ("channel:OutputGate.emit", "channel:RuntimeChannel.ship"), 0
    )
    timer_flushes = edges.get(("channel:OutputGate._on_flush_timer", "channel:OutputGate._flush"), 0)
    batches = _calls(tracer, "channel:RuntimeChannel.ship")
    requests = _calls(tracer, "scheduler:ResourceManager.request_slots")
    samples = _calls(tracer, "qos:OnlineStats.add")
    migrations = get("state.migrations", 0)
    act_requests = get("actuation.requests", 0)
    return {
        "kernel.events": get("kernel.events", 0),
        "kernel.events_per_item": _ratio(get("kernel.events", 0), items),
        "kernel.max_heap": get("kernel.max_heap", 0),
        "kernel.self_s": self_s["kernel"],
        "task.services": _calls(tracer, "task:RuntimeTask._complete_service"),
        "task.udf_s": _sum(tracer, "task:", ".process"),
        "task.self_s": self_s["task"],
        "channel.batches": batches,
        "channel.items_per_batch": _ratio(_extra(tracer, "channel:", ".ship", "items"), batches),
        "channel.bytes": _extra(tracer, "channel:", ".ship", "bytes"),
        "channel.backpressure_waits": _calls(tracer, "channel:RuntimeChannel.add_unblock_waiter"),
        "channel.timer_flush_share": _ratio(timer_flushes, flushes),
        "channel.self_s": self_s["channel"],
        "rng.draws": draws,
        "rng.block_share": _ratio(block_draws, draws),
        "rng.self_s": self_s["rng"],
        "workload.generated": _calls(tracer, "workload:SourceUDF.generate"),
        "workload.gen_s": self_s["workload"],
        "qos.samples": samples,
        "qos.samples_per_item": _ratio(samples, items),
        "qos.collect_s": _sum(tracer, "qos:QoSManager.collect", ""),
        "qos.summary_s": _sum(tracer, "qos:QoSManager.partial_summary", "")
        + _sum(tracer, "qos:merge_partial_summaries", ""),
        "qos.rounds": _calls(tracer, "qos:DeployedJob._adjustment_tick"),
        "qos.self_s": self_s["qos"],
        "scaler.rounds": get("scaler.rounds", 0),
        "scaler.decide_s": self_s["scaler"],
        "scaler.actions": get("scaler.actions", 0),
        "scaler.applied_ratio": _ratio(
            _extra(tracer, "scheduler:", ".set_parallelism", "applied"),
            _extra(tracer, "scheduler:", ".set_parallelism", "requested"),
        ),
        "scheduler.rescales": _calls(tracer, "scheduler:Scheduler.set_parallelism"),
        "scheduler.scale_s": self_s["scheduler"],
        "admission.requests": requests,
        "admission.grant_ratio": _ratio(
            _extra(tracer, "scheduler:", ".request_slots", "admitted"), requests
        ),
        "admission.preemptions": get("admission.preemptions", 0),
        "actuation.requests": act_requests,
        "actuation.retries": get("actuation.retries", 0),
        "actuation.abandoned": get("actuation.abandoned", 0),
        "actuation.applied_ratio": _ratio(get("actuation.applied", 0), act_requests),
        "actuation.self_s": self_s["actuation"],
        "state.records": _calls(tracer, "state:StateManager.on_event", "state:StateManager.record"),
        "state.record_s": _sum(tracer, "state:StateManager.on_event", "")
        + _sum(tracer, "state:StateManager.record", ""),
        "state.migrations": migrations,
        "state.rollback_ratio": _ratio(get("state.rolled_back", 0), migrations),
        "state.migrated_bytes": get("state.migrated_bytes", 0),
        "obs.export_s": _sum(tracer, "obs:export_run", ""),
        "obs.export_bytes": get("obs.export_bytes", 0),
        "obs.trace_records": get("obs.trace_records", 0),
        "sweep.self_s": self_s["sweep"],
        "setup.self_s": self_s["setup"],
        "bench.self_s": self_s[ROOT_LAYER],
    }
