"""The three benchmark workloads and how one repeat of each runs.

Each workload turns the ``--seed`` into the program's inputs (engine or
grid seeds; the scenario itself is fixed) and executes them once per
repeat, returning a :class:`Repeat`. ``twitter_elastic`` and
``shared_cluster`` run in the benchmark's own process;
``stateful_tournament`` runs a sweep whose shards are forked worker
processes, which report back through one record file per shard.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import shutil
from typing import Dict, List, Optional

from simbench import layers
from simbench.calibrate import SAMPLE_S, HostSpeed, reference_seconds
from simbench.probes import Capture, Outcome, add_count, collect, peak_rss_mb, snapshot
from simbench.tracer import Tracer, clock


def derive_seed(workload: str, seed: int, index: int = 0) -> int:
    """A deterministic engine seed for ``(workload, --seed, index)``."""
    text = f"{workload}:{seed}:{index}".encode("ascii")
    return int.from_bytes(hashlib.sha256(text).digest()[:4], "big") % (2 ** 31 - 1) + 1


class Context:
    """What a repeat needs: the capture hooks, the tracer, a work dir."""

    def __init__(self, work_dir: str, capture: Capture, tracer: Tracer) -> None:
        self.work_dir = work_dir
        self.capture = capture
        self.tracer = tracer
        #: whether the repeat now running is traced (forked shards read it)
        self.tracing = False
        #: sweeps run so far, and where the current one's shards report
        self.repeats = 0
        self.records_dir = ""


class Repeat:
    """Host timings, simulated outcome and counters of one repeat."""

    def __init__(self) -> None:
        self.traced = False
        #: the first repeat of a run fills caches and heaps; it is checked
        #: but not timed
        self.warmup = False
        #: host seconds of the timed work, in slices
        self.walls: List[float] = []
        #: host speed (reference passes per second) sampled before each slice
        self.speeds: List[float] = []
        self.build_s = 0.0
        self.deploy_s = 0.0
        self.peak_rss_mb = 0.0
        self.outcome = Outcome()
        #: run key -> fingerprint (one run in-process, one per shard)
        self.fingerprints: Dict[str, object] = {}
        #: runs in the repeat (shards for the sweep) and how many of them
        #: failed a check inside it (retries, missing records, exports)
        self.runs = 1
        self.failed_runs = 0
        self.counters: Dict[str, float] = {}
        self.tracer: Optional[Tracer] = None

    @property
    def setup_s(self) -> float:
        return self.build_s + self.deploy_s

    @property
    def items(self) -> int:
        """Source items the repeat simulated."""
        return self.outcome.items

    @property
    def wall_s(self) -> float:
        return sum(self.walls)

    @property
    def items_per_wall_s(self) -> float:
        return self.items / self.wall_s

    @property
    def items_per_ref_s(self) -> float:
        """Items per reference second (host speed divided out)."""
        return self.items / reference_seconds(self.walls, self.speeds)


@contextlib.contextmanager
def _traced(ctx: Context, traced: bool, root: str):
    """Install the tracer around one repeat and time it as the root span."""
    if not traced:
        yield
        return
    ctx.tracer.reset()
    layers.install(ctx.tracer)
    ctx.tracing = True
    try:
        with ctx.tracer.span(root):
            yield
    finally:
        ctx.tracing = False
        ctx.tracer.unwrap_all()


class Workload:
    name = ""
    why = ""
    #: modules a fresh interpreter imports before it can set this workload up
    modules: tuple = ()

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def prepare(self, ctx: Context) -> None:
        """Hooks for the whole run, installed through ``ctx.capture``."""

    #: engine seeds a run cycles through (``derive_seed`` index)
    VARIANTS = 1

    def run_once(
        self, ctx: Context, traced: bool, speed: Optional[HostSpeed] = None, variant: int = 0,
        warmup: bool = False,
    ) -> Repeat:
        """One repeat; ``speed`` calibrates it, ``variant`` picks the engine seed."""
        raise NotImplementedError


class InProcessWorkload(Workload):
    """A single engine run in the benchmark's own process.

    One engine seed is a single trajectory: whether backpressure builds
    changes the work per item by up to 20 %. Timed repeats therefore
    cycle through :attr:`VARIANTS` engine seeds and pool them.
    """

    VARIANTS = 3

    #: a calibrated repeat runs the simulation in this many slices, each
    #: preceded by a host-speed sample
    SLICES = 24
    #: the warm-up runs only this many slices of the first engine seed;
    #: each later run of that seed must match it there
    PREFIX_SLICES = 6

    def deploy(self, repeat: Repeat, ctx: Context, engine_seed: int):
        """Build and deploy; returns the engine and the sim duration."""
        raise NotImplementedError

    def run_once(
        self, ctx: Context, traced: bool, speed: Optional[HostSpeed] = None, variant: int = 0,
        warmup: bool = False,
    ) -> Repeat:
        repeat = Repeat()
        repeat.traced = traced
        prefix_key = f"run{variant}@{self.PREFIX_SLICES}/{self.SLICES}"
        ctx.capture.reset()
        with _traced(ctx, traced, "bench:repeat"):
            if speed is not None:
                repeat.speeds.append(speed.sample())
            start = clock()
            engine, duration = self.deploy(repeat, ctx, derive_seed(self.name, self.seed, variant))
            if warmup:
                engine.run(duration * self.PREFIX_SLICES / self.SLICES)
            elif speed is None:
                engine.run(duration)
            else:
                for index in range(1, self.SLICES + 1):
                    if index > 1:
                        repeat.walls.append(clock() - start)
                        if index - 1 == self.PREFIX_SLICES:
                            repeat.fingerprints[prefix_key] = snapshot(ctx.capture)
                        repeat.speeds.append(speed.sample())
                        start = clock()
                    # absolute slice ends: the last one is exactly `duration`
                    engine.sim.run(until=duration * index / self.SLICES)
            repeat.walls.append(clock() - start)
        if warmup:
            repeat.fingerprints[prefix_key] = snapshot(ctx.capture)
            engine.stop()
            return repeat
        outcome = collect(ctx.capture)
        engine.stop()
        repeat.outcome = outcome
        repeat.fingerprints[f"run{variant}"] = outcome.fingerprint
        repeat.counters = dict(outcome.counters)
        repeat.peak_rss_mb = peak_rss_mb()
        if traced:
            repeat.tracer = ctx.tracer
        return repeat


class TwitterElastic(InProcessWorkload):
    name = "twitter_elastic"
    why = (
        "Fig. 8 TwitterSentiment, 240 s sim, diurnal load + burst, 92k tweets due; "
        "adaptive batching, tweet generator and QoS sampling do most of the work"
    )
    modules = ("repro.engine.engine", "repro.experiments.fig8_twitter")

    def deploy(self, repeat: Repeat, ctx: Context, engine_seed: int):
        from repro.engine.engine import EngineConfig, StreamProcessingEngine
        from repro.experiments.fig8_twitter import Fig8Params
        from repro.workloads import twitter_job

        params = Fig8Params().quick()
        start = clock()
        graph, constraints = twitter_job.build_twitter_sentiment_job(params.workload)
        built = clock()
        config = EngineConfig.nephele_adaptive(elastic=True, seed=engine_seed)
        engine = StreamProcessingEngine(config)
        engine.submit(graph, constraints)
        repeat.build_s = built - start
        repeat.deploy_s = clock() - built
        return engine, params.duration


class SharedCluster(InProcessWorkload):
    name = "shared_cluster"
    why = (
        "two elastic jobs on 12 slots, fair-share admission, 240 s sim, 334k items due; "
        "one item per batch, and the only workload with admission denials and preemption"
    )
    modules = ("repro.engine.engine", "repro.workloads.multi_job", "repro.builder")

    def prepare(self, ctx: Context) -> None:
        from repro.workloads import multi_job

        ctx.capture.time_builds(multi_job, "shared_cluster_pipelines")

    def deploy(self, repeat: Repeat, ctx: Context, engine_seed: int):
        from repro.workloads.multi_job import SharedClusterParams, build_shared_cluster_engine

        params = SharedClusterParams(seed=engine_seed)
        start = clock()
        engine, _jobs = build_shared_cluster_engine(params)
        repeat.build_s = ctx.capture.build_s
        repeat.deploy_s = clock() - start - repeat.build_s
        return engine, params.duration


def _trace_check(shard_dir: str) -> bool:
    """The validation ``repro trace --check`` performs on one export."""
    from repro.cli import _trace_check as check

    with contextlib.redirect_stdout(io.StringIO()):
        return check(shard_dir) == 0


def _export_size(shard_dir: str) -> Dict[str, int]:
    from repro.obs.manifest import TRACE_FILE

    size = sum(
        os.path.getsize(os.path.join(shard_dir, name))
        for name in os.listdir(shard_dir)
        if name.endswith((".json", ".jsonl")) and name != "result.json"
    )
    trace_path = os.path.join(shard_dir, TRACE_FILE)
    records = 0
    if os.path.exists(trace_path):
        with open(trace_path, "r", encoding="utf-8") as handle:
            records = sum(1 for line in handle if line.strip())
    return {"bytes": size, "records": records}


class StatefulTournament(Workload):
    name = "stateful_tournament"
    why = (
        "5 policies x 2 seeds of the stateful spike pipeline as a forked sweep, 20 s sim and "
        "8k items due per shard; set-up, fork, export, pool, migration, reconciler"
    )
    modules = ("repro.sweep.orchestrator", "repro.sweep.shard", "repro.builder",
               "repro.engine.engine", "repro.experiments.recording")

    #: worker processes of the measured sweep (at most the machine's cores)
    MAX_WORKERS = 2

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.workers = max(1, min(self.MAX_WORKERS, os.cpu_count() or 1))

    def grid(self):
        from repro.sweep.grid import SweepGrid

        grid = SweepGrid.tournament_stateful()
        return SweepGrid(
            name=grid.name,
            seeds=[derive_seed(self.name, self.seed, i) for i in range(len(grid.seeds))],
            rates=grid.rates,
            bounds=grid.bounds,
            workloads=grid.workloads,
            actuation=grid.actuation,
            duration=grid.duration,
            policies=grid.policies,
        )

    def prepare(self, ctx: Context) -> None:
        from repro.sweep import shard

        ctx.capture.time_builds(shard, "build_shard_pipeline")
        original = shard.execute_shard

        def execute_shard(spec, shard_dir):
            # runs in the forked worker process only
            entry = clock()
            capture = ctx.capture
            capture.reset()
            tracer = ctx.tracer if ctx.tracing else None
            if tracer is not None:
                tracer.fork_child()
            try:
                with (tracer.span("sweep:shard", "sweep") if tracer else contextlib.nullcontext()):
                    result = original(spec, shard_dir)
                leave = clock()
            finally:
                if tracer is not None:
                    tracer.unwrap_all()
            outcome = collect(capture)
            record = {
                "key": spec.key,
                "entry": entry,
                "ready": capture.ready_at,
                "exit": leave,
                "build_s": capture.build_s,
                "rss_mb": peak_rss_mb(),
                "outcome": outcome.to_dict(),
                "trace": tracer.dump() if tracer is not None else None,
            }
            path = os.path.join(ctx.records_dir, spec.key + ".json")
            with open(path + ".tmp", "w", encoding="utf-8") as handle:
                json.dump(record, handle)
            os.replace(path + ".tmp", path)
            return result

        ctx.capture.replace(shard, "execute_shard", execute_shard)

    def run_once(
        self, ctx: Context, traced: bool, speed: Optional[HostSpeed] = None, variant: int = 0,
        warmup: bool = False, workers: Optional[int] = None,
    ) -> Repeat:
        from repro.sweep.orchestrator import run_sweep

        workers = workers or self.workers
        grid = self.grid()
        ctx.repeats += 1
        out = os.path.join(ctx.work_dir, f"sweep-{ctx.repeats}")
        ctx.records_dir = os.path.join(out, "bench-records")
        os.makedirs(ctx.records_dir)
        repeat = Repeat()
        repeat.traced = traced
        # one sample per sweep instead of one per slice: make it longer
        sample_s = 2.5 * SAMPLE_S
        before = speed.sample(sample_s) if speed is not None else None
        with _traced(ctx, traced, "bench:sweep"):
            start = clock()
            result = run_sweep(grid, out, workers=workers)
            repeat.walls.append(clock() - start)
        if speed is not None:
            # the shards run in other processes: bracket the sweep instead
            repeat.speeds.append((before + speed.sample(sample_s)) / 2)
        try:
            self._read_shards(repeat, result, out, ctx)
        finally:
            shutil.rmtree(out, ignore_errors=True)
        if traced:
            repeat.tracer = ctx.tracer
        return repeat

    def _read_shards(self, repeat: Repeat, result, out: str, ctx: Context) -> None:
        from repro.sweep.orchestrator import SHARDS_DIR
        from repro.sweep.report import AGGREGATE_FILE

        stats = result.stats
        elapsed = {o.key: o.elapsed_s for o in result.outcomes}
        with open(os.path.join(out, AGGREGATE_FILE), "rb") as handle:
            repeat.fingerprints["aggregate"] = hashlib.sha256(handle.read()).hexdigest()[:16]
        repeat.runs = stats.shards
        # a retried shard crashed once: it counts as failed like a lost one
        repeat.failed_runs = stats.retried
        counters: Dict[str, float] = {}
        pooled = repeat.outcome
        reap_lag = 0.0
        for spec in self.grid().expand():
            path = os.path.join(ctx.records_dir, spec.key + ".json")
            shard_dir = os.path.join(out, SHARDS_DIR, spec.key)
            if not os.path.exists(path):
                repeat.failed_runs += 1  # the shard never finished
                continue
            with open(path, "r", encoding="utf-8") as handle:
                record = json.load(handle)
            if not _trace_check(shard_dir):
                repeat.failed_runs += 1
            export = _export_size(shard_dir)
            add_count(counters, "obs.export_bytes", export["bytes"])
            add_count(counters, "obs.trace_records", export["records"])
            outcome = Outcome.from_dict(record["outcome"])
            repeat.fingerprints[spec.key] = outcome.fingerprint
            repeat.build_s += record["build_s"]
            repeat.deploy_s += record["ready"] - record["entry"] - record["build_s"]
            repeat.peak_rss_mb = max(repeat.peak_rss_mb, record["rss_mb"])
            reap_lag += elapsed.get(spec.key, 0.0) - (record["exit"] - record["entry"])
            pooled.items += outcome.items
            pooled.due += outcome.due
            pooled.lost_due += outcome.lost_due
            pooled.latencies.extend(outcome.latencies)
            pooled.windows += outcome.windows
            pooled.violations += outcome.violations
            pooled.task_hours += outcome.task_hours
            for key, value in outcome.counters.items():
                if key == "kernel.max_heap":
                    counters[key] = max(counters.get(key, 0), value)
                else:
                    add_count(counters, key, value)
            if record["trace"] is not None:
                ctx.tracer.merge(record["trace"])
        counters.update({
            "pool.wall_s": stats.wall_s,
            "pool.job_s_sum": stats.serial_estimate_s,
            "pool.workers": stats.workers,
            "pool.retries": stats.retried,
            "pool.reap_lag_s": reap_lag,
        })
        repeat.counters = counters


WORKLOADS = {cls.name: cls for cls in (TwitterElastic, SharedCluster, StatefulTournament)}
