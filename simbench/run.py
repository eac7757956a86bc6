"""Benchmark entry point: one workload, one seed, a fixed measuring time.

Usage (from the root of a checkout)::

    python3 simbench/run.py --workload twitter_elastic --seed 1 --seconds 33 --trace 0

The run times fresh interpreters importing the workload, then repeats the
workload until ``--seconds`` are used up: an untimed warm-up, then timed
repeats. It checks that every repeat reproduced the first run of the same
inputs, and prints a human-readable report followed by one JSON line.
With ``--trace 0`` the JSON carries the end-to-end metrics; with
``--trace 1`` untraced and traced repeats alternate, and the JSON carries
the per-layer metrics. The traced run's spans and counts are written to
``.bench_work/`` when it ends. See ``simbench/README.md``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import shutil
import subprocess
import sys
import traceback
from typing import Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
if ROOT not in sys.path:
    sys.path.insert(0, ROOT)

from simbench import stats  # noqa: E402  (needs ROOT on sys.path)

#: every run makes at least this many repeats (the warm-up and one timed
#: repeat), whatever --seconds says
MIN_REPEATS = 2
#: fresh interpreters timed per run for the import part of set-up
IMPORT_SAMPLES = 5
#: where runs write their scratch files and the traced run's spans
WORK_DIR = ".bench_work"

#: end-to-end metrics (printed as the JSON result with --trace 0)
END_TO_END = (
    ("items_per_ref_s", "1/ref_s"),
    ("setup_s", "s"),
)

#: the simulated outcome: exact for a given seed, printed in both modes
SIM_METRICS = (
    ("sim_latency_p50_ms", "ms"),
    ("sim_latency_p99_ms", "ms"),
    ("sim_latency_tail_ms", "ms"),
    ("sim_latency_tail_pct", "%"),
    ("sim_latency_samples", "count"),
    ("sim_violation_rate", "ratio"),
    ("sim_task_hours", "h"),
    ("sim_shortfall", "ratio"),
    ("failed_runs", "ratio"),
)

#: host metrics whose spread across seeds is too wide for a bound (see README)
HOST_METRICS = (
    ("items_per_wall_s", "1/s"),
    ("peak_rss_mb", "MB"),
)


#: units of the per-layer metrics whose name does not tell them
UNITS = {
    "trace.overhead_items_per_wall_s": "1/s",
    "pool.job_s_sum": "s",
    "pool.speedup": "ratio",
    "pool.efficiency": "ratio",
    "kernel.events_per_item": "count/item",
    "qos.samples_per_item": "count/item",
    "channel.items_per_batch": "count/batch",
}


def _unit(name: str) -> str:
    if name in UNITS:
        return UNITS[name]
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_ratio", "_share")):
        return "ratio"
    if name.endswith("bytes"):
        return "B"
    return "count"


#: per-layer metrics (printed as the JSON result with --trace 1)
LAYER_NAMES = (
    "kernel.events", "kernel.events_per_item", "kernel.max_heap", "kernel.self_s",
    "task.services", "task.udf_s", "task.self_s",
    "channel.batches", "channel.items_per_batch", "channel.bytes",
    "channel.backpressure_waits", "channel.timer_flush_share", "channel.self_s",
    "rng.draws", "rng.block_share", "rng.self_s",
    "workload.generated", "workload.gen_s",
    "qos.samples", "qos.samples_per_item", "qos.collect_s", "qos.summary_s",
    "qos.rounds", "qos.self_s",
    "scaler.rounds", "scaler.decide_s", "scaler.actions", "scaler.applied_ratio",
    "scheduler.rescales", "scheduler.scale_s",
    "admission.requests", "admission.grant_ratio", "admission.preemptions",
    "actuation.requests", "actuation.retries", "actuation.abandoned",
    "actuation.applied_ratio",
    "state.records", "state.migrations", "state.rollback_ratio", "state.migrated_bytes",
    "obs.export_bytes", "obs.trace_records",
    "pool.efficiency", "pool.workers", "pool.retries", "pool.speedup",
    "setup.import_s", "setup.build_s", "setup.deploy_s", "setup.self_s",
    "bench.self_s", "trace.wall_s", "trace.overhead_items_per_wall_s",
)
PER_LAYER = tuple((name, _unit(name)) for name in LAYER_NAMES) + SIM_METRICS + HOST_METRICS

#: layer times printed in the report only: they read 0 on a workload that
#: never enters the layer, so they are not part of the JSON result
REPORT_ONLY = (
    "actuation.self_s", "state.record_s", "obs.export_s", "sweep.self_s",
    "pool.wall_s", "pool.job_s_sum", "pool.reap_lag_s", "pool.serial_wall_s",
)


def measure_import(modules) -> float:
    """Median wall time of fresh interpreters importing ``modules``."""
    from simbench.tracer import clock

    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    code = "import " + ", ".join(modules)
    samples = []
    for _ in range(IMPORT_SAMPLES):
        start = clock()
        subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT, check=True)
        samples.append(clock() - start)
    return stats.median(samples)


def sim_metrics(outcome, failed: int, attempted: int) -> Dict[str, float]:
    """The simulated outcome of the reference repeat."""
    latencies = sorted(outcome.latencies)
    count = len(latencies)
    tail = stats.highest_supported_percentile(count)
    return {
        "sim_latency_p50_ms": 1e3 * stats.nearest_rank(latencies, 50.0) if count else 0.0,
        "sim_latency_p99_ms": 1e3 * stats.nearest_rank(latencies, 99.0) if count else 0.0,
        "sim_latency_tail_ms": 1e3 * stats.nearest_rank(latencies, tail) if tail else 0.0,
        "sim_latency_tail_pct": tail or 0.0,
        "sim_latency_samples": count,
        "sim_violation_rate": outcome.violations / outcome.windows if outcome.windows else 0.0,
        "sim_task_hours": outcome.task_hours,
        "sim_shortfall": outcome.lost_due / outcome.due if outcome.due else 0.0,
        "failed_runs": failed / attempted if attempted else 0.0,
    }


def layer_values(repeats, import_s: float, serial=None) -> Dict[str, float]:
    """Per-layer metrics: medians over the timed traced repeats."""
    from simbench.layers import layer_metrics, layer_self_times

    traced = [r for r in repeats if r.traced]
    untraced = [r for r in repeats if not r.traced]
    rows: List[Dict[str, float]] = []
    for repeat in traced:
        values = layer_metrics(repeat.tracer_dump, repeat.counters, repeat.items)
        self_total = sum(layer_self_times(repeat.tracer_dump).values())
        values["trace.wall_s"] = repeat.wall_s
        values["trace.self_sum_s"] = self_total
        rows.append(values)
    merged = {key: stats.median(row[key] for row in rows) for key in rows[0]}
    ref = untraced[0] if untraced else traced[0]
    counters = ref.counters
    merged.update({
        "setup.import_s": import_s,
        "setup.build_s": stats.median(r.build_s for r in repeats),
        "setup.deploy_s": stats.median(r.deploy_s for r in repeats),
        "trace.overhead_items_per_wall_s": (
            stats.median(r.items_per_wall_s for r in traced)
            - stats.median(r.items_per_wall_s for r in untraced)
        ) if untraced else 0.0,
    })
    wall = counters.get("pool.wall_s", 0.0)
    workers = counters.get("pool.workers", 0)
    merged.update({
        "pool.wall_s": wall,
        "pool.job_s_sum": counters.get("pool.job_s_sum", 0.0),
        "pool.reap_lag_s": counters.get("pool.reap_lag_s", 0.0),
        "pool.workers": workers,
        "pool.retries": counters.get("pool.retries", 0),
        "pool.efficiency": counters.get("pool.job_s_sum", 0.0) / (workers * wall) if wall else 0.0,
        "pool.serial_wall_s": serial.wall_s if serial is not None else 0.0,
        "pool.speedup": serial.wall_s / stats.median(r.wall_s for r in untraced)
        if serial is not None and untraced else 0.0,
    })
    return merged


def _fmt(value: float) -> str:
    if isinstance(value, int) or float(value).is_integer():
        return f"{int(value)}"
    return f"{value:.6g}"


def run(args) -> int:
    from simbench.calibrate import HostSpeed, reference_seconds
    from simbench.probes import Capture
    from simbench.tracer import Tracer, clock
    from simbench.workloads import WORKLOADS, Context

    workload = WORKLOADS[args.workload](args.seed)
    work_root = os.path.join(ROOT, WORK_DIR)
    work_dir = os.path.join(work_root, f"{workload.name}-{os.getpid()}")
    os.makedirs(work_dir)
    import_s = measure_import(workload.modules)
    speed = HostSpeed()
    ctx = Context(work_dir, Capture(), Tracer())
    ctx.capture.install()
    workload.prepare(ctx)
    repeats = []
    attempted = failed = 0
    serial = None
    # a warm-up repeat, then timed ones; under --trace 1 traced and
    # untraced timed repeats alternate so both are measured
    minimum = MIN_REPEATS + 1 if args.trace else MIN_REPEATS
    started = last = clock()
    try:
        # start a repeat only if one as long as the last still fits
        while attempted < minimum or 2 * clock() - last - started <= args.seconds:
            # every repeat starts from the same heap: earlier engines are
            # reference cycles the collector would otherwise sweep mid-run
            gc.collect()
            last = clock()
            traced = bool(args.trace) and attempted > 0 and attempted % 2 == 0
            timed = attempted > 0 and not traced
            # untimed repeats and all of a traced run use the first engine
            # seed; timed repeats of an untraced run cycle through them all
            variant = 0 if args.trace or not timed else (attempted - 1) % workload.VARIANTS
            try:
                repeat = workload.run_once(
                    ctx, traced, speed if timed else None, variant, warmup=attempted == 0
                )
            except Exception:  # noqa: BLE001 - a failed repeat is counted, not fatal
                traceback.print_exc(file=sys.stderr)
                attempted += 1
                failed += 1
                continue
            repeat.warmup = attempted == 0
            attempted += 1
            if repeat.tracer is not None:
                repeat.tracer_dump = _frozen_copy(repeat.tracer)
            repeats.append(repeat)
        if args.trace and hasattr(workload, "workers"):
            # single-process baseline: the same grid on one worker
            try:
                serial = workload.run_once(ctx, False, workers=1)
            except Exception:  # noqa: BLE001 - counted like a failed repeat
                traceback.print_exc(file=sys.stderr)
                failed += 1
    finally:
        ctx.capture.uninstall()

    if not repeats:
        print("no repeat of the workload completed", file=sys.stderr)
        shutil.rmtree(work_dir, ignore_errors=True)
        return 1

    # every repeat (and the serial baseline) must reproduce the first
    # repeat of the same inputs
    references: Dict[str, object] = {}
    runs_attempted = 0
    runs_failed = failed
    mismatches: List[str] = []
    for repeat in repeats + ([serial] if serial is not None else []):
        runs_attempted += repeat.runs
        runs_failed += repeat.failed_runs
        seen = {k: references[k] for k in repeat.fingerprints if k in references}
        differing = stats.fingerprint_diff(seen, {k: repeat.fingerprints[k] for k in seen})
        for key, fingerprint in repeat.fingerprints.items():
            references.setdefault(key, fingerprint)
        mismatches.extend(differing)
        # each differing shard (or in-process run) is a failed run
        runs_failed += sum(1 for key in differing if key != "aggregate")
    runs_attempted += failed
    correct = runs_failed == 0 and not mismatches

    timed = [r for r in repeats if not r.warmup]
    untraced = [r for r in timed if not r.traced]
    if not untraced:
        print("no timed repeat of the workload completed", file=sys.stderr)
        shutil.rmtree(work_dir, ignore_errors=True)
        return 1
    ref = untraced[0]
    sim = sim_metrics(ref.outcome, runs_failed, runs_attempted)
    items = sum(r.items for r in untraced)
    e2e = {
        # pooled over the timed repeats (and so over their engine seeds)
        "items_per_ref_s": items / sum(reference_seconds(r.walls, r.speeds) for r in untraced),
        # host seconds: the reference loop does not track start-up work
        "setup_s": import_s + stats.median(r.setup_s for r in untraced),
    }
    host = {
        "items_per_wall_s": items / sum(r.wall_s for r in untraced),
        "peak_rss_mb": max(r.peak_rss_mb for r in untraced),
    }

    print(f"workload {workload.name}  seed {args.seed}  "
          f"{len(timed)} timed repeats ({sum(r.traced for r in timed)} traced)  "
          f"{ref.items} source items on the first engine seed")
    print("  items per wall s, per timed repeat: " + " ".join(
        f"{r.items_per_wall_s:.0f}{'*' if r.traced else ''}" for r in timed
    ) + ("  (* traced)" if args.trace else ""))
    print("  items per reference s, per calibrated repeat: " + " ".join(
        f"{r.items_per_ref_s:.0f}" for r in untraced))
    for name, unit in END_TO_END + HOST_METRICS + SIM_METRICS:
        value = {**e2e, **host, **sim}[name]
        print(f"  {name:<34s} {_fmt(value):>14s} {unit}")
    if mismatches:
        print(f"  FINGERPRINT MISMATCH in: {', '.join(sorted(set(mismatches)))}")

    if args.trace:
        values = layer_values(timed, import_s, serial)
        values.update(sim)
        values.update(host)
        trace_path = _write_trace(work_root, workload, args.seed, repeats, values)
        _print_layers(repeats, values)
        print(f"  spans and counts written to {os.path.relpath(trace_path, ROOT)}")
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER}
    else:
        metrics = {name: {"value": e2e[name], "unit": unit} for name, unit in END_TO_END}
    shutil.rmtree(work_dir, ignore_errors=True)
    print(json.dumps({
        "correct": correct,
        "attempted": runs_attempted,
        "failed": runs_failed,
        "metrics": metrics,
    }))
    return 0


def _frozen_copy(tracer):
    """A frozen copy of a tracer's contents (the tracer is reused)."""
    from simbench.tracer import Tracer

    copy = Tracer()
    copy.merge(tracer.dump())
    return copy


def _print_layers(repeats, values: Dict[str, float]) -> None:
    from simbench.layers import LAYERS, layer_self_times

    traced = [r for r in repeats if r.traced]
    tracer = traced[0].tracer_dump
    self_s = layer_self_times(tracer)
    total = sum(self_s.values())
    wall = traced[0].wall_s
    print(f"  traced repeat: {wall:.3f} s wall, layer self times add up to {total:.3f} s")
    for layer in LAYERS:
        share = self_s.get(layer, 0.0) / total if total else 0.0
        print(f"    {layer:<10s} {self_s.get(layer, 0.0):10.4f} s  {100 * share:5.1f} %")
    for name in LAYER_NAMES + REPORT_ONLY:
        print(f"  {name:<34s} {_fmt(values[name]):>14s} {_unit(name)}")


def _write_trace(work_root: str, workload, seed: int, repeats, values) -> str:
    from simbench.layers import layer_self_times

    traced = [r for r in repeats if r.traced]
    path = os.path.join(work_root, f"trace-{workload.name}-seed{seed}.json")
    repeats_out = []
    for repeat in traced:
        dump = repeat.tracer_dump.dump()
        self_s = stats.span_self_times(dump["spans"])
        for span in dump["spans"]:
            span["self_s"] = self_s[span["id"]]
        dump.update(wall_s=repeat.wall_s, layer_self_s=layer_self_times(repeat.tracer_dump))
        repeats_out.append(dump)
    payload = {"workload": workload.name, "seed": seed, "metrics": values, "repeats": repeats_out}
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle)
    return path


def parse_args(argv: Optional[List[str]] = None):
    from simbench.workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"cannot find the simulator sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    # the shards' git provenance lookup must not leave the checkout
    os.environ["GIT_CEILING_DIRECTORIES"] = os.path.dirname(ROOT)
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
