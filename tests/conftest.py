"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import random

import pytest

from repro.engine.engine import EngineConfig, StreamProcessingEngine
from repro.engine.udf import MapUDF, SinkUDF, SourceUDF, WindowedAggregateUDF
from repro.graphs.job_graph import JobGraph
from repro.simulation.kernel import Simulator
from repro.simulation.randomness import Deterministic, Gamma
from repro.workloads.rates import ConstantRate


@pytest.fixture
def sim() -> Simulator:
    """A fresh simulator."""
    return Simulator()


@pytest.fixture
def rng() -> random.Random:
    """A deterministic RNG for tests."""
    return random.Random(12345)


def make_linear_job(
    source_rate: float = 100.0,
    service_mean: float = 0.002,
    service_cv: float = 0.0,
    n_workers: int = 2,
    n_sinks: int = 1,
    jitter: str = "deterministic",
    worker_min: int = None,
    worker_max: int = None,
) -> JobGraph:
    """Source -> Worker -> Sink with configurable rates and service."""
    graph = JobGraph("linear")
    if service_cv > 0:
        dist = Gamma(service_mean, service_cv)
    else:
        dist = Deterministic(service_mean)
    source = graph.add_vertex(
        "Source", lambda: SourceUDF(lambda now, rng: rng.random()), parallelism=1
    )
    worker = graph.add_vertex(
        "Worker",
        lambda: MapUDF(lambda x: x, service_dist=dist),
        parallelism=n_workers,
        min_parallelism=worker_min if worker_min is not None else n_workers,
        max_parallelism=worker_max if worker_max is not None else n_workers,
    )
    sink = graph.add_vertex("Sink", lambda: SinkUDF(), parallelism=n_sinks)
    graph.connect(source, worker)
    graph.connect(worker, sink)
    source.rate_profile = ConstantRate(source_rate, jitter=jitter)
    return graph


def windowed_job(window=0.2, rate=100.0):
    """Source -> windowed counter -> Sink."""
    graph = JobGraph("windowed")
    src = graph.add_vertex("Src", lambda: SourceUDF(lambda now, rng: 1))

    def make_window():
        return WindowedAggregateUDF(
            window,
            create=lambda: 0,
            add=lambda acc, x: acc + 1,
            finalize=lambda acc: [acc],
        )

    win = graph.add_vertex("Win", make_window)
    sink = graph.add_vertex("Snk", lambda: SinkUDF())
    graph.connect(src, win)
    graph.connect(win, sink)
    src.rate_profile = ConstantRate(rate, jitter="deterministic")
    return graph


def run_linear(
    config: EngineConfig = None,
    duration: float = 10.0,
    **job_kwargs,
):
    """Build + run a linear job; returns the engine."""
    engine = StreamProcessingEngine(config or EngineConfig())
    graph = make_linear_job(**job_kwargs)
    engine.submit(graph)
    engine.run(duration)
    return engine
