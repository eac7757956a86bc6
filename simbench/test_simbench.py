"""Tests of the benchmark's own code (no workload is run).

Run with ``python -m pytest simbench`` from the repository root.
"""

from __future__ import annotations

import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
if ROOT not in sys.path:
    sys.path.insert(0, ROOT)

from simbench import run, stats  # noqa: E402
from simbench.layers import layer_self_times  # noqa: E402
from simbench.tracer import Tracer, clock  # noqa: E402


# ----------------------------------------------------------------------
# span self time: parent minus the covered child interval
# ----------------------------------------------------------------------

def test_covered_length_merges_overlapping_children_and_clips_to_parent():
    children = [(1.0, 3.0), (2.0, 5.0), (8.0, 12.0)]
    assert stats.covered_length(children, 0.0, 10.0) == pytest.approx(6.0)
    assert stats.covered_length([], 0.0, 10.0) == 0.0
    assert stats.covered_length([(11.0, 12.0)], 0.0, 10.0) == 0.0


def test_span_self_times_subtract_union_of_children():
    spans = [
        {"id": "p", "parent": None, "start": 0.0, "end": 10.0},
        {"id": "a", "parent": "p", "start": 1.0, "end": 3.0},
        {"id": "b", "parent": "p", "start": 2.0, "end": 5.0},
        {"id": "c", "parent": "b", "start": 2.5, "end": 3.0},
    ]
    self_s = stats.span_self_times(spans)
    assert self_s["p"] == pytest.approx(6.0)
    assert self_s["a"] == pytest.approx(2.0)
    assert self_s["b"] == pytest.approx(2.5)
    assert self_s["c"] == pytest.approx(0.5)


def _spin(seconds: float) -> None:
    end = clock() + seconds
    while clock() < end:
        pass


class _Toy:
    def outer(self):
        _spin(0.002)
        self.inner()
        self.inner()

    def inner(self):
        _spin(0.001)


def test_tracer_self_times_add_up_to_the_root_and_unwrap_restores():
    original_outer, original_inner = _Toy.outer, _Toy.inner
    tracer = Tracer()
    tracer.wrap(_Toy, "outer", "task:outer", "task", span=True)
    tracer.wrap(_Toy, "inner", "channel:inner", "channel")
    with tracer.span("bench:repeat"):
        _Toy().outer()
        _spin(0.001)
    tracer.unwrap_all()
    assert _Toy.outer is original_outer and _Toy.inner is original_inner

    outer = tracer.boundaries["task:outer"]
    inner = tracer.boundaries["channel:inner"]
    assert (outer.calls, inner.calls) == (1, 2)
    assert outer.self_s == pytest.approx(outer.total_s - inner.total_s)
    assert tracer.edges[("task:outer", "channel:inner")] == 2
    root = [s for s in tracer.spans if s["name"] == "bench:repeat"][0]
    layers = layer_self_times(tracer)
    assert sum(layers.values()) == pytest.approx(root["end"] - root["start"])
    assert layers["channel"] == pytest.approx(inner.total_s)
    child = [s for s in tracer.spans if s["name"] == "task:outer"][0]
    assert child["parent"] == root["id"]


def test_foreign_children_are_subtracted_from_the_waiting_parent():
    tracer = Tracer()
    with tracer.span("sweep:pool", layer="sweep"):
        _spin(0.003)
    pool = tracer.spans[0]
    # two shard processes that ran concurrently inside the pool's span
    lo, hi = pool["start"], pool["end"]
    third = (hi - lo) / 3
    tracer.merge({
        "pid": -1,
        "boundaries": {"task:x": {"layer": "task", "calls": 2, "total_s": 2 * third,
                                  "self_s": 2 * third, "extra": {}}},
        "edges": [],
        "spans": [
            {"id": "-1:1", "name": "shard", "layer": "task", "start": lo, "end": lo + third,
             "parent": pool["id"], "pid": -1},
            {"id": "-2:1", "name": "shard", "layer": "task", "start": lo, "end": lo + third,
             "parent": pool["id"], "pid": -2},
        ],
    })
    layers = layer_self_times(tracer)
    assert layers["sweep"] == pytest.approx((hi - lo) - third)


# ----------------------------------------------------------------------
# fingerprints, names, percentiles
# ----------------------------------------------------------------------

def test_fingerprint_diff_names_every_differing_or_missing_key():
    reference = {"run": {"items": 5, "sinks": [["a", 2, "ff"]]}, "aggregate": "00"}
    assert stats.fingerprint_diff(reference, json.loads(json.dumps(reference))) == []
    changed = {"run": {"items": 6, "sinks": [["a", 2, "ff"]]}, "aggregate": "00"}
    assert stats.fingerprint_diff(reference, changed) == ["run"]
    assert stats.fingerprint_diff(reference, {"run": reference["run"]}) == ["aggregate"]


@pytest.mark.parametrize("name", ["items_per_wall_s", "kernel.self_s", "a", "9x", "p-99.9"])
def test_valid_names(name):
    assert stats.valid_name(name)


@pytest.mark.parametrize("name", ["", "_x", ".x", "a b", "a/b", "x" * 65, "é"])
def test_invalid_names(name):
    assert not stats.valid_name(name)


@pytest.mark.parametrize("count, expected", [
    (57635, 99.9),   # 57 beyond p99.9, only 5 beyond p99.99
    (1000, 99.0),    # exactly 10 beyond p99
    (999, 95.0),     # 9 beyond p99 is too few
    (20, 50.0),
    (5, None),
])
def test_highest_percentile_with_ten_samples_beyond(count, expected):
    assert stats.highest_supported_percentile(count) == expected
    if expected is not None:
        assert stats.samples_beyond(count, expected) >= stats.MIN_TAIL_SAMPLES


def test_nearest_rank():
    values = list(range(1, 101))
    assert stats.nearest_rank(values, 50.0) == 50
    assert stats.nearest_rank(values, 99.0) == 99
    assert stats.nearest_rank(values, 100.0) == 100
    with pytest.raises(ValueError):
        stats.nearest_rank([], 50.0)


# ----------------------------------------------------------------------
# BENCHMARK.json agrees with what the runner prints
# ----------------------------------------------------------------------

def test_benchmark_json_matches_the_runner():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert e2e == dict(run.END_TO_END)
    assert per_layer == dict(run.PER_LAYER)
    from simbench.workloads import WORKLOADS

    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    names = list(e2e) + list(per_layer) + list(WORKLOADS)
    assert len(names) == len(set(names))
    assert all(stats.valid_name(name) for name in names)
    assert "setup_s" in e2e
    for workload in spec["workloads"]:
        assert workload["why"] == WORKLOADS[workload["name"]].why
