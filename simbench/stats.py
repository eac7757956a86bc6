"""Small statistics helpers shared by the benchmark and its tests.

Nothing here imports the simulator, so the rules the benchmark reports by
(percentile choice, fingerprint comparison, metric names) can be tested
without running a workload.
"""

from __future__ import annotations

import hashlib
import math
import re
import statistics
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

#: metric and workload names must match this (and be at most 64 long)
NAME_PATTERN = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")

#: the reported tail percentile needs at least this many samples beyond it
MIN_TAIL_SAMPLES = 10

#: candidate tail percentiles, highest first
TAIL_PERCENTILES = (99.99, 99.9, 99.0, 95.0, 90.0, 50.0)


def valid_name(name: str) -> bool:
    """Whether ``name`` is a legal metric or workload name."""
    return isinstance(name, str) and NAME_PATTERN.fullmatch(name) is not None


def nearest_rank(sorted_values: Sequence[float], pct: float) -> float:
    """The nearest-rank percentile of already sorted values."""
    if not sorted_values:
        raise ValueError("percentile of an empty sample")
    rank = math.ceil(pct / 100.0 * len(sorted_values))
    return sorted_values[min(len(sorted_values), max(1, rank)) - 1]


def samples_beyond(count: int, pct: float) -> int:
    """How many of ``count`` samples lie above the nearest-rank ``pct``."""
    return count - max(1, math.ceil(pct / 100.0 * count))


def highest_supported_percentile(
    count: int, candidates: Sequence[float] = TAIL_PERCENTILES
) -> Optional[float]:
    """The highest candidate percentile with enough samples beyond it.

    A tail percentile is only meaningful when at least
    :data:`MIN_TAIL_SAMPLES` samples lie beyond it; returns None when
    even the lowest candidate is not supported.
    """
    for pct in sorted(candidates, reverse=True):
        if samples_beyond(count, pct) >= MIN_TAIL_SAMPLES:
            return pct
    return None


def median(values: Iterable[float]) -> float:
    """Median of a non-empty iterable."""
    return statistics.median(list(values))


def digest(values: Iterable[object]) -> str:
    """A stable hex digest of a sequence of floats/ints/strings.

    ``repr`` of a float round-trips exactly, so two runs digest equal
    exactly when every value is bit-identical.
    """
    hasher = hashlib.sha256()
    for value in values:
        hasher.update(repr(value).encode("ascii"))
        hasher.update(b";")
    return hasher.hexdigest()[:16]


def fingerprint_diff(reference: Dict[str, object], other: Dict[str, object]) -> List[str]:
    """The keys whose values differ between two simulated fingerprints.

    A fingerprint is a flat dict of deterministic simulated outcomes; a
    key present on one side only counts as a difference.
    """
    keys = sorted(set(reference) | set(other))
    return [key for key in keys if reference.get(key, _MISSING) != other.get(key, _MISSING)]


_MISSING = object()


def covered_length(intervals: Iterable[Tuple[float, float]], lo: float, hi: float) -> float:
    """Length of ``[lo, hi]`` covered by the union of ``intervals``."""
    clipped = sorted(
        (max(start, lo), min(end, hi))
        for start, end in intervals
        if end > lo and start < hi
    )
    total = 0.0
    cur_start: Optional[float] = None
    cur_end = 0.0
    for start, end in clipped:
        if end <= start:
            continue
        if cur_start is None or start > cur_end:
            if cur_start is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_start is not None:
        total += cur_end - cur_start
    return total


def span_self_times(spans: Sequence[Dict[str, object]]) -> Dict[object, float]:
    """Self time of every span: its duration minus the covered child interval.

    ``spans`` are dicts with ``id``, ``parent``, ``start`` and ``end``.
    Children may overlap (shard processes run concurrently), so the part
    of the parent they cover is the length of the union of their
    intervals, clipped to the parent.
    """
    children: Dict[object, List[Tuple[float, float]]] = {}
    for span in spans:
        parent = span.get("parent")
        if parent is not None:
            children.setdefault(parent, []).append((span["start"], span["end"]))
    result: Dict[object, float] = {}
    for span in spans:
        start, end = span["start"], span["end"]
        covered = covered_length(children.get(span["id"], ()), start, end)
        result[span["id"]] = (end - start) - covered
    return result
