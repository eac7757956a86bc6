"""Host-speed calibration: a frozen reference loop timed next to the work.

On a shared host the same simulation can take 25 % more or less wall
time from one minute to the next. A fixed loop of the same kind of
interpreter work (heap pushes and pops, dict stores, random draws,
scattered reads of boxed floats) slows down with it. Timing the loop
right before each slice of simulation gives the host's speed during that
slice, and dividing it out leaves the simulator's own speed.

The loop is part of the benchmark, never of the program, so a change to
the simulator cannot change the reference. Do not edit it: that would
shift every calibrated value.
"""

from __future__ import annotations

import heapq
import random
from typing import List, Optional

from simbench.tracer import clock

#: passes of the reference loop that make one reference second; about one
#: wall second on the 2-vCPU VM the benchmark was developed on
NOMINAL_PASSES_PER_S = 250.0

#: host seconds spent measuring the speed before each slice
SAMPLE_S = 0.04

_POOL_SIZE = 1 << 18
_PASS_LENGTH = 2000


class HostSpeed:
    """Measures reference-loop passes per host second, on demand."""

    def __init__(self) -> None:
        self._pool: Optional[List[float]] = None
        self._rng = random.Random(0x5EED)

    def _one_pass(self) -> float:
        pool = self._pool
        mask = _POOL_SIZE - 1
        draw = self._rng.random
        heap: list = []
        latest = {}
        total = 0.0
        for i in range(_PASS_LENGTH):
            value = pool[int(draw() * mask)]
            heapq.heappush(heap, (value + draw(), i))
            latest[i & 255] = value
            if len(heap) > 64:
                total += heapq.heappop(heap)[0]
        return total

    def sample(self, seconds: float = SAMPLE_S) -> float:
        """Passes per host second over about ``seconds`` of looping."""
        if self._pool is None:
            self._pool = [float(i) for i in range(_POOL_SIZE)]
        passes = 0
        start = clock()
        while True:
            self._one_pass()
            passes += 1
            elapsed = clock() - start
            if elapsed >= seconds:
                return passes / elapsed


def reference_seconds(walls: List[float], speeds: List[float]) -> float:
    """Host seconds of work converted to reference seconds.

    ``walls[i]`` host seconds ran at ``speeds[i]`` passes per second; at
    the nominal speed the same work takes this many seconds.
    """
    return sum(w * s for w, s in zip(walls, speeds)) / NOMINAL_PASSES_PER_S
