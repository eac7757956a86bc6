"""An in-memory tracer that wraps the simulator's functions from outside.

The benchmark never edits the program: :class:`Tracer` replaces chosen
functions and methods with timing wrappers for the length of a traced
run and restores the originals afterwards. Every wrapped function is a
*boundary* of one layer. Each call is timed; the time spent in wrapped
callees is subtracted, so a boundary's self time is its duration minus
the covered child interval. The self times of all boundaries plus the
root's add up to the root's duration.

Boundaries called once per item (UDF calls, channel shipping, sampling)
only accumulate a call count and time. Rarer boundaries (``span=True``)
also record a span: name, layer, start, end, parent span and process id.
Forked shard processes inherit the wrappers; they reset the tracer with
:meth:`Tracer.fork_child`, dump it into a file, and the parent merges
the dumps with :meth:`Tracer.merge`.
"""

from __future__ import annotations

import os
import time
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Optional, Tuple

clock = time.perf_counter

#: layer of the root span: the benchmark's own code and anything the
#: program runs outside a wrapped boundary
ROOT_LAYER = "bench"


class Boundary:
    """Accumulated calls and time of one wrapped function."""

    __slots__ = ("name", "layer", "span", "calls", "total_s", "self_s", "extra")

    def __init__(self, name: str, layer: str, span: bool = False) -> None:
        self.name = name
        self.layer = layer
        self.span = span
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0
        #: counts an ``inspect`` hook derives from arguments or results
        self.extra: Dict[str, float] = {}

    def to_dict(self) -> Dict[str, object]:
        return {
            "layer": self.layer,
            "calls": self.calls,
            "total_s": self.total_s,
            "self_s": self.self_s,
            "extra": dict(self.extra),
        }


Inspect = Callable[[Boundary, tuple, object], None]


class Tracer:
    """Wraps functions, keeps spans and counts in memory, dumps them."""

    def __init__(self) -> None:
        self.boundaries: Dict[str, Boundary] = {}
        self.spans: List[Dict[str, object]] = []
        #: (parent boundary name, child boundary name) -> calls
        self.edges: Dict[Tuple[str, str], int] = {}
        self._stack: List[list] = []
        self._span_stack: List[str] = []
        self._patches: List[Tuple[object, str, object]] = []
        self._next_span = 0
        self.pid = os.getpid()

    # ------------------------------------------------------------------
    # wrapping
    # ------------------------------------------------------------------

    def wrap(
        self,
        owner: object,
        attr: str,
        name: str,
        layer: str,
        span: bool = False,
        inspect: Optional[Inspect] = None,
    ) -> None:
        """Replace ``owner.attr`` (a function or method) by a timing wrapper."""
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        boundary = self.boundaries.get(name)
        if boundary is None:
            boundary = self.boundaries[name] = Boundary(name, layer, span)
        setattr(owner, attr, self._make_wrapper(original, boundary, inspect))
        self._patches.append((owner, attr, original))

    def unwrap_all(self) -> None:
        """Restore every wrapped function (in reverse wrapping order)."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _make_wrapper(self, fn: Callable, boundary: Boundary, inspect: Optional[Inspect]):
        stack = self._stack
        edges = self.edges
        tracer = self

        if boundary.span:
            def wrapper(*args, **kwargs):
                with tracer.span(boundary.name, boundary.layer):
                    result = fn(*args, **kwargs)
                    if inspect is not None:
                        inspect(boundary, args, result)
                    return result
            return wrapper

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            frame = [boundary, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
                if inspect is not None:
                    inspect(boundary, args, result)
                return result
            finally:
                elapsed = clock() - start
                stack.pop()
                boundary.calls += 1
                boundary.total_s += elapsed
                boundary.self_s += elapsed - frame[1]
                if parent is not None:
                    parent[1] += elapsed
                    key = (parent[0].name, boundary.name)
                    edges[key] = edges.get(key, 0) + 1
        return wrapper

    def _new_span_id(self) -> str:
        self._next_span += 1
        return f"{self.pid}:{self._next_span}"

    # ------------------------------------------------------------------
    # roots, forks, dumps
    # ------------------------------------------------------------------

    @contextmanager
    def span(self, name: str, layer: str = ROOT_LAYER) -> Iterator[None]:
        """Time a region as a span; time not spent in wrapped callees is its self time."""
        boundary = self.boundaries.get(name)
        if boundary is None:
            boundary = self.boundaries[name] = Boundary(name, layer, span=True)
        parent = self._stack[-1] if self._stack else None
        frame = [boundary, 0.0]
        self._stack.append(frame)
        span_id = self._new_span_id()
        parent_span = self._span_stack[-1] if self._span_stack else None
        self._span_stack.append(span_id)
        start = clock()
        try:
            yield
        finally:
            elapsed = clock() - start
            self._span_stack.pop()
            self._stack.pop()
            boundary.calls += 1
            boundary.total_s += elapsed
            boundary.self_s += elapsed - frame[1]
            if parent is not None:
                parent[1] += elapsed
                key = (parent[0].name, name)
                self.edges[key] = self.edges.get(key, 0) + 1
            self.spans.append({
                "id": span_id, "name": name, "layer": boundary.layer, "start": start,
                "end": start + elapsed, "parent": parent_span, "pid": self.pid,
            })

    def reset(self) -> None:
        """Drop all counts, spans and open frames (wrappers stay as they are)."""
        self._next_span = 0
        del self._stack[:]
        del self._span_stack[:]
        self.spans = []
        self.edges.clear()
        for boundary in self.boundaries.values():
            boundary.calls = 0
            boundary.total_s = boundary.self_s = 0.0
            boundary.extra = {}

    def fork_child(self) -> None:
        """Start a forked child's tracer from its parent's open span.

        The wrappers stay installed (they were inherited with the address
        space). The child keeps only the id of the span it was forked in,
        as the parent of its own spans, so its dump holds only its work.
        """
        parent_span = self._span_stack[-1] if self._span_stack else None
        self.pid = os.getpid()
        self.reset()
        if parent_span is not None:
            self._span_stack.append(parent_span)

    def dump(self) -> Dict[str, object]:
        """The tracer's contents as JSON-ready data."""
        return {
            "pid": self.pid,
            "boundaries": {
                name: b.to_dict() for name, b in self.boundaries.items() if b.calls
            },
            "edges": [[parent, child, n] for (parent, child), n in sorted(self.edges.items())],
            "spans": list(self.spans),
        }

    def merge(self, dump: Dict[str, object]) -> None:
        """Add another process's dump to this tracer."""
        for name, data in dump["boundaries"].items():
            boundary = self.boundaries.get(name)
            if boundary is None:
                boundary = self.boundaries[name] = Boundary(name, data["layer"])
            boundary.calls += data["calls"]
            boundary.total_s += data["total_s"]
            boundary.self_s += data["self_s"]
            for key, value in data["extra"].items():
                boundary.extra[key] = boundary.extra.get(key, 0) + value
        for parent, child, n in dump["edges"]:
            self.edges[(parent, child)] = self.edges.get((parent, child), 0) + n
        self.spans.extend(dump["spans"])
