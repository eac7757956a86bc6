"""Event handles for the discrete-event simulation kernel.

An :class:`Event` is a scheduled callback with a firing time. The kernel
keys its heap entries by the tuple ``(time, seq)`` so that simultaneous
events fire in scheduling order, which keeps simulations deterministic.
The ``Event`` object itself never takes part in heap comparisons: the
kernel pushes ``(time, seq, event)`` tuples and lets CPython compare the
tuple prefix natively.
"""

from __future__ import annotations

from typing import Any, Callable, Optional, Tuple


class Event:
    """A scheduled callback inside a :class:`~repro.simulation.Simulator`.

    Events are created via :meth:`Simulator.schedule` /
    :meth:`Simulator.schedule_at` and should not be instantiated directly.
    An event can be cancelled before it fires with :meth:`cancel`;
    cancelled events are skipped (and lazily discarded) by the kernel.
    Every scheduling allocates a fresh event, so a handle always refers
    to the one occurrence it was returned for.
    """

    __slots__ = ("time", "seq", "callback", "args", "cancelled")

    def __init__(
        self,
        time: float,
        seq: int,
        callback: Optional[Callable[..., Any]],
        args: Tuple[Any, ...],
    ) -> None:
        self.time = time
        self.seq = seq
        self.callback = callback
        self.args = args
        self.cancelled = False

    def cancel(self) -> None:
        """Prevent this event from firing.

        Cancelling an already-fired or already-cancelled event is a no-op.
        """
        self.cancelled = True

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "cancelled" if self.cancelled else "pending"
        name = getattr(self.callback, "__qualname__", repr(self.callback))
        return f"Event(t={self.time:.6f}, seq={self.seq}, {name}, {state})"
