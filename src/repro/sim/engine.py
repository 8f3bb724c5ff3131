"""A small deterministic discrete-event simulation kernel.

The kernel is deliberately SimPy-like: simulation *processes* are plain
Python generators that ``yield`` waitables (:class:`SimEvent` instances,
e.g. :class:`Timeout`), and the :class:`Simulator` advances virtual time
through a binary heap of scheduled callbacks.

Determinism: events scheduled for the same instant fire in scheduling
order (a monotonically increasing sequence number breaks ties), and all
randomness comes from seeded :class:`random.Random` streams owned by the
caller — two runs with the same seed produce identical traces.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Any, Callable, Generator, List, Optional, Tuple

from ..errors import SimulationError


class Simulator:
    """The event loop: a heap of ``(time, seq, callback)`` entries."""

    def __init__(self) -> None:
        self._heap: List[Tuple[float, int, Callable[[], None]]] = []
        self._seq = itertools.count()
        self._now = 0.0
        self._processed = 0
        #: Optional observability hook called as ``(now, events_processed)``
        #: after every callback; ``None`` keeps the loop untouched.
        self.tick_hook: Optional[Callable[[float, int], None]] = None

    @property
    def now(self) -> float:
        """Current virtual time (seconds)."""

        return self._now

    @property
    def events_processed(self) -> int:
        """Total number of callbacks executed so far."""

        return self._processed

    @property
    def pending_events(self) -> int:
        """Number of callbacks still scheduled."""

        return len(self._heap)

    def schedule(self, delay: float, callback: Callable[[], None]) -> None:
        """Run *callback* ``delay`` seconds from now (``delay >= 0``)."""

        if not delay >= 0:  # also catches NaN, which would unorder the heap
            raise SimulationError(f"cannot schedule into the past ({delay})")
        heapq.heappush(self._heap, (self._now + delay, next(self._seq), callback))

    def run(
        self,
        until: Optional[float] = None,
        max_events: Optional[int] = None,
    ) -> None:
        """Drain the event heap.

        Stops when the heap empties, when virtual time would pass *until*,
        or after *max_events* callbacks — whichever comes first.
        """

        budget = max_events if max_events is not None else float("inf")
        while self._heap and budget > 0:
            time, _seq, callback = self._heap[0]
            if until is not None and time > until:
                self._now = until
                return
            heapq.heappop(self._heap)
            self._now = time
            # Count the event as soon as it is dequeued so the counter
            # stays accurate even if the callback raises.
            self._processed += 1
            budget -= 1
            callback()
            if self.tick_hook is not None:
                self.tick_hook(self._now, self._processed)
        if self._heap and budget <= 0:
            raise SimulationError(
                f"simulation exceeded the event budget at t={self._now:.3f}; "
                "this usually indicates livelock (messages chasing forever)"
            )
        if until is not None and self._now < until:
            self._now = until


class SimEvent:
    """A one-shot waitable: triggers once, then replays to late waiters."""

    __slots__ = ("_sim", "_callbacks", "_triggered", "_value")

    def __init__(self, sim: Simulator) -> None:
        self._sim = sim
        self._callbacks: List[Callable[[Any], None]] = []
        self._triggered = False
        self._value: Any = None

    @property
    def triggered(self) -> bool:
        """Whether :meth:`trigger` has been called."""

        return self._triggered

    @property
    def value(self) -> Any:
        """The value the event was triggered with (``None`` before)."""

        return self._value

    def trigger(self, value: Any = None) -> None:
        """Fire the event, waking every current and future waiter."""

        if self._triggered:
            raise SimulationError("SimEvent triggered twice")
        self._triggered = True
        self._value = value
        callbacks, self._callbacks = self._callbacks, []
        for callback in callbacks:
            self._sim.schedule(0.0, lambda cb=callback: cb(self._value))

    def add_callback(self, callback: Callable[[Any], None]) -> None:
        """Invoke *callback(value)* when (or if already) triggered."""

        if self._triggered:
            self._sim.schedule(0.0, lambda: callback(self._value))
        else:
            self._callbacks.append(callback)


class Timeout(SimEvent):
    """An event that self-triggers after a fixed virtual delay."""

    def __init__(self, sim: Simulator, delay: float) -> None:
        super().__init__(sim)
        sim.schedule(delay, self.trigger)


class AllOf(SimEvent):
    """An event that triggers once every constituent event has triggered."""

    def __init__(self, sim: Simulator, events: List[SimEvent]) -> None:
        super().__init__(sim)
        self._remaining = len(events)
        if self._remaining == 0:
            self.trigger([])
            return
        self._values: List[Any] = [None] * len(events)
        for index, event in enumerate(events):
            event.add_callback(lambda value, i=index: self._one_done(i, value))

    def _one_done(self, index: int, value: Any) -> None:
        self._values[index] = value
        self._remaining -= 1
        if self._remaining == 0:
            self.trigger(list(self._values))


#: A simulation process body: a generator yielding SimEvents.
ProcessBody = Generator[SimEvent, Any, None]


class Process:
    """Drives a generator body, resuming it whenever its waitable fires."""

    def __init__(self, sim: Simulator, body: ProcessBody) -> None:
        self._sim = sim
        self._body = body
        self.done = SimEvent(sim)
        self.error: Optional[BaseException] = None
        sim.schedule(0.0, lambda: self._step(None))

    def _step(self, value: Any) -> None:
        try:
            waitable = self._body.send(value)
        except StopIteration:
            self.done.trigger()
            return
        except BaseException as exc:
            # Do NOT re-raise: this runs inside a scheduled callback, and
            # unwinding Simulator.run mid-drain would abandon every other
            # process.  The crash is captured here and surfaced by
            # run_processes (or whoever inspects ``error``).
            self.error = exc
            self.done.trigger()
            return
        if not isinstance(waitable, SimEvent):
            self.error = SimulationError(
                f"process yielded {type(waitable).__name__}, expected SimEvent"
            )
            self._body.close()
            self.done.trigger()
            return
        waitable.add_callback(self._step)


def run_processes(sim: Simulator, bodies: List[ProcessBody],
                  max_events: Optional[int] = None) -> List[Process]:
    """Spawn *bodies* as processes and run the simulation to completion."""

    processes = [Process(sim, body) for body in bodies]
    sim.run(max_events=max_events)
    for index, process in enumerate(processes):
        if process.error is not None:
            raise SimulationError(
                f"client process {index} crashed: "
                f"{type(process.error).__name__}: {process.error}"
            ) from process.error
    blocked = [i for i, p in enumerate(processes) if not p.done.triggered]
    if blocked:
        raise SimulationError(
            f"deadlock or lost grant: client processes {blocked} are "
            "still blocked"
        )
    return processes
