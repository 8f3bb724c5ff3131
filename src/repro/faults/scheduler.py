"""Time sources and timer scheduling for the recovery layer.

The recovery machinery (retransmission, heartbeats, probes) is written
against a two-method surface — ``now()`` and ``call_later(delay, fn)`` —
so the very same :class:`~repro.faults.recovery.RecoveryManager` runs
deterministically inside the discrete-event simulator and in real time
over the threaded/TCP transports.

Nobody calls ``call_later`` directly: every timer of the recovery stack
is armed through a :class:`Timers` facility, which is also where
cancellation lives.
"""

from __future__ import annotations

import collections
import heapq
import itertools
import threading
import time
from functools import partial
from typing import Callable, Dict, Hashable, List, Tuple

from ..sim.engine import Simulator


class Timers:
    """Keyed one-shot timers of one owner over a ``now``/``call_later`` pair.

    ``arm`` supersedes whatever is armed under its key; a due callback
    runs, under the owner's mutex, iff the owner is :attr:`running` and
    the arm that scheduled it is still the key's current one.  Arms are
    told apart by a token from one monotonic counter, so a key that is
    cancelled and armed again can never be taken for its predecessor (a
    counter kept per entry restarts with the entry, and then it can).
    Nothing is ever removed from the scheduler underneath — a superseded
    callback still comes due and is dropped here — which keeps both
    schedulers trivial, and the engine's event count and ``call_later``
    order independent of what was cancelled.
    """

    __slots__ = ("_scheduler", "_mutex", "_armed", "_tokens", "running")

    def __init__(self, scheduler, mutex, running: bool = True) -> None:
        self._scheduler = scheduler
        self._mutex = mutex
        self._armed: Dict[Hashable, int] = {}
        self._tokens = itertools.count()
        #: Due callbacks are dropped while this is false.
        self.running = running

    def arm(self, key: Hashable, delay: float, fn: Callable, *args) -> None:
        """Run ``fn(*args)`` after *delay*, superseding *key*'s timer."""

        token = self._armed[key] = next(self._tokens)
        self._scheduler.call_later(
            delay, partial(self._fire, key, token, fn, args)
        )

    def cancel(self, key: Hashable) -> None:
        """Disarm *key* (a no-op when nothing is armed under it)."""

        self._armed.pop(key, None)

    def clear(self) -> None:
        """Disarm every key."""

        self._armed.clear()

    def _fire(self, key: Hashable, token: int, fn: Callable, args) -> None:
        with self._mutex:
            if self.running and self._armed.get(key) == token:
                del self._armed[key]
                fn(*args)


class SimScheduler:
    """Adapter: the simulator's clock and event heap."""

    __slots__ = ("_sim",)

    def __init__(self, sim: Simulator) -> None:
        self._sim = sim

    def now(self) -> float:
        """Current virtual time."""

        return self._sim.now

    def call_later(self, delay: float, fn: Callable[[], None]) -> None:
        """Run *fn* after *delay* virtual seconds."""

        self._sim.schedule(delay, fn)


class WallScheduler:
    """A single-threaded timer wheel over the monotonic wall clock.

    One daemon worker drains a heap of ``(deadline, seq, fn)`` entries;
    ``stop()`` wakes it and joins.  Callbacks run on the worker thread,
    so recovery managers take their own node mutex inside.  A callback
    that raises does not stop the wheel; what it raised is kept in
    :attr:`errors` (the last :attr:`MAX_ERRORS`) for the host to report.
    """

    MAX_ERRORS = 16

    def __init__(self) -> None:
        self.errors = collections.deque(maxlen=self.MAX_ERRORS)
        self._start = time.monotonic()
        self._heap: List[Tuple[float, int, Callable[[], None]]] = []
        self._seq = itertools.count()
        self._cond = threading.Condition()
        self._stopped = False
        self._thread = threading.Thread(
            target=self._run, name="repro-faults-timer", daemon=True
        )
        self._thread.start()

    def now(self) -> float:
        """Seconds since this scheduler was created."""

        return time.monotonic() - self._start

    def call_later(self, delay: float, fn: Callable[[], None]) -> None:
        """Run *fn* on the worker thread after *delay* wall seconds."""

        with self._cond:
            if self._stopped:
                return
            heapq.heappush(
                self._heap, (self.now() + max(delay, 0.0), next(self._seq), fn)
            )
            self._cond.notify()

    def stop(self) -> None:
        """Discard pending timers and join the worker."""

        with self._cond:
            self._stopped = True
            self._heap.clear()
            self._cond.notify()
        self._thread.join(timeout=5.0)

    def _run(self) -> None:
        while True:
            with self._cond:
                while not self._stopped and (
                    not self._heap or self._heap[0][0] > self.now()
                ):
                    timeout = (
                        self._heap[0][0] - self.now() if self._heap else None
                    )
                    self._cond.wait(timeout)
                if self._stopped:
                    return
                _deadline, _seq, fn = heapq.heappop(self._heap)
            try:
                fn()
            except Exception as exc:  # Every later timer rides this thread.
                self.errors.append(exc)
