"""Fault injection and recovery over the threaded/TCP transports.

:class:`FaultyTransport` wraps any object with the
``register/start/stop/send`` transport surface
(:class:`~repro.runtime.transport.ThreadedTransport`,
:class:`~repro.runtime.tcp.TcpTransport`) and applies a
:class:`~repro.faults.plan.FaultPlan` to every crossing message, plus
crash/restart gating: a crashed node neither sends nor receives, and a
restarted node's handler goes in with ``restart(node, handler)`` without
re-registering (which the underlying transports forbid after start) —
the same four-call fabric vocabulary the simulator's
:class:`~repro.sim.network.Network` speaks.

:class:`ResilientThreadedCluster` is the real-thread binding of
:class:`~repro.faults.host.ResilientHost` (its simulator sibling is
:class:`~repro.faults.simcluster.ResilientSimCluster`): the host's node
stack over a :class:`FaultyTransport`, ticking on a
:class:`~repro.faults.scheduler.WallScheduler`, with blocking clients
and blocking membership changes.

Wall-clock runs are not bit-reproducible — thread interleaving is real —
but the *injected fault stream* still follows the plan's private RNG, so
a plan that drops the third grant drops the third grant every run.
"""

from __future__ import annotations

import threading
import time
from typing import Dict, List, Optional, Set

from ..core.lockspace import TokenHomeFn, default_token_home
from ..core.messages import Envelope, LockId, NodeId
from ..core.modes import LockMode
from ..errors import SimulationError
from ..obs.sink import ObsSink
from ..runtime.cluster import _Waiter
from ..runtime.transport import MessageHandler, ThreadedTransport
from ..sim.cluster import _NodeClient
from ..verification.invariants import Monitor
from .host import ResilientHost
from .plan import FaultInjector, FaultPlan
from .recovery import RecoveryConfig
from .scheduler import WallScheduler

#: Recovery timings an order of magnitude tighter than the simulator
#: defaults — loopback queues deliver in microseconds, so tests converge
#: in well under a second of wall time.
FAST_RECOVERY = RecoveryConfig(
    heartbeat_interval=0.05,
    suspect_timeout=0.4,
    retry_base=0.08,
    retry_cap=0.5,
    channel_retry_base=0.04,
    channel_retry_cap=0.2,
    probe_timeout=0.15,
    orphan_interval=0.05,
    regen_settle=0.2,
)

#: How long (seconds) a reordered frame is held back waiting for later
#: traffic on its (sender, dest) pair to overtake it.  If nothing else
#: crosses the pair within the window the frame is force-flushed — a
#: reorder against silence is indistinguishable from a delay.  Short
#: enough not to trip channel retransmission under ``FAST_RECOVERY``.
_REORDER_HOLD = 0.05


class FaultyTransport:
    """Plan-driven fault injection around a threaded/TCP transport."""

    def __init__(self, inner, plan: Optional[FaultPlan] = None) -> None:
        self.inner = inner
        self._epoch = time.monotonic()
        self._injector: Optional[FaultInjector] = (
            FaultInjector(plan) if plan is not None and not plan.is_empty()
            else None
        )
        self._handlers: Dict[NodeId, MessageHandler] = {}
        self._crashed: Set[NodeId] = set()
        self._state_lock = threading.Lock()
        self._timers: List[threading.Timer] = []
        #: Reordered frames held back per (sender, dest) pair, waiting
        #: for a later frame on the pair to overtake them (see ``send``).
        self._held: Dict[tuple, List[Envelope]] = {}
        self._stopping = False
        self.messages_dropped = 0
        self.messages_reordered = 0

    @property
    def injector(self) -> Optional[FaultInjector]:
        """The live decision engine (``None`` for an empty plan)."""

        return self._injector

    def _now(self) -> float:
        return time.monotonic() - self._epoch

    # -- transport surface -------------------------------------------------

    def register(self, node_id: NodeId, handler: MessageHandler) -> None:
        """Register *node_id* on the inner transport, via a crash-gated
        handler indirection that :meth:`restart` can re-point."""

        with self._state_lock:
            self._handlers[node_id] = handler

        def gated(message, node_id=node_id):
            with self._state_lock:
                if node_id in self._crashed:
                    self.messages_dropped += 1
                    return []
                current = self._handlers[node_id]
            return current(message)

        self.inner.register(node_id, gated)

    def start(self) -> None:
        """Start the inner transport."""

        self.inner.start()

    def stop(self) -> None:
        """Cancel in-flight delayed deliveries, then stop the inner."""

        with self._state_lock:
            self._stopping = True
            timers = list(self._timers)
            self._timers.clear()
        for timer in timers:
            timer.cancel()
        self.inner.stop()

    def send(self, sender: NodeId, envelopes: List[Envelope]) -> None:
        """Apply the plan to each envelope, then ship the survivors.

        Reordered frames are scrambled at frame level, mirroring the
        simulator's skip-the-FIFO-floor semantics: the frame is *held
        back* and the next frame sent on the same (sender, dest) pair
        overtakes it — the pair genuinely delivers out of order, rather
        than approximating reorder with a small delay.  A hold timer
        bounds the wait when the pair goes quiet.
        """

        for envelope in envelopes:
            with self._state_lock:
                if sender in self._crashed or envelope.dest in self._crashed:
                    self.messages_dropped += 1
                    continue
                injector = self._injector
                if injector is None:
                    decision = None
                else:
                    decision = injector.decide(
                        self._now(), sender, envelope.dest, envelope.message
                    )
            if decision is None:
                self.inner.send(sender, [envelope])
                self._flush_held((sender, envelope.dest))
                continue
            if decision.drop:
                with self._state_lock:
                    self.messages_dropped += 1
                continue
            if decision.reorder:
                for _copy in range(decision.copies):
                    self._hold_reordered(sender, envelope)
                continue
            delay = decision.extra_delay
            for _copy in range(decision.copies):
                if delay > 0.0:
                    self._send_later(sender, envelope, delay)
                else:
                    self.inner.send(sender, [envelope])
                    self._flush_held((sender, envelope.dest))

    def _hold_reordered(self, sender: NodeId, envelope: Envelope) -> None:
        """Stash a frame so the pair's next frame overtakes it."""

        key = (sender, envelope.dest)
        with self._state_lock:
            if self._stopping:
                return
            self._held.setdefault(key, []).append(envelope)
            self.messages_reordered += 1
            timer = threading.Timer(
                _REORDER_HOLD, lambda: self._flush_held(key)
            )
            timer.daemon = True
            self._timers.append(timer)
            if len(self._timers) > 64:  # Drop completed timers.
                self._timers = [t for t in self._timers if t.is_alive()]
        timer.start()

    def _flush_held(self, key: tuple) -> None:
        """Release held frames on *key*, after their overtaker shipped."""

        with self._state_lock:
            held = self._held.pop(key, None)
            if not held:
                return
            if (
                self._stopping
                or key[0] in self._crashed
                or key[1] in self._crashed
            ):
                self.messages_dropped += len(held)
                return
        for envelope in held:
            try:
                self.inner.send(key[0], [envelope])
            except SimulationError:
                pass  # Destination died while the frame was held.

    def _send_later(
        self, sender: NodeId, envelope: Envelope, delay: float
    ) -> None:
        def fire() -> None:
            with self._state_lock:
                if (
                    self._stopping
                    or sender in self._crashed
                    or envelope.dest in self._crashed
                ):
                    self.messages_dropped += 1
                    return
            try:
                self.inner.send(sender, [envelope])
            except SimulationError:
                pass  # Destination died while the message was in flight.

        with self._state_lock:
            if self._stopping:
                return
            timer = threading.Timer(delay, fire)
            timer.daemon = True
            self._timers.append(timer)
            if len(self._timers) > 64:  # Drop completed timers.
                self._timers = [t for t in self._timers if t.is_alive()]
        timer.start()

    # -- crash gating ------------------------------------------------------

    def crash(self, node_id: NodeId) -> None:
        """Silence *node_id*: its sends and deliveries are dropped."""

        with self._state_lock:
            self._crashed.add(node_id)
            # Held reordered frames to/from the dead node die with it.
            for key in [k for k in self._held if node_id in k]:
                self.messages_dropped += len(self._held.pop(key))

    def restart(
        self, node_id: NodeId, handler: Optional[MessageHandler] = None
    ) -> None:
        """Reconnect *node_id* to the fabric, optionally delivering to a
        fresh *handler* (the restarted node's new protocol state)."""

        with self._state_lock:
            if handler is not None:
                if node_id not in self._handlers:
                    raise SimulationError(
                        f"node {node_id} was never registered"
                    )
                self._handlers[node_id] = handler
            self._crashed.discard(node_id)

    def is_crashed(self, node_id: NodeId) -> bool:
        """Whether *node_id* is currently severed."""

        with self._state_lock:
            return node_id in self._crashed

    def __getattr__(self, name: str):
        # Everything else (messages_sent, drain, address_of, obs, ...)
        # passes through to the wrapped transport.
        return getattr(self.inner, name)


class ResilientBlockingClient(_NodeClient):
    """Blocking per-node client routed through the recovery manager."""

    def acquire(
        self, lock_id: LockId, mode: LockMode, timeout: Optional[float] = None
    ) -> None:
        """Acquire *lock_id* in *mode*, blocking until granted."""

        cluster = self._cluster
        cluster._admit(self._node_id)
        cluster._record_request(self._node_id, lock_id, mode)
        waiter = _Waiter()
        cluster.managers[self._node_id].request(lock_id, mode, waiter)
        if not waiter.event.wait(timeout):
            raise TimeoutError(
                f"node {self._node_id}: {mode} on {lock_id!r} not granted "
                f"within {timeout}s"
            )

    def release(self, lock_id: LockId, mode: LockMode) -> None:
        """Release one hold of *mode* on *lock_id*."""

        cluster = self._cluster
        if not cluster._admit(self._node_id, releasing=True):
            return
        cluster._record_release(self._node_id, lock_id, mode)
        cluster.managers[self._node_id].release(lock_id, mode)


class ResilientThreadedCluster(ResilientHost):
    """N real-thread nodes with recovery managers under a fault plan."""

    CLIENT = ResilientBlockingClient

    def __init__(
        self,
        num_nodes: int,
        plan: Optional[FaultPlan] = None,
        transport=None,
        config: RecoveryConfig = FAST_RECOVERY,
        token_home: TokenHomeFn = default_token_home,
        monitor: Optional[Monitor] = None,
        obs: Optional[ObsSink] = None,
        seed: int = 0,
        persistence=None,
        flight=None,
    ) -> None:
        inner = transport if transport is not None else ThreadedTransport(
            seed=seed, obs=obs
        )
        self.transport = FaultyTransport(inner, plan)
        super().__init__(
            num_nodes,
            fabric=self.transport,
            scheduler=WallScheduler(),
            plan=plan,
            config=config,
            token_home=token_home,
            monitor=monitor,
            obs=obs,
            persistence=persistence,
            flight=flight,
        )
        self.transport.start()
        # Only now: heartbeats need every peer registered before the
        # first one goes out.
        for manager in self.managers.values():
            manager.start()

    def _make_listener(self, node_id: NodeId):
        def listener(lock_id: LockId, mode: LockMode, ctx: object) -> None:
            self._record_grant(node_id, lock_id, mode)
            if isinstance(ctx, _Waiter):
                ctx.mode = mode
                ctx.event.set()

        return listener

    def _wait(self, predicate, then, what: str, timeout: float = 30.0) -> None:
        """Blocking: sleep-poll every ``heartbeat_interval`` until
        *predicate* holds (:class:`TimeoutError` after *timeout* wall
        seconds), then run *then*."""

        deadline = time.monotonic() + timeout
        while not predicate():
            if time.monotonic() > deadline:
                raise TimeoutError(
                    f"{what} did not converge within {timeout}s"
                )
            time.sleep(self.config.heartbeat_interval)
        if then is not None:
            then()

    def shutdown(self) -> None:
        """Stop timers, managers and transport threads."""

        for manager in self.managers.values():
            manager.stop()
        self.scheduler.stop()
        if self.obs is not None:
            for error in self.scheduler.errors:
                self.obs.fault("timer-error", repr(error))
        self.transport.stop()
        for journal in self.journals.values():
            journal.close()
        self.journals.clear()

    def __enter__(self) -> "ResilientThreadedCluster":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()
