"""The simulator binding of the resilient cluster family.

:class:`ResilientSimCluster` is the chaos-capable sibling of
:class:`~repro.sim.cluster.SimHierarchicalCluster`: every node runs its
:class:`~repro.core.lockspace.LockSpace` in recovery mode behind a
:class:`~repro.faults.recovery.RecoveryManager`, the network carries a
:class:`~repro.faults.plan.FaultPlan`, and the plan's crash/restart
schedule is enacted against real node state (a crashed node's lock space
is discarded; a restarted node rejoins blank under a bumped boot
incarnation, or from its journal).  All of that is
:class:`~repro.faults.host.ResilientHost`; this module only builds the
discrete-event engine under it, says how a caller waits (it yields a
:class:`~repro.sim.engine.SimEvent`; membership changes complete
asynchronously, polled in virtual time) and opts every node into leases
and sessions.

This lives in :mod:`repro.faults` rather than :mod:`repro.sim` on
purpose: the plain cluster — the one all reproduced figures run on —
stays byte-for-byte untouched, which is what keeps fault-free figure
runs bit-identical to the pre-fault codebase.
"""

from __future__ import annotations

import random
from typing import Optional

from ..core.lockspace import TokenHomeFn, default_token_home
from ..core.messages import LockId, NodeId
from ..core.modes import LockMode
from ..obs.sink import ObsSink
from ..sim.cluster import _GrantCtx, _NodeClient
from ..sim.engine import SimEvent, Simulator
from ..sim.network import Network
from ..sim.rng import Distribution, Exponential
from ..verification.invariants import Monitor
from .host import ResilientHost
from .plan import FaultPlan, fault_label
from .recovery import RecoveryConfig, RecoveryManager
from .scheduler import SimScheduler


class ResilientClient(_NodeClient):
    """Per-node client: like ``HierClient`` but requests through the
    recovery manager so retransmission timers are armed."""

    def acquire(self, lock_id: LockId, mode: LockMode) -> SimEvent:
        """Request *lock_id* in *mode*; yield the returned event to wait."""

        cluster = self._cluster
        cluster._admit(self._node_id)
        cluster._record_request(self._node_id, lock_id, mode)
        event = SimEvent(cluster.sim)
        cluster.managers[self._node_id].request(
            lock_id, mode, _GrantCtx(event=event)
        )
        return event

    def release(self, lock_id: LockId, mode: LockMode) -> None:
        """Release one hold of *mode* on *lock_id*."""

        cluster = self._cluster
        if not cluster._admit(self._node_id, releasing=True):
            return
        cluster._record_release(self._node_id, lock_id, mode)
        cluster.managers[self._node_id].release(lock_id, mode)


class ResilientSimCluster(ResilientHost):
    """N simulated nodes with recovery managers under a fault plan."""

    CLIENT = ResilientClient

    def __init__(
        self,
        num_nodes: int,
        plan: Optional[FaultPlan] = None,
        sim: Optional[Simulator] = None,
        latency: Optional[Distribution] = None,
        seed: int = 0,
        token_home: TokenHomeFn = default_token_home,
        monitor: Optional[Monitor] = None,
        config: RecoveryConfig = RecoveryConfig(),
        obs: Optional[ObsSink] = None,
        persistence=None,
        reclaim: bool = False,
        flight=None,
    ) -> None:
        self.sim = sim if sim is not None else Simulator()
        if obs is not None:
            self.sim.tick_hook = obs.engine_tick
        self._latency = latency if latency is not None else Exponential(0.150)
        observer = None
        if obs is not None:
            def observer(sender, dest, message):
                # The label the bare clusters, the tracer and FaultRule
                # use: what a session frame carries, not the frame.
                obs.message(sender, dest, fault_label(message))
        self.network = Network(
            self.sim,
            latency=self._latency,
            rng=random.Random(seed ^ 0x5EED),
            observer=observer,
            faults=plan,
            tracer=getattr(obs, "tracer", None) if obs is not None else None,
        )
        super().__init__(
            num_nodes,
            fabric=self.network,
            scheduler=SimScheduler(self.sim),
            plan=plan,
            config=config,
            token_home=token_home,
            monitor=monitor,
            obs=obs,
            persistence=persistence,
            flight=flight,
            reclaim=reclaim,
        )
        # Only now: the first heartbeat needs every peer registered.
        for manager in self.managers.values():
            manager.start()
        # Plan-scheduled crashes are a simulator-only convenience: wall
        # clock runs crash nodes from the test body instead.
        if plan is not None:
            for crash in plan.crashes:
                self.sim.schedule(
                    max(crash.at - self.sim.now, 0.0),
                    lambda node=crash.node: self.crash(node),
                )
                if crash.restart_at is not None:
                    self.sim.schedule(
                        max(crash.restart_at - self.sim.now, 0.0),
                        lambda node=crash.node: self.restart(node),
                    )

    def _make_listener(self, node_id: NodeId):
        def listener(lock_id: LockId, mode: LockMode, ctx: object) -> None:
            self._record_grant(node_id, lock_id, mode)
            # Every grant is leased: looked up at call time so the
            # current incarnation's manager leases its own grants.
            self.managers[node_id].leases.note_grant(lock_id, mode)
            if isinstance(ctx, _GrantCtx):
                ctx.event.trigger(mode)

        return listener

    def _wait(self, predicate, then, what: str) -> None:
        """Asynchronous: poll every ``heartbeat_interval`` of virtual
        time, then run *then*.  With nothing to run afterwards there is
        nothing to schedule — whoever cares yields on simulator events."""

        if then is None:
            return
        if predicate():
            then()
        else:
            self.sim.schedule(
                self.config.heartbeat_interval,
                lambda: self._wait(predicate, then, what),
            )

    def _wire_leases(self, manager: RecoveryManager, journal) -> None:
        manager.leases.forced_release = self._forced_release
        if journal is not None:
            journal.session_source = manager.leases.sessions.export

    def _forced_release(self, holder: NodeId, lock_id: LockId) -> None:
        """Lease layer revoked *holder*'s holds on *lock_id*."""

        if self.monitor is not None:
            self.monitor.on_forced_release(self.sim.now, holder, lock_id)
