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
discrete-event engine under it (:func:`~repro.sim.cluster.sim_engine`,
the bare clusters' own), says how membership changes wait
(asynchronously, polled in virtual time) and enacts the plan's crash
schedule.  Its client is the bare cluster's
:class:`~repro.sim.cluster.HierClient`: ``acquire`` returns a
:class:`~repro.sim.engine.SimEvent` to yield on.

The bare simulated clusters share its host base
(:class:`~repro.sim.cluster._Host`) and its engine, and none of its
recovery code.
"""

from __future__ import annotations

from typing import Optional

from ..core.lockspace import TokenHomeFn, default_token_home
from ..obs.sink import ObsSink
from ..sim.cluster import HierClient, sim_engine
from ..sim.engine import Simulator
from ..sim.rng import Distribution
from ..verification.invariants import Monitor
from .host import ResilientHost
from .plan import FaultPlan
from .recovery import RecoveryConfig
from .scheduler import SimScheduler


class ResilientSimCluster(ResilientHost):
    """N simulated nodes with recovery managers under a fault plan."""

    CLIENT = HierClient

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
        self.sim, self.network = sim_engine(sim, latency, seed, obs, plan)
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
