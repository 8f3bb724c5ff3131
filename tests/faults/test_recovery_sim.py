"""The recovery stack end to end on the simulator.

The deterministic acceptance scenario lives here: crash the token node
while a request is outstanding, watch the survivors regenerate the token
under a fresh epoch, and require that every outstanding request is still
granted with Rule 1 intact throughout.
"""

from __future__ import annotations

import pytest

from repro.core.modes import LockMode
from repro.errors import ConfigurationError
from repro.faults.chaos import run_chaos
from repro.faults.plan import (
    DROP,
    DUPLICATE,
    CrashEvent,
    FaultPlan,
    FaultRule,
)
from repro.faults.recovery import RecoveryConfig
from repro.faults.simcluster import ResilientSimCluster
from repro.obs.collect import RunObserver
from repro.sim.engine import Process, Timeout
from repro.verification.invariants import CompatibilityMonitor

#: Sim-tuned recovery: everything fast enough that a 20-second scenario
#: covers suspicion, probing, settle and regeneration comfortably.
FAST_SIM = RecoveryConfig(
    heartbeat_interval=0.2,
    suspect_timeout=1.0,
    retry_base=0.3,
    retry_cap=1.2,
    channel_retry_base=0.2,
    channel_retry_cap=0.8,
    probe_timeout=0.5,
    orphan_interval=0.25,
    regen_settle=0.6,
)


def test_two_nodes_minimum():
    with pytest.raises(ConfigurationError, match="two nodes"):
        ResilientSimCluster(1)


class TestTokenCrashRegeneration:
    """The tentpole acceptance scenario, fully deterministic."""

    def _run(self, seed=0):
        # Token home for every lock is node 0; crash it mid-flight.
        plan = FaultPlan(crashes=(CrashEvent(node=0, at=2.0),), seed=seed)
        monitor = CompatibilityMonitor()
        cluster = ResilientSimCluster(
            4, plan=plan, seed=seed, monitor=monitor, config=FAST_SIM
        )
        sim = cluster.sim
        grants = []

        def holder():
            # Node 1 takes R before the crash and sits on it across it.
            yield cluster.client(1).acquire("lock", LockMode.R)
            grants.append((sim.now, 1, LockMode.R))
            yield Timeout(sim, 6.0)
            cluster.client(1).release("lock", LockMode.R)

        def writer():
            # Node 2 wants W: incompatible with node 1's R, so this
            # request is outstanding at the token node when it dies.
            yield Timeout(sim, 1.0)
            yield cluster.client(2).acquire("lock", LockMode.W)
            grants.append((sim.now, 2, LockMode.W))
            yield Timeout(sim, 0.5)
            cluster.client(2).release("lock", LockMode.W)

        def late_reader():
            # Issued well after the crash: must route to the new token.
            yield Timeout(sim, 10.0)
            yield cluster.client(3).acquire("lock", LockMode.R)
            grants.append((sim.now, 3, LockMode.R))
            yield Timeout(sim, 0.5)
            cluster.client(3).release("lock", LockMode.R)

        Process(sim, holder())
        Process(sim, writer())
        Process(sim, late_reader())
        sim.run(until=30.0)
        return cluster, grants

    def test_all_outstanding_requests_granted(self):
        cluster, grants = self._run()
        assert [(n, m) for _, n, m in grants] == [
            (1, LockMode.R),
            (2, LockMode.W),
            (3, LockMode.R),
        ]

    def test_token_regenerated_under_new_epoch(self):
        # Seed 5: the token is still at node 0 when it dies.  (Seed 0
        # until issue 24: with acks and heartbeats off the FIFO floor
        # the first grant moves the token to node 1 before the crash at
        # every other seed of 0-23, and nothing needs regenerating.)
        cluster, _ = self._run(seed=5)
        stats = cluster.recovery_stats()
        assert 0 in stats["suspected_nodes"]
        regenerations = stats["regenerations"]
        assert regenerations, "survivors never regenerated the token"
        assert all(r["epoch"] >= 1 for r in regenerations)
        # Exactly one live token, on a survivor, with the bumped epoch.
        holders = [
            n
            for n in cluster.live_nodes()
            if cluster.lockspaces[n].automaton("lock").has_token
        ]
        assert len(holders) == 1
        assert holders[0] != 0
        automaton = cluster.lockspaces[holders[0]].automaton("lock")
        assert automaton.token_epoch >= 1

    def test_rule1_held_throughout(self):
        # CompatibilityMonitor raises InvariantViolation the instant two
        # incompatible modes are concurrently held; a clean run IS the
        # assertion.  Confirm it actually audited something.
        cluster, _ = self._run()
        assert cluster.monitor.grants >= 3

    def test_deterministic_across_runs(self):
        _, first = self._run()
        _, second = self._run()
        assert first == second


def test_observed_messages_carry_protocol_labels():
    """A traced stack run reports what its session frames carry — the
    labels the bare clusters, the tracer and ``FaultRule`` use — so
    ``/metrics`` and ``repro report`` split the stack's traffic too."""

    observer = RunObserver()
    cluster = ResilientSimCluster(3, seed=0, config=FAST_SIM, obs=observer)
    sim = cluster.sim

    def writer(node):
        yield cluster.client(node).acquire("lock", LockMode.W)
        yield Timeout(sim, 0.2)
        cluster.client(node).release("lock", LockMode.W)

    Process(sim, writer(1))
    Process(sim, writer(2))
    sim.run(until=5.0)
    totals = observer.messages.totals()
    assert {"request", "token", "heartbeat", "session-ack"} <= set(totals)
    assert "session" not in totals
    assert not any(label.endswith("Message") for label in totals)


class TestRestart:
    def test_restarted_node_rejoins_and_acquires(self):
        plan = FaultPlan(
            crashes=(CrashEvent(node=2, at=1.0, restart_at=3.0),), seed=0
        )
        monitor = CompatibilityMonitor()
        cluster = ResilientSimCluster(
            3, plan=plan, seed=0, monitor=monitor, config=FAST_SIM
        )
        sim = cluster.sim
        grants = []

        def reborn():
            yield Timeout(sim, 8.0)  # well after the restart
            yield cluster.client(2).acquire("lock", LockMode.W)
            grants.append(2)
            yield Timeout(sim, 0.2)
            cluster.client(2).release("lock", LockMode.W)

        Process(sim, reborn())
        sim.run(until=20.0)
        assert grants == [2]
        assert cluster.managers[2].boot == 1


class TestLossAndDuplication:
    def _workload(self, cluster, node, count=6):
        sim = cluster.sim

        def body():
            client = cluster.client(node)
            for i in range(count):
                mode = LockMode.W if (node + i) % 3 == 0 else LockMode.R
                yield client.acquire("lock", mode)
                yield Timeout(sim, 0.1)
                client.release("lock", mode)
                yield Timeout(sim, 0.15)

        return body()

    def _run_plan(self, plan):
        monitor = CompatibilityMonitor()
        cluster = ResilientSimCluster(
            3, plan=plan, seed=3, monitor=monitor, config=FAST_SIM
        )
        for node in range(3):
            Process(cluster.sim, self._workload(cluster, node))
        cluster.sim.run(until=60.0)  # monitor raises on any Rule-1 break
        for node in range(3):
            space = cluster.lockspaces[node]
            assert space.automaton("lock").pending_mode is LockMode.NONE
        return cluster

    def test_survives_message_drops(self):
        plan = FaultPlan(
            rules=(FaultRule(action=DROP, probability=0.05, until=20.0),),
            seed=3,
        )
        cluster = self._run_plan(plan)
        assert cluster.network.messages_dropped > 0

    def test_survives_message_duplication(self):
        plan = FaultPlan(
            rules=(
                FaultRule(action=DUPLICATE, probability=0.10, until=20.0),
            ),
            seed=3,
        )
        cluster = self._run_plan(plan)
        assert cluster.network.injector.duplicated > 0
        stats = cluster.recovery_stats()
        assert stats["duplicates_dropped"] > 0


class TestChaosVerdicts:
    @pytest.mark.parametrize("plan", ["none", "drop1", "dup1", "jitter"])
    def test_light_plans_converge(self, plan):
        verdict = run_chaos(
            plan=plan, seed=0, nodes=4, duration=6.0, grace=12.0
        )
        assert verdict.ok, verdict.to_json()
        assert verdict.data["invariants"]["rule1_violations"] == 0

    @pytest.mark.chaos
    def test_token_crash_plan(self):
        verdict = run_chaos(
            plan="token-crash", seed=7, nodes=4, duration=10.0
        )
        assert verdict.ok, verdict.to_json()
        assert verdict.data["recovery"]["regenerations"]

    @pytest.mark.chaos
    def test_partition_heals_with_quorum(self):
        verdict = run_chaos(
            plan="partition", seed=0, nodes=8, duration=10.0
        )
        assert verdict.ok, verdict.to_json()
        assert verdict.data["invariants"]["rule1_violations"] == 0

    def test_verdict_is_deterministic(self):
        first = run_chaos(plan="smoke", seed=5, nodes=3, duration=5.0)
        second = run_chaos(plan="smoke", seed=5, nodes=3, duration=5.0)
        assert first.data == second.data
