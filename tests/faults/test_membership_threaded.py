"""Online membership on the real-thread transport.

Wall-clock acceptance for ``repro.membership``: the same join / drain /
decommission lifecycle the simulator proves in
``test_membership_sim.py``, but over real threads, real timers and the
blocking client — including a durable joiner that crashes and replays
its journal.  Workloads are kept small; every test is bounded by the
cluster's own drain / decommission timeouts.
"""

from __future__ import annotations

import threading

import pytest

from repro.core.modes import LockMode
from repro.errors import SimulationError
from repro.faults.plan import FaultPlan
from repro.faults.runtime import FAST_RECOVERY, ResilientThreadedCluster
from repro.persist import MemoryPersistence
from repro.verification.invariants import CompatibilityMonitor


def _assert_view_agreement(cluster):
    views = {
        node: cluster.managers[node].membership.view
        for node in cluster.live_nodes()
    }
    assert len(set(views.values())) == 1, f"views diverge: {views}"
    view = next(iter(views.values()))
    return view.epoch, view.members


class TestThreadedJoinAndDrain:
    def test_joiner_serves_traffic_and_leaver_drains(self):
        monitor = CompatibilityMonitor()
        with ResilientThreadedCluster(
            3, plan=FaultPlan(), monitor=monitor
        ) as cluster:
            # Warm the lock from an original member.
            cluster.client(0).acquire("db", LockMode.W, timeout=10.0)
            cluster.client(0).release("db", LockMode.W)

            joiner = cluster.join_node()
            assert joiner == 3
            # The joiner must be able to acquire through its bootstrap
            # attachment right away (grants may queue behind the view
            # install, hence the generous timeout).
            cluster.client(joiner).acquire("db", LockMode.W, timeout=20.0)
            cluster.client(joiner).release("db", LockMode.W)

            successor = cluster.drain_node(1, timeout=30.0)
            assert successor in cluster.live_nodes()
            assert 1 not in cluster.live_nodes()
            with pytest.raises(SimulationError, match="leaving"):
                cluster.client(1).acquire("db", LockMode.R)

            epoch, members = _assert_view_agreement(cluster)
            assert joiner in members and 1 not in members
            assert epoch >= 2
            # And the survivors still grant.
            cluster.client(2).acquire("db", LockMode.W, timeout=20.0)
            cluster.client(2).release("db", LockMode.W)
            assert monitor.grants == 3  # every grant was Rule-1 audited

    def test_join_then_drain_back_to_back_leaves_views_agreed(self):
        """``join_node`` and ``drain_node`` return only once every live
        member has installed the change, so views agree at return with
        no settling sleep — and the caller cannot put two proposals over
        one base view in flight (docs/MEMBERSHIP.md §8, known gap)."""

        for _ in range(20):
            with ResilientThreadedCluster(3, plan=FaultPlan()) as cluster:
                joiner = cluster.join_node(timeout=30.0)
                _epoch, members = _assert_view_agreement(cluster)
                assert joiner in members
                cluster.drain_node(1, timeout=30.0)
                _epoch, members = _assert_view_agreement(cluster)
                assert members == (0, 2, joiner)

    def test_drain_races_concurrent_traffic(self):
        """Drain a node while the other members hammer the same lock;
        nobody may wedge and Rule 1 must hold throughout."""

        monitor = CompatibilityMonitor()
        with ResilientThreadedCluster(
            4, plan=FaultPlan(), monitor=monitor
        ) as cluster:
            errors: list = []

            def hammer(node):
                try:
                    for i in range(4):
                        mode = (
                            LockMode.W if (node + i) % 3 == 0 else LockMode.R
                        )
                        cluster.client(node).acquire(
                            "db", mode, timeout=30.0
                        )
                        cluster.client(node).release("db", mode)
                except Exception as exc:  # surfaced to the main thread
                    errors.append((node, exc))

            threads = [
                threading.Thread(target=hammer, args=(n,), daemon=True)
                for n in (0, 2, 3)
            ]
            for thread in threads:
                thread.start()
            cluster.drain_node(1, timeout=30.0)
            for thread in threads:
                thread.join(timeout=60.0)
            assert not any(t.is_alive() for t in threads), "workload wedged"
            assert errors == []
            # The monitor raises on any Rule-1 violation; reaching here
            # with all grants accounted for means the race stayed clean.
            assert monitor.grants == 3 * 4
            _assert_view_agreement(cluster)


class TestThreadedDecommission:
    def test_dead_node_is_excised(self):
        with ResilientThreadedCluster(3, plan=FaultPlan()) as cluster:
            cluster.client(2).acquire("db", LockMode.W, timeout=10.0)
            cluster.crash(2)
            cluster.decommission_node(2, timeout=30.0)
            epoch, members = _assert_view_agreement(cluster)
            assert members == (0, 1)
            # The dead holder's W must not strand the survivors.
            cluster.client(0).acquire("db", LockMode.W, timeout=30.0)
            cluster.client(0).release("db", LockMode.W)

    def test_decommission_refuses_a_live_node(self):
        with ResilientThreadedCluster(3, plan=FaultPlan()) as cluster:
            with pytest.raises(SimulationError, match="alive"):
                cluster.decommission_node(1)


class TestThreadedDurableJoiner:
    def test_joiner_crash_restart_replays_its_journal(self):
        with ResilientThreadedCluster(
            3,
            plan=FaultPlan(),
            persistence=MemoryPersistence(),
        ) as cluster:
            joiner = cluster.join_node()
            cluster.client(joiner).acquire("db.t1", LockMode.W, timeout=20.0)
            cluster.crash(joiner)
            cluster.restart(joiner)
            manager = cluster.managers[joiner]
            assert manager.custody.report["locks_restored"] >= 1
            # The restored-then-disowned hold must not strand waiters.
            cluster.client(0).acquire("db.t1", LockMode.W, timeout=30.0)
            cluster.client(0).release("db.t1", LockMode.W)
            epoch, members = _assert_view_agreement(cluster)
            assert joiner in members
