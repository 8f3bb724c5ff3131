"""Tests for the airline clients under all three protocols."""

from __future__ import annotations

import pytest

from repro.core.lockspace import hashed_token_home
from repro.core.modes import LockMode
from repro.metrics import MetricsCollector
from repro.sim.cluster import SimHierarchicalCluster, SimNaimiCluster
from repro.sim.engine import Process, Simulator
from repro.sim.rng import derive_rng
from repro.verification.invariants import CompatibilityMonitor
from repro.workload.airline import (
    GLOBAL_LOCK_ID,
    hierarchical_client,
    naimi_pure_client,
    naimi_same_work_client,
)
from repro.workload.generator import entry_lock_id, table_lock_id
from repro.workload.spec import WorkloadSpec


def _run(sim, bodies):
    processes = [Process(sim, body) for body in bodies]
    sim.run(max_events=5_000_000)
    assert all(p.done.triggered for p in processes)


class TestLockIdHelpers:
    def test_table_lock_id(self):
        assert table_lock_id() == "db/tickets"
        assert table_lock_id("db/x") == "db/x"

    def test_entry_lock_id(self):
        assert entry_lock_id(7) == "db/tickets/7"
        assert entry_lock_id(0, "db/x") == "db/x/0"


class TestHierarchicalClient:
    def _run_cluster(self, num_nodes, spec):
        sim = Simulator()
        metrics = MetricsCollector()
        monitor = CompatibilityMonitor()
        cluster = SimHierarchicalCluster(
            num_nodes, sim=sim,
            token_home=hashed_token_home(num_nodes),
            monitor=monitor,
        )
        bodies = [
            hierarchical_client(
                sim, cluster.client(n), spec, spec.entry_count(num_nodes),
                derive_rng(spec.seed, "t", n), metrics=metrics,
            )
            for n in range(num_nodes)
        ]
        _run(sim, bodies)
        return metrics, monitor, cluster

    def test_all_operations_complete(self):
        spec = WorkloadSpec(ops_per_node=12, seed=5)
        metrics, monitor, cluster = self._run_cluster(4, spec)
        assert metrics.operations == 4 * 12
        monitor.assert_all_released()
        cluster.assert_quiescent_invariants()

    def test_entry_ops_issue_two_lock_requests(self):
        """An IR-only mix: every op = table intent + entry leaf."""

        spec = WorkloadSpec(
            ops_per_node=10, seed=6, mode_mix=((LockMode.IR, 1.0),)
        )
        metrics, _monitor, _cluster = self._run_cluster(3, spec)
        assert metrics.total_requests == 2 * metrics.operations
        kinds = {record.kind for record in metrics.requests}
        assert kinds == {"IR", "R"}

    def test_table_ops_issue_one_lock_request(self):
        spec = WorkloadSpec(
            ops_per_node=10, seed=7, mode_mix=((LockMode.R, 1.0),)
        )
        metrics, _monitor, _cluster = self._run_cluster(3, spec)
        assert metrics.total_requests == metrics.operations
        assert {r.kind for r in metrics.requests} == {"R"}

    def test_upgrade_ops_record_u_and_upgrade(self):
        spec = WorkloadSpec(
            ops_per_node=4, seed=8, mode_mix=((LockMode.U, 1.0),)
        )
        metrics, monitor, _cluster = self._run_cluster(3, spec)
        kinds = [r.kind for r in metrics.requests]
        assert kinds.count("U") == metrics.operations
        assert kinds.count("U->W") == metrics.operations
        monitor.assert_all_released()

    def test_latencies_are_nonnegative_and_ordered(self):
        spec = WorkloadSpec(ops_per_node=8, seed=9)
        metrics, _monitor, _cluster = self._run_cluster(4, spec)
        for record in metrics.requests:
            assert record.granted_at >= record.issued_at


class TestNaimiClients:
    def _run_naimi(self, client_factory, num_nodes, spec):
        sim = Simulator()
        metrics = MetricsCollector()
        monitor = CompatibilityMonitor()
        cluster = SimNaimiCluster(
            num_nodes, sim=sim,
            token_home=hashed_token_home(num_nodes),
            monitor=monitor,
        )
        bodies = [
            client_factory(
                sim, cluster.client(n), spec, spec.entry_count(num_nodes),
                derive_rng(spec.seed, "n", n), metrics=metrics,
            )
            for n in range(num_nodes)
        ]
        _run(sim, bodies)
        metrics.message_counts.update(cluster.network.messages_by_label)
        return metrics, monitor, cluster

    def test_pure_uses_single_global_lock(self):
        spec = WorkloadSpec(ops_per_node=6, seed=10)
        metrics, monitor, cluster = self._run_naimi(
            naimi_pure_client, 4, spec
        )
        assert metrics.operations == 24
        assert {r.kind for r in metrics.requests} == {"pure"}
        locks = {
            a.lock_id
            for space in cluster.lockspaces.values()
            for a in space.automata()
        }
        assert locks == {GLOBAL_LOCK_ID}
        monitor.assert_all_released()

    def test_same_work_table_ops_touch_every_entry(self):
        spec = WorkloadSpec(
            ops_per_node=2, seed=11, mode_mix=((LockMode.W, 1.0),)
        )
        metrics, monitor, cluster = self._run_naimi(
            naimi_same_work_client, 3, spec
        )
        # Every op is a whole-table op: locks for all 3 entries exist.
        locks = {
            a.lock_id
            for space in cluster.lockspaces.values()
            for a in space.automata()
        }
        assert locks == {entry_lock_id(i) for i in range(3)}
        assert {r.kind for r in metrics.requests} == {"table"}
        monitor.assert_all_released()

    def test_same_work_entry_ops_touch_one_entry(self):
        spec = WorkloadSpec(
            ops_per_node=5, seed=12, mode_mix=((LockMode.IW, 1.0),),
            locality=1.0,
        )
        metrics, monitor, _cluster = self._run_naimi(
            naimi_same_work_client, 3, spec
        )
        assert {r.kind for r in metrics.requests} == {"entry"}
        monitor.assert_all_released()

    def test_same_work_costs_more_messages_than_pure_per_request(self):
        spec = WorkloadSpec(ops_per_node=10, seed=13)
        pure_metrics, _m1, _c1 = self._run_naimi(naimi_pure_client, 6, spec)
        same_metrics, _m2, _c2 = self._run_naimi(
            naimi_same_work_client, 6, spec
        )
        assert (
            same_metrics.message_overhead()
            > pure_metrics.message_overhead() * 0.5
        )
