"""Online membership on the resilient sim cluster (repro.membership).

The acceptance surface of the view-change subsystem: nodes join under
load and serve traffic, leavers drain their holds / token custody /
copyset children without stranding a single waiter, dead nodes are
force-decommissioned through the suspect machinery, and after every
change the live members agree on one epoch-numbered view — checked both
directly and through the online invariant audit (``view-skew``).

The interleaving sweep at the bottom aims a graceful leave directly at
an in-flight token transfer, across a grid of start offsets, and
requires token uniqueness to survive every interleaving.
"""

from __future__ import annotations

import pytest

from repro.core.modes import LockMode
from repro.errors import ReproError
from repro.faults.chaos import run_chaos
from repro.faults.plan import (
    DECOMMISSION,
    DRAIN,
    JOIN,
    FaultPlan,
    MembershipEvent,
    Partition,
)
from repro.faults.simcluster import ResilientSimCluster
from repro.obs.live import (
    ClusterView,
    NodeSnapshot,
    RecoveryHealth,
    audit_view,
)
from repro.obs.sink import ObsSink
from repro.persist import MemoryPersistence
from repro.sim.engine import Process, Timeout
from repro.verification.invariants import CompatibilityMonitor
from tests.helpers import FAST_SIM

LOCKS = ("db", "db.t1", "db.t2")


def _assert_view_agreement(cluster, expect_members=None):
    """Every live manager runs the same epoch and member list."""

    views = {
        node: m.membership.view
        for node, m in cluster.managers.items()
        if node in cluster.live_nodes()
    }
    assert len(set(views.values())) == 1, f"views diverge: {views}"
    view = next(iter(views.values()))
    epoch, members = view.epoch, view.members
    if expect_members is not None:
        assert members == tuple(sorted(expect_members)), views
    return epoch, members


def _audit_ok(cluster):
    report = audit_view(cluster.cluster_view(), quiescent=True)
    assert report.ok, report.verdict() + "".join(
        f"\n  {finding}" for finding in report.findings
    )


class TestJoinAndDrain:
    def test_join_mid_load_then_drain_grants_everything(self):
        """The headline acceptance run: a node joins while requests are
        in flight, another drains out, nobody is stranded."""

        cluster = ResilientSimCluster(
            4,
            seed=3,
            monitor=CompatibilityMonitor(),
            config=FAST_SIM,
        )
        sim = cluster.sim
        grants = []

        def workload(node, start, ops):
            yield Timeout(sim, start)
            for i in range(ops):
                lock = LOCKS[(node + i) % len(LOCKS)]
                mode = (LockMode.W, LockMode.R, LockMode.IW)[i % 3]
                yield cluster.client(node).acquire(lock, mode)
                grants.append((sim.now, node, lock))
                yield Timeout(sim, 0.3)
                cluster.client(node).release(lock, mode)
                yield Timeout(sim, 0.2)

        processes = {
            # Node 1 (the leaver) finishes before its drain begins.
            node: Process(sim, workload(node, 0.1 * node, 4))
            for node in range(4)
        }

        def churn():
            yield Timeout(sim, 3.0)
            joiner = cluster.join_node()
            processes[joiner] = Process(sim, workload(joiner, 0.5, 4))
            yield Timeout(sim, 5.0)
            cluster.drain_node(1)

        Process(sim, churn())
        sim.run(until=30.0)

        for node, process in processes.items():
            assert process.error is None, f"node {node}: {process.error}"
        joiner = max(processes)
        assert any(g[1] == joiner for g in grants), "joiner never granted"
        assert len(grants) == 5 * 4
        epoch, members = _assert_view_agreement(cluster)
        assert joiner in members and 1 not in members
        assert epoch >= 2  # one join + one removal, at least
        events = [e["event"] for e in cluster.membership_log]
        assert events == ["join", "drain-begin", "drained"]
        _audit_ok(cluster)

    def test_drain_hands_off_token_custody(self):
        """Draining the token holder moves custody without a regrant
        epoch bump visible as a duplicate token."""

        cluster = ResilientSimCluster(
            3, seed=1, monitor=CompatibilityMonitor(), config=FAST_SIM
        )
        sim = cluster.sim

        def seed_custody():
            yield cluster.client(0).acquire("db", LockMode.W)
            yield Timeout(sim, 0.5)
            cluster.client(0).release("db", LockMode.W)

        Process(sim, seed_custody())
        sim.run(until=2.0)
        assert cluster.lockspaces[0].automaton("db").has_token
        cluster.drain_node(0)
        sim.run(until=15.0)
        assert 0 not in cluster.live_nodes()
        believers = [
            node
            for node in cluster.live_nodes()
            if cluster.lockspaces[node].automaton("db").has_token
        ]
        assert len(believers) == 1, believers
        assert (
            sum(
                cluster.managers[node].events["handoff-accept"]
                for node in cluster.live_nodes()
            )
            >= 1
        )
        _assert_view_agreement(cluster, expect_members=[1, 2])
        # And the lock still grants on the survivors.
        granted = []

        def late():
            yield cluster.client(1).acquire("db", LockMode.W)
            granted.append(True)
            cluster.client(1).release("db", LockMode.W)

        Process(sim, late())
        sim.run(until=25.0)
        assert granted
        _audit_ok(cluster)


class TestDecommission:
    def test_dead_holder_is_excised_and_waiters_unblock(self):
        cluster = ResilientSimCluster(
            4, seed=2, monitor=CompatibilityMonitor(), config=FAST_SIM
        )
        sim = cluster.sim
        granted = []

        def doomed():
            yield cluster.client(2).acquire("db", LockMode.W)
            yield Timeout(sim, 100.0)  # Never releases: dies holding W.

        def waiter():
            yield Timeout(sim, 1.0)
            yield cluster.client(3).acquire("db", LockMode.W)
            granted.append(sim.now)
            cluster.client(3).release("db", LockMode.W)

        Process(sim, doomed())
        Process(sim, waiter())
        sim.run(until=2.0)
        cluster.crash(2)
        sim.run(until=4.0)
        cluster.decommission_node(2)
        sim.run(until=30.0)

        assert granted, "waiter stranded behind the decommissioned holder"
        epoch, members = _assert_view_agreement(cluster)
        assert 2 not in members
        installs = [
            install
            for manager in cluster.managers.values()
            for _at, install in manager.membership.installs
            if 2 in install.removed
        ]
        assert installs and all(i.forced for i in installs)
        assert any(
            e["event"] == "decommissioned" for e in cluster.membership_log
        )
        _audit_ok(cluster)

    def test_decommission_requires_a_crashed_node(self):
        cluster = ResilientSimCluster(3, seed=0, config=FAST_SIM)
        with pytest.raises(ReproError):
            cluster.decommission_node(1)


class TestChurnPlans:
    """The named churn plans, end to end through the chaos harness."""

    @pytest.mark.parametrize(
        "plan", ["rolling-join", "graceful-drain", "kill-and-replace"]
    )
    @pytest.mark.parametrize("seed", [0, 1])
    def test_named_plan_converges(self, plan, seed):
        verdict = run_chaos(plan=plan, seed=seed)
        assert verdict.ok, verdict.to_json()
        membership = verdict.data["membership"]
        assert membership["epoch_agreement"], membership
        assert membership["membership_agreement"], membership
        assert not membership.get("churn_errors"), membership
        assert verdict.data["requests"]["outstanding"] == 0

    def test_join_settle_latency_is_measured(self):
        verdict = run_chaos(plan="rolling-join", seed=0)
        settles = verdict.data["membership"]["join_settle"]
        assert settles, "rolling-join must record join settle latencies"
        for entry in settles:
            assert entry["settle_latency"] >= 0.0

    def test_graceful_drain_measures_drain_latency(self):
        verdict = run_chaos(plan="graceful-drain", seed=0)
        drains = verdict.data["membership"]["drain_latency"]
        assert drains and all(d["drain_latency"] > 0.0 for d in drains)

    def test_durable_churn_converges(self):
        verdict = run_chaos(plan="graceful-drain", seed=0, durable=True)
        assert verdict.ok, verdict.to_json()
        assert verdict.data["membership"]["epoch_agreement"]

    def test_custom_churn_plan_with_all_three_actions(self):
        plan = FaultPlan(
            churn=(
                MembershipEvent(action=JOIN, at=4.0),
                MembershipEvent(action=DRAIN, node=1, at=8.0),
                MembershipEvent(action=DECOMMISSION, node=2, at=12.0),
            ),
            name="all-three",
            seed=0,
        )
        verdict = run_chaos(plan=plan, seed=0, nodes=5, duration=18.0)
        assert verdict.ok, verdict.to_json()
        membership = verdict.data["membership"]
        completed = [
            e["event"]
            for e in membership["events"]
            if e["event"] in ("join", "drained", "decommissioned")
        ]
        assert completed == ["join", "drained", "decommissioned"]
        assert membership["joined_nodes"] == [5]


class TestDurableJoinerRestart:
    def test_joiner_crash_restart_rejoins_with_its_locks(self):
        """A durable joiner that crashes after being admitted replays its
        journal, keeps its view, and the cluster still agrees."""

        cluster = ResilientSimCluster(
            3,
            seed=4,
            monitor=CompatibilityMonitor(),
            config=FAST_SIM,
            persistence=MemoryPersistence(),
        )
        sim = cluster.sim
        joiner = cluster.join_node()
        sim.run(until=2.0)

        def joiner_work():
            yield cluster.client(joiner).acquire("db.t1", LockMode.W)
            yield Timeout(sim, 50.0)  # Still holding when it crashes.

        Process(sim, joiner_work())
        sim.run(until=4.0)
        assert cluster.lockspaces[joiner].automaton("db.t1").has_token
        cluster.crash(joiner)
        sim.run(until=4.5)
        cluster.restart(joiner)
        sim.run(until=20.0)

        manager = cluster.managers[joiner]
        assert manager.tokens.report["locks_restored"] >= 1
        epoch, members = _assert_view_agreement(cluster)
        assert joiner in members
        # The restored-then-disowned hold must not strand later waiters.
        granted = []

        def late():
            yield cluster.client(0).acquire("db.t1", LockMode.W)
            granted.append(True)

        Process(sim, late())
        sim.run(until=40.0)
        assert granted
        _audit_ok(cluster)


class TestReclaimFanoutWarning:
    def test_partial_advertisement_flags_reclaim(self):
        """A hold advertised only to a minority (partition) that is then
        reclaimed after a crash-restart raises the documented
        ``reclaim-partial-fanout`` fault instead of reclaiming silently."""

        faults = []

        class Sink(ObsSink):
            def fault(self, kind, node):
                faults.append((kind, node))

        plan = FaultPlan(
            partitions=(
                Partition(
                    side_a=frozenset({0, 1}),
                    side_b=frozenset({2, 3, 4}),
                    start=0.2,
                    end=50.0,
                ),
            ),
            name="minority-advert",
        )
        cluster = ResilientSimCluster(
            5,
            plan=plan,
            seed=6,
            config=FAST_SIM,
            persistence=MemoryPersistence(),
            reclaim=True,
            obs=Sink(),
        )
        sim = cluster.sim

        def minority_holder():
            # Acquire only after the failure detector has suspected the
            # unreachable majority: the advert fanout counts unsuspected
            # peers, so an earlier acquire would journal a full fanout.
            # (The majority depends on nobody here, so its silence is
            # suspected one sweep's gap after the suspect timeout.)
            yield Timeout(sim, 3.0)
            yield cluster.client(0).acquire("db", LockMode.W)
            yield Timeout(sim, 50.0)

        Process(sim, minority_holder())
        # Enough heartbeats to advertise the lease — but only node 1 is
        # unsuspected, so the journaled fanout stays below quorum.
        sim.run(until=4.5)
        fanout = cluster.managers[0].leases.sessions.advert_fanout("db")
        assert fanout is not None and (fanout + 1) * 2 <= 5, fanout
        cluster.crash(0)
        sim.run(until=5.0)
        cluster.restart(0)
        sim.run(until=6.0)

        report = cluster.managers[0].tokens.report
        assert report is not None
        assert report["holds_reclaimed"] >= 1, report
        assert report["reclaim_partial_fanout"] >= 1, report
        assert ("reclaim-partial-fanout", 0) in faults


class TestViewSkewAudit:
    def _node(self, node_id, epoch, members):
        return NodeSnapshot(
            node=node_id,
            alive=True,
            locks=(),
            recovery=RecoveryHealth(
                boot=1, view_epoch=epoch, view_members=tuple(members)
            ),
        )

    def test_agreeing_views_are_clean(self):
        view = ClusterView(
            protocol="hierarchical",
            captured_at=1.0,
            nodes=(
                self._node(0, 3, (0, 1)),
                self._node(1, 3, (0, 1)),
            ),
        )
        report = audit_view(view, quiescent=True)
        assert report.ok
        assert not [f for f in report.findings if f.rule == "view-skew"]

    def test_epoch_skew_warns_live_and_fails_quiescent(self):
        view = ClusterView(
            protocol="hierarchical",
            captured_at=1.0,
            nodes=(
                self._node(0, 3, (0, 1)),
                self._node(1, 2, (0, 1, 2)),
            ),
        )
        live = audit_view(view, quiescent=False)
        assert live.ok  # In-flight installs legitimately lag an epoch.
        assert any(f.rule == "view-skew" for f in live.warnings())
        drained = audit_view(view, quiescent=True)
        assert not drained.ok
        assert any(f.rule == "view-skew" for f in drained.violations())

    def test_same_epoch_different_members_is_always_a_violation(self):
        view = ClusterView(
            protocol="hierarchical",
            captured_at=1.0,
            nodes=(
                self._node(0, 3, (0, 1)),
                self._node(1, 3, (0, 1, 2)),
            ),
        )
        report = audit_view(view, quiescent=False)
        assert not report.ok
        assert any(f.rule == "view-skew" for f in report.violations())


class TestLeaveConcurrentWithTokenTransfer:
    """The satellite interleaving requirement: a graceful leave racing a
    token transfer must preserve token uniqueness and strand nobody."""

    @pytest.mark.parametrize("drain_at", [1.5, 2.0, 2.5, 3.0])
    def test_token_uniqueness_survives_the_race(self, drain_at):
        cluster = ResilientSimCluster(
            3,
            seed=7,
            monitor=CompatibilityMonitor(),
            config=FAST_SIM,
        )
        sim = cluster.sim
        granted = []

        def holder():
            # Node 0 holds W and releases right around the drain window,
            # pushing a token transfer toward the queued contender.
            yield cluster.client(0).acquire("t", LockMode.W)
            yield Timeout(sim, max(0.0, 2.0 - sim.now))
            try:
                cluster.client(0).release("t", LockMode.W)
            except ReproError:
                pass  # Drain force-released the hold first.

        def contender():
            yield Timeout(sim, 1.0)
            yield cluster.client(1).acquire("t", LockMode.W)
            granted.append(sim.now)
            yield Timeout(sim, 0.3)
            cluster.client(1).release("t", LockMode.W)

        Process(sim, holder())
        Process(sim, contender())
        sim.schedule(drain_at, lambda: cluster.drain_node(0))
        sim.run(until=25.0)

        assert granted, f"contender stranded with drain at {drain_at}"
        assert 0 not in cluster.live_nodes()
        # Only look at instantiated automata: automaton() would lazily
        # create one on a bystander node and pollute the audit below.
        believers = [
            node
            for node in cluster.live_nodes()
            for automaton in cluster.lockspaces[node].automata()
            if automaton.lock_id == "t" and automaton.has_token
        ]
        assert len(believers) == 1, (
            f"drain at {drain_at}: token believers {believers}"
        )
        _assert_view_agreement(cluster, expect_members=[1, 2])
        _audit_ok(cluster)


@pytest.mark.parametrize("seed", [7, 12, 15, 23, 25, 38, 57])
def test_a_join_and_a_leave_over_one_view_both_install(seed):
    # A join (proposed by the sponsor) and a leave (proposed by the
    # leaver) over the same base view.  Each member promises one proposer
    # per epoch, and a proposer goes above every epoch it promised, so
    # the two cannot install different views under one epoch; the loser
    # is caught up and proposes its change again over the winner's view.
    # Before that rule these seeds (of 0-63) ended split at epoch 1:
    # (0, 2) at some nodes and (0, 1, 2, 3) at others.
    cluster = ResilientSimCluster(3, seed=seed)
    cluster.sim.run(until=2.0)
    cluster.join_node()
    cluster.drain_node(1)
    cluster.sim.run(until=80.0)
    _assert_view_agreement(cluster, expect_members=[0, 2, 3])


def test_a_stale_child_migration_does_not_pin_a_released_child():
    # Node 3 moved under node 0 and released there before the leaver's
    # migration of it, sent earlier, arrived: node 0 re-recorded node 3
    # at IR and queued every later request behind the phantom.
    verdict = run_chaos(plan="graceful-drain", seed=234)
    assert verdict.ok, verdict.data
