"""Live snapshots, the online invariant audit, and their zero-cost
contract: capturing a view never perturbs a run."""

from __future__ import annotations

import json

from repro.core.modes import LockMode
from repro.obs.live import (
    AuditReport,
    ClusterView,
    LiveMonitor,
    LockSnapshot,
    NodeSnapshot,
    QueueEntry,
    RecoveryHealth,
    audit_view,
)
from repro.sim.cluster import (
    SimHierarchicalCluster,
    SimNaimiCluster,
    SimRaymondCluster,
)
from repro.sim.engine import Timeout, run_processes
from repro.sim.rng import derive_rng
from repro.verification.invariants import FifoObserver

from tests.helpers import Pump

MODES = (LockMode.IR, LockMode.R, LockMode.IW, LockMode.W)


# ---------------------------------------------------------------------------
# Automaton snapshots.
# ---------------------------------------------------------------------------


class TestHierarchicalSnapshot:
    def test_token_node_and_copyset_child(self):
        pump = Pump(3)
        # Rule 2: the token moves to the first requester (node 1); a
        # second compatible R joins its copyset as a child.
        pump.request(1, LockMode.R)
        pump.request(2, LockMode.R)
        root = pump.automata[1].snapshot()
        assert root.believes_token
        assert root.parent is None
        assert root.children == ((2, "R"),)
        assert root.held == (("R", 1),)
        child = pump.automata[2].snapshot()
        assert child.parent == 1
        assert child.held == (("R", 1),)
        assert child.pending is None
        assert child.queue == ()

    def test_queued_and_pending_requests_visible(self):
        pump = Pump(3)
        pump.request(1, LockMode.W)
        pump.request(2, LockMode.W)  # conflicts: queues behind node 1
        queued = [
            entry
            for automaton in pump.automata.values()
            for entry in automaton.snapshot().queue
        ]
        assert [e.origin for e in queued] == [2]
        assert queued[0].mode == "W"
        assert pump.automata[2].snapshot().pending == "W"

    def test_snapshot_is_a_pure_read(self):
        pump = Pump(2)
        pump.request(1, LockMode.W)
        before = pump.automata[1].snapshot()
        for automaton in pump.automata.values():
            automaton.snapshot()
        assert pump.automata[1].snapshot() == before
        pump.release(1, LockMode.W)  # still releasable: state untouched


class TestBaselineSnapshots:
    def test_naimi_fault_free_run_audits_healthy(self):
        cluster = SimNaimiCluster(5, seed=3)

        def body(node):
            client = cluster.client(node)
            for _ in range(4):
                yield client.acquire("m")
                yield Timeout(cluster.sim, 0.01)
                client.release("m")

        run_processes(cluster.sim, [body(n) for n in range(5)])
        view = cluster.cluster_view()
        assert view.protocol == "naimi"
        assert len(view.token_believers("m")) == 1
        report = audit_view(view, quiescent=True)
        assert report.ok, report.verdict()
        assert report.findings == ()

    def test_raymond_fault_free_run_audits_healthy(self):
        cluster = SimRaymondCluster(5, seed=3)

        def body(node):
            client = cluster.client(node)
            for _ in range(4):
                yield client.acquire("m")
                yield Timeout(cluster.sim, 0.01)
                client.release("m")

        run_processes(cluster.sim, [body(n) for n in range(5)])
        view = cluster.cluster_view()
        assert view.protocol == "raymond"
        assert len(view.token_believers("m")) == 1
        report = audit_view(view, quiescent=True)
        assert report.ok, report.verdict()
        assert report.findings == ()


# ---------------------------------------------------------------------------
# The audit, over synthetic views.
# ---------------------------------------------------------------------------


def _view(*nodes, protocol="hierarchical", t=0.0):
    return ClusterView(protocol=protocol, captured_at=t, nodes=tuple(nodes))


def _node(node_id, *locks, alive=True):
    return NodeSnapshot(node=node_id, alive=alive, locks=tuple(locks))


class TestAuditRules:
    def test_healthy_view_has_no_findings(self):
        view = _view(
            _node(0, LockSnapshot("L", believes_token=True, parent=None)),
            _node(1, LockSnapshot("L", believes_token=False, parent=0)),
        )
        report = audit_view(view, quiescent=True)
        assert report.ok
        assert report.findings == ()
        assert report.locks_checked == 1
        assert report.nodes_checked == 2

    def test_token_split_is_always_a_violation(self):
        view = _view(
            _node(0, LockSnapshot("L", believes_token=True, parent=None)),
            _node(1, LockSnapshot("L", believes_token=True, parent=None)),
        )
        report = audit_view(view)  # not even quiescent
        assert not report.ok
        (finding,) = report.violations()
        assert finding.rule == "token-split"
        assert finding.nodes == (0, 1)

    def test_token_missing_escalates_when_quiescent(self):
        snap = LockSnapshot("L", believes_token=False, parent=None)
        view = _view(_node(0, snap))
        live = audit_view(view, quiescent=False)
        assert live.ok  # in flight: a transfer message may carry it
        assert [f.rule for f in live.warnings()] == ["token-missing"]
        drained = audit_view(view, quiescent=True)
        assert not drained.ok
        assert [f.rule for f in drained.violations()] == ["token-missing"]

    def test_active_copyset_cycle_is_reported_once(self):
        view = _view(
            _node(
                0,
                LockSnapshot(
                    "L", believes_token=False, parent=1, held=(("R", 1),)
                ),
            ),
            _node(1, LockSnapshot("L", believes_token=False, parent=0)),
            # A third node chaining into the cycle must not duplicate it.
            _node(2, LockSnapshot("L", believes_token=False, parent=1)),
            _node(3, LockSnapshot("L", believes_token=True, parent=None)),
        )
        report = audit_view(view, quiescent=True)
        cycles = [f for f in report.findings if f.rule == "copyset-cycle"]
        assert len(cycles) == 1
        assert cycles[0].severity == "violation"
        assert set(cycles[0].nodes) == {0, 1}

    def test_fully_idle_cycle_is_stale_residue_not_a_violation(self):
        # Post-partition-heal residue: idle nodes keep pre-heal parent
        # edges after the token was regenerated elsewhere.  Reported,
        # but as a warning even at quiescence.
        view = _view(
            _node(0, LockSnapshot("L", believes_token=False, parent=1)),
            _node(1, LockSnapshot("L", believes_token=False, parent=0)),
            _node(2, LockSnapshot("L", believes_token=True, parent=None)),
        )
        report = audit_view(view, quiescent=True)
        (cycle,) = [f for f in report.findings if f.rule == "copyset-cycle"]
        assert cycle.severity == "warning"
        assert "stale routing residue" in cycle.detail
        assert report.ok

    def test_dead_references_flagged(self):
        view = _view(
            _node(
                0,
                LockSnapshot(
                    "L",
                    believes_token=True,
                    parent=None,
                    children=((1, "R"),),
                    queue=(QueueEntry(origin=1, mode="W", key="L:1"),),
                ),
            ),
            _node(1, alive=False),
        )
        report = audit_view(view, quiescent=True)
        rules = [f.rule for f in report.findings]
        assert rules.count("dead-reference") == 2  # child edge + queue entry

    def test_rule1_incompatible_holds_is_a_violation(self):
        view = _view(
            _node(
                0,
                LockSnapshot(
                    "L", believes_token=True, parent=None, held=(("W", 1),),
                    children=((1, "W"),),
                ),
            ),
            _node(
                1,
                LockSnapshot(
                    "L", believes_token=False, parent=0, held=(("W", 1),)
                ),
            ),
        )
        report = audit_view(view)
        assert [f.rule for f in report.violations()] == ["rule1"]

    def test_one_node_may_stack_incompatible_holds(self):
        view = _view(
            _node(
                0,
                LockSnapshot(
                    "L",
                    believes_token=True,
                    parent=None,
                    held=(("R", 1), ("W", 1)),
                ),
            ),
        )
        assert audit_view(view).ok

    def test_starvation_watch_uses_latency_baseline(self):
        stale = QueueEntry(origin=1, mode="W", key="L:1", age=5.0)
        fresh = QueueEntry(origin=2, mode="W", key="L:2", age=0.2)
        view = _view(
            _node(
                0,
                LockSnapshot(
                    "L",
                    believes_token=True,
                    parent=None,
                    held=(("W", 1),),
                    queue=(stale, fresh),
                ),
            ),
            _node(1, LockSnapshot("L", believes_token=False, parent=0)),
            _node(2, LockSnapshot("L", believes_token=False, parent=0)),
        )
        report = audit_view(view, mean_grant_latency=0.1)
        starving = [f for f in report.findings if f.rule == "starvation"]
        assert len(starving) == 1
        assert starving[0].severity == "warning"
        assert "L:1" in starving[0].detail
        # No baseline, no watch.
        assert audit_view(view).findings == ()

    def test_confirmed_deadlocks_surface_as_violation(self):
        view = _view(
            _node(0, LockSnapshot("L", believes_token=True, parent=None)),
        )
        report = audit_view(view, deadlocks=2)
        (finding,) = report.violations()
        assert finding.rule == "deadlock"
        assert "2" in finding.detail


class TestPayloadRoundTrip:
    def test_view_and_report_survive_json(self):
        view = _view(
            _node(
                0,
                LockSnapshot(
                    "L",
                    believes_token=True,
                    parent=None,
                    children=((1, "R"),),
                    held=(("IW", 2),),
                    queue=(QueueEntry(origin=1, mode="W", key="0.3"),),
                    frozen=("W",),
                    token_epoch=2,
                ),
            ),
            NodeSnapshot(
                node=1,
                alive=True,
                locks=(LockSnapshot("L", believes_token=False, parent=0),),
                recovery=RecoveryHealth(
                    boot=1,
                    suspected=(2,),
                    live_peers=(0,),
                    channel_backlog=3,
                    channel_retransmits=4,
                    app_retransmits=5,
                    token_hints=(("L", 0, 2),),
                ),
            ),
            _node(2, alive=False),
            t=12.5,
        )
        decoded = ClusterView.from_payload(
            json.loads(json.dumps(view.to_payload()))
        )
        assert decoded == view
        report = audit_view(view, quiescent=True)
        decoded_report = AuditReport.from_payload(
            json.loads(json.dumps(report.to_payload()))
        )
        assert decoded_report == report


# ---------------------------------------------------------------------------
# The poller: queue ages across polls.
# ---------------------------------------------------------------------------


class TestLiveMonitorAges:
    def _source(self, state):
        def capture():
            return _view(
                _node(
                    0,
                    LockSnapshot(
                        "L",
                        believes_token=True,
                        parent=None,
                        held=(("W", 1),),
                        queue=tuple(state["queue"]),
                    ),
                ),
                t=state["now"],
            )

        return capture

    def test_entries_age_across_polls_and_prune_on_grant(self):
        entry = QueueEntry(origin=1, mode="W", key="L:1")
        state = {"now": 0.0, "queue": [entry]}
        monitor = LiveMonitor(self._source(state))
        view, _ = monitor.poll()
        assert view.nodes[0].locks[0].queue[0].age == 0.0
        state["now"] = 5.0
        view, _ = monitor.poll()
        assert view.nodes[0].locks[0].queue[0].age == 5.0
        # Granted: the entry vanishes and its first-seen slot is pruned,
        # so a later identical key starts aging from zero again.
        state["queue"] = []
        monitor.poll()
        state["now"] = 10.0
        state["queue"] = [entry]
        view, _ = monitor.poll()
        assert view.nodes[0].locks[0].queue[0].age == 0.0


# ---------------------------------------------------------------------------
# The zero-cost contract: monitoring never changes a run.
# ---------------------------------------------------------------------------


def _seeded_run(seed, monitored):
    fifo = FifoObserver()
    cluster = SimHierarchicalCluster(4, seed=seed, monitor=fifo)
    sim = cluster.sim
    reports = []
    if monitored:
        live = LiveMonitor(cluster.cluster_view)
        for tick in range(1, 30):
            sim.schedule(tick * 0.25, lambda: reports.append(live.poll()))

    def body(node):
        rng = derive_rng(seed, "live-bitident", node)
        client = cluster.client(node)
        for _ in range(6):
            lock_id = f"lock-{rng.randrange(2)}"
            mode = MODES[rng.randrange(len(MODES))]
            yield client.acquire(lock_id, mode)
            yield Timeout(sim, rng.uniform(0.01, 0.10))
            client.release(lock_id, mode)
            yield Timeout(sim, rng.uniform(0.01, 0.10))

    run_processes(sim, [body(n) for n in range(4)])
    grants = {
        lock_id: [(e.node, str(e.mode)) for e in events]
        for lock_id, events in fifo.grant_log.items()
    }
    return cluster.network.messages_by_label, grants, reports, cluster


class TestMonitoringIsFree:
    def test_message_counts_and_grant_order_bit_identical(self):
        bare_counts, bare_grants, _, _ = _seeded_run(2003, monitored=False)
        counts, grants, reports, cluster = _seeded_run(2003, monitored=True)
        assert reports, "the monitored run polled nothing"
        assert counts == bare_counts
        assert grants == bare_grants
        # And the run it watched ends healthy.
        final = audit_view(cluster.cluster_view(), quiescent=True)
        assert final.ok, final.verdict()

    def test_hierarchical_fault_free_run_audits_healthy(self):
        _, _, _, cluster = _seeded_run(7, monitored=False)
        report = audit_view(cluster.cluster_view(), quiescent=True)
        assert report.ok, report.verdict()
        assert report.findings == ()
