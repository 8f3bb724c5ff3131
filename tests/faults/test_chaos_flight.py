"""Flight recording wired into the chaos harness."""

from __future__ import annotations

import os

from repro.core.modes import LockMode
from repro.faults.chaos import run_chaos
from repro.faults.plan import CrashEvent, FaultPlan
from repro.obs.flightrec import NodeReplayer, bisect_timeline, load_dump
from repro.sim.engine import Process, Timeout


class TestChaosFlightRecording:
    def test_clean_run_dumps_and_replays_clean(self, tmp_path):
        # The caller asked for the rings: a passing run dumps them too.
        verdict = run_chaos(
            plan="token-crash",
            seed=3,
            nodes=4,
            duration=8.0,
            flight_dir=str(tmp_path),
        )
        assert verdict.ok
        flight = verdict.data["flight"]
        assert flight["recorded"] is True
        assert all(int(seq) > 0 for seq in flight["last_seq"].values())
        assert os.listdir(tmp_path) == ["token-crash-seed3.flight"]
        dump = load_dump(flight["dump"])
        assert dump.meta["ok"] is True
        findings = []
        for node in dump.nodes():
            findings.extend(NodeReplayer.from_dump(dump, node).verify())
        assert findings == []

    def test_no_flight_dir_means_no_flight_section(self):
        verdict = run_chaos(plan="smoke", seed=1, nodes=3, duration=4.0)
        assert "flight" not in verdict.data

    def test_failing_run_dumps_and_replay_verifies(self, tmp_path):
        # Crash a majority permanently AND stretch leases past the run:
        # the survivors can neither reach quorum to regenerate lost
        # tokens nor self-fence their way out, so their requests stay
        # outstanding and the verdict fails — the dump-on-failure path.
        from repro.faults.recovery import RecoveryConfig

        plan = FaultPlan(
            crashes=(
                CrashEvent(node=0, at=2.0),
                CrashEvent(node=1, at=2.0),
                CrashEvent(node=2, at=2.0),
            ),
            name="majority-crash",
        )
        verdict = run_chaos(
            plan=plan,
            seed=5,
            nodes=5,
            duration=6.0,
            grace=6.0,
            config=RecoveryConfig(lease_duration=1e6),
            flight_dir=str(tmp_path),
        )
        assert not verdict.ok
        flight = verdict.data["flight"]
        dump_path = flight["dump"]
        assert os.path.exists(dump_path)
        assert os.path.basename(dump_path) == "majority-crash-seed5.flight"
        dump = load_dump(dump_path)
        assert dump.meta["ok"] is False
        assert dump.meta["plan"] == "majority-crash"
        # Crash markers recorded for the dead nodes.
        for node in (0, 1, 2):
            kinds = [e["kind"] for e in dump.events[node]]
            assert "crash" in kinds
        # Recorded history from a *failing* chaos run still replays
        # deterministically — a failure is explained, not garbled.
        findings = []
        for node in dump.nodes():
            findings.extend(NodeReplayer.from_dump(dump, node).verify())
        assert findings == []

    def test_bisect_on_failing_crash_dump(self, tmp_path):
        """The acceptance path: bisect a real failing chaos dump.

        The audited rule is injected into recorded history (a forged
        token regeneration on a lock whose token is alive) and bisect
        must name exactly that event's node and seq.
        """

        from repro.faults.recovery import RecoveryConfig

        plan = FaultPlan(
            crashes=(
                CrashEvent(node=0, at=2.0),
                CrashEvent(node=1, at=2.0),
                CrashEvent(node=2, at=2.0),
            ),
            name="lease-crash",
        )
        # Seed 11 is pinned empirically: at the crash every token is on
        # a survivor, so the first lock found below is a live one.
        # Picked at the commit that re-sends requests at loss events
        # instead of on a timer (11, 19, 21, 43, 44, 48, 50, 51 and 60
        # qualify of seeds 0-63); 4 before it, from the commit that
        # moved session acks onto heartbeats; 37 before that, from the
        # one that made heartbeats and acks datagrams; 9 before that.
        verdict = run_chaos(
            plan=plan,
            seed=11,
            nodes=5,
            duration=6.0,
            grace=6.0,
            config=RecoveryConfig(lease_duration=1e6),
            flight_dir=str(tmp_path),
        )
        assert not verdict.ok
        flight = verdict.data["flight"]
        assert "dump" in flight
        dump = load_dump(flight["dump"])
        lock_id = None
        holder = None
        # Find a lock some surviving node believes it holds the token
        # for, and a different *surviving* node to forge a duplicate
        # token on (a crashed node's state is excluded from the audited
        # cluster view, so forging there would never fire the rule).
        crashed = {
            node
            for node in dump.nodes()
            if any(e["kind"] == "crash" for e in dump.events[node])
        }
        token_by_lock = {}
        for node in dump.nodes():
            state = NodeReplayer.from_dump(dump, node).state_at(1 << 60)
            for lock, lock_state in state["locks"]:
                if lock_state.get("token"):
                    token_by_lock[lock] = node
        for lock, node in token_by_lock.items():
            lock_id, holder = lock, node
            break
        assert lock_id is not None
        victim = next(
            n for n in dump.nodes() if n != holder and n not in crashed
        )
        events = dump.events[victim]
        last = max(e["seq"] for e in events)
        latest_t = max(
            float(e.get("t", 0.0))
            for node_events in dump.events.values()
            for e in node_events
        )
        events.append(
            {
                "seq": last + 1,
                "t": latest_t + 1.0,
                "kind": "op",
                "lock": lock_id,
                "op": "regenerate_token",
                "args": {"epoch": 999},
                "serials": [1 << 30],
            }
        )
        result = bisect_timeline(dump, "token-split", lock=str(lock_id))
        assert result["fires"]
        assert result["node"] == victim
        assert result["seq"] == last + 1


class TestRecordingIsBitIdentical:
    def test_message_counts_and_grant_order_unchanged(self):
        """Recording must not perturb the run (acceptance criterion)."""

        from repro.core.automaton import ProtocolOptions
        from repro.obs.flightrec import attach_recorders
        from repro.sim.cluster import SimHierarchicalCluster
        from repro.sim.engine import run_processes

        from repro.verification.invariants import FifoObserver

        def drive(record):
            fifo = FifoObserver()
            cluster = SimHierarchicalCluster(
                4,
                seed=17,
                monitor=fifo,
                options=ProtocolOptions(recovery=True),
            )
            if record:
                attach_recorders(cluster, checkpoint_every=8)

            def body(node):
                client = cluster.client(node)
                for step in range(6):
                    yield client.acquire("t", LockMode.IR)
                    yield client.acquire(
                        f"r{(node + step) % 3}", LockMode.W
                    )
                    yield Timeout(cluster.sim, 0.002)
                    client.release(f"r{(node + step) % 3}", LockMode.W)
                    client.release("t", LockMode.IR)
                    yield Timeout(cluster.sim, 0.001)

            run_processes(cluster.sim, [body(n) for n in range(4)])
            grants = {
                lock_id: [(e.node, str(e.mode)) for e in events]
                for lock_id, events in fifo.grant_log.items()
            }
            return (
                cluster.network.messages_by_label, grants, cluster.sim.now
            )

        assert drive(record=False) == drive(record=True)
