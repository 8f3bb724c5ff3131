"""Durable restart: crashed nodes come back with their locks.

The acceptance surface of ``repro.persist`` at cluster level: durable
token-crash chaos must converge with *zero* audit findings, a
restored token holder must keep custody when uncontested and demote
cleanly when the survivors regenerated past it, and a fault-free run
with durability off must stay bit-identical run to run.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.core.lockspace import LockSpace
from repro.core.modes import LockMode
from repro.faults.chaos import run_chaos
from repro.faults.host import RESILIENT_OPTIONS
from repro.faults.plan import CrashEvent, FaultPlan
from repro.faults.simcluster import ResilientSimCluster
from repro.persist import MemoryPersistence, recover_node_state
from repro.sim.engine import Process, Timeout
from repro.verification.invariants import CompatibilityMonitor
from tests.helpers import FAST_SIM

#: The shared sim timing, with restored copyset entries kept provisional
#: for longer: a live child re-confirms its entry by a release that rides
#: a FIFO link, so one slow draw delays it, and an entry that expires
#: first is dropped while the child may still hold a mode under it.
FAST_SIM = dataclasses.replace(FAST_SIM, rejoin_settle=2.0)


class TestDurableChaosVerdicts:
    def test_token_crash_with_durability_is_clean(self):
        """The durable acceptance gate: no findings, and every restored
        record round-trips."""

        for seed in (0, 1):
            verdict = run_chaos(plan="token-crash", seed=seed, durable=True)
            audit = verdict.data["cluster_audit"]
            assert verdict.ok, verdict.to_json()
            assert audit["findings"] == []
            durability = verdict.data["durability"]
            assert durability["backend"] == "memory"
            assert durability["restarts"], "the plan restarts the token node"
            for entry in durability["restarts"]:
                assert entry["rejoin"]["snapshot_mismatches"] == 0

    def test_durable_verdict_carries_wal_statistics(self):
        verdict = run_chaos(plan="token-crash", seed=0, durable=True)
        wal = verdict.data["durability"]["wal"]
        assert wal["appends"] > 0
        assert wal["snapshots"] > 0

    def test_volatile_and_durable_are_clean(self):
        """The journal restores holds and sessions, not Rule 1: a blank
        restart converges clean too (seed 1 once granted IW beside W)."""

        for durable in (False, True):
            verdict = run_chaos(plan="token-crash", seed=1, durable=durable)
            assert verdict.ok, verdict.to_json()
            assert verdict.data["invariants"]["rule1_violations"] == 0
            assert verdict.data["cluster_audit"]["findings"] == []


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_journal_is_write_ahead_of_every_input(seed):
    """Every 50 ms of virtual time (so between two inputs), replaying a
    live node's journal gives every automaton's live durable state:
    nothing an input changed is still unwritten when the sends it caused
    leave.  A lock the journal has no record of is in its birth state."""

    cluster = ResilientSimCluster(
        4,
        plan=FaultPlan(crashes=(CrashEvent(node=0, at=4.0),), seed=seed),
        seed=seed,
        monitor=CompatibilityMonitor(),
        config=FAST_SIM,
        persistence=MemoryPersistence(),
    )
    sim = cluster.sim
    stale = []

    def client(node):
        outer = LockMode.R if node % 2 else LockMode.W
        for _ in range(6):
            yield cluster.client(node).acquire("a", outer)
            yield cluster.client(node).acquire("b", LockMode.W)
            yield Timeout(sim, 0.1)
            cluster.client(node).release("b", LockMode.W)
            cluster.client(node).release("a", outer)
            yield Timeout(sim, 0.05 * node)

    def audit():
        while True:
            yield Timeout(sim, 0.05)
            for node in cluster.live_nodes():
                journaled, _report = recover_node_state(
                    cluster.journals[node].store
                )
                birth = LockSpace(node, options=RESILIENT_OPTIONS)
                for automaton in cluster.lockspaces[node].automata():
                    lock = automaton.lock_id
                    expected = journaled.get(lock)
                    if expected is None:
                        expected = birth.automaton(lock).persisted_state()
                    live = automaton.persisted_state()
                    if live != expected:
                        keys = [k for k in live if live[k] != expected.get(k)]
                        stale.append((round(sim.now, 2), node, lock, keys))

    for node in (1, 2, 3):
        Process(sim, client(node))
    Process(sim, audit())
    sim.run(until=12.0)
    assert cluster.monitor.grants >= 3 * 6
    assert stale == []


class TestCustodyHandshake:
    def _cluster(self):
        persistence = MemoryPersistence()
        cluster = ResilientSimCluster(
            3,
            seed=0,
            monitor=CompatibilityMonitor(),
            config=FAST_SIM,
            persistence=persistence,
        )
        return cluster

    def test_uncontested_restart_confirms_custody(self):
        """Sole token holder crashes and returns before anyone needs the
        lock: it keeps the token under its restored epoch."""

        cluster = self._cluster()
        sim = cluster.sim

        def body():
            yield cluster.client(0).acquire("lock-a", LockMode.W)
            yield Timeout(sim, 1.0)

        Process(sim, body())
        sim.run(until=2.0)
        pre = cluster.lockspaces[0].automaton("lock-a")
        assert pre.has_token
        pre_epoch = pre.token_epoch
        cluster.crash(0)
        sim.run(until=2.4)  # Back before the suspect timeout fires.
        cluster.restart(0)
        sim.run(until=8.0)
        manager = cluster.managers[0]
        automaton = cluster.lockspaces[0].automaton("lock-a")
        assert manager.events["custody-confirmed"] >= 1
        assert manager.events["custody-fenced"] == 0
        assert automaton.has_token
        assert not automaton.custody_pending
        assert automaton.token_epoch == pre_epoch
        # The restored-but-disowned hold was released during rejoin.
        assert manager.tokens.report["holds_released"] == 1
        # And the lock still works for everyone.
        granted = []

        def late():
            yield cluster.client(1).acquire("lock-a", LockMode.W)
            granted.append(True)

        Process(sim, late())
        sim.run(until=12.0)
        assert granted

    def test_contested_restart_fences_custody(self):
        """Survivors regenerated while the holder was down: the restored
        token demotes under the new lineage — one believer only."""

        cluster = self._cluster()
        sim = cluster.sim
        granted = []

        def holder():
            yield cluster.client(0).acquire("lock-a", LockMode.W)
            yield Timeout(sim, 30.0)

        def contender():
            yield Timeout(sim, 3.0)
            yield cluster.client(1).acquire("lock-a", LockMode.W)
            granted.append(True)

        Process(sim, holder())
        Process(sim, contender())
        sim.run(until=2.0)
        cluster.crash(0)
        # Suspect, wait out the dead holder's lease (deadline + revoke
        # margin), probe, regenerate, grant.
        sim.run(until=13.0)
        assert granted, "survivors must regenerate and grant"
        cluster.restart(0)
        sim.run(until=23.0)
        manager = cluster.managers[0]
        automaton = cluster.lockspaces[0].automaton("lock-a")
        assert manager.events["custody-fenced"] >= 1
        assert not automaton.has_token
        assert not automaton.custody_pending
        believers = [
            node
            for node in range(3)
            if cluster.lockspaces[node].automaton("lock-a").has_token
        ]
        assert len(believers) == 1
        assert believers[0] != 0


    def test_undecodable_record_is_counted_not_fatal(self):
        """A WAL record lacking a mandatory state key (here: the record
        shape of before the single state codec) must not be defaulted
        into a tokenless idle automaton, nor crash the restart: its lock
        is counted in the rejoin report and rejoins blank."""

        cluster = self._cluster()
        sim = cluster.sim

        def body():
            yield cluster.client(0).acquire("lock-a", LockMode.W)
            yield cluster.client(0).acquire("lock-b", LockMode.W)
            yield Timeout(sim, 1.0)

        Process(sim, body())
        sim.run(until=2.0)
        cluster.crash(0)
        cluster.persistence.store_for(0).append(
            {
                "v": 1,
                "lock": "lock-b",
                "kind": "hold-granted",
                "state": {"snapshot": {"token": True}, "attach_seq": 0},
            }
        )
        sim.run(until=2.4)
        cluster.restart(0)
        report = cluster.managers[0].tokens.report
        assert report["snapshot_mismatches"] == 1
        assert report["locks_restored"] == 1
        assert report["custody"] == ["lock-a"]
        sim.run(until=8.0)
        assert cluster.lockspaces[0].automaton("lock-a").has_token


class TestDurabilityOffIdentity:
    def test_fault_free_runs_are_bit_identical(self):
        """With durability off nothing on the hot path may drift: two
        identical invocations produce byte-identical verdicts."""

        first = run_chaos(plan="none", seed=3, duration=10.0)
        second = run_chaos(plan="none", seed=3, duration=10.0)
        assert first.to_json() == second.to_json()
        assert first.data["durable"] is False
        assert "durability" not in first.data

    def test_journaling_never_alters_protocol_outcomes(self):
        """Durability is pure observation: a fault-free durable run
        grants the same requests over the same messages."""

        plain = run_chaos(plan="none", seed=3, duration=10.0)
        durable = run_chaos(plan="none", seed=3, duration=10.0, durable=True)
        assert durable.ok
        assert durable.data["requests"] == plain.data["requests"]
        assert durable.data["latency"] == plain.data["latency"]
        assert (
            durable.data["faults"]["messages_sent"]
            == plain.data["faults"]["messages_sent"]
        )
