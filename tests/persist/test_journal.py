"""Journal recovery semantics on live protocol state.

What ``recover_node_state`` reconstructs must be the live automaton's
own state encoding — and decode back into an automaton reporting the
same ``snapshot()`` — through compaction, file damage and repeated
crashes.
"""

from __future__ import annotations

from repro.core.automaton import HierarchicalLockAutomaton
from repro.core.clock import LamportClock
from repro.core.modes import LockMode
from repro.faults.recovery import RecoveryConfig
from repro.faults.simcluster import ResilientSimCluster
from repro.persist import (
    FilePersistence,
    MemoryPersistence,
    NodeJournal,
    recover_node_state,
)
from repro.services.sessions import SESSIONS_JOURNAL_KEY
from repro.sim.engine import Process, Timeout
from repro.verification.invariants import CompatibilityMonitor

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


def _audit_view(lock_id, payload):
    """The seq-free ``snapshot()`` a recovered *payload* decodes to."""

    automaton = HierarchicalLockAutomaton.from_birth(
        0, lock_id, HierarchicalLockAutomaton.BLANK, None, LamportClock()
    )
    automaton.restore_flight_state(payload)
    return automaton.snapshot().to_payload()


def _run_workload(persistence, until: float = 10.0):
    """Drive a small cluster to a quiescent, journaled state."""

    cluster = ResilientSimCluster(
        3,
        seed=0,
        monitor=CompatibilityMonitor(),
        config=FAST_SIM,
        persistence=persistence,
    )
    sim = cluster.sim

    def worker(node, lock_id, mode):
        def body():
            yield Timeout(sim, 0.2 * node)
            for _ in range(3):
                yield cluster.client(node).acquire(lock_id, mode)
                yield Timeout(sim, 0.3)
                cluster.client(node).release(lock_id, mode)
                yield Timeout(sim, 0.2)

        return body

    Process(sim, worker(0, "lock-a", LockMode.W)())
    Process(sim, worker(1, "lock-a", LockMode.R)())
    Process(sim, worker(2, "lock-b", LockMode.IW)())
    sim.run(until=until)
    return cluster


class TestReplayEquivalence:
    def test_recovered_state_matches_live_snapshot(self):
        """Snapshot + WAL replay reconstructs exactly the live
        automaton's state encoding, and decodes to its ``snapshot()``."""

        persistence = MemoryPersistence()
        cluster = _run_workload(persistence)
        for node in range(3):
            state, report = recover_node_state(persistence.store_for(node))
            live = {
                automaton.lock_id: automaton
                for automaton in cluster.lockspaces[node].automata()
            }
            # Sessions ride the WAL under a reserved non-lock key.
            state.pop(SESSIONS_JOURNAL_KEY, None)
            # Every journaled lock the node still knows must agree.
            for lock_id, payload in state.items():
                assert lock_id in live
                assert payload == live[lock_id].persisted_state(), (
                    f"node {node} lock {lock_id} diverged"
                )
                assert _audit_view(lock_id, payload) == (
                    live[lock_id].snapshot().to_payload()
                )
            assert report["records_malformed"] == 0
            assert report["corrupt_skipped"] == 0
            assert report["torn_bytes"] == 0

    def test_compaction_preserves_the_recovered_state(self):
        persistence = MemoryPersistence()
        cluster = _run_workload(persistence)
        before = {
            node: recover_node_state(persistence.store_for(node))[0]
            for node in range(3)
        }
        for journal in cluster.journals.values():
            journal.compact()
        for node in range(3):
            state, report = recover_node_state(persistence.store_for(node))
            assert state == before[node]
            # Everything now lives in the snapshot; the log is empty.
            assert report["snapshot_loaded"] is True
            assert report["records_replayed"] == 0

    def test_memory_and_file_backends_recover_identical_state(self, tmp_path):
        # The global attachment-seq stream keeps counting across runs,
        # so absolute seqs differ; the seq-free protocol snapshots must
        # be identical between the two backends.
        mem = MemoryPersistence()
        disk = FilePersistence(str(tmp_path))
        _run_workload(mem)
        _run_workload(disk)
        for node in range(3):
            mem_state, _ = recover_node_state(mem.store_for(node))
            disk_state, _ = recover_node_state(disk.store_for(node))
            assert mem_state.pop(SESSIONS_JOURNAL_KEY, None) == (
                disk_state.pop(SESSIONS_JOURNAL_KEY, None)
            )
            assert {
                lock: _audit_view(lock, payload)
                for lock, payload in mem_state.items()
            } == {
                lock: _audit_view(lock, payload)
                for lock, payload in disk_state.items()
            }


class TestFileDamage:
    def test_torn_tail_is_truncated_and_reported(self, tmp_path):
        persistence = FilePersistence(str(tmp_path))
        _run_workload(persistence)
        persistence.close()
        store = persistence.store_for(0)
        with open(store.wal_path, "ab") as handle:
            handle.write(b"\x00\x00\x00\x30partial")  # Died mid-append.
        state, report = recover_node_state(store)
        assert report["torn_bytes"] > 0
        assert state  # The intact prefix still replays.
        # The load repaired the file: a second recovery is clean.
        state2, report2 = recover_node_state(store)
        assert report2["torn_bytes"] == 0
        assert state2 == state

    def test_corrupt_record_is_skipped_and_counted(self, tmp_path):
        persistence = FilePersistence(str(tmp_path))
        _run_workload(persistence)
        persistence.close()
        store = persistence.store_for(0)
        with open(store.wal_path, "rb") as handle:
            blob = bytearray(handle.read())
        assert len(blob) > 16
        blob[12] ^= 0xFF  # Flip a byte inside the first frame's payload.
        with open(store.wal_path, "wb") as handle:
            handle.write(bytes(blob))
        state, report = recover_node_state(store)
        assert report["corrupt_skipped"] == 1
        # Later records for the same lock overwrite the damaged one, so
        # replay still converges on a full state.
        assert state


class TestDoubleCrash:
    def test_crash_during_replay_recovers_identically(self):
        """A node that dies again mid-rejoin loses nothing: recovery is
        a pure read until the post-rejoin compaction, so a second replay
        sees the same snapshot + log and lands in the same state."""

        persistence = MemoryPersistence()
        _run_workload(persistence)
        store = persistence.store_for(0)
        first, first_report = recover_node_state(store)
        # The "crash mid-replay": nothing was compacted or appended, the
        # journal handle simply went away.  Recover again from scratch.
        second, second_report = recover_node_state(store)
        assert second == first
        assert second_report == first_report

    def test_crash_after_rejoin_compaction_still_matches(self):
        persistence = MemoryPersistence()
        cluster = _run_workload(persistence)
        store = persistence.store_for(0)
        before, _ = recover_node_state(store)
        # Simulate the restart path's post-rejoin re-seed: adopt the
        # state into a fresh journal under a bumped boot, compact, then
        # die again before any new protocol activity.
        journal = NodeJournal(store, 0, boot=1)
        journal.attach(cluster.lockspaces[0])
        journal.compact()
        journal.close()
        after, report = recover_node_state(store)
        assert report["snapshot_boot"] == 1
        # The fresh journal has no session source, so the re-seeded
        # snapshot carries lock state only.
        before.pop(SESSIONS_JOURNAL_KEY, None)
        for lock_id, payload in before.items():
            assert after[lock_id] == payload
