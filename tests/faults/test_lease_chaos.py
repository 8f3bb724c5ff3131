"""End-to-end lease scenarios through the chaos harness.

Two behaviours the lease/session layer exists for, checked on full
cluster runs:

* ``minority-partition`` — a never-healing partition strands a holder
  on the minority side; its leases expire, the majority revokes them
  Rule-1-safely, and the run still drains every majority-side request.
* durable ``token-crash`` with ``reclaim=True`` — a crashed node
  restarts from its journal and its surviving application session
  re-asserts the holds whose leases a pre-crash heartbeat advertised.

The regression seeds at the bottom pin three protocol bugs the lease
layer's altered timing originally exposed (ack-boot misattribution,
crossed parent/child lineage, missing old-parent notice on token
regeneration); each seed deadlocked or wedged before its fix.
"""

from __future__ import annotations

import pytest

from repro.faults.chaos import run_chaos
from repro.faults.recovery import RecoveryConfig

#: Fast heartbeats make lease advertisement near-certain between a grant
#: and the plan's crash, so reclaim is actually exercised (with the
#: default 1s interval most crashed holds die unadvertised and the run
#: degenerates to plain disownment).
FAST_HEARTBEATS = RecoveryConfig(heartbeat_interval=0.1)


class TestMinorityPartition:
    def test_minority_holder_is_expired_and_revoked(self):
        # Seed 0: the minority node holds a lease at the cut.  (Seed 1
        # until only live dependencies were beaten; 0, 4, 5, 10, 12,
        # 16, 18 and 19 qualify of seeds 0-19.  Seed 6 until requests
        # were re-sent at loss events instead of on a timer; 1, 4, 10,
        # 12 and 15 qualified of seeds 0-15.  Seed 7 until
        # dependency-scoped heartbeats moved every trajectory.  Seed 2
        # before heartbeats became datagrams.)
        verdict = run_chaos(plan="minority-partition", seed=0)
        data = verdict.data
        assert verdict.ok, data
        leases = data["leases"]
        # The stranded minority node fenced itself...
        assert leases["fenced_nodes"] == [4]
        # ...and the majority revoked its leases instead of waiting for
        # a heal that never comes.
        assert leases["revoked"] > 0
        assert leases["renewals_sent"] > 0
        # Its in-flight request is accounted to expiry, not lost.
        assert data["requests"]["abandoned_by_expiry"] == 1
        assert data["requests"]["outstanding"] == 0
        # The revocations left no lease-level debris behind.
        rules = {f["rule"] for f in data["cluster_audit"]["findings"]}
        assert "expired-but-held" not in rules
        assert "double-active-lease" not in rules

    @pytest.mark.parametrize("seed", [0, 1, 3, 4, 5])
    def test_partition_sweep_converges(self, seed):
        verdict = run_chaos(plan="minority-partition", seed=seed)
        assert verdict.ok, verdict.data
        assert verdict.data["leases"]["fenced_nodes"] == [4]
        assert verdict.data["requests"]["abandoned_by_expiry"] >= 1


class TestDurableReclaim:
    # Seeds where the crashed node holds an advertised lease when it
    # dies.  Picked at the commit whose per-tick promises are
    # acknowledged, not announced, which moved every trajectory: 3, 9,
    # 13, 14, 16, 24, 25, 29, 32, 33 and 35 qualify of seeds 0-39.  (2
    # and 11 before it, from the commit that beats only live
    # dependencies: 2, 3, 4, 5, 11, 12, 13, 14, 18, 21, 34 and 35; 0
    # and 10 before that, from the
    # commit that re-sends requests at loss events instead of on a
    # timer; 3 and 10 before that, from the commit that scoped
    # heartbeats to dependencies; 13 and 22 before that, from the
    # commit that moved session acks onto heartbeats; 10 and 22 before
    # that, from the one that made heartbeats and acks datagrams; 2 and
    # 13 before that.)
    @pytest.mark.parametrize("seed", [3, 9])
    def test_restarted_session_reowns_advertised_holds(self, seed):
        verdict = run_chaos(
            plan="token-crash",
            seed=seed,
            durable=True,
            reclaim=True,
            config=FAST_HEARTBEATS,
        )
        data = verdict.data
        assert verdict.ok, data
        assert data["durability"]["reclaim"] is True
        # The surviving session re-asserted at least one journaled hold
        # under a fresh lease instead of disowning it.
        assert data["leases"]["holds_reclaimed"] >= 1
        restarts = data["durability"]["restarts"]
        assert restarts and any(
            entry["rejoin"]["holds_reclaimed"] >= 1 for entry in restarts
        )

    def test_without_reclaim_restored_holds_are_disowned(self):
        verdict = run_chaos(
            plan="token-crash",
            seed=3,  # One of the seeds that reclaims above.
            durable=True,
            reclaim=False,
            config=FAST_HEARTBEATS,
        )
        assert verdict.ok, verdict.data
        assert verdict.data["leases"]["holds_reclaimed"] == 0


class TestLeaseTimingRegressions:
    """Seeds that deadlocked before this layer's protocol fixes."""

    @pytest.mark.parametrize("seed", [9, 11])
    def test_fast_heartbeat_reclaim_seeds_converge(self, seed):
        # Seed 9: a restarted node's SessionAcks echoed the acked
        # frame's boot, so peers' ack traffic read as restarts and a
        # live in-stream was wiped mid-delivery (channel deadlock); the
        # same seed then exposed a stale self-announce surviving token
        # regeneration.  Seed 11: a crossed parent/child announce built
        # a mutual-phantom cycle that pinned both owned modes forever.
        verdict = run_chaos(
            plan="token-crash",
            seed=seed,
            durable=True,
            reclaim=True,
            config=FAST_HEARTBEATS,
        )
        assert verdict.ok, verdict.data
        assert verdict.data["requests"]["outstanding"] == 0
