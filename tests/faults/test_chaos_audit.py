"""The post-drain cluster audit folded into chaos verdicts.

Fault-free (and crash-free) plans must converge to a healthy audit;
token-crash plans surface the documented blank-rejoin gap as *expected*
findings under a named gap, never as unexplained regressions.
"""

from __future__ import annotations

from repro.faults.chaos import run_chaos
from repro.obs.live import BLANK_REJOIN_GAP, BLANK_REJOIN_RULES


def _audit(verdict):
    return verdict.data["cluster_audit"]


class TestFaultFreeAudit:
    def test_clean_plan_converges_to_healthy_audit(self):
        verdict = run_chaos(
            plan="none", seed=7, nodes=5, duration=20.0, locks=3
        )
        audit = _audit(verdict)
        assert verdict.ok
        assert audit["healthy"] is True
        assert audit["quiescent"] is True
        assert audit["findings"] == []
        assert audit["expected_findings"] == []
        assert audit["known_gaps"] == []
        assert audit["locks_checked"] == 3
        assert audit["nodes_checked"] == 5

    def test_lossy_but_crash_free_plan_still_healthy(self):
        verdict = run_chaos(
            plan="drop1", seed=7, nodes=5, duration=20.0, locks=3
        )
        audit = _audit(verdict)
        assert verdict.ok
        assert audit["healthy"] is True
        assert audit["findings"] == []
        # No crash happened, so nothing may hide behind the known gap.
        assert audit["expected_findings"] == []


class TestTokenCrashGap:
    def test_blank_rejoin_surfaces_as_named_expected_finding(self):
        # Seed 18 is pinned empirically: the crashed token home restarts
        # blank mid-run and its forgotten requests stay outstanding.
        # (Seed 1 until issue 24 made heartbeats and acks datagrams and
        # moved every trajectory; of seeds 0-23 only 18 meets the gap
        # in this 20 s run.)
        verdict = run_chaos(
            plan="token-crash", seed=18, nodes=5, duration=20.0, locks=3
        )
        audit = _audit(verdict)
        # The gap is real: requests the crashed token node forgot stay
        # outstanding, so the overall verdict fails...
        assert not verdict.ok
        assert verdict.data["requests"]["outstanding"] > 0
        assert verdict.data["invariants"]["rule1_violations"] == 0
        # ...but the audit explains every finding as the documented
        # blank-rejoin gap — nothing unexpected.
        assert audit["healthy"] is True
        assert audit["findings"] == []
        assert audit["expected_findings"]
        assert audit["known_gaps"] == [BLANK_REJOIN_GAP]
        for finding in audit["expected_findings"]:
            assert finding["rule"] in BLANK_REJOIN_RULES
            assert finding["expected"] == BLANK_REJOIN_GAP
