"""Fault plans: matching, determinism, and the loss-filter shim."""

from __future__ import annotations

import pytest

from repro.core.messages import (
    GrantMessage,
    RequestMessage,
    fresh_request_id,
)
from repro.core.modes import LockMode
from repro.faults.messages import SessionMessage
from repro.faults.plan import (
    DELAY,
    DROP,
    DUPLICATE,
    CrashEvent,
    FaultInjector,
    FaultPlan,
    FaultRule,
    NAMED_PLANS,
    Partition,
    fault_label,
    named_plan,
)


def _request(origin: int = 1) -> RequestMessage:
    return RequestMessage(
        lock_id="lock",
        sender=origin,
        origin=origin,
        mode=LockMode.R,
        request_id=fresh_request_id(0, origin),
    )


class TestFaultLabel:
    def test_core_messages_use_figure7_labels(self):
        assert fault_label(_request()) == "request"

    def test_session_frames_are_transparent(self):
        frame = SessionMessage(
            lock_id="lock", sender=1, seq=0, payload=_request(), boot=0
        )
        assert fault_label(frame) == "request"

    def test_unknown_types_fall_back_to_class_name(self):
        class ProbeMessage:
            pass

        assert fault_label(ProbeMessage()) == "probe"


class TestFaultRule:
    def test_unknown_action_rejected(self):
        with pytest.raises(ValueError, match="unknown fault action"):
            FaultRule(action="mangle")

    def test_probability_bounds_enforced(self):
        with pytest.raises(ValueError, match="probability"):
            FaultRule(action=DROP, probability=1.5)

    def test_time_window_is_half_open(self):
        rule = FaultRule(action=DROP, after=1.0, until=2.0)
        assert not rule.matches(0.5, 0, 1, _request())
        assert rule.matches(1.0, 0, 1, _request())
        assert not rule.matches(2.0, 0, 1, _request())

    def test_sender_dest_and_type_constraints(self):
        rule = FaultRule(
            action=DROP,
            message_types=frozenset({"grant"}),
            senders=frozenset({0}),
            dests=frozenset({1}),
        )
        grant = GrantMessage(
            lock_id="lock", sender=0, mode=LockMode.R,
            request_id=fresh_request_id(0, 1),
        )
        assert rule.matches(0.0, 0, 1, grant)
        assert not rule.matches(0.0, 2, 1, grant)
        assert not rule.matches(0.0, 0, 2, grant)
        assert not rule.matches(0.0, 0, 1, _request())


class TestCrashEvent:
    def test_restart_must_follow_crash(self):
        with pytest.raises(ValueError, match="restart_at"):
            CrashEvent(node=0, at=5.0, restart_at=5.0)


class TestPartition:
    def test_severs_both_directions_inside_window(self):
        cut = Partition(
            side_a=frozenset({0}), side_b=frozenset({1, 2}),
            start=1.0, end=2.0,
        )
        assert cut.severs(1.5, 0, 2)
        assert cut.severs(1.5, 1, 0)
        assert not cut.severs(1.5, 1, 2)  # same side
        assert not cut.severs(2.0, 0, 1)  # healed


class TestFaultInjector:
    def test_same_plan_same_decisions(self):
        plan = FaultPlan(
            rules=(
                FaultRule(action=DROP, probability=0.3),
                FaultRule(action=DUPLICATE, probability=0.3),
            ),
            seed=42,
        )
        traffic = [(t * 0.1, t % 3, (t + 1) % 3) for t in range(200)]

        def decisions():
            injector = FaultInjector(plan)
            return [
                injector.decide(now, s, d, _request()) for now, s, d in traffic
            ]

        assert decisions() == decisions()

    def test_max_count_caps_firings(self):
        plan = FaultPlan(
            rules=(FaultRule(action=DROP, max_count=3),), seed=0
        )
        injector = FaultInjector(plan)
        dropped = sum(
            injector.decide(0.0, 0, 1, _request()).drop for _ in range(10)
        )
        assert dropped == 3
        assert injector.dropped == 3

    def test_delay_and_duplicate_combine(self):
        plan = FaultPlan(
            rules=(
                FaultRule(action=DUPLICATE),
                FaultRule(action=DELAY, delay=0.5),
            ),
            seed=0,
        )
        decision = FaultInjector(plan).decide(0.0, 0, 1, _request())
        assert decision.copies == 2
        assert decision.extra_delay == pytest.approx(0.5)
        assert not decision.drop

    def test_partition_wins_over_rules(self):
        plan = FaultPlan(
            rules=(FaultRule(action=DUPLICATE),),
            partitions=(
                Partition(side_a=frozenset({0}), side_b=frozenset({1})),
            ),
            seed=0,
        )
        injector = FaultInjector(plan)
        assert injector.decide(0.0, 0, 1, _request()).drop
        assert injector.partitioned == 1

    def test_empty_plan_is_empty(self):
        assert FaultPlan().is_empty()
        assert not FaultPlan(rules=(FaultRule(action=DROP),)).is_empty()


class TestNamedPlans:
    def test_every_canned_plan_builds(self):
        for name in NAMED_PLANS:
            plan = named_plan(name, seed=7)
            assert plan.seed == 7
            assert plan.name == name

    def test_unknown_name_lists_known_ones(self):
        with pytest.raises(ValueError, match="smoke"):
            named_plan("nope")


class TestPredicateRule:
    def test_predicate_narrows_a_drop_rule(self):
        plan = FaultPlan(
            rules=(FaultRule(action=DROP, predicate=lambda s, d, m: d == 1),)
        )
        injector = FaultInjector(plan)
        assert injector.decide(0.0, 0, 1, _request()).drop
        assert not injector.decide(0.0, 0, 2, _request()).drop
