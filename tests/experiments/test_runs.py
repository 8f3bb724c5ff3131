"""End-to-end tests of the experiment runners (CI-scale sweeps).

These run the actual figure pipelines at small node counts with full
safety checking — every run is simultaneously a protocol soak test.
"""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError
from repro.experiments.ablations import (
    ablate_child_grants,
    ablate_freezing,
    ablate_local_queues,
    ablate_local_reentry,
)
from repro.experiments.common import (
    run_hierarchical,
    run_naimi_pure,
    run_naimi_same_work,
    sweep,
)
from repro.experiments.figures import (
    MESSAGE_TYPES,
    run_fig5,
    run_fig6,
    run_fig7,
    run_headline,
)
from repro.workload.spec import WorkloadSpec

QUICK = WorkloadSpec(ops_per_node=12, seed=21)
COUNTS = (2, 4, 8)


class TestRunners:
    def test_hierarchical_run_is_green(self):
        result = run_hierarchical(5, QUICK)
        assert result.metrics.operations == 5 * QUICK.ops_per_node
        assert result.message_overhead() > 0
        assert result.latency_factor() >= 0
        assert result.sim_time > 0

    def test_naimi_pure_run_is_green(self):
        result = run_naimi_pure(5, QUICK)
        assert result.metrics.total_requests == 5 * QUICK.ops_per_node

    def test_naimi_same_work_run_is_green(self):
        result = run_naimi_same_work(5, QUICK)
        assert result.metrics.operations == 5 * QUICK.ops_per_node

    def test_runs_are_deterministic(self):
        first = run_hierarchical(4, QUICK)
        second = run_hierarchical(4, QUICK)
        assert first.message_overhead() == second.message_overhead()
        assert first.latency_factor() == second.latency_factor()
        assert first.sim_time == second.sim_time

    def test_different_seeds_differ(self):
        other = WorkloadSpec(ops_per_node=12, seed=22)
        assert run_hierarchical(4, QUICK).sim_time != run_hierarchical(
            4, other
        ).sim_time

    def test_sweep_unknown_protocol_rejected(self):
        with pytest.raises(ConfigurationError):
            sweep("nope", (2,), QUICK)


class TestFig5Quick:
    def test_pipeline_and_shapes(self):
        result = run_fig5(COUNTS, QUICK)
        assert set(result.overhead) == {
            "hierarchical", "naimi-pure", "naimi-same-work"
        }
        for series in result.overhead.values():
            assert len(series) == len(COUNTS)
            assert all(v >= 0 for v in series)
        rendered = result.render()
        assert "Figure 5" in rendered
        # Same-work exceeds the hierarchical protocol at the largest n.
        assert (
            result.overhead["naimi-same-work"][-1]
            > result.overhead["hierarchical"][-1]
        )

    def test_checks_pass_at_ci_scale(self):
        result = run_fig5(COUNTS, QUICK)
        failures = [name for name, ok in result.checks() if not ok]
        assert not failures


class TestFig6Quick:
    def test_pipeline_and_shapes(self):
        result = run_fig6(COUNTS, QUICK)
        rendered = result.render()
        assert "Figure 6" in rendered
        ours = result.latency_factor["hierarchical"]
        same = result.latency_factor["naimi-same-work"]
        assert ours[-1] < same[-1]


class TestFig7Quick:
    def test_pipeline_and_breakdown(self):
        result = run_fig7(COUNTS, QUICK)
        assert set(result.breakdown) == set(MESSAGE_TYPES)
        total = sum(series[-1] for series in result.breakdown.values())
        direct = run_hierarchical(COUNTS[-1], QUICK).message_overhead()
        assert total == pytest.approx(direct, rel=0.01)
        assert "Figure 7" in result.render()

    def test_freeze_rate_is_small(self):
        result = run_fig7(COUNTS, QUICK)
        assert max(result.breakdown["freeze"]) < 1.0


class TestHeadlineQuick:
    def test_comparison_runs(self):
        result = run_headline(8, QUICK)
        assert result.ours.message_overhead() > 0
        assert "paper" in result.render()
        assert result.message_saving() == pytest.approx(
            1 - result.ours.message_overhead() / result.pure.message_overhead()
        )


class TestAblationsQuick:
    def test_freezing_ablation_increases_overtaking(self):
        result = ablate_freezing(num_nodes=8, ops_per_node=25, seed=31)
        assert result.ablated_value > 0
        assert result.regression > 1.0

    def test_local_queue_ablation_increases_messages(self):
        result = ablate_local_queues(num_nodes=8, ops_per_node=20, seed=32)
        assert result.ablated_value >= result.full_value * 0.95

    def test_child_grant_ablation_increases_messages(self):
        result = ablate_child_grants(num_nodes=8, ops_per_node=20, seed=33)
        assert result.ablated_value >= result.full_value * 0.9

    def test_local_reentry_ablation_increases_messages(self):
        result = ablate_local_reentry(num_nodes=8, ops_per_node=20, seed=34)
        assert result.ablated_value >= result.full_value * 0.95
        assert "Ablation" in result.render()
