"""Acceptance tests for causal tracing (docs/TRACING.md §1 invariants).

Three end-to-end guarantees on a seeded Figure-5-style quick run:

1. tracing adds no messages — total hops across all chains equals the
   metrics layer's message count, so mean chain length *is* Figure 5's
   messages-per-request;
2. for every granted request, the critical-path segments sum exactly to
   the span-measured issue→grant latency;
3. a traced run is bit-identical to an untraced one (message count and
   final simulated clock), for all three protocols.
"""

from __future__ import annotations

import pytest

from repro.experiments.common import PROTOCOLS, run, run_hierarchical
from repro.obs.sink import FROZEN
from repro.obs.tracing import critical_path
from repro.workload.spec import WorkloadSpec

SPEC = WorkloadSpec(ops_per_node=15, seed=2003)
NODES = 8


@pytest.fixture(scope="module")
def fig5_run():
    return run_hierarchical(NODES, SPEC, observe=True)


class TestNoExtraMessages:
    def test_total_hops_equal_metrics_total(self, fig5_run):
        tracer = fig5_run.observer.tracer
        assert tracer.total_hops() == fig5_run.metrics.total_messages

    def test_mean_hops_matches_fig5_overhead(self, fig5_run):
        # The ISSUE acceptance bound is "within 1"; by construction the
        # two are the same events counted two ways, so assert exactly.
        tracer = fig5_run.observer.tracer
        requests = fig5_run.metrics.total_requests
        mean_hops = tracer.total_hops() / requests
        assert mean_hops == pytest.approx(fig5_run.message_overhead())
        assert abs(mean_hops - fig5_run.message_overhead()) < 1.0

    def test_every_chain_is_request_kind(self, fig5_run):
        # Fault-free runs have no recovery/aux chains.
        kinds = {c.kind for c in fig5_run.observer.tracer.chains()}
        assert kinds == {"request"}


class TestCriticalPathAccounting:
    def test_segments_sum_to_span_latency(self, fig5_run):
        spans = {
            span.key: span
            for span in fig5_run.observer.spans
            if span.key is not None
        }
        granted = [
            c for c in fig5_run.observer.tracer.chains()
            if c.granted_hop is not None
        ]
        assert granted, "no granted chains in the seeded run"
        checked = 0
        for chain in granted:
            span = spans.get(chain.span_key)
            if span is None or span.latency is None:
                continue
            frozen_at = span.time_of(FROZEN)
            result = critical_path(chain, frozen_at=frozen_at)
            total = sum(result["segments"].values())
            assert total == pytest.approx(span.latency, abs=1e-9), (
                f"chain {chain.trace_id}: segments {result['segments']} "
                f"sum to {total}, span latency {span.latency}"
            )
            checked += 1
        # Every granted chain must have joined a span: same key space.
        assert checked == len(granted)

    def test_granted_chains_cover_remote_grants(self, fig5_run):
        # Requests that crossed the wire and were granted show up as
        # finalized chains (locally satisfied requests send nothing and
        # have no chain — that is the design, not a gap).
        granted = [
            c for c in fig5_run.observer.tracer.chains()
            if c.granted_hop is not None
        ]
        assert len(granted) > NODES  # plenty of remote traffic at n=8


class TestZeroPerturbation:
    @pytest.mark.parametrize("protocol", sorted(PROTOCOLS))
    def test_traced_run_bit_identical(self, protocol):
        spec = WorkloadSpec(ops_per_node=10, seed=7)
        plain = run(PROTOCOLS[protocol], NODES, spec)
        traced = run(PROTOCOLS[protocol], NODES, spec, observe=True)
        assert traced.metrics.total_messages == \
            plain.metrics.total_messages
        assert traced.sim_time == plain.sim_time
        assert traced.observer.tracer.total_hops() == \
            plain.metrics.total_messages
