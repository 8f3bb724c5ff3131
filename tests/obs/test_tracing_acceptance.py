"""Acceptance tests for causal tracing (docs/TRACING.md §1 invariants).

Three end-to-end guarantees on a seeded Figure-5-style quick run (the
first also on Raymond's algorithm, whose messages name no request, with
every chain granted and each privilege answering a request delivered
at its sender):

1. tracing adds no messages — total hops across all chains equals the
   metrics layer's message count, so mean chain length *is* Figure 5's
   messages-per-request;
2. for every granted request, the critical-path segments sum exactly to
   the span-measured issue→grant latency;
3. a traced run is bit-identical to an untraced one (message count and
   final simulated clock), for all three protocols.

A traced ``chaos --plan smoke --seed 0`` holds one known gap as a strict
xfail: a request forward's parent must be delivered at its sender.
"""

from __future__ import annotations

import pytest

from repro.experiments.common import PROTOCOLS, run, run_hierarchical
from repro.experiments.related_work import RAYMOND
from repro.faults.chaos import (
    CHAOS_OBS_MAX_BUCKETS,
    CHAOS_OBS_MAX_SPANS,
    run_chaos,
)
from repro.obs.collect import RunObserver
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


@pytest.fixture(scope="module")
def raymond_runs():
    spec = WorkloadSpec(ops_per_node=20, seed=3)
    return [run(RAYMOND, n, spec, observe=True) for n in (4, 8, 15)]


class TestRaymondChains:
    def test_every_request_chain_is_granted(self, raymond_runs):
        for result in raymond_runs:
            chains = result.observer.tracer.chains()
            assert chains
            assert {c.kind for c in chains} == {"request"}
            assert all(c.granted_hop is not None for c in chains)

    def test_total_hops_equal_metrics_total(self, raymond_runs):
        for result in raymond_runs:
            assert result.observer.tracer.total_hops() == \
                result.metrics.total_messages

    def test_privilege_answers_a_request_delivered_at_its_sender(
        self, raymond_runs
    ):
        privileges = 0
        for result in raymond_runs:
            for chain in result.observer.tracer.chains():
                index = chain.hop_index()
                for hop in chain.hops:
                    if hop.label != "token":
                        continue
                    parent = index[hop.parent]
                    assert parent.label == "request"
                    assert parent.dest == hop.sender
                    privileges += 1
        assert privileges > 0


@pytest.fixture(scope="module")
def smoke_chains():
    """The chains of ``chaos --plan smoke --seed 0 --trace-out``.

    Seed 0 shows a stray forward: picked at the commit whose per-tick
    promises are acknowledged, not announced (0, 16, 23, 25, 30, 34, 36,
    41, 48, 62, 63, 64, 69, 72, 74, 75 and 79 of seeds 0-79 do); 3
    before it, from the commit that beats only live dependencies (1, 3,
    4, 10, 65, 70 and 78); 14 before that, from the commit that re-sends
    requests at loss events instead of on a timer (14, 15, 18, 30, 33,
    40, 43, 51, 57 and 78); 0 before that."""

    observer = RunObserver(
        max_buckets=CHAOS_OBS_MAX_BUCKETS, max_spans=CHAOS_OBS_MAX_SPANS
    )
    run_chaos(plan="smoke", seed=0, obs=observer)
    return observer.tracer.chains()


@pytest.mark.xfail(
    strict=True,
    reason="MessageTracer._resolve rule 2 parents a message naming a "
    "request on the chain's latest request hop delivered anywhere (chain "
    "3.210: node 1's forward at 16.613 s hangs off 3->4); ROADMAP 12",
)
def test_a_forward_hangs_off_a_request_delivered_at_its_sender(smoke_chains):
    """A request forward (a first send by a node other than the origin)
    is caused by the request its sender received.  A retransmission's
    parent is its own earlier copy, and an origin's send follows from
    its issue or its re-homing, so neither is a forward."""

    forwards, strays = 0, []
    for chain in smoke_chains:
        index = chain.hop_index()
        for hop in chain.hops:
            if (
                hop.label != "request"
                or hop.kind != "send"
                or hop.sender == chain.origin
                or hop.parent == 0
            ):
                continue
            forwards += 1
            parent = index[hop.parent]
            if parent.dest != hop.sender:
                strays.append((chain.trace_id, hop.sender, hop.sent_at))
    assert forwards > 0 and strays == []
