"""Shared experiment machinery: run one configuration, collect metrics.

Every experiment boils down to: build a cluster of ``n`` nodes, spawn
its client processes, run to completion with a safety monitor attached,
check quiescence, and return the :class:`~repro.metrics.MetricsCollector`.
:func:`run` is that body, written once; what differs between the paper's
three curves, the ablations and the related-work studies is a
:class:`Protocol` row.  :func:`sweep` is the paper's evaluation itself —
every protocol at every node count — simulated once per process however
many figures read it.
"""

from __future__ import annotations

import dataclasses
import functools
from typing import Callable, Dict, List, Optional, Sequence

from ..core.lockspace import hashed_token_home
from ..errors import ConfigurationError
from ..metrics import MetricsCollector
from ..obs.collect import RunObserver
from ..obs.export import write_run
from ..sim.cluster import SimHierarchicalCluster, SimNaimiCluster
from ..sim.engine import Simulator, run_processes
from ..sim.rng import Exponential, derive_rng
from ..verification.invariants import (
    CompatibilityMonitor,
    MutualExclusionMonitor,
)
from ..workload.airline import (
    hierarchical_client,
    naimi_pure_client,
    naimi_same_work_client,
)
from ..workload.spec import WorkloadSpec

#: Hard ceiling on simulator callbacks; a run that needs more is livelocked.
DEFAULT_EVENT_BUDGET = 30_000_000


# Compared and hashed by identity: a result is one simulation, and the
# sweep hands the same object to every figure that reads it.
@dataclasses.dataclass(eq=False)
class RunResult:
    """Outcome of one simulated run."""

    protocol: str
    num_nodes: int
    spec: WorkloadSpec
    metrics: MetricsCollector
    sim_time: float
    events: int
    #: Attached when the run was started with ``observe=True``.
    observer: Optional[RunObserver] = None

    def message_overhead(self) -> float:
        """Messages per lock request (Figure 5 y-axis)."""

        return self.metrics.message_overhead()

    def latency_factor(self) -> float:
        """Mean request latency over mean network latency (Figure 6)."""

        return self.metrics.latency_factor(self.spec.latency_mean)

    def trace_meta(self) -> Dict[str, object]:
        """Run-section metadata for the observability JSONL export."""

        return {
            "label": self.protocol,
            "protocol": self.protocol,
            "nodes": self.num_nodes,
            "ops": self.spec.ops_per_node,
            "seed": self.spec.seed,
            "sim_time": round(self.sim_time, 6),
            "events": self.events,
            # The metrics layer's request count is the denominator of
            # every per-request figure (DESIGN.md §6); record it so
            # `repro report` agrees with MetricsCollector exactly.
            "requests": self.metrics.total_requests,
            "messages": self.metrics.total_messages,
        }


def write_run_traces(path: str, results: Sequence[RunResult]) -> int:
    """Write every observed run in *results* to *path*; returns lines."""

    lines = 0
    with open(path, "w", encoding="utf-8") as stream:
        for result in results:
            if result.observer is not None:
                lines += write_run(
                    stream, result.observer, result.trace_meta()
                )
    return lines


@dataclasses.dataclass(frozen=True)
class Protocol:
    """What differs between the kinds of run :func:`run` drives."""

    #: Label of the runs (:attr:`RunResult.protocol`, the trace sections).
    name: str
    cluster: type
    #: Safety monitor class attached to every grant and release.
    monitor: type
    #: ``(sim, cluster, spec, metrics)`` → the client bodies to drive.
    clients: Callable
    #: Node count → initial token placement; ``None`` leaves the
    #: cluster's own (every token at node 0, Raymond's tree root).
    token_home: Optional[Callable] = hashed_token_home


def airline(client: Callable, stream: str) -> Callable:
    """One airline *client* per node, each on its own RNG stream.

    *stream* labels the per-node derivation ``(seed, stream, n, node)``;
    it is part of every draw, hence of every digit a figure prints.
    """

    def clients(sim, cluster, spec, metrics) -> List:
        num_nodes = cluster.num_nodes
        entries = spec.entry_count(num_nodes)
        return [
            client(
                sim,
                cluster.client(node),
                spec,
                entries,
                derive_rng(spec.seed, stream, num_nodes, node),
                metrics=metrics,
            )
            for node in range(num_nodes)
        ]

    return clients


#: The paper's three curves, in the figures' legend order.
PROTOCOLS: Dict[str, Protocol] = {
    row.name: row
    for row in (
        Protocol(
            "hierarchical", SimHierarchicalCluster, CompatibilityMonitor,
            airline(hierarchical_client, "hier"),
        ),
        Protocol(
            "naimi-pure", SimNaimiCluster, MutualExclusionMonitor,
            airline(naimi_pure_client, "naimi-pure"),
        ),
        Protocol(
            "naimi-same-work", SimNaimiCluster, MutualExclusionMonitor,
            airline(naimi_same_work_client, "naimi-same-work"),
        ),
    )
}


def run(
    protocol: Protocol,
    num_nodes: int,
    spec: WorkloadSpec,
    check_invariants: bool = True,
    event_budget: int = DEFAULT_EVENT_BUDGET,
    observe: bool = False,
    **cluster_options: object,
) -> RunResult:
    """Run *protocol*'s clients on a fresh cluster of *num_nodes*.

    *cluster_options* reach the cluster constructor (``options=`` for an
    ablation, ``topology=`` for Raymond).  Fails naming the client that
    crashed or never finished; with *check_invariants* the monitor must
    end with nothing held and every lock structurally quiescent.
    """

    sim = Simulator()
    metrics = MetricsCollector()
    observer = RunObserver(clock=lambda: sim.now) if observe else None
    monitor = protocol.monitor() if check_invariants else None
    if protocol.token_home is not None:
        cluster_options["token_home"] = protocol.token_home(num_nodes)
    cluster = protocol.cluster(
        num_nodes,
        sim=sim,
        latency=Exponential(spec.latency_mean),
        seed=spec.seed,
        monitor=monitor,
        metrics=metrics,
        obs=observer,
        **cluster_options,
    )
    bodies = protocol.clients(sim, cluster, spec, metrics)
    run_processes(sim, bodies, max_events=event_budget)
    if monitor is not None:
        monitor.assert_all_released()
        cluster.assert_quiescent_invariants()
    return RunResult(
        protocol=protocol.name,
        num_nodes=num_nodes,
        spec=spec,
        metrics=metrics,
        sim_time=sim.now,
        events=sim.events_processed,
        observer=observer,
    )


run_hierarchical = functools.partial(run, PROTOCOLS["hierarchical"])
run_naimi_pure = functools.partial(run, PROTOCOLS["naimi-pure"])
run_naimi_same_work = functools.partial(run, PROTOCOLS["naimi-same-work"])

#: Node counts used for the full paper-scale sweeps (Figures 5-7).
PAPER_NODE_COUNTS: Sequence[int] = (2, 5, 10, 20, 40, 60, 80, 100, 120)

#: Node counts used by the fast CI-scale sweeps.
QUICK_NODE_COUNTS: Sequence[int] = (2, 4, 8, 16)


# Runs are pure functions of these arguments (seeded, one fresh simulator
# each) and read-only once returned, so the memo can change no digit.
@functools.cache
def _swept(
    protocol: str,
    num_nodes: int,
    spec: WorkloadSpec,
    check_invariants: bool,
    observe: bool,
) -> RunResult:
    return run(
        PROTOCOLS[protocol], num_nodes, spec,
        check_invariants=check_invariants, observe=observe,
    )


def sweep(
    protocol: str,
    node_counts: Sequence[int],
    spec: WorkloadSpec,
    check_invariants: bool = True,
    observe: bool = False,
) -> List[RunResult]:
    """*protocol*'s runs at every node count of the paper's sweep.

    Each ``(protocol, n, spec)`` point is simulated once per process:
    Figures 5-7 and the §6 headline are readings of the same runs and
    get the same :class:`RunResult` objects.
    """

    if protocol not in PROTOCOLS:
        raise ConfigurationError(f"unknown protocol {protocol!r}")
    return [
        _swept(protocol, n, spec, check_invariants, observe)
        for n in node_counts
    ]
