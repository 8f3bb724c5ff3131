"""Related-work study (§5): dynamic vs. static token trees.

The paper positions itself against the two O(log n) token algorithms:
Naimi-Tréhel (dynamic tree, path reversal — the protocol it builds on)
and Raymond (static tree, no adaptation).  This experiment runs both on
the identical single-token workload and reports messages per request as
the cluster grows, measuring the claim that "Raymond's algorithm uses a
non-adaptive logical structure while we use a dynamic one, which results
in dynamic path compression".

A second sweep shows Raymond's topology sensitivity (balanced tree vs.
chain): the static structure pays its full height on every transfer,
which is precisely what adaptivity avoids.

The regime matters: under *heavy* contention Raymond amortizes its tree
height (the privilege sweeps the tree serving whole batches of queued
requests), and any per-node "idle time" still saturates once enough
nodes exist.  The comparison therefore issues **strictly sequential,
isolated requests** from uniformly random nodes — each completes before
the next is issued — so every request pays exactly its protocol's path
cost, which is the quantity §5 talks about.
"""

from __future__ import annotations

import dataclasses
from typing import List, Optional, Sequence

from ..raymond.topology import Topology, balanced_binary_tree, chain
from ..sim.cluster import SimNaimiCluster, SimRaymondCluster
from ..sim.rng import derive_rng
from ..workload.airline import naimi_pure_client
from ..workload.spec import WorkloadSpec
from .common import DEFAULT_EVENT_BUDGET, Protocol, RunResult, airline, run
from .figures import Checks, Figure, Reading, Series

LOCK = "global"

#: The §5 sweep's node counts.
RELATED_NODE_COUNTS = (2, 4, 8, 16, 32, 64)


def sequential_probe(sim, cluster, spec, metrics) -> List:
    """One coroutine issuing ``spec.ops_per_node`` isolated requests,
    each from a random node."""

    num_nodes = cluster.num_nodes
    rng = derive_rng(spec.seed, "probe", num_nodes)

    def probe():
        for _round in range(spec.ops_per_node):
            node = rng.randrange(num_nodes)
            issued = sim.now
            yield cluster.client(node).acquire(LOCK)
            metrics.record_request(node, "probe", issued, sim.now, lock=LOCK)
            cluster.client(node).release(LOCK)

    return [probe()]


NAIMI_PROBE = Protocol(
    "naimi", SimNaimiCluster, sequential_probe, token_home=None,
)
RAYMOND_PROBE = Protocol(
    "raymond", SimRaymondCluster, sequential_probe, token_home=None,
)
#: Raymond under the single-token airline workload (Naimi *pure*'s).
RAYMOND = dataclasses.replace(
    RAYMOND_PROBE, clients=airline(naimi_pure_client, "raymond")
)


def sequential_naimi(num_nodes: int, rounds: int = 60, seed: int = 7) -> float:
    """Messages per isolated request under Naimi (dynamic tree)."""

    spec = WorkloadSpec(ops_per_node=rounds, seed=seed)
    return run(NAIMI_PROBE, num_nodes, spec).message_overhead()


def sequential_raymond(
    num_nodes: int, topology: Topology, rounds: int = 60, seed: int = 7
) -> float:
    """Messages per isolated request under Raymond on *topology*."""

    spec = WorkloadSpec(ops_per_node=rounds, seed=seed)
    return run(
        RAYMOND_PROBE, num_nodes, spec, topology=topology
    ).message_overhead()


def run_raymond(
    num_nodes: int,
    spec: WorkloadSpec,
    topology: Optional[Topology] = None,
    check_invariants: bool = True,
    event_budget: int = DEFAULT_EVENT_BUDGET,
) -> RunResult:
    """Run the single-token workload under Raymond's algorithm."""

    return run(
        RAYMOND, num_nodes, spec, check_invariants, event_budget,
        topology=topology,
    )


def _checks(node_counts: List[int], overhead: Series) -> Checks:
    naimi = overhead["naimi (dynamic)"]
    tree = overhead["raymond (balanced)"]
    chain_series = overhead["raymond (chain)"]
    n = node_counts
    return [
        (
            "the static chain pays ~linear per-request overhead",
            chain_series[-1] > 0.3 * n[-1],
        ),
        (
            "dynamic path reversal beats the static chain at scale",
            naimi[-1] < chain_series[-1],
        ),
        (
            "dynamic path reversal beats the balanced static tree too",
            naimi[-1] < tree[-1],
        ),
        (
            "balanced Raymond and Naimi are both sub-linear",
            tree[-1] < n[-1] / 2 and naimi[-1] < n[-1] / 2,
        ),
    ]


#: The §5 comparison; its series come from the probes, not the sweep.
RELATED = Reading(
    title="Related work (§5) — messages per request, single token",
    attribute="overhead",
    checks=_checks,
)


def run_related_work(
    node_counts: Sequence[int] = RELATED_NODE_COUNTS,
    rounds: int = 60,
    seed: int = 7,
) -> Figure:
    """Sweep Naimi vs. Raymond (balanced and chain topologies)."""

    probes = {
        "naimi (dynamic)": lambda n: sequential_naimi(n, rounds, seed),
        "raymond (balanced)": lambda n: sequential_raymond(
            n, balanced_binary_tree(n), rounds, seed
        ),
        "raymond (chain)": lambda n: sequential_raymond(
            n, chain(n), rounds, seed
        ),
    }
    overhead = {
        name: [probe(n) for n in node_counts] for name, probe in probes.items()
    }
    return Figure(RELATED, list(node_counts), overhead, runs={})
