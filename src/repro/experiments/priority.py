"""Extension study: what strict priority arbitration buys (and costs).

One high-priority client competes with a crowd of low-priority writers on
a single exclusive lock.  Under the published FIFO protocol its requests
wait their turn; under ``priority_scheduling`` they jump every queue.
The experiment reports the high-priority client's mean latency under
both policies, plus the crowd's — the cost side: strict priorities defer
low-priority work.
"""

from __future__ import annotations

import dataclasses

from ..core.automaton import ProtocolOptions
from ..core.modes import LockMode
from ..sim.engine import Timeout
from ..sim.rng import Exponential, derive_rng
from ..workload.spec import WorkloadSpec
from .common import PROTOCOLS, run

LOCK = "resource"
HIGH_PRIORITY = 10


@dataclasses.dataclass
class PriorityResult:
    """FIFO-vs-priority comparison for the important client."""

    num_nodes: int
    fifo_high_latency: float
    priority_high_latency: float
    fifo_crowd_latency: float
    priority_crowd_latency: float

    @property
    def speedup(self) -> float:
        """High-priority latency improvement from priority scheduling."""

        if self.priority_high_latency <= 0:
            return float("inf")
        return self.fifo_high_latency / self.priority_high_latency

    def render(self) -> str:
        """Comparison rows."""

        return "\n".join(
            [
                f"Priority arbitration study (n={self.num_nodes}, one "
                f"priority-{HIGH_PRIORITY} client vs a priority-0 crowd)",
                "policy      high-prio mean lat (s)   crowd mean lat (s)",
                "-" * 58,
                f"FIFO        {self.fifo_high_latency:>12.3f}        "
                f"{self.fifo_crowd_latency:>12.3f}",
                f"priority    {self.priority_high_latency:>12.3f}        "
                f"{self.priority_crowd_latency:>12.3f}",
                f"high-priority speedup: x{self.speedup:.1f}",
            ]
        )


def _clients(sim, cluster, spec, metrics):
    """One exclusive writer per node; the last node is the VIP."""

    cs = Exponential(0.015)
    idle = Exponential(0.050)

    def client(node: int, priority: int):
        rng = derive_rng(spec.seed, "prio", node)
        handle = cluster.client(node)
        kind = "high" if priority > 0 else "crowd"
        for _ in range(spec.ops_per_node):
            yield Timeout(sim, idle.sample(rng))
            issued = sim.now
            yield handle.acquire(LOCK, LockMode.W, priority=priority)
            metrics.record_request(node, kind, issued, sim.now, lock=LOCK)
            yield Timeout(sim, cs.sample(rng))
            handle.release(LOCK, LockMode.W)

    vip = cluster.num_nodes - 1
    return [
        client(node, HIGH_PRIORITY if node == vip else 0)
        for node in range(cluster.num_nodes)
    ]


#: The hierarchical protocol on the one contended lock, homed at node 0.
CONTENDED = dataclasses.replace(
    PROTOCOLS["hierarchical"], clients=_clients, token_home=None
)


def run_priority_study(
    num_nodes: int = 10, ops_per_node: int = 20, seed: int = 99
) -> PriorityResult:
    """Run the FIFO-vs-priority comparison and return the numbers."""

    spec = WorkloadSpec(ops_per_node=ops_per_node, seed=seed)
    fifo = run(CONTENDED, num_nodes, spec).metrics
    prioritized = run(
        CONTENDED, num_nodes, spec,
        options=ProtocolOptions(priority_scheduling=True),
    ).metrics
    return PriorityResult(
        num_nodes=num_nodes,
        fifo_high_latency=fifo.latency_summary("high").mean,
        priority_high_latency=prioritized.latency_summary("high").mean,
        fifo_crowd_latency=fifo.latency_summary("crowd").mean,
        priority_crowd_latency=prioritized.latency_summary("crowd").mean,
    )
