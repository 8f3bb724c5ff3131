"""The multi-airline reservation application, in three protocol flavours.

Each node runs one client process that iterates: idle, draw an operation,
acquire the locks the operation needs, hold them for the critical-section
time, release, repeat — the driver of every performance figure in the
paper (Section 4).

The three flavours implement the paper's three curves:

* :func:`hierarchical_client` — our protocol: entry accesses take the
  table lock in the intention mode plus the entry lock in the requested
  mode; table accesses take the single table lock; ``U`` draws exercise
  the Rule 7 upgrade.
* :func:`naimi_same_work_client` — Naimi *same work*: entry accesses take
  that entry's token; table accesses take **every** entry token one by
  one, in ascending order (deadlock avoidance by global ordering).
* :func:`naimi_pure_client` — Naimi *pure*: a single global token, one
  acquisition per operation (the original Naimi et al. setting).

Metric conventions (DESIGN.md §6): each acquisition issued through a
protocol's native API is one *lock request* — for our protocol an entry
access issues two (intent + leaf) and an upgrade issues one more; for
same-work the emulated hierarchical operation counts as one request
whose latency spans the whole ordered multi-acquisition.
"""

from __future__ import annotations

import random
from typing import Generator, List

from ..core.modes import LockMode, intention_mode
from ..metrics import MetricsCollector
from ..sim.cluster import HierClient, NaimiClient
from ..sim.engine import SimEvent, Simulator, Timeout
from ..sim.rng import Exponential
from .generator import draw_operation, entry_lock_id, table_lock_id
from .spec import Operation, WorkloadSpec

#: Lock id used by the Naimi *pure* configuration.
GLOBAL_LOCK_ID = "global"


def _acquire_and_record(
    sim: Simulator,
    metrics: MetricsCollector,
    node_id: int,
    kind: str,
    event_factory,
    lock: str = "",
) -> Generator[SimEvent, object, None]:
    """Wait for one acquisition, recording its latency under *kind*."""

    issued_at = sim.now
    yield event_factory()
    metrics.record_request(node_id, kind, issued_at, sim.now, lock=lock)


def hierarchical_client(
    sim: Simulator,
    client: HierClient,
    spec: WorkloadSpec,
    num_entries: int,
    rng: random.Random,
    metrics: MetricsCollector,
) -> Generator[SimEvent, object, None]:
    """One node's client loop under the hierarchical protocol."""

    cs, idle = Exponential(spec.cs_mean), Exponential(spec.idle_mean)
    node_id = client.node_id
    table_lock = table_lock_id()
    for _ in range(spec.ops_per_node):
        yield Timeout(sim, idle.sample(rng))
        op = draw_operation(rng, spec, node_id, num_entries)
        if op.is_entry_op:
            intent = intention_mode(op.mode)
            leaf = LockMode.R if op.mode is LockMode.IR else LockMode.W
            entry_lock = entry_lock_id(op.entry)
            yield from _acquire_and_record(
                sim, metrics, node_id, str(intent),
                lambda: client.acquire(table_lock, intent),
                lock=table_lock,
            )
            yield from _acquire_and_record(
                sim, metrics, node_id, str(leaf),
                lambda: client.acquire(entry_lock, leaf),
                lock=entry_lock,
            )
            yield Timeout(sim, cs.sample(rng))
            client.release(entry_lock, leaf)
            client.release(table_lock, intent)
        elif op.mode is LockMode.U:
            yield from _acquire_and_record(
                sim, metrics, node_id, "U",
                lambda: client.acquire(table_lock, LockMode.U),
                lock=table_lock,
            )
            yield Timeout(sim, cs.sample(rng))  # the read phase
            yield from _acquire_and_record(
                sim, metrics, node_id, "U->W",
                lambda: client.upgrade(table_lock),
                lock=table_lock,
            )
            yield Timeout(sim, cs.sample(rng))  # the write phase
            client.release(table_lock, LockMode.W)
        else:
            yield from _acquire_and_record(
                sim, metrics, node_id, str(op.mode),
                lambda: client.acquire(table_lock, op.mode),
                lock=table_lock,
            )
            yield Timeout(sim, cs.sample(rng))
            client.release(table_lock, op.mode)
        metrics.record_operation()


def naimi_same_work_client(
    sim: Simulator,
    client: NaimiClient,
    spec: WorkloadSpec,
    num_entries: int,
    rng: random.Random,
    metrics: MetricsCollector,
) -> Generator[SimEvent, object, None]:
    """One node's client loop under Naimi *same work*."""

    cs, idle = Exponential(spec.cs_mean), Exponential(spec.idle_mean)
    node_id = client.node_id
    for _ in range(spec.ops_per_node):
        yield Timeout(sim, idle.sample(rng))
        op = draw_operation(rng, spec, node_id, num_entries)
        if op.is_entry_op:
            entry_lock = entry_lock_id(op.entry)
            yield from _acquire_and_record(
                sim, metrics, node_id, "entry",
                lambda: client.acquire(entry_lock),
                lock=entry_lock,
            )
            yield Timeout(sim, cs.sample(rng))
            client.release(entry_lock)
        else:
            # Whole-table access: take every entry token, in order.
            issued_at = sim.now
            held: List[str] = []
            for index in range(num_entries):
                entry_lock = entry_lock_id(index)
                yield client.acquire(entry_lock)
                held.append(entry_lock)
            metrics.record_request(
                node_id, "table", issued_at, sim.now, lock=table_lock_id()
            )
            yield Timeout(sim, cs.sample(rng))
            for entry_lock in reversed(held):
                client.release(entry_lock)
        metrics.record_operation()


def naimi_pure_client(
    sim: Simulator,
    client: NaimiClient,
    spec: WorkloadSpec,
    num_entries: int,
    rng: random.Random,
    metrics: MetricsCollector,
) -> Generator[SimEvent, object, None]:
    """One node's client loop under Naimi *pure* (single global token)."""

    cs, idle = Exponential(spec.cs_mean), Exponential(spec.idle_mean)
    node_id = client.node_id
    for _ in range(spec.ops_per_node):
        yield Timeout(sim, idle.sample(rng))
        yield from _acquire_and_record(
            sim, metrics, node_id, "pure",
            lambda: client.acquire(GLOBAL_LOCK_ID),
            lock=GLOBAL_LOCK_ID,
        )
        yield Timeout(sim, cs.sample(rng))
        client.release(GLOBAL_LOCK_ID)
        metrics.record_operation()
