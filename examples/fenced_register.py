#!/usr/bin/env python
"""Resource-side fencing: the last inch the lock service cannot cover.

PROTOCOL.md §14 fences the *service* when a holder is partitioned away:
the isolated holder self-fences once it loses quorum contact past its
lease, the majority revokes and raises the per-lock fence floor, and
the next requester is granted safely.  But a register, file, or queue
the lock was protecting does not speak the protocol — if the oblivious
old holder keeps writing to it directly, no lock-service bookkeeping
can stop the corruption.

:class:`~repro.services.fenced.FencedResource` closes that gap on the
resource side, and this example shows the whole loop on a simulated
3-node cluster with a real (never-healing) partition:

1. node 0 takes ``ledger:W``, and writes the register under its lease's
   fencing token — accepted,
2. a partition isolates node 0; its lease expires, the majority revokes
   it and raises the fence floor; node 1 is granted ``ledger:W``,
3. the register observes the majority's fence floor, node 1's write
   (newer token) is accepted,
4. the still-partitioned node 0 — which never heard any of this —
   writes again with its old token: **rejected**, and the register's
   history shows exactly one linear, uncorrupted timeline.

Run:  python examples/fenced_register.py
"""

from __future__ import annotations

import math
from typing import List

from repro.core.modes import LockMode
from repro.faults.plan import FaultPlan, Partition
from repro.faults.recovery import RecoveryConfig
from repro.faults.simcluster import ResilientSimCluster
from repro.services.fenced import FencedResource, FencedWriteError
from repro.sim.engine import Process, Timeout

NODES = 3
PARTITION_AT = 2.0
RUN_UNTIL = 40.0


def main() -> None:
    plan = FaultPlan(
        partitions=(
            Partition(
                side_a=frozenset({0}),
                side_b=frozenset(range(1, NODES)),
                start=PARTITION_AT,
                end=math.inf,  # Never heals: node 0 stays oblivious.
            ),
        ),
        name="fenced-register-demo",
    )
    cluster = ResilientSimCluster(
        num_nodes=NODES, plan=plan, seed=7, config=RecoveryConfig()
    )
    sim = cluster.sim
    register = FencedResource("ledger-register", initial={"balance": 0})
    rejections: List[FencedWriteError] = []
    log: List[str] = []

    def minority_holder():
        client = cluster.client(0)
        yield client.acquire("ledger", LockMode.W)
        lease = cluster.managers[0].leases.own.get("ledger", 0)
        register.write(lease.token, {"balance": 100}, at=sim.now)
        log.append(
            f"t={sim.now:6.2f}  node 0 wrote balance=100 "
            f"(token {lease.token})"
        )
        # Hold across the partition without releasing; long after the
        # majority has moved on, write again with the same token.  The
        # node has no idea it was fenced — that ignorance is the attack.
        stale_token = lease.token
        yield Timeout(sim, 30.0)
        try:
            register.write(stale_token, {"balance": 999}, at=sim.now)
            log.append(f"t={sim.now:6.2f}  node 0 CORRUPTED the register!")
        except FencedWriteError as exc:
            rejections.append(exc)
            log.append(
                f"t={sim.now:6.2f}  node 0 write REJECTED: {exc}"
            )

    def majority_writer():
        yield Timeout(sim, PARTITION_AT + 1.0)
        client = cluster.client(1)
        yield client.acquire("ledger", LockMode.W)
        # The revocation that made this grant possible raised the
        # per-lock fence floor on the majority; the register learns it
        # the same way a real resource would — from its next contact
        # with a live service node.
        floor = cluster.managers[1].lockspace.automaton("ledger").fence_floor
        register.observe_floor(floor)
        lease = cluster.managers[1].leases.own.get("ledger", 1)
        register.write(lease.token, {"balance": 150}, at=sim.now)
        log.append(
            f"t={sim.now:6.2f}  node 1 granted after revocation, wrote "
            f"balance=150 (token {lease.token}, observed floor {floor})"
        )
        client.release("ledger", LockMode.W)

    Process(sim, minority_holder())
    Process(sim, majority_writer())
    sim.run(until=RUN_UNTIL)

    print("timeline:")
    for line in log:
        print(f"  {line}")
    print("register:", register.read(), register.stats())
    print("history tokens:", [record.token for record in register.history])

    assert register.writes_accepted == 2, register.stats()
    assert register.writes_rejected == 1, register.stats()
    assert len(rejections) == 1 and rejections[0].token <= register.floor
    assert register.read() == {"balance": 150}
    tokens = [record.token for record in register.history]
    assert tokens == sorted(tokens), "accepted history must be monotone"
    print("OK: the fence held — one linear history, stale writer rejected")


if __name__ == "__main__":
    main()
