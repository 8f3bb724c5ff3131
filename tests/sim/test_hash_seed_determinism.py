"""A seeded run depends on its seed — not on the process or its hash seed.

``LockMode`` hashes by identity and lock names are strings, so the
iteration order of any set of either differs from one process to the
next.  The same seeded 12-node write-mix script is therefore run in two
fresh interpreters with different ``PYTHONHASHSEED`` values; every
message, every grant and the final virtual time must agree.  Run as a
script, this file prints one such run as JSON.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys

from repro.core.modes import LockMode
from repro.metrics import MetricsCollector
from repro.sim.cluster import SimHierarchicalCluster
from repro.sim.engine import Simulator, Timeout, run_processes
from repro.verification.invariants import Monitor

NODES = 12
OPS_PER_NODE = 25
LOCKS = ("db", "db/a", "db/b", "db/c")
#: Write-heavy: queueing, freezing and token transfers on every lock.
WRITE_MIX = (
    (LockMode.W, 25),
    (LockMode.IW, 25),
    (LockMode.U, 15),
    (LockMode.R, 20),
    (LockMode.IR, 15),
)


class _GrantLog(Monitor):
    def __init__(self) -> None:
        self.grants = []

    def on_grant(self, time, node, lock_id, mode) -> None:
        self.grants.append([time, node, lock_id, mode.value])


def run_script(seed: int = 2003) -> dict:
    sim = Simulator()
    log = _GrantLog()
    metrics = MetricsCollector()
    cluster = SimHierarchicalCluster(
        NODES, sim=sim, seed=seed, monitor=log, metrics=metrics
    )
    modes, weights = zip(*WRITE_MIX)

    def client(node: int):
        rng = random.Random(seed * 1000 + node)
        handle = cluster.client(node)
        for _ in range(OPS_PER_NODE):
            yield Timeout(sim, rng.expovariate(1 / 0.2))
            lock = rng.choice(LOCKS)
            mode = rng.choices(modes, weights)[0]
            yield handle.acquire(lock, mode)
            yield Timeout(sim, rng.expovariate(1 / 0.3))
            if mode is LockMode.U and rng.random() < 0.5:
                yield handle.upgrade(lock)
                mode = LockMode.W
            handle.release(lock, mode)

    run_processes(sim, [client(node) for node in range(NODES)])
    cluster.assert_quiescent_invariants()
    return {
        "messages": metrics.total_messages,
        "by_type": dict(sorted(metrics.message_counts.items())),
        "grants": log.grants,
        "final_time": sim.now,
    }


def _run_in_fresh_interpreter(hash_seed: str) -> dict:
    env = dict(
        os.environ,
        PYTHONHASHSEED=hash_seed,
        PYTHONPATH=os.pathsep.join(path for path in sys.path if path),
    )
    done = subprocess.run(
        [sys.executable, os.path.abspath(__file__)],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    return json.loads(done.stdout)


def test_seeded_run_is_independent_of_the_hash_seed():
    first = _run_in_fresh_interpreter("0")
    second = _run_in_fresh_interpreter("1")
    assert first["messages"] == second["messages"] > 0
    assert first["by_type"] == second["by_type"]
    assert first["grants"] == second["grants"]
    assert len(first["grants"]) >= NODES * OPS_PER_NODE
    assert first["final_time"] == second["final_time"]
    # Floats survive the JSON round trip exactly, so this process (a third
    # hash seed, other addresses) must reproduce the run as well.
    assert run_script() == first


if __name__ == "__main__":
    print(json.dumps(run_script()))
