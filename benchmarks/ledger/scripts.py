"""Seeded operation scripts: the load, fixed by ``--seed`` alone.

The benchmark owns its load generator so that no later change under
``src/`` can alter what is measured: a script is a plain list of
operations per node, drawn here from :class:`random.Random` streams keyed
by ``(workload, seed, sub-seed, node)`` and handed to the clusters through
their public client calls only.  Nothing in this module imports ``repro``.

The distributions are the paper's (Section 4): exponential think time
(mean 150 ms), exponential critical-section hold (mean 15 ms), a mode
draw from the workload's mix, and an 80 % chance that an entry operation
touches the node's home entry.
"""

from __future__ import annotations

import hashlib
import json
import random
from typing import Dict, List, NamedTuple, Sequence, Tuple

IDLE_MEAN_S = 0.150
HOLD_MEAN_S = 0.015
LINK_MEAN_S = 0.150
LINK_CAP_S = 1.5
LOCALITY = 0.8
TABLE = "db/tickets"

#: Mode mixes as (draw, weight).  ``IR``/``IW`` draws are entry
#: operations, ``R``/``W``/``U`` draws are whole-table operations.
PAPER_MIX: Tuple[Tuple[str, float], ...] = (
    ("IR", 0.80), ("R", 0.10), ("U", 0.04), ("IW", 0.05), ("W", 0.01),
)
WRITE_MIX: Tuple[Tuple[str, float], ...] = (
    ("IR", 0.20), ("R", 0.10), ("U", 0.10), ("IW", 0.40), ("W", 0.20),
)


class Op(NamedTuple):
    """One application operation of one node."""

    think_s: float   # idle time before the operation
    draw: str        # drawn request mode: IR, R, U, IW or W
    entry: int       # target entry of an IR/IW draw, -1 for table draws
    hold_s: float    # critical-section time
    hold2_s: float   # write phase after the upgrade (U draws only)


#: One script: per node, the operations it performs in order.
Script = Dict[int, List[Op]]


def _draw_mode(rng: random.Random, mix: Sequence[Tuple[str, float]]) -> str:
    point = rng.random() * sum(weight for _draw, weight in mix)
    for draw, weight in mix:
        point -= weight
        if point < 0:
            return draw
    return mix[-1][0]


def make_script(
    workload: str,
    seed: int,
    sub: int,
    nodes: Sequence[int],
    ops_per_node: int,
    mix: Sequence[Tuple[str, float]],
    entries: int,
    timed: bool = True,
) -> Script:
    """Draw the script of one run.

    *sub* separates the runs pooled under one ``--seed``.  With
    ``timed=False`` think and hold times are zero (the wall-clock
    workload is a closed loop with no idle time).
    """

    script: Script = {}
    for node in nodes:
        rng = random.Random(f"ledger/{workload}/{seed}/{sub}/{node}")
        ops: List[Op] = []
        for _ in range(ops_per_node):
            think = rng.expovariate(1.0 / IDLE_MEAN_S)
            draw = _draw_mode(rng, mix)
            entry = -1
            if draw in ("IR", "IW"):
                if rng.random() < LOCALITY:
                    entry = node % entries
                else:
                    entry = rng.randrange(entries)
            hold = rng.expovariate(1.0 / HOLD_MEAN_S)
            hold2 = rng.expovariate(1.0 / HOLD_MEAN_S) if draw == "U" else 0.0
            if not timed:
                think = hold = hold2 = 0.0
            ops.append(Op(think, draw, entry, hold, hold2))
        script[node] = ops
    return script


def script_bytes(script: Script) -> bytes:
    """Canonical serialisation: equal scripts give equal bytes."""

    return json.dumps(
        [[node, [list(op) for op in script[node]]] for node in sorted(script)],
        separators=(",", ":"),
    ).encode("ascii")


def script_digest(script: Script) -> str:
    """Short identity of a script, printed beside the results."""

    return hashlib.sha256(script_bytes(script)).hexdigest()[:16]


def entry_lock(entry: int) -> str:
    """Lock id of table entry *entry*."""

    return f"{TABLE}/{entry}"


def nested_steps(op: Op) -> List[Tuple[str, str]]:
    """Locks of *op* with hierarchical (intent + leaf) holds, in order."""

    if op.draw == "IR":
        return [(TABLE, "IR"), (entry_lock(op.entry), "R")]
    if op.draw == "IW":
        return [(TABLE, "IW"), (entry_lock(op.entry), "W")]
    return [(TABLE, op.draw)]


def flat_step(op: Op) -> Tuple[str, str]:
    """The single lock of *op* on the one-lock-per-operation workloads.

    ``IR``/``IW`` draws lock the entry in ``R``/``W``, table draws lock
    the table; ``U`` is drawn as ``R`` (the resilient client has no
    upgrade).
    """

    if op.draw == "IR":
        return entry_lock(op.entry), "R"
    if op.draw == "IW":
        return entry_lock(op.entry), "W"
    return TABLE, "R" if op.draw == "U" else op.draw
