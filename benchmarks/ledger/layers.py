"""Per-layer metrics that do not belong to one workload.

* the **ladder**: ``stack40``'s script on five clusters, each adding one
  layer to the one before, so every rung is a delta over the rung below;
* the observer's own cost and the Naimi reference on ``paper120``'s script;
* the known-defect diagnostic (nested holds on the resilient stack);
* the microbenchmarks of :mod:`benchmarks.ledger.micro`.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Tuple

from . import micro
from .workloads import (
    RUNGS,
    WORKLOADS,
    Workload,
    quick as shrink,
    run_bare,
    run_naimi_pure,
    run_stack,
)

Metrics = Dict[str, Tuple[float, str]]

#: Runs of the nested-hold diagnostic (seeds s .. s+11 of the issue).
NESTED_RUNS = 12
NESTED_NODES = 16


def ladder(stack: Workload, seed: int, repeats: int) -> Metrics:
    """``ladder.<rung>.wall_s`` (fastest of *repeats*, calibrated seconds)
    and ``.msgs_per_request``."""

    metrics: Metrics = {}
    for rung in RUNGS:
        best = float("inf")
        for _ in range(repeats):
            unit = run_stack(stack, seed, 0, rung=rung, calibrate=True)
            if unit.problems or unit.failed:
                raise RuntimeError(f"ladder rung {rung} failed: {unit.problems[:3]}")
            best = min(best, unit.wall_s * unit.speed)
        metrics[f"ladder.{rung}.wall_s"] = (best, "s")
        metrics[f"ladder.{rung}.msgs_per_request"] = (
            unit.messages / unit.window_granted, "1/req")
    return metrics


def references(paper: Workload, seed: int) -> Metrics:
    """Observer overhead and the Naimi reference, on ``paper120``'s script."""

    plain = run_bare(paper, seed, 0, calibrate=True)
    observed = run_bare(paper, seed, 0, observe=True, calibrate=True)
    pure = run_naimi_pure(paper, seed, 0)
    for name, unit in (("plain", plain), ("observed", observed), ("naimi", pure)):
        if unit.problems or unit.failed:
            raise RuntimeError(f"reference run {name} failed: {unit.problems[:3]}")
    if (observed.messages, observed.granted) != (plain.messages, plain.granted):
        raise RuntimeError("the observer changed the run it observed")
    return {
        "obs.collect.wall_ratio": (
            observed.wall_s * observed.speed / (plain.wall_s * plain.speed),
            "ratio",
        ),
        "naimi.pure.msgs_per_request": (pure.messages / pure.granted, "1/req"),
    }


def nested_diagnostic(stack: Workload, seed: int, runs: int = NESTED_RUNS) -> Metrics:
    """Known defect: nested holds can wedge the fault-free resilient stack.

    ``stack40``'s script with table-intent + entry-leaf holds on 16 nodes,
    recovery layer only, the library's default ``RecoveryConfig`` (so
    requests that wait 0.75 s are retransmitted, which is what wedges), no
    faults injected.  A wedged run ends with requests that are never
    granted; both numbers are exact per seed and should read 0 for every
    seed once the defect is fixed.
    """

    small = dataclasses.replace(
        stack,
        nodes=min(stack.nodes, NESTED_NODES),
        entries=min(stack.entries, NESTED_NODES),
        retry_base_s=0.0,
    )
    issued = failed = wedged = 0
    for sub in range(runs):
        unit = run_stack(small, seed, sub, rung="recovery", nested=True)
        issued += unit.issued
        failed += unit.failed
        wedged += bool(unit.failed or unit.problems)
    return {
        "faults.recovery.nested_failed_share": (failed / issued, "ratio"),
        "faults.recovery.nested_wedged_runs": (wedged, "count"),
    }


def shared_metrics(
    seed: int, ladder_repeats: int, scratch_root: str, quick: bool = False
) -> Metrics:
    """Every per-layer metric that is the same whatever workload is traced."""

    stack, paper = WORKLOADS["stack40"], WORKLOADS["paper120"]
    if quick:
        stack, paper = shrink(stack), shrink(paper)
    metrics = micro.run_all(scratch_root)
    metrics.update(ladder(stack, seed, ladder_repeats))
    metrics.update(references(paper, seed))
    metrics.update(nested_diagnostic(stack, seed, 2 if quick else NESTED_RUNS))
    return metrics
