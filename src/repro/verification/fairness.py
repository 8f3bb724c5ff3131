"""Fairness analysis: quantifying the FIFO guarantee of Rules 4-6.

The paper's freezing mechanism exists to stop *overtaking*: a request
that conflicts with a queued one must not be granted first, or the queued
request can starve (§3.3).  This module measures overtaking directly from
the per-request records a run collects:

* request ``s`` **bypasses** request ``r`` when ``s`` was issued after
  ``r`` but granted before ``r``, and the two modes conflict (compatible
  overtaking is exactly the concurrency the protocol is allowed — and
  supposed — to exploit);
* a request's **bypass count** is how many such ``s`` exist;
* :func:`analyze` summarizes bypass counts per run, giving the fairness
  numbers the freezing ablation (A1) reports.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Sequence

from ..core.modes import LockMode, conflicts
from ..obs.spans import RequestSpan

#: Request kinds that map to a lock mode (the upgrade kind means W).
_KIND_TO_MODE = {
    "IR": LockMode.IR,
    "R": LockMode.R,
    "U": LockMode.U,
    "IW": LockMode.IW,
    "W": LockMode.W,
    "U->W": LockMode.W,
}


def kind_to_mode(kind: str) -> Optional[LockMode]:
    """Map a request-record kind to its lock mode (None if not mode-like)."""

    return _KIND_TO_MODE.get(kind)


@dataclasses.dataclass(frozen=True)
class FairnessReport:
    """Overtaking statistics for one run."""

    requests: int
    conflicting_pairs: int
    bypasses: int
    max_bypass_per_request: int
    mean_bypass_per_request: float

    def __str__(self) -> str:
        return (
            f"requests={self.requests} conflicting_pairs="
            f"{self.conflicting_pairs} bypasses={self.bypasses} "
            f"max/req={self.max_bypass_per_request} "
            f"mean/req={self.mean_bypass_per_request:.3f}"
        )


def analyze(records: Sequence[RequestSpan]) -> FairnessReport:
    """Count conflicting-mode overtakes among *records*.

    O(n²) over the mode-like records of a run — fine for the run sizes
    the ablations use; the records are first sorted by issue time so the
    inner loop only scans later issues.
    """

    moded = [
        (record, kind_to_mode(record.kind))
        for record in records
        if kind_to_mode(record.kind) is not None
    ]
    moded.sort(key=lambda pair: pair[0].issued_at)
    bypass_counts: List[int] = [0] * len(moded)
    conflicting_pairs = 0
    for i, (earlier, earlier_mode) in enumerate(moded):
        for j in range(i + 1, len(moded)):
            later, later_mode = moded[j]
            if later.lock != earlier.lock:
                continue  # Different locks never conflict.
            if not conflicts(earlier_mode, later_mode):
                continue
            conflicting_pairs += 1
            if later.granted_at < earlier.granted_at:
                bypass_counts[i] += 1
    total = sum(bypass_counts)
    return FairnessReport(
        requests=len(moded),
        conflicting_pairs=conflicting_pairs,
        bypasses=total,
        max_bypass_per_request=max(bypass_counts) if bypass_counts else 0,
        mean_bypass_per_request=total / len(moded) if moded else 0.0,
    )


def bypass_histogram(records: Sequence[RequestSpan]) -> Dict[int, int]:
    """Histogram of per-request bypass counts (0 → fair-served)."""

    moded = [
        (record, kind_to_mode(record.kind))
        for record in records
        if kind_to_mode(record.kind) is not None
    ]
    moded.sort(key=lambda pair: pair[0].issued_at)
    histogram: Dict[int, int] = {}
    for i, (earlier, earlier_mode) in enumerate(moded):
        count = 0
        for later, later_mode in moded[i + 1 :]:
            if (
                later.lock == earlier.lock
                and conflicts(earlier_mode, later_mode)
                and later.granted_at < earlier.granted_at
            ):
                count += 1
        histogram[count] = histogram.get(count, 0) + 1
    return histogram
