"""Small statistics helpers of the ledger (no ``repro`` imports)."""

from __future__ import annotations

import math
import statistics
from typing import Dict, List, Optional, Sequence

#: Percentiles a latency tail may be reported at, ascending.
TAIL_LADDER = (50.0, 90.0, 95.0, 99.0, 99.9, 99.99)

#: A percentile is only reported with this many samples beyond it.
MIN_BEYOND = 10


def _rank(count: int, pct: float) -> int:
    """Nearest rank (1-based) of *pct* among *count* samples."""

    # The epsilon keeps 99.9 % of 10 000 at rank 9 990: in floating point
    # the product is 9990.000000000002.
    return max(1, math.ceil(pct * count / 100.0 - 1e-9))


def percentile(sorted_samples: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile of an ascending sample."""

    if not sorted_samples:
        raise ValueError("percentile of an empty sample")
    return sorted_samples[_rank(len(sorted_samples), pct) - 1]


def samples_beyond(count: int, pct: float) -> int:
    """How many of *count* samples lie above the nearest-rank *pct*."""

    return count - _rank(count, pct)


def highest_supported_percentile(count: int) -> Optional[float]:
    """The highest ladder percentile with >= MIN_BEYOND samples beyond it."""

    supported = [
        pct for pct in TAIL_LADDER if samples_beyond(count, pct) >= MIN_BEYOND
    ]
    return supported[-1] if supported else None


def latency_summary(
    all_s: Sequence[Sequence[float]], remote_s: Sequence[Sequence[float]]
) -> Dict[str, float]:
    """Latency figures of a run from the samples of each of its scripts.

    *all_s* holds every issue-to-grant latency per script, *remote_s* the
    subset that needed the fabric.  The mean is over all requests of all
    scripts.  A percentile is taken per script over its remote grants and
    the median over scripts is reported: one script on which requests
    piled up behind a writer then moves the tail by one rank, not by its
    whole pile (over ten seeds the pooled p99 moved by 13-16 %, this by
    6-10 %).  ``tail_pct`` is the highest percentile the smallest script
    supports.
    """

    count = sum(len(samples) for samples in all_s)
    per_script = [sorted(samples) for samples in remote_s]
    smallest = min(len(samples) for samples in per_script)
    tail = highest_supported_percentile(smallest)
    return {
        "samples": count,
        "remote_samples": sum(len(samples) for samples in per_script),
        "smallest_script": smallest,
        "mean_ms": 1e3 * sum(sum(samples) for samples in all_s) / count,
        "p50_ms": 1e3 * statistics.median(
            percentile(samples, 50.0) for samples in per_script),
        "p99_ms": 1e3 * statistics.median(
            percentile(samples, 99.0) for samples in per_script),
        "tail_pct": tail if tail is not None else 0.0,
    }


def worsening(first: float, second: float, better: str) -> float:
    """Share of *first* by which *second* is worse (negative = better)."""

    if first == 0:
        return 0.0 if second == 0 else math.inf
    change = (second - first) / abs(first)
    return change if better == "lower" else -change


def gaps_between(times: List[float], ends_after: float = 0.0) -> List[float]:
    """Gaps between consecutive *times* that end after *ends_after*."""

    ordered = sorted(times)
    return [
        later - earlier
        for earlier, later in zip(ordered, ordered[1:])
        if later > ends_after
    ]


def longest_gap(times: List[float], ends_after: float = 0.0) -> float:
    """Longest gap between consecutive *times* that ends after *ends_after*."""

    return max(gaps_between(times, ends_after), default=0.0)
