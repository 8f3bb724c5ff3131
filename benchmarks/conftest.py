"""Shared configuration for the benchmark harness.

Figure-scale benchmarks run one full deterministic sweep per session and
register a single pedantic timing round — re-running a multi-minute sweep
many times would add no statistical value since the simulation itself is
deterministic under its seed.
"""

from __future__ import annotations

import os

import pytest

from repro.experiments import scale as resolve_scale

#: Set REPRO_BENCH_QUICK=1 to run the CI-scale sweeps instead.
QUICK = os.environ.get("REPRO_BENCH_QUICK", "") == "1"


@pytest.fixture(scope="session")
def scale():
    """Node counts and the paper's workload parameters (Section 4), at
    paper scale unless REPRO_BENCH_QUICK=1 — what ``python -m repro``
    runs with and without ``--quick``."""

    return resolve_scale(quick=QUICK)
