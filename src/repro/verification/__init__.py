"""Correctness tooling: monitors, fairness, deadlock, the explorer."""

from .deadlock import Deadlock, DeadlockWatchdog, WaitForGraphMonitor
from .explorer import (
    ExplorationStats,
    ProtocolWorld,
    explore,
    explore_hierarchical,
    explore_scenario,
)
from .fairness import FairnessReport, analyze, bypass_histogram
from .invariants import (
    CompatibilityMonitor,
    FifoObserver,
    GrantEvent,
    Monitor,
    MonitorSet,
    MutualExclusionMonitor,
)

__all__ = [
    "CompatibilityMonitor",
    "Deadlock",
    "DeadlockWatchdog",
    "ExplorationStats",
    "FairnessReport",
    "FifoObserver",
    "GrantEvent",
    "Monitor",
    "MonitorSet",
    "MutualExclusionMonitor",
    "ProtocolWorld",
    "WaitForGraphMonitor",
    "analyze",
    "bypass_histogram",
    "explore",
    "explore_hierarchical",
    "explore_scenario",
]
