"""The state-space census of the exhaustive explorer.

``census()`` explores every fixed scenario of ``test_explorer.py``,
``test_explorer_faults.py``, ``test_multilock.py`` and
``tests/core/test_priority.py`` and returns ``[states_explored,
terminal_states]`` per scenario (or the name of the error a scenario is
meant to die of).  The explorer's state abstraction is not a
bisimulation, so these counts are a fingerprint of the whole search:
move order, what a clone preserves, and every transition of the
hierarchical automaton.  ``test_census.py`` pins them;
``benchmarks/refactor_safety.py`` runs this module against two trees
(it imports only what ``repro.verification`` exports in both) and
byte-compares the result.  A census that moves is a behaviour change of
the explorer or of the protocol — find out which before re-pinning.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Dict, List, Union

from repro.core.automaton import FULL_PROTOCOL
from repro.errors import ReproError
from repro.verification import explore_hierarchical, explore_scenario

from ..core import test_priority
from . import test_explorer, test_explorer_faults, test_multilock

Count = Union[List[int], str]


def _count(run: Callable) -> Count:
    try:
        stats = run()
    except ReproError as exc:
        return type(exc).__name__
    return [stats.states_explored, stats.terminal_states]


def census() -> Dict[str, Count]:
    counts: Dict[str, Count] = {}
    for name, nodes, requests in (
        test_explorer.SCENARIOS + test_explorer.UPGRADE_SCENARIOS
    ):
        counts[f"explorer/{name}"] = _count(
            lambda: explore_scenario(nodes, requests)
        )
    for options in test_explorer.ABLATIONS:
        switched_off = "+".join(
            field.name
            for field in dataclasses.fields(options)
            if getattr(options, field.name) != getattr(FULL_PROTOCOL, field.name)
        )
        counts[f"explorer/without {switched_off}"] = _count(
            lambda: explore_scenario(*test_explorer.ABLATED, options=options)
        )
    counts["explorer/four-node mixed"] = _count(
        lambda: explore_scenario(*test_explorer.FOUR_NODE_MIXED)
    )
    counts["priority/mixed"] = _count(
        lambda: explore_scenario(
            *test_priority.EXPLORED, options=test_priority.PRIORITY_ON
        )
    )
    for index, requests in enumerate(test_explorer_faults.SCENARIOS):
        for options, label in (
            (FULL_PROTOCOL, "base"),
            (test_explorer_faults.RECOVERY, "recovery"),
        ):
            counts[f"faults/{index}/{label}"] = _count(
                lambda: explore_scenario(3, requests, options=options)
            )
            for nth in range(8):
                counts[f"faults/{index}/{label}/duplicate {nth}"] = _count(
                    lambda: explore_scenario(
                        3, requests, options=options, duplicate_nth=nth
                    )
                )
    for name, (nodes, scripts, options) in test_multilock.SCENARIOS.items():
        counts[f"multilock/{name}"] = _count(
            lambda: explore_hierarchical(nodes, scripts, options=options)
        )
    return counts
