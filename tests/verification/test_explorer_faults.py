"""Exhaustive duplication tolerance: the dedup layer, model-checked.

``duplicate_nth=k`` makes the explorer deliver the k-th message of the
run twice (FIFO-consistent: the copy rides right behind the original).
Exploring every interleaving around the duplicate proves a property no
single seeded simulation can: with ``recovery=True`` the automaton keeps
Rule 1, starves nobody and never double-grants, for *any* duplicated
message and *any* delivery order.

The companion tests show the flip side — the base protocol genuinely
needs the exactly-once assumption it states, so the dedup machinery is
load-bearing, not decorative.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.core.automaton import FULL_PROTOCOL
from repro.core.modes import LockMode
from repro.errors import InvariantViolation, ProtocolError
from repro.verification import explore_scenario

RECOVERY = dataclasses.replace(FULL_PROTOCOL, recovery=True)

#: 3-node scenarios: W/R contention, R/R sharing, W/W serialization.
SCENARIOS = [
    [(1, LockMode.W), (2, LockMode.R)],
    [(1, LockMode.R), (2, LockMode.R)],
    [(1, LockMode.W), (2, LockMode.W)],
]


class TestDedupKeepsRule1UnderDuplication:
    @pytest.mark.parametrize("scenario", SCENARIOS)
    @pytest.mark.parametrize("nth", range(8))
    def test_every_duplicated_message_absorbed(self, scenario, nth):
        # explore_scenario raises InvariantViolation on any Rule-1
        # break, starvation or token split in any interleaving.
        stats = explore_scenario(
            3, scenario, options=RECOVERY, duplicate_nth=nth
        )
        assert stats.terminal_states > 0

    def test_duplication_changes_the_state_space(self):
        base = explore_scenario(3, SCENARIOS[0], options=RECOVERY)
        dup = explore_scenario(
            3, SCENARIOS[0], options=RECOVERY, duplicate_nth=0
        )
        assert dup.states_explored > base.states_explored


class TestBaseProtocolNeedsExactlyOnce:
    def test_duplicate_breaks_the_fault_free_automaton(self):
        # The paper's protocol assumes reliable exactly-once delivery;
        # duplicating an early message must visibly break it in some
        # interleaving (ProtocolError or an invariant violation) —
        # otherwise the recovery dedup layer would be dead weight.
        broke = 0
        for nth in range(5):
            try:
                explore_scenario(
                    3, SCENARIOS[0], options=FULL_PROTOCOL,
                    duplicate_nth=nth,
                )
            except (InvariantViolation, ProtocolError):
                broke += 1
        assert broke > 0

    def test_without_duplication_both_modes_agree(self):
        base = explore_scenario(3, SCENARIOS[0], options=FULL_PROTOCOL)
        recovered = explore_scenario(3, SCENARIOS[0], options=RECOVERY)
        assert base.terminal_states == recovered.terminal_states
