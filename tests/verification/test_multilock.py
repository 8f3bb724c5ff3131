"""Exhaustive multi-granularity scenarios: safety AND deadlock freedom.

These check the property single-lock exploration cannot see: chained
acquisitions (table intent, then entry) never deadlock under any message
interleaving, including when table-level requests freeze modes while
entry traffic is in flight.
"""

from __future__ import annotations

from repro.core.automaton import FULL_PROTOCOL, ProtocolOptions
from repro.core.modes import LockMode as M
from repro.verification import explore_hierarchical

T = "t"        # the table lock
E0, E1 = "t/0", "t/1"  # entry locks

#: name → (nodes, per-node operations, options).
SCENARIOS = {
    "disjoint entry writers": (
        3,
        {1: [((T, M.IW), (E0, M.W))], 2: [((T, M.IW), (E1, M.W))]},
        FULL_PROTOCOL,
    ),
    "same-entry reader vs writer": (
        3,
        {1: [((T, M.IR), (E0, M.R))], 2: [((T, M.IW), (E0, M.W))]},
        FULL_PROTOCOL,
    ),
    "table W vs entry R": (
        3, {1: [((T, M.IR), (E0, M.R))], 2: [((T, M.W),)]}, FULL_PROTOCOL,
    ),
    "table R vs entry W": (
        3, {1: [((T, M.IW), (E0, M.W))], 2: [((T, M.R),)]}, FULL_PROTOCOL,
    ),
    "sequential ops": (
        2,
        {
            1: [((T, M.IR), (E0, M.R)), ((T, M.IW), (E0, M.W))],
            0: [((T, M.R),)],
        },
        FULL_PROTOCOL,
    ),
    "table W vs entry R, no freezing": (
        3,
        {1: [((T, M.IR), (E0, M.R))], 2: [((T, M.W),)]},
        ProtocolOptions(freezing=False),
    ),
}


def _explore(name, **kwargs):
    nodes, scripts, options = SCENARIOS[name]
    return explore_hierarchical(nodes, scripts, options=options, **kwargs)


class TestHierarchicalOperations:
    def test_disjoint_entry_writers(self):
        assert _explore("disjoint entry writers").terminal_states >= 1

    def test_entry_reader_vs_entry_writer_same_entry(self):
        assert _explore("same-entry reader vs writer").terminal_states >= 1

    def test_table_writer_vs_entry_reader(self):
        """A table-level W excludes intent holders; the entry reader's
        two-step acquisition must not deadlock against it."""

        assert _explore("table W vs entry R").terminal_states >= 1

    def test_table_reader_vs_entry_writer(self):
        stats = _explore("table R vs entry W", max_states=1_000_000)
        assert stats.terminal_states >= 1

    def test_sequential_ops_per_node(self):
        assert _explore("sequential ops").terminal_states >= 1

    def test_no_freezing_still_safe_and_live(self):
        """Finite scenarios terminate without freezing (fairness, not
        liveness, is what Rule 6 buys on finite workloads)."""

        stats = _explore("table W vs entry R, no freezing")
        assert stats.terminal_states >= 1
