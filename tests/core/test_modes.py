"""Tests for the mode algebra and the paper's rule tables.

Every legible cell and worked example in the paper text is pinned here,
and :class:`TestTableKernel` checks all 36 cells of every table the
module fills at import against an oracle spelled out in this file.
"""

from __future__ import annotations

import copy
import hashlib
import itertools
import pickle

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.modes import (
    ALL_MODES,
    REAL_MODES,
    LockMode,
    child_can_grant,
    compatible,
    compatible_modes,
    conflicting_modes,
    conflicts,
    freeze_set,
    intention_mode,
    max_mode,
    render_table_1a,
    render_table_1b,
    render_table_2a,
    render_table_2b,
    should_queue,
    strength,
    stronger_or_equal,
    strictly_weaker,
    token_can_grant,
    token_transfer_required,
    always_transfers_token,
)
from repro.experiments.tables import render_all

MODES = st.sampled_from(REAL_MODES)
ALL = st.sampled_from(ALL_MODES)


class TestTableKernel:
    """All 36 cells of each import-time table, against a written-out oracle.

    The oracle is the OMG Concurrency Service conflict matrix and the
    Eq. (1) strengths as literals, plus Rules 3-6 applied to them cell by
    cell — the derivations ``repro.core.modes`` now runs only once.
    """

    NL, IR, R, U, IW, W = ALL_MODES
    CONFLICT = {  # row conflicts with every listed column
        NL: (),
        IR: (W,),
        R: (IW, W),
        U: (U, IW, W),
        IW: (R, U, W),
        W: (IR, R, U, IW, W),
    }
    STRENGTH = {NL: 0, IR: 1, R: 2, U: 3, IW: 3, W: 4}

    @classmethod
    def oracle(cls, name, left, right):
        compat = right not in cls.CONFLICT[left]
        at_least = cls.STRENGTH[left] >= cls.STRENGTH[right]
        child = (
            left is not cls.NL and right is not cls.NL and compat and at_least
        )
        return {
            "compatible": compat,
            "conflicts": not compat,
            "stronger_or_equal": at_least,
            "strictly_weaker": not at_least,
            "child_can_grant": child,
            "token_can_grant": right is not cls.NL and compat,
            "token_transfer_required": (
                right is not cls.NL and compat and not at_least
            ),
            "should_queue": left in (cls.U, cls.W)
            or (left is not cls.NL and child),
            "freeze_set": frozenset(
                m
                for m in REAL_MODES
                if right in cls.CONFLICT[m] and left not in cls.CONFLICT[m]
            ),
        }[name]

    @pytest.mark.parametrize(
        "table",
        [
            compatible,
            conflicts,
            stronger_or_equal,
            strictly_weaker,
            child_can_grant,
            token_can_grant,
            token_transfer_required,
            should_queue,
            freeze_set,
        ],
        ids=lambda table: table.__name__,
    )
    def test_every_cell(self, table):
        for left, right in itertools.product(ALL_MODES, repeat=2):
            expected = self.oracle(table.__name__, left, right)
            got = table(left, right)
            assert got == expected and type(got) is type(expected), (
                f"{table.__name__}({left}, {right}) = {got!r}, "
                f"oracle says {expected!r}"
            )

    def test_strength_and_codes(self):
        assert [mode.code for mode in ALL_MODES] == [0, 1, 2, 3, 4, 5]
        for mode in ALL_MODES:
            assert strength(mode) == mode.strength == self.STRENGTH[mode]

    def test_freeze_set_allocates_nothing(self):
        for owned, requested in itertools.product(ALL_MODES, repeat=2):
            assert freeze_set(owned, requested) is freeze_set(owned, requested)

    def test_members_stay_value_addressed_singletons(self):
        assert [mode.value for mode in ALL_MODES] == [
            "NL", "IR", "R", "U", "IW", "W",
        ]
        for mode in ALL_MODES:
            assert LockMode(mode.value) is mode
            assert str(mode) == mode.value
            for clone in (
                pickle.loads(pickle.dumps(mode)),
                copy.copy(mode),
                copy.deepcopy(mode),
                copy.deepcopy({mode: [mode]}).popitem()[1][0],
            ):
                assert clone is mode and hash(clone) == hash(mode)
        assert len({*ALL_MODES}) == 6

    def test_rendered_tables_unchanged(self):
        """``python -m repro tables`` prints these, byte for byte."""

        digest = hashlib.sha256(render_all().encode()).hexdigest()
        assert digest == (
            "3f596cfffc0eb985019906cb8660a50b"
            "8b15c6ba1d0c4faf0f4ce74f55960607"
        )


class TestStrengthOrder:
    """Eq. (1): ∅ < IR < R < U = IW < W."""

    def test_total_order_values(self):
        assert strength(LockMode.NONE) < strength(LockMode.IR)
        assert strength(LockMode.IR) < strength(LockMode.R)
        assert strength(LockMode.R) < strength(LockMode.U)
        assert strength(LockMode.U) == strength(LockMode.IW)
        assert strength(LockMode.IW) < strength(LockMode.W)

    def test_stronger_or_equal_reflexive(self):
        for mode in ALL_MODES:
            assert stronger_or_equal(mode, mode)

    @given(left=ALL, right=ALL)
    def test_strictly_weaker_is_strict(self, left, right):
        assert strictly_weaker(left, right) == (
            strength(left) < strength(right)
        )

    @given(left=ALL, right=ALL)
    def test_trichotomy_via_strength(self, left, right):
        weaker = strictly_weaker(left, right)
        stronger = strictly_weaker(right, left)
        equal = strength(left) == strength(right)
        assert weaker + stronger + equal == 1

    def test_strength_matches_compatibility_counts(self):
        """Definition 1: stronger = compatible with fewer modes."""

        counts = {mode: len(compatible_modes(mode)) for mode in REAL_MODES}
        assert counts[LockMode.IR] == 4
        assert counts[LockMode.R] == 3
        assert counts[LockMode.U] == 2
        assert counts[LockMode.IW] == 2
        assert counts[LockMode.W] == 0
        for left, right in itertools.combinations(REAL_MODES, 2):
            if strength(left) < strength(right):
                assert counts[left] >= counts[right]


class TestTable1aCompatibility:
    """Table 1(a): the OMG concurrency-service conflict matrix."""

    # (mode, conflicting modes) — the reconstruction oracle.
    CONFLICT_TABLE = [
        (LockMode.IR, {LockMode.W}),
        (LockMode.R, {LockMode.IW, LockMode.W}),
        (LockMode.U, {LockMode.U, LockMode.IW, LockMode.W}),
        (LockMode.IW, {LockMode.R, LockMode.U, LockMode.W}),
        (LockMode.W, set(REAL_MODES)),
    ]

    @pytest.mark.parametrize("mode,expected", CONFLICT_TABLE)
    def test_conflict_sets(self, mode, expected):
        assert conflicting_modes(mode) == frozenset(expected)

    @given(left=ALL, right=ALL)
    def test_symmetry(self, left, right):
        assert compatible(left, right) == compatible(right, left)

    @given(mode=ALL)
    def test_none_compatible_with_everything(self, mode):
        assert compatible(LockMode.NONE, mode)

    def test_w_conflicts_with_itself(self):
        assert conflicts(LockMode.W, LockMode.W)

    def test_upgrade_conflicts_with_upgrade(self):
        """§3.4: 'An upgrade lock conflicts with upgrade locks held by
        other nodes.'"""

        assert conflicts(LockMode.U, LockMode.U)

    def test_upgrade_is_a_shared_read_lock(self):
        """U is a read lock: it coexists with IR and R."""

        assert compatible(LockMode.U, LockMode.IR)
        assert compatible(LockMode.U, LockMode.R)

    def test_intents_compatible_with_each_other(self):
        """Multiple IW holders enable disjoint lower-level writes (§3.1)."""

        assert compatible(LockMode.IW, LockMode.IW)
        assert compatible(LockMode.IR, LockMode.IW)
        assert compatible(LockMode.IR, LockMode.IR)

    @given(left=MODES, right=MODES)
    def test_conflicts_is_negation_of_compatible(self, left, right):
        assert conflicts(left, right) != compatible(left, right)

    def test_compat_sets_nested_along_strength_chain(self):
        """Along ∅<IR<R<U and ∅<IR<IW<W, stronger ⇒ fewer compatibilities.

        This nesting is what makes the token node's local compatibility
        check sufficient for global safety (end of paper §3).
        """

        for chain in (
            [LockMode.IR, LockMode.R, LockMode.U, LockMode.W],
            [LockMode.IR, LockMode.IW, LockMode.W],
        ):
            for weaker, stronger in zip(chain, chain[1:]):
                assert compatible_modes(stronger) <= compatible_modes(weaker)


class TestTable1bChildGrants:
    """Table 1(b) / Rule 3.1: grants by non-token nodes."""

    GRANTABLE = {
        LockMode.IR: {LockMode.IR},
        LockMode.R: {LockMode.IR, LockMode.R},
        LockMode.U: {LockMode.IR, LockMode.R},
        LockMode.IW: {LockMode.IR, LockMode.IW},
        LockMode.W: set(),
    }

    @pytest.mark.parametrize("owned", REAL_MODES)
    def test_grantable_sets(self, owned):
        granted = {m for m in REAL_MODES if child_can_grant(owned, m)}
        assert granted == self.GRANTABLE[owned]

    def test_none_owner_grants_nothing(self):
        for mode in REAL_MODES:
            assert not child_can_grant(LockMode.NONE, mode)

    @given(owned=ALL, requested=MODES)
    def test_grant_requires_compatibility_and_dominance(self, owned, requested):
        expected = (
            owned is not LockMode.NONE
            and compatible(owned, requested)
            and stronger_or_equal(owned, requested)
        )
        assert child_can_grant(owned, requested) == expected

    @given(owned=ALL, requested=MODES)
    def test_child_grant_implies_token_grant(self, owned, requested):
        """Rule 3.2 is strictly more permissive than Rule 3.1."""

        if child_can_grant(owned, requested):
            assert token_can_grant(owned, requested)


class TestTokenGrant:
    """Rule 3.2 and the transfer-vs-copy split."""

    @given(owned=ALL, requested=MODES)
    def test_token_grant_is_compatibility(self, owned, requested):
        assert token_can_grant(owned, requested) == compatible(owned, requested)

    @given(owned=ALL, requested=MODES)
    def test_transfer_exactly_when_strictly_stronger(self, owned, requested):
        expected = compatible(owned, requested) and strictly_weaker(
            owned, requested
        )
        assert token_transfer_required(owned, requested) == expected

    def test_u_and_w_always_transfer(self):
        """Any grantable U or W moves the token — the basis of Table 2(a)'s
        all-queue rows and of upgrades being token-local (Rule 7)."""

        for requested in (LockMode.U, LockMode.W):
            assert always_transfers_token(requested)
            for owned in ALL_MODES:
                if token_can_grant(owned, requested):
                    assert token_transfer_required(owned, requested)

    def test_ir_r_iw_do_not_always_transfer(self):
        assert not always_transfers_token(LockMode.IR)
        assert not always_transfers_token(LockMode.R)
        assert not always_transfers_token(LockMode.IW)
        # IW grants by an IW-owning token are copies, not transfers.
        assert not token_transfer_required(LockMode.IW, LockMode.IW)


class TestTable2aQueueForward:
    """Table 2(a) / Rule 4.1: queue vs forward at a pending non-token node."""

    EXPECTED_ROWS = {
        LockMode.NONE: "FFFFF",
        LockMode.IR: "QFFFF",
        LockMode.R: "QQFFF",
        LockMode.U: "QQQQQ",
        LockMode.IW: "QFFQF",
        LockMode.W: "QQQQQ",
    }

    @pytest.mark.parametrize("pending", ALL_MODES)
    def test_rows(self, pending):
        row = "".join(
            "Q" if should_queue(pending, incoming) else "F"
            for incoming in REAL_MODES
        )
        assert row == self.EXPECTED_ROWS[pending]

    @given(pending=MODES, incoming=MODES)
    def test_queued_requests_are_servable_after_grant(self, pending, incoming):
        """Queueing must never strand a request: after the pending mode is
        granted, the node can either serve the queued request as a child
        (Rule 3.1) or it will hold the token (U/W grants transfer it)."""

        if should_queue(pending, incoming):
            assert child_can_grant(pending, incoming) or always_transfers_token(
                pending
            )


class TestTable2bFreezing:
    """Table 2(b) / Rule 6: frozen modes at the token node."""

    def test_paper_worked_example(self):
        """§3.3: token owns IW, an R request is queued → freeze {IW}."""

        assert freeze_set(LockMode.IW, LockMode.R) == frozenset({LockMode.IW})

    # Every legible cell of the paper's Table 2(b).
    LEGIBLE_CELLS = [
        (LockMode.IR, LockMode.W,
         {LockMode.IR, LockMode.R, LockMode.U, LockMode.IW}),
        (LockMode.R, LockMode.IW, {LockMode.R, LockMode.U}),
        (LockMode.R, LockMode.W, {LockMode.IR, LockMode.R, LockMode.U}),
        (LockMode.U, LockMode.W, {LockMode.IR, LockMode.R}),
        (LockMode.IW, LockMode.W, {LockMode.IR, LockMode.IW}),
    ]

    @pytest.mark.parametrize("owned,requested,expected", LEGIBLE_CELLS)
    def test_legible_paper_cells(self, owned, requested, expected):
        assert freeze_set(owned, requested) == frozenset(expected)

    @given(owned=MODES, requested=MODES)
    def test_formula(self, owned, requested):
        computed = freeze_set(owned, requested)
        expected = {
            m
            for m in REAL_MODES
            if conflicts(m, requested) and compatible(m, owned)
        }
        assert computed == frozenset(expected)

    @given(owned=MODES, requested=MODES)
    def test_frozen_modes_all_conflict_with_request(self, owned, requested):
        """Freezing only stops grants that would delay the queued request."""

        for frozen in freeze_set(owned, requested):
            assert conflicts(frozen, requested)

    @given(owned=MODES, requested=MODES)
    def test_frozen_modes_currently_grantable(self, owned, requested):
        """Only modes the copyset tree could still grant need freezing."""

        for frozen in freeze_set(owned, requested):
            assert compatible(frozen, owned)

    def test_w_owner_freezes_nothing(self):
        """With W owned, nothing is grantable, so nothing needs freezing."""

        for requested in REAL_MODES:
            assert freeze_set(LockMode.W, requested) == frozenset()


class TestIntentionModes:
    """Multi-granularity intent derivation (§3.1 example)."""

    def test_reads_take_ir(self):
        assert intention_mode(LockMode.R) is LockMode.IR
        assert intention_mode(LockMode.IR) is LockMode.IR

    def test_writes_take_iw(self):
        assert intention_mode(LockMode.W) is LockMode.IW
        assert intention_mode(LockMode.IW) is LockMode.IW
        assert intention_mode(LockMode.U) is LockMode.IW

    def test_none_maps_to_none(self):
        assert intention_mode(LockMode.NONE) is LockMode.NONE

    @given(mode=MODES)
    def test_intent_weaker_or_equal(self, mode):
        assert stronger_or_equal(mode, intention_mode(mode)) or (
            mode is LockMode.U  # U and IW share a strength level
        )


class TestMaxMode:
    """The owned-mode aggregation helper."""

    def test_empty_is_none(self):
        assert max_mode([]) is LockMode.NONE

    def test_picks_strongest(self):
        assert max_mode([LockMode.IR, LockMode.W, LockMode.R]) is LockMode.W

    @given(modes=st.lists(ALL, max_size=6))
    def test_result_dominates_all_inputs(self, modes):
        result = max_mode(modes)
        for mode in modes:
            assert stronger_or_equal(result, mode)

    @given(modes=st.lists(ALL, min_size=1, max_size=6))
    def test_result_is_one_of_inputs(self, modes):
        assert max_mode(modes) in modes or max_mode(modes) is LockMode.NONE


class TestRendering:
    """The table renderers used by the experiments harness."""

    def test_table_1a_marks_w_row_fully(self):
        rendered = render_table_1a()
        w_row = [line for line in rendered.splitlines() if line.startswith("W")]
        assert len(w_row) == 1
        assert w_row[0].count("X") == 5

    def test_table_1b_contains_all_modes(self):
        rendered = render_table_1b()
        for mode in REAL_MODES:
            assert str(mode) in rendered

    def test_table_2a_has_queue_and_forward(self):
        rendered = render_table_2a()
        assert "Q" in rendered and "F" in rendered

    def test_table_2b_shows_paper_example(self):
        rendered = render_table_2b()
        iw_row = [
            line for line in rendered.splitlines() if line.startswith("IW")
        ]
        assert len(iw_row) == 1
        assert "IW" in iw_row[0]
