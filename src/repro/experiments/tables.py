"""Tables 1 and 2 — the protocol's rule tables, regenerated.

The paper's tables are not measurements but derived artifacts of the mode
algebra; regenerating them from :mod:`repro.core.modes` (and checking the
legible cells/examples of the paper text) is the reproduction.  The
expected matrices below are the reconstruction documented in DESIGN.md §3
and double as regression oracles for the derivation code.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from ..core.modes import (
    REAL_MODES,
    LockMode,
    child_can_grant,
    conflicts,
    freeze_set,
    render_table_1a,
    render_table_1b,
    render_table_2a,
    render_table_2b,
    should_queue,
)

#: Table 1(a): rows/cols in (IR, R, U, IW, W) order, True = conflict.
EXPECTED_TABLE_1A: Tuple[Tuple[bool, ...], ...] = (
    (False, False, False, False, True),   # IR
    (False, False, False, True, True),    # R
    (False, False, True, True, True),     # U
    (False, True, True, False, True),     # IW
    (True, True, True, True, True),       # W
)

#: Table 1(b): True = "X" (a non-token owner of M1 may NOT grant M2).
EXPECTED_TABLE_1B: Tuple[Tuple[bool, ...], ...] = (
    (False, True, True, True, True),      # IR grants only IR
    (False, False, True, True, True),     # R grants IR, R
    (False, False, True, True, True),     # U grants IR, R
    (False, True, True, False, True),     # IW grants IR, IW
    (True, True, True, True, True),       # W grants nothing
)

#: Table 2(a): 'Q' = queue locally, 'F' = forward; rows = pending mode
#: (NONE, IR, R, U, IW, W), cols = incoming mode (IR, R, U, IW, W).
EXPECTED_TABLE_2A: Tuple[str, ...] = (
    "FFFFF",  # no pending request → always forward
    "QFFFF",  # pending IR: only IR will be locally grantable
    "QQFFF",  # pending R: IR and R
    "QQQQQ",  # pending U: the grant will carry the token → queue all
    "QFFQF",  # pending IW: IR and IW
    "QQQQQ",  # pending W: the grant will carry the token → queue all
)

#: Table 2(b): frozen modes per (owned, requested) incompatible pair.
EXPECTED_TABLE_2B: Dict[Tuple[LockMode, LockMode], frozenset] = {
    (LockMode.IR, LockMode.W): frozenset(
        {LockMode.IR, LockMode.R, LockMode.U, LockMode.IW}
    ),
    (LockMode.R, LockMode.IW): frozenset({LockMode.R, LockMode.U}),
    (LockMode.R, LockMode.W): frozenset(
        {LockMode.IR, LockMode.R, LockMode.U}
    ),
    (LockMode.U, LockMode.U): frozenset(),
    (LockMode.U, LockMode.IW): frozenset({LockMode.R}),
    (LockMode.U, LockMode.W): frozenset({LockMode.IR, LockMode.R}),
    (LockMode.IW, LockMode.R): frozenset({LockMode.IW}),
    (LockMode.IW, LockMode.U): frozenset({LockMode.IW}),
    (LockMode.IW, LockMode.W): frozenset({LockMode.IR, LockMode.IW}),
    (LockMode.W, LockMode.IR): frozenset(),
    (LockMode.W, LockMode.R): frozenset(),
    (LockMode.W, LockMode.U): frozenset(),
    (LockMode.W, LockMode.IW): frozenset(),
    (LockMode.W, LockMode.W): frozenset(),
}


def table_1a_matrix() -> Tuple[Tuple[bool, ...], ...]:
    """Compute Table 1(a) from the mode algebra."""

    return tuple(
        tuple(conflicts(m1, m2) for m2 in REAL_MODES) for m1 in REAL_MODES
    )


def table_1b_matrix() -> Tuple[Tuple[bool, ...], ...]:
    """Compute Table 1(b) from Rule 3.1."""

    return tuple(
        tuple(not child_can_grant(m1, m2) for m2 in REAL_MODES)
        for m1 in REAL_MODES
    )


def table_2a_matrix() -> Tuple[str, ...]:
    """Compute Table 2(a) from Rule 4.1."""

    rows: List[str] = []
    for pending in (LockMode.NONE,) + REAL_MODES:
        rows.append(
            "".join(
                "Q" if should_queue(pending, incoming) else "F"
                for incoming in REAL_MODES
            )
        )
    return tuple(rows)


def table_2b_matrix() -> Dict[Tuple[LockMode, LockMode], frozenset]:
    """Compute Table 2(b) from the freeze-set formula."""

    return {
        (owned, requested): freeze_set(owned, requested)
        for owned in REAL_MODES
        for requested in REAL_MODES
        if conflicts(owned, requested)
    }


def verify_all() -> List[Tuple[str, bool]]:
    """Check every computed table against the reconstruction oracle."""

    return [
        ("Table 1(a) compatibility", table_1a_matrix() == EXPECTED_TABLE_1A),
        ("Table 1(b) child grants", table_1b_matrix() == EXPECTED_TABLE_1B),
        ("Table 2(a) queue/forward", table_2a_matrix() == EXPECTED_TABLE_2A),
        ("Table 2(b) freezing", table_2b_matrix() == EXPECTED_TABLE_2B),
    ]


def render_all() -> str:
    """Render all four tables exactly as the experiments harness prints them."""

    parts = [
        render_table_1a(),
        render_table_1b(),
        render_table_2a(),
        render_table_2b(),
    ]
    status = "\n".join(
        f"  [{'PASS' if ok else 'FAIL'}] {name}" for name, ok in verify_all()
    )
    parts.append("Verification against the reconstruction oracle:\n" + status)
    return "\n\n".join(parts)
