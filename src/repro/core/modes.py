"""Lock modes and the rule tables of the hierarchical locking protocol.

This module encodes the mode algebra of Desai & Mueller (ICDCS 2003),
Section 3.1, together with all four rule tables:

* Table 1(a) — mode compatibility (the OMG Concurrency Service conflict
  matrix),
* Table 1(b) — which owned modes allow a *non-token* node to grant a
  request (Rule 3.1),
* Table 2(a) — whether a non-token node with a pending request queues or
  forwards an ungrantable incoming request (Rule 4.1),
* Table 2(b) — which modes the token node freezes when it queues an
  incompatible request (Rule 6 / Section 3.3).

The tables are *derived* from the compatibility matrix and the strength
order, mirroring how the paper presents them as consequences of
Rules 1-6 — derived once at import, pinned cell by cell in
``tests/core/test_modes.py``.  Every public predicate below is one
indexed lookup, ``table[left.code][right.code]``.
"""

from __future__ import annotations

import enum
from typing import Callable, Dict, FrozenSet, Iterable, List, Tuple


class LockMode(enum.Enum):
    """The five CORBA concurrency-service lock modes plus the empty mode.

    ``NONE`` (the paper's ``∅``) is the mode of a node that neither holds
    nor owns the lock.  The remaining modes follow the OMG Concurrency
    Service specification: intention read, read, upgrade, intention write
    and write.

    Beside its ``value`` (the spelling on the wire, in the WAL and in
    flight dumps) each member carries ``code``, its row and column in
    every rule table of this module, and ``strength`` per Eq. (1):
    ``∅ < IR < R < U = IW < W`` — a higher strength constrains
    concurrency more, and ``U`` and ``IW`` share a level.
    """

    NONE = "NL", 0
    IR = "IR", 1
    R = "R", 2
    U = "U", 3
    IW = "IW", 3
    W = "W", 4

    code: int
    strength: int

    def __new__(cls, value: str, strength: int) -> "LockMode":
        member = object.__new__(cls)
        member._value_ = value
        member.code = len(cls.__members__)
        member.strength = strength
        return member

    # Members are singletons, so the C-level identity hash is exact, and
    # it keeps a Python frame (``Enum.__hash__``) out of every set and
    # dict operation on modes.  Set order is address-dependent: sort
    # before iterating where order can be observed.
    __hash__ = object.__hash__

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"LockMode.{self.name}"

    def __str__(self) -> str:
        return self.value


#: All real (non-empty) modes in table order, as used by the paper's tables.
REAL_MODES: Tuple[LockMode, ...] = (
    LockMode.IR,
    LockMode.R,
    LockMode.U,
    LockMode.IW,
    LockMode.W,
)

#: All modes including the empty mode, in ``code`` order: strength order,
#: ties broken by table order for U/IW which share a strength level.
ALL_MODES: Tuple[LockMode, ...] = (LockMode.NONE,) + REAL_MODES


def _table(cell: Callable[[LockMode, LockMode], object]) -> Tuple[tuple, ...]:
    """Evaluate *cell* on every ordered mode pair — once, at import.

    The result is indexed ``[left.code][right.code]``.
    """

    return tuple(
        tuple(cell(left, right) for right in ALL_MODES) for left in ALL_MODES
    )


# ---------------------------------------------------------------------------
# Strength order (Eq. 1):   ∅ < IR < R < U = IW < W
# ---------------------------------------------------------------------------


def strength(mode: LockMode) -> int:
    """Return the numeric strength of *mode* per the paper's Eq. (1)."""

    return mode.strength


_STRONGER_OR_EQUAL = _table(lambda left, right: left.strength >= right.strength)


def stronger_or_equal(left: LockMode, right: LockMode) -> bool:
    """Return ``True`` iff ``left >= right`` in the strength order."""

    return _STRONGER_OR_EQUAL[left.code][right.code]


def strictly_weaker(left: LockMode, right: LockMode) -> bool:
    """Return ``True`` iff ``left < right`` in the strength order."""

    return not _STRONGER_OR_EQUAL[left.code][right.code]


def max_mode(modes: Iterable[LockMode], best: LockMode = LockMode.NONE) -> LockMode:
    """Return the strongest of *best* and the modes in *modes*.

    Where ``U`` and ``IW`` tie, the one encountered first wins; the
    protocol never produces a tree containing both simultaneously because
    they conflict (Table 1a), so the tie-break is unobservable in practice.
    """

    for mode in modes:
        if mode.strength > best.strength:
            best = mode
    return best


# ---------------------------------------------------------------------------
# Table 1(a) — compatibility.
# ---------------------------------------------------------------------------

# The OMG Concurrency Service conflict matrix.  ``_CONFLICTS[m]`` is the set
# of modes that may NOT be held concurrently with ``m``.  NONE conflicts
# with nothing.
_CONFLICTS: Dict[LockMode, FrozenSet[LockMode]] = {
    LockMode.NONE: frozenset(),
    LockMode.IR: frozenset({LockMode.W}),
    LockMode.R: frozenset({LockMode.IW, LockMode.W}),
    LockMode.U: frozenset({LockMode.U, LockMode.IW, LockMode.W}),
    LockMode.IW: frozenset({LockMode.R, LockMode.U, LockMode.W}),
    LockMode.W: frozenset(
        {LockMode.IR, LockMode.R, LockMode.U, LockMode.IW, LockMode.W}
    ),
}

_COMPATIBLE = _table(lambda left, right: right not in _CONFLICTS[left])


def compatible(left: LockMode, right: LockMode) -> bool:
    """Rule 1: modes are compatible iff they do not conflict (Table 1a)."""

    return _COMPATIBLE[left.code][right.code]


def conflicts(left: LockMode, right: LockMode) -> bool:
    """Return ``True`` iff the two modes conflict per Table 1(a)."""

    return not _COMPATIBLE[left.code][right.code]


def compatible_modes(mode: LockMode) -> FrozenSet[LockMode]:
    """Return the set of real modes compatible with *mode*."""

    return frozenset(REAL_MODES) - _CONFLICTS[mode]


def conflicting_modes(mode: LockMode) -> FrozenSet[LockMode]:
    """Return the set of real modes conflicting with *mode*."""

    return _CONFLICTS[mode]


# ---------------------------------------------------------------------------
# Table 1(b) — grants by non-token nodes (Rule 3.1).
# ---------------------------------------------------------------------------

_CHILD_CAN_GRANT = _table(
    lambda owned, requested: LockMode.NONE not in (owned, requested)
    and compatible(owned, requested)
    and stronger_or_equal(owned, requested)
)


def child_can_grant(owned: LockMode, requested: LockMode) -> bool:
    """Rule 3.1: a non-token node owning *owned* may grant *requested*.

    Requires compatibility *and* that the owned mode is at least as strong
    as the requested one.  The strength condition is what makes local
    knowledge sufficient for correctness: the granter's owned mode is an
    upper bound on every mode held in its subtree, and anything compatible
    with a stronger mode is compatible with all weaker ones below it.
    """

    return _CHILD_CAN_GRANT[owned.code][requested.code]


_TOKEN_CAN_GRANT = _table(
    lambda owned, requested: requested is not LockMode.NONE
    and compatible(owned, requested)
)


def token_can_grant(owned: LockMode, requested: LockMode) -> bool:
    """Rule 3.2: the token node grants iff the modes are compatible."""

    return _TOKEN_CAN_GRANT[owned.code][requested.code]


_TOKEN_TRANSFER_REQUIRED = _table(
    lambda owned, requested: token_can_grant(owned, requested)
    and strictly_weaker(owned, requested)
)


def token_transfer_required(owned: LockMode, requested: LockMode) -> bool:
    """Rule 3.2 (operational): grant by token transfer vs. by copy.

    When the token node grants a request *stronger* than its owned mode the
    token itself moves to the requester; otherwise the requester receives a
    granted copy and becomes a child.
    """

    return _TOKEN_TRANSFER_REQUIRED[owned.code][requested.code]


def always_transfers_token(requested: LockMode) -> bool:
    """Return True iff any grant of *requested* necessarily moves the token.

    ``U`` and ``W`` conflict with every mode of equal or greater strength,
    so whenever they are grantable at the token the owned mode is strictly
    weaker and Rule 3.2 transfers the token.  This property drives the
    all-queue rows of Table 2(a).
    """

    return requested in (LockMode.U, LockMode.W)


# ---------------------------------------------------------------------------
# Table 2(a) — queue vs forward at a non-token node with a pending request
# (Rule 4.1).
# ---------------------------------------------------------------------------

_SHOULD_QUEUE = _table(
    lambda pending, requested: pending is not LockMode.NONE
    and (always_transfers_token(pending) or child_can_grant(pending, requested))
)


def should_queue(pending: LockMode, requested: LockMode) -> bool:
    """Rule 4.1 / Table 2(a): queue locally (True) or forward (False).

    A non-token node that cannot grant an incoming request, but has a
    request of its own in flight for mode *pending*, queues the incoming
    request exactly when it will be able to serve it locally once its own
    request is granted:

    * if the pending mode necessarily arrives via a token transfer
      (``U``/``W``), this node is about to become the token node, and token
      nodes queue everything (Rule 4.2) — so queue;
    * otherwise queue iff the granted pending mode could grant *requested*
      as a non-token node (Rule 3.1).

    Queuing in any other situation could strand the request, so it is
    forwarded toward the token instead.
    """

    return _SHOULD_QUEUE[pending.code][requested.code]


# ---------------------------------------------------------------------------
# Table 2(b) — frozen modes at the token node (Section 3.3).
# ---------------------------------------------------------------------------

_FREEZE_SET = _table(
    lambda owned, requested: frozenset(
        m
        for m in REAL_MODES
        if conflicts(m, requested) and compatible(m, owned)
    )
)


def freeze_set(owned: LockMode, requested: LockMode) -> FrozenSet[LockMode]:
    """Table 2(b): modes frozen when the token queues an incompatible request.

    Freezing must stop every *new* grant that would keep delaying the
    queued request, i.e. every mode that conflicts with the request; but
    only modes compatible with the token's owned mode can currently be
    granted anywhere in the tree, so the frozen set is the intersection::

        {M : conflicts(M, requested)} ∩ {M : compatible(M, owned)}

    Example from the paper: token owns ``IW`` and queues an ``R`` request →
    the frozen set is ``{IW}``.
    """

    return _FREEZE_SET[owned.code][requested.code]


def intention_mode(mode: LockMode) -> LockMode:
    """Return the intent mode to take on an ancestor for a leaf access.

    Multi-granularity locking (Gray et al.): reading below requires ``IR``
    on the ancestor, writing (or intending to write, as ``U`` does) below
    requires ``IW``.
    """

    if mode in (LockMode.IR, LockMode.R):
        return LockMode.IR
    if mode in (LockMode.U, LockMode.IW, LockMode.W):
        return LockMode.IW
    return LockMode.NONE


# ---------------------------------------------------------------------------
# Table rendering — used by the experiments harness and the table benchmarks
# to regenerate the paper's Tables 1 and 2 verbatim.
# ---------------------------------------------------------------------------


def _render_grid(
    title: str,
    cell: "callable",
    rows: Tuple[LockMode, ...] = ALL_MODES,
    cols: Tuple[LockMode, ...] = REAL_MODES,
    width: int = 10,
) -> str:
    """Render a mode × mode table as fixed-width text."""

    lines: List[str] = [title]
    header = "M1\\M2".ljust(width) + "".join(str(c).ljust(width) for c in cols)
    lines.append(header)
    for row in rows:
        label = "(none)" if row is LockMode.NONE else str(row)
        cells = "".join(str(cell(row, col)).ljust(width) for col in cols)
        lines.append(label.ljust(width) + cells)
    return "\n".join(lines)


def render_table_1a() -> str:
    """Render Table 1(a): ``X`` marks incompatible mode pairs."""

    return _render_grid(
        "Table 1(a) - Incompatible modes (X = conflict)",
        lambda m1, m2: "X" if conflicts(m1, m2) else ".",
    )


def render_table_1b() -> str:
    """Render Table 1(b): ``X`` marks owned modes that cannot child-grant."""

    return _render_grid(
        "Table 1(b) - No child grant (X = cannot grant)",
        lambda m1, m2: "." if child_can_grant(m1, m2) else "X",
    )


def render_table_2a() -> str:
    """Render Table 2(a): ``Q`` = queue locally, ``F`` = forward."""

    return _render_grid(
        "Table 2(a) - Queue (Q) or forward (F) at non-token node",
        lambda m1, m2: "Q" if should_queue(m1, m2) else "F",
    )


def render_table_2b() -> str:
    """Render Table 2(b): frozen modes per (owned, requested) pair."""

    def cell(m1: LockMode, m2: LockMode) -> str:
        if compatible(m1, m2):
            return "-"
        frozen = freeze_set(m1, m2)
        if not frozen:
            return "(none)"
        return ",".join(str(m) for m in sorted(frozen, key=lambda m: m.code))

    return _render_grid(
        "Table 2(b) - Frozen modes at token (owned x requested)",
        cell,
        rows=REAL_MODES,
        width=14,
    )
