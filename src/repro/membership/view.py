"""Epoch-numbered membership views.

A :class:`MembershipView` is the cluster's agreed answer to "who is a
member right now".  Views are totally ordered by their epoch: a node
adopts any view with a higher epoch than the one it has installed and
ignores everything else, which makes view installation idempotent and
safe to re-broadcast (the anti-entropy path piggybacks on heartbeats).

Views change through the same two-phase, quorum-gated pattern the token
regeneration protocol uses (docs/FAULTS.md §"token regeneration"): a
proposer picks ``epoch = installed + 1``, collects acks from a majority
of the *current* view's members, and only then broadcasts the install.
A majority of the old view must survive into the new one for this to be
live, which holds for single-node joins/leaves — the granularity the
membership layer operates at (see docs/MEMBERSHIP.md).
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Tuple

from ..core.messages import NodeId


@dataclasses.dataclass(frozen=True)
class MembershipView:
    """One installed membership view: an epoch plus a sorted member set."""

    epoch: int
    members: Tuple[NodeId, ...]

    def __post_init__(self) -> None:
        ordered = tuple(sorted(set(self.members)))
        if ordered != self.members:
            object.__setattr__(self, "members", ordered)

    def quorum(self) -> int:
        """Majority size over this view's members."""

        return len(self.members) // 2 + 1

    def to_payload(self) -> Dict[str, object]:
        """JSON-safe representation (journal / wire / monitor)."""

        return {"epoch": self.epoch, "members": list(self.members)}

    @classmethod
    def from_payload(cls, payload: Dict[str, object]) -> "MembershipView":
        return cls(
            epoch=int(payload.get("epoch", 0)),
            members=tuple(int(n) for n in payload.get("members", ())),
        )
