"""Messages of Raymond's tree-based mutual-exclusion algorithm [16].

Two message types, like Naimi's: a request travelling toward the current
privilege holder along static tree edges, and the privilege (token).
"""

from __future__ import annotations

import dataclasses

from ..core.messages import Message, declare_messages


@dataclasses.dataclass(frozen=True)
class RaymondMessage(Message):
    """Base class for Raymond protocol messages."""


@dataclasses.dataclass(frozen=True)
class RaymondRequestMessage(RaymondMessage):
    """A request from a neighbour (or, transitively, its subtree).

    ``fencing_token`` is the issuing session's lease fencing token (see
    :mod:`repro.leases`); ``0`` = unfenced.  A positive token at or below
    the receiver's fence floor marks a revoked holder's request and is
    dropped.
    """

    fencing_token: int = 0


@dataclasses.dataclass(frozen=True)
class RaymondPrivilegeMessage(RaymondMessage):
    """The privilege (token), moving one tree edge at a time."""


declare_messages(
    {RaymondRequestMessage: "request", RaymondPrivilegeMessage: "token"},
    plane="protocol",
    ordered=True,
)
