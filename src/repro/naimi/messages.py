"""Messages of the Naimi-Tréhel mutual-exclusion protocol [14].

Two message types only: a request travelling along the probable-owner
(``last``) chain, and the token itself.
"""

from __future__ import annotations

import dataclasses

from ..core.messages import Message, NodeId, declare_messages


@dataclasses.dataclass(frozen=True)
class NaimiMessage(Message):
    """Base class for Naimi protocol messages."""


@dataclasses.dataclass(frozen=True)
class NaimiRequestMessage(NaimiMessage):
    """A request by ``origin``, forwarded along probable-owner links."""

    origin: NodeId
    #: Fencing token the issuing session presents (see
    #: :mod:`repro.leases`); ``0`` = unfenced.  A positive token at or
    #: below the receiver's fence floor marks a revoked holder's request
    #: and is dropped.
    fencing_token: int = 0


@dataclasses.dataclass(frozen=True)
class NaimiTokenMessage(NaimiMessage):
    """The token: possession grants the critical section."""


declare_messages(
    {NaimiRequestMessage: "request", NaimiTokenMessage: "token"},
    plane="protocol",
    ordered=True,
)
