"""Dynamic membership: online join / graceful leave / decommission.

The paper assumes a fixed server group; this package removes that
assumption.  It defines the epoch-numbered :class:`MembershipView`, the
view-change wire messages, and (in :mod:`repro.membership.layer`) the
layer a :class:`repro.faults.recovery.RecoveryManager` composes; with
the cluster harnesses it lets nodes be added and retired at runtime on
all three protocols without violating Rule 1 or losing token custody.
See docs/MEMBERSHIP.md for the protocol description.
"""

from .messages import (
    MEMBERSHIP_TYPES,
    ChildMigrate,
    HandoffMessage,
    JoinRequest,
    StateTransfer,
    ViewAck,
    ViewInstall,
    ViewProposal,
)
from .view import MembershipView

__all__ = [
    "MEMBERSHIP_TYPES",
    "ChildMigrate",
    "HandoffMessage",
    "JoinRequest",
    "MembershipView",
    "StateTransfer",
    "ViewAck",
    "ViewInstall",
    "ViewProposal",
]
