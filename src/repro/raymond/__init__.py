"""Second baseline: Raymond's static-tree mutual exclusion [16].

The paper's related work (§5) singles out Raymond's algorithm as the
other O(log n) token protocol, differing in its **non-adaptive** logical
structure: the tree never changes, so there is no path compression.
Implementing it alongside Naimi-Tréhel lets the benchmark suite measure
that comparison (``python -m repro related``).
"""

from .automaton import RaymondAutomaton
from .lockspace import RaymondLockSpace
from .messages import (
    RaymondMessage,
    RaymondPrivilegeMessage,
    RaymondRequestMessage,
)
from .topology import balanced_binary_tree, chain, star, validate

__all__ = [
    "RaymondAutomaton",
    "RaymondLockSpace",
    "RaymondMessage",
    "RaymondPrivilegeMessage",
    "RaymondRequestMessage",
    "balanced_binary_tree",
    "chain",
    "star",
    "validate",
]
