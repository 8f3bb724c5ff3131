"""Baseline: the Naimi-Tréhel distributed mutual-exclusion protocol [14].

Used by the paper's evaluation in two configurations:

* **pure** — a single token arbitrates one global lock,
* **same work** — one token per table entry; hierarchical operations are
  emulated by acquiring every relevant entry token in a fixed global
  order (deadlock avoidance by ordering).

The ordered multi-lock acquisition logic lives in the workload clients
(:mod:`repro.workload`), since it is application behaviour, not protocol.
"""

from .automaton import NaimiAutomaton
from .lockspace import NaimiLockSpace
from .messages import (
    NaimiMessage,
    NaimiRequestMessage,
    NaimiTokenMessage,
)

__all__ = [
    "NaimiAutomaton",
    "NaimiLockSpace",
    "NaimiMessage",
    "NaimiRequestMessage",
    "NaimiTokenMessage",
]
