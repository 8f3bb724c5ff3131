"""Exception hierarchy for the :mod:`repro` package.

Every error raised by the library derives from :class:`ReproError` so that
callers can catch library failures with a single ``except`` clause while
still being able to distinguish protocol violations from usage mistakes.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the :mod:`repro` library."""


class ProtocolError(ReproError):
    """An internal protocol invariant was violated.

    Raised when a node receives a message that is impossible under the
    protocol rules (for example a token arriving at a node that already
    holds the token).  Seeing this exception always indicates a bug in the
    protocol implementation or a corrupted transport, never a user error.
    """


class LockUsageError(ReproError):
    """The public locking API was used incorrectly.

    Examples: releasing a lock that is not held, upgrading while not
    holding an upgrade (``U``) lock, or requesting a lock while a request
    on the same lock is already pending on the same node.
    """


class InvariantViolation(ReproError):
    """A verification monitor detected a safety violation.

    Raised by :mod:`repro.verification` monitors, e.g. when two nodes
    simultaneously hold incompatible modes on one lock.
    """


class SimulationError(ReproError):
    """The discrete-event simulator was driven into an illegal state."""


class ConfigurationError(ReproError):
    """An experiment or cluster was configured with invalid parameters."""


def unroutable(sender: object, dest: object) -> SimulationError:
    """What a fabric raises for a send to an unregistered node or to the
    sender's own node (no protocol talks to itself over the wire)."""

    if dest == sender:
        return SimulationError(f"node {sender} sent a message to itself")
    return SimulationError(f"message to unregistered node {dest}")
