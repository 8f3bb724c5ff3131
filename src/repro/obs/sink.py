"""Hook surface between the runtime layers and the observability layer.

Every instrumented component — the protocol automata (through the
automaton contract, :mod:`repro.core.contract`), the discrete-event
engine, the simulated network and the threaded/TCP transports — reports
through an :class:`ObsSink`.  The base class implements every hook as a
no-op, so it *is* the null sink: instrumentation sites either hold
``None`` (and skip the call entirely — the zero-cost default that keeps
benchmark numbers unperturbed) or hold a sink and call unconditionally.

The concrete collector lives in :mod:`repro.obs.collect`; this module
deliberately depends only on the core type aliases so every layer can
import it without cycles.
"""

from __future__ import annotations

from typing import Hashable, Optional

from ..core.messages import LockId, NodeId
from ..core.modes import LockMode

# -- request-lifecycle phases, in canonical order ------------------------

ISSUED = "issued"
ENQUEUED = "enqueued"
FROZEN = "frozen"
RETRANSMITTED = "retransmitted"
GRANTED = "granted"
RELEASED = "released"

#: All phases a request span can pass through, in lifecycle order.
#: ``RETRANSMITTED`` is emitted by the recovery layer each time a still
#: ungranted request is re-sent; it sits before ``GRANTED`` so spans stay
#: monotonic (a granted request is never re-sent).
PHASES = (ISSUED, ENQUEUED, FROZEN, RETRANSMITTED, GRANTED, RELEASED)

#: Canonical index of each phase (used by span monotonicity checks).
PHASE_ORDER = {phase: index for index, phase in enumerate(PHASES)}

#: Identity of one request across its phase events.  Protocol-defined and
#: only required to be hashable and unique among in-flight requests:
#: the hierarchical protocol uses ``(origin, serial)`` of its RequestId,
#: the baselines use ``(lock_id, origin)`` (one outstanding request per
#: node and lock).
SpanKey = Hashable


class ObsSink:
    """The observability hook surface; the base class is the null sink.

    Subclass and override what you want to collect (see
    :class:`repro.obs.collect.RunObserver`).  Hooks run inside protocol
    hot paths, so implementations must be cheap and must never raise.
    Timestamps are the collector's business: sinks that record time are
    constructed with a clock (simulated or wall), keeping the emitting
    components transport- and time-agnostic.
    """

    __slots__ = ()

    # -- request lifecycle ----------------------------------------------

    def phase(
        self,
        node: NodeId,
        lock_id: LockId,
        key: Optional[SpanKey],
        phase: str,
        mode: Optional[LockMode] = None,
    ) -> None:
        """The request identified by *key* reached *phase* at *node*.

        ``key=None`` is allowed only for :data:`RELEASED`, where the
        emitting automaton cannot know which hold is being released (a
        held mode is a multiset entry); collectors match it to the oldest
        granted-but-unreleased span of the same (node, lock, mode).
        """

    # -- protocol gauges -------------------------------------------------
    #
    # Sampled by the automaton contract after each input, from the
    # protocol's ``GAUGES`` table, and only when the value changed since
    # the last input: each call reports a settled value between inputs.

    def queue_depth(self, node: NodeId, lock_id: LockId, depth: int) -> None:
        """The local request queue of (*node*, *lock_id*) now holds *depth*."""

    def copyset_size(self, node: NodeId, lock_id: LockId, size: int) -> None:
        """The copyset (children map) of (*node*, *lock_id*) now has *size*."""

    def freeze_size(self, node: NodeId, lock_id: LockId, size: int) -> None:
        """The frozen-mode set in force at (*node*, *lock_id*) now has *size*."""

    # -- wire traffic ----------------------------------------------------

    def message(self, sender: NodeId, dest: NodeId, label: str) -> None:
        """One protocol message of type *label* crossed the fabric."""

    def wire_sent(
        self, sender: NodeId, dest: NodeId, nbytes: int, seconds: float
    ) -> None:
        """*nbytes* were serialized and handed to the wire in *seconds*.

        Real transports report serialized frame sizes; the in-memory
        queue transport reports ``nbytes=0`` with its enqueue-to-dispatch
        latency.
        """

    def wire_received(self, node: NodeId, nbytes: int) -> None:
        """*node* received a frame of *nbytes* off the wire."""

    # -- faults and failures ----------------------------------------------

    def fault(self, kind: str, node: Optional[NodeId] = None) -> None:
        """The fault layer perturbed the run: *kind* is the injector action
        (``"drop"``, ``"duplicate"``, ...) or a recovery event
        (``"crash"``, ``"suspect"``, ``"regenerate"``, ...)."""

    def peer_lost(self, node: NodeId, reason: str) -> None:
        """A transport lost its connection to *node* (disconnect, corrupt
        or oversized frame); lazy reconnect may revive it later."""

    # -- durability --------------------------------------------------------

    def persist_event(self, node: NodeId, kind: str) -> None:
        """*node*'s durability journal recorded an event of *kind* (a WAL
        append labelled by the protocol transition, or ``"snapshot"`` for
        a compaction).  See :mod:`repro.persist`."""

    # -- engine ----------------------------------------------------------

    def engine_tick(self, now: float, events: int) -> None:
        """The event loop finished callback number *events* at time *now*."""


#: Shared do-nothing sink for callers that prefer unconditional calls.
NULL_SINK = ObsSink()
