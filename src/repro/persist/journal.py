"""The per-node durability journal: WAL appends + compacting snapshots.

A :class:`NodeJournal` is the object a
:class:`~repro.core.lockspace.LockSpace` exposes to its automata as the
``persist`` hook.  The contract (:mod:`repro.core.contract`) calls
``journal.record(automaton, kind)`` once per automaton input, as the
input returns; the journal writes the automaton's whole durable state
(``persisted_state()``, the durable subset of the one state encoding
flight-recorder checkpoints also use) into one WAL record.  Replay is
therefore last-record-wins per lock — no event-by-event state machine
to keep in sync with the protocol — and the journal knows nothing about
any protocol's fields.

Every ``compact_every`` appends the journal folds the whole lockspace
into one snapshot and truncates the log, bounding both replay time and
disk usage.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from ..core.messages import LockId, NodeId
from ..services.sessions import SESSIONS_JOURNAL_KEY

#: WAL records between automatic compactions.  Count-based (never
#: time-based) so simulated runs stay deterministic.
DEFAULT_COMPACT_EVERY = 64

#: Reserved journal key the installed membership view is recorded under
#: (see :mod:`repro.membership`); popped out of the recovered state
#: before per-lock rejoin, like the session payload.
VIEW_JOURNAL_KEY = "@view"


class NodeJournal:
    """Durability hook for one node's lockspace.

    Parameters
    ----------
    store:
        The node's backend store (see :mod:`repro.persist.store`).
    node_id:
        The hosting node (labels observability events).
    boot:
        The node's current boot incarnation, stamped into snapshots.
    compact_every:
        WAL records between automatic compactions.
    obs:
        Optional observability sink; appends and snapshots surface as
        ``persist_event`` counter samples.
    """

    def __init__(
        self,
        store,
        node_id: NodeId,
        boot: int = 0,
        compact_every: int = DEFAULT_COMPACT_EVERY,
        obs=None,
    ) -> None:
        self.store = store
        self.node_id = node_id
        self.boot = boot
        self.compact_every = compact_every
        self.obs = obs
        self._lockspace = None
        self._since_compact = 0
        self.appends = 0
        self.compactions = 0
        #: Optional zero-arg callable returning the hosting node's
        #: session payload (see :mod:`repro.services.sessions`); wired by
        #: the recovery manager so compaction folds the session table
        #: into the snapshot instead of losing it with the truncated WAL.
        self.session_source = None
        #: Same, for the installed membership view (a dict with
        #: ``epoch`` / ``members`` / ``departed``); also re-recorded on
        #: every install via :meth:`record_view`.
        self.view_source = None

    def attach(self, lockspace) -> None:
        """Become *lockspace*'s persist hook (existing automata included)."""

        self._lockspace = lockspace
        lockspace.persist = self
        for automaton in lockspace.automata():
            automaton.persist = self

    # -- the hook the contract calls -----------------------------------

    def record(self, automaton, kind: str) -> None:
        """Append *automaton*'s current durable state under event *kind*."""

        self._append(automaton.lock_id, kind, automaton.persisted_state())

    def record_sessions(self, payload: Dict[str, object]) -> None:
        """Append the node's session table under the reserved key.

        Sessions ride the same WAL as lock state (one record, last wins
        on replay) so a recovered node sees lock holds and their owning
        sessions from one consistent medium; recovery pops the reserved
        key out of the replayed state before per-lock rejoin.
        """

        self._append(SESSIONS_JOURNAL_KEY, "sessions", payload)

    def record_view(self, payload: Dict[str, object]) -> None:
        """Append the installed membership view under the reserved key.

        A restart must rejoin the *current* view, not the bootstrap one:
        quorum sizes, the departed set and every peer list derive from
        it.  One record per install, last wins on replay.
        """

        self._append(VIEW_JOURNAL_KEY, "view", payload)

    def _append(self, key: str, kind: str, state: Dict[str, object]) -> None:
        self.store.append({"v": 1, "lock": key, "kind": kind, "state": state})
        self.appends += 1
        self._since_compact += 1
        if self.obs is not None:
            self.obs.persist_event(self.node_id, kind)
        if self._since_compact >= self.compact_every:
            self.compact()

    # -- compaction -----------------------------------------------------

    def compact(self) -> None:
        """Fold the whole lockspace into one snapshot, truncate the WAL."""

        if self._lockspace is None:
            return
        locks = {
            automaton.lock_id: automaton.persisted_state()
            for automaton in self._lockspace.automata()
        }
        if self.session_source is not None:
            locks[SESSIONS_JOURNAL_KEY] = self.session_source()
        if self.view_source is not None:
            view = self.view_source()
            if view is not None:
                locks[VIEW_JOURNAL_KEY] = view
        self.store.write_snapshot(
            {"v": 1, "boot": self.boot, "locks": locks}
        )
        self.store.reset_log()
        self._since_compact = 0
        self.compactions += 1
        if self.obs is not None:
            self.obs.persist_event(self.node_id, "snapshot")

    # -- lifecycle ------------------------------------------------------

    def sync(self) -> None:
        """Force buffered appends to the durable medium."""

        self.store.sync()

    def close(self) -> None:
        """Flush and release backend resources (crash / shutdown)."""

        self.store.close()

    def stats(self) -> Dict[str, int]:
        """Write-side statistics (folded into health snapshots)."""

        return {
            "appends": self.appends,
            "compactions": self.compactions,
            "store_appends": self.store.appends,
            "store_snapshots": self.store.snapshots,
            "store_bytes": self.store.bytes_written,
        }


def recover_node_state(
    store,
) -> Tuple[Dict[LockId, Dict[str, object]], Dict[str, object]]:
    """Replay *store*'s snapshot + WAL into per-lock state payloads.

    Returns ``(state, report)``: *state* maps each lock id to the last
    persisted ``persisted_state()`` payload (snapshot first, then WAL
    records replayed last-record-wins on top); *report* summarizes what
    the scan found (replay counts, skipped corruption, torn bytes) for
    the chaos verdict's durability section.
    """

    snapshot, records, scan = store.load()
    state: Dict[LockId, Dict[str, object]] = {}
    snapshot_boot = 0
    snapshot_loaded = False
    if snapshot is not None:
        locks = snapshot.get("locks")
        if isinstance(locks, dict):
            snapshot_loaded = True
            snapshot_boot = int(snapshot.get("boot", 0) or 0)
            for lock_id, payload in locks.items():
                if isinstance(payload, dict):
                    state[str(lock_id)] = payload
    replayed = 0
    malformed = 0
    for record in records:
        lock_id = record.get("lock")
        payload = record.get("state")
        if not isinstance(lock_id, str) or not isinstance(payload, dict):
            malformed += 1
            continue
        state[lock_id] = payload
        replayed += 1
    report: Dict[str, object] = {
        "snapshot_loaded": snapshot_loaded,
        "snapshot_boot": snapshot_boot,
        "records_replayed": replayed,
        "records_malformed": malformed,
        "corrupt_skipped": scan.corrupt_skipped,
        "torn_bytes": scan.torn_bytes,
        "locks": len(state),
    }
    return state, report
