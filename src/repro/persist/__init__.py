"""Per-node durability: write-ahead log + compacting snapshots.

``repro.persist`` gives each node a crash-surviving record of its
protocol state so a restarted node rejoins *with* its locks instead of
blank.  See ``docs/PERSISTENCE.md`` for the on-disk format, fsync
policies, and how recovery reconciles with epoch fencing.
"""

from .journal import (
    DEFAULT_COMPACT_EVERY,
    VIEW_JOURNAL_KEY,
    NodeJournal,
    recover_node_state,
)
from .store import (
    FSYNC_ALWAYS,
    FSYNC_BATCH,
    FSYNC_NEVER,
    FileNodeStore,
    FilePersistence,
    MemoryNodeStore,
    MemoryPersistence,
)
from .wal import MAX_RECORD_BYTES, ScanReport, encode_frame, scan_frames

__all__ = [
    "DEFAULT_COMPACT_EVERY",
    "FSYNC_ALWAYS",
    "FSYNC_BATCH",
    "FSYNC_NEVER",
    "FileNodeStore",
    "FilePersistence",
    "MAX_RECORD_BYTES",
    "MemoryNodeStore",
    "MemoryPersistence",
    "NodeJournal",
    "ScanReport",
    "VIEW_JOURNAL_KEY",
    "encode_frame",
    "recover_node_state",
    "scan_frames",
]
