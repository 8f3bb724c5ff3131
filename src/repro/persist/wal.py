"""CRC-framed record encoding for the write-ahead log.

Every WAL record is one JSON document wrapped in a fixed binary frame::

    +----------------+----------------+------------------------+
    | length (u32 BE)| CRC32 (u32 BE) | payload (UTF-8 JSON)   |
    +----------------+----------------+------------------------+

The frame makes two failure modes distinguishable on replay:

* **Torn tail** — the process died mid-append (or the file was
  truncated): the last frame's header or payload is incomplete, or the
  length field itself is garbage.  Everything from the last intact frame
  onward is discarded (and the file is truncated back to it, so later
  appends start from a clean boundary).
* **Corrupt record** — the framing is intact but the payload's CRC (or
  its JSON) does not check out: the single record is *skipped and
  counted*, and replay continues with the next frame.

Both backends (:class:`~repro.persist.store.MemoryNodeStore` and
:class:`~repro.persist.store.FileNodeStore`) use this exact codec, so the
simulator exercises the same bytes the file-backed runtime writes.
"""

from __future__ import annotations

import dataclasses
import json
import struct
import zlib
from typing import Dict, List, Tuple

#: Frame header: payload length, then CRC32 of the payload bytes.
_HEADER = struct.Struct(">II")

#: Upper bound on one record's payload; a length field above this is
#: treated as framing damage (torn tail), not as a real record.
MAX_RECORD_BYTES = 1 << 24

#: Canonical compact JSON, built once: ``json.dumps`` with these
#: arguments builds a new encoder on every call.  Records are trees, so
#: the circular-reference check has nothing to find.
CANONICAL_JSON = json.JSONEncoder(
    sort_keys=True, separators=(",", ":"), check_circular=False
)


def encode_frame(record: Dict[str, object]) -> bytes:
    """Serialize one JSON-safe *record* into a framed byte string."""

    payload = CANONICAL_JSON.encode(record).encode("utf-8")
    if len(payload) > MAX_RECORD_BYTES:
        raise ValueError(
            f"WAL record of {len(payload)} bytes exceeds the "
            f"{MAX_RECORD_BYTES}-byte frame limit"
        )
    return _HEADER.pack(len(payload), zlib.crc32(payload)) + payload


@dataclasses.dataclass
class ScanReport:
    """Outcome of scanning one log blob (see :func:`scan_frames`)."""

    #: Records decoded successfully.
    records: int = 0
    #: Intact frames whose CRC or JSON failed: skipped, replay continued.
    corrupt_skipped: int = 0
    #: Bytes discarded at the tail (incomplete/unframeable suffix).
    torn_bytes: int = 0

    def to_payload(self) -> Dict[str, int]:
        """JSON-safe dict view (folded into recovery reports)."""

        return {
            "records": self.records,
            "corrupt_skipped": self.corrupt_skipped,
            "torn_bytes": self.torn_bytes,
        }


def scan_frames(blob: bytes) -> Tuple[List[Dict[str, object]], int, ScanReport]:
    """Decode every intact frame in *blob*.

    Returns ``(records, good_end, report)`` where *good_end* is the byte
    offset of the last well-framed position — the caller truncates its
    log there so the torn suffix (if any) never corrupts later appends.
    """

    records: List[Dict[str, object]] = []
    report = ScanReport()
    offset = 0
    good_end = 0
    total = len(blob)
    while offset + _HEADER.size <= total:
        length, crc = _HEADER.unpack_from(blob, offset)
        start = offset + _HEADER.size
        end = start + length
        if length > MAX_RECORD_BYTES or end > total:
            break  # Torn tail: incomplete (or mis-framed) final frame.
        payload = blob[start:end]
        offset = end
        good_end = end
        if zlib.crc32(payload) != crc:
            report.corrupt_skipped += 1
            continue
        try:
            record = json.loads(payload.decode("utf-8"))
        except (UnicodeDecodeError, ValueError):
            record = None
        if not isinstance(record, dict):
            report.corrupt_skipped += 1
            continue
        records.append(record)
        report.records += 1
    report.torn_bytes = total - good_end
    return records, good_end, report
