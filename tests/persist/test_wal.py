"""Frame codec edge cases: torn tails and CRC corruption.

The WAL's whole value is in what happens when the bytes are *wrong*:
a process dying mid-append leaves a torn tail that must be discarded
without losing the intact prefix, and a flipped bit inside one frame
must skip exactly that record — counted, never silently — while replay
continues behind it.
"""

from __future__ import annotations

import json
import struct
import zlib

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.persist.wal import MAX_RECORD_BYTES, encode_frame, scan_frames


def _records(count: int):
    return [{"lock": f"lock-{i}", "seq": i} for i in range(count)]


class TestRoundTrip:
    def test_frames_round_trip_in_order(self):
        blob = b"".join(encode_frame(r) for r in _records(5))
        records, good_end, report = scan_frames(blob)
        assert records == _records(5)
        assert good_end == len(blob)
        assert report.records == 5
        assert report.corrupt_skipped == 0
        assert report.torn_bytes == 0

    def test_empty_blob_is_a_clean_log(self):
        records, good_end, report = scan_frames(b"")
        assert records == []
        assert good_end == 0
        assert report.to_payload() == {
            "records": 0, "corrupt_skipped": 0, "torn_bytes": 0
        }

    def test_oversized_record_is_rejected_at_encode_time(self):
        import pytest

        with pytest.raises(ValueError):
            encode_frame({"blob": "x" * (MAX_RECORD_BYTES + 1)})


class TestTornTail:
    def test_truncated_final_frame_is_discarded(self):
        intact = b"".join(encode_frame(r) for r in _records(3))
        torn = encode_frame({"lock": "lock-torn"})[:-4]
        records, good_end, report = scan_frames(intact + torn)
        assert records == _records(3)
        assert good_end == len(intact)
        assert report.torn_bytes == len(torn)

    def test_partial_header_is_a_torn_tail(self):
        intact = encode_frame({"lock": "a"})
        records, good_end, report = scan_frames(intact + b"\x00\x01")
        assert records == [{"lock": "a"}]
        assert good_end == len(intact)
        assert report.torn_bytes == 2

    def test_garbage_length_field_stops_the_scan(self):
        # A length above MAX_RECORD_BYTES is framing damage, not a real
        # frame — everything from there on is the torn suffix.
        intact = encode_frame({"lock": "a"})
        garbage = struct.pack(">II", MAX_RECORD_BYTES + 1, 0) + b"xx"
        records, good_end, report = scan_frames(intact + garbage)
        assert records == [{"lock": "a"}]
        assert good_end == len(intact)
        assert report.torn_bytes == len(garbage)


class TestCorruptRecords:
    def test_crc_mismatch_skips_only_that_record(self):
        frames = [encode_frame(r) for r in _records(3)]
        # Flip one payload byte inside the middle frame: framing stays
        # intact, the CRC does not.
        middle = bytearray(frames[1])
        middle[-1] ^= 0xFF
        blob = frames[0] + bytes(middle) + frames[2]
        records, good_end, report = scan_frames(blob)
        assert records == [_records(3)[0], _records(3)[2]]
        assert good_end == len(blob)
        assert report.records == 2
        assert report.corrupt_skipped == 1
        assert report.torn_bytes == 0

    def test_valid_crc_but_non_object_json_is_skipped(self):
        payload = b"[1,2,3]"  # Valid JSON, but not a record dict.
        frame = struct.pack(
            ">II", len(payload), zlib.crc32(payload)
        ) + payload
        good = encode_frame({"lock": "a"})
        records, good_end, report = scan_frames(frame + good)
        assert records == [{"lock": "a"}]
        assert good_end == len(frame) + len(good)
        assert report.corrupt_skipped == 1

    def test_corruption_and_torn_tail_report_independently(self):
        frames = [encode_frame(r) for r in _records(2)]
        corrupt = bytearray(frames[0])
        corrupt[-2] ^= 0x10
        torn = frames[1][: len(frames[1]) // 2]
        records, good_end, report = scan_frames(bytes(corrupt) + torn)
        assert records == []
        assert report.corrupt_skipped == 1
        assert report.torn_bytes == len(torn)
        assert good_end == len(corrupt)


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=6), children, max_size=4),
    max_leaves=20,
)


class TestCanonicalEncoding:
    @settings(max_examples=200, deadline=None)
    @given(st.dictionaries(st.text(max_size=6), _JSON, max_size=5))
    def test_payload_is_compact_sorted_json(self, record):
        expected = json.dumps(record, sort_keys=True, separators=(",", ":"))
        assert encode_frame(record)[8:] == expected.encode("utf-8")

    def test_a_queued_lock_record_frames_to_its_golden_bytes(self):
        record = {
            "v": 1, "lock": "lock-a", "kind": "queue-change",
            "state": {
                "token": True, "token_epoch": 0, "parent": None,
                "attach_seq": 19, "child_seqs": [[1, 18]], "children": [],
                "custody_pending": False, "fence_floor": 0, "frozen": [],
                "held": [["W", 1]], "lease_fenced": False, "pending": None,
                "queue": [{
                    "type": "RequestMessage", "lock": "lock-a",
                    "sender": 1, "origin": 1, "id": [9, 1, 20], "mode": "R",
                    "priority": 0, "upgrade": False, "fencing_token": 0,
                }],
            },
        }
        assert encode_frame(record).hex() == (
            "0000019139ff358e7b226b696e64223a2271756575652d6368616e6765222c"
            "226c6f636b223a226c6f636b2d61222c227374617465223a7b2261747461"
            "63685f736571223a31392c226368696c645f73657173223a5b5b312c3138"
            "5d5d2c226368696c6472656e223a5b5d2c22637573746f64795f70656e64"
            "696e67223a66616c73652c2266656e63655f666c6f6f72223a302c226672"
            "6f7a656e223a5b5d2c2268656c64223a5b5b2257222c315d5d2c226c6561"
            "73655f66656e636564223a66616c73652c22706172656e74223a6e756c6c"
            "2c2270656e64696e67223a6e756c6c2c227175657565223a5b7b2266656e"
            "63696e675f746f6b656e223a302c226964223a5b392c312c32305d2c226c"
            "6f636b223a226c6f636b2d61222c226d6f6465223a2252222c226f726967"
            "696e223a312c227072696f72697479223a302c2273656e646572223a312c"
            "2274797065223a22526571756573744d657373616765222c227570677261"
            "6465223a66616c73657d5d2c22746f6b656e223a747275652c22746f6b65"
            "6e5f65706f6368223a307d2c2276223a317d"
        )

    def test_a_sessions_record_frames_to_its_golden_bytes(self):
        record = {
            "v": 1, "lock": "@sessions", "kind": "sessions",
            "state": {
                "v": 1, "node": 0,
                "sessions": [{
                    "id": "s0", "node": 0, "state": "active",
                    "holds": [["lock-a", "W", 1]],
                    "advertised": [["lock-a", "W", 1]],
                    "last_active": 0.0,
                }],
                "advert_fanout": [["lock-a", 2]],
            },
        }
        assert encode_frame(record).hex() == (
            "000000e4add7649b7b226b696e64223a2273657373696f6e73222c226c6f"
            "636b223a224073657373696f6e73222c227374617465223a7b2261647665"
            "72745f66616e6f7574223a5b5b226c6f636b2d61222c325d5d2c226e6f64"
            "65223a302c2273657373696f6e73223a5b7b2261647665727469736564223a"
            "5b5b226c6f636b2d61222c2257222c315d5d2c22686f6c6473223a5b5b22"
            "6c6f636b2d61222c2257222c315d5d2c226964223a227330222c226c6173"
            "745f616374697665223a302e302c226e6f6465223a302c22737461746522"
            "3a22616374697665227d5d2c2276223a317d2c2276223a317d"
        )
