"""The explorer's state-space census, pinned.

Every count below was taken at the parent of the commit that introduced
the one-kernel explorer (the single-lock and multi-lock forks it
replaced) and reproduced by it.  See :mod:`tests.verification.census`
for what a moved count means.
"""

from __future__ import annotations

from .census import census

#: scenario → ``[states_explored, terminal_states]``, or the error the
#: exactly-once base protocol is meant to die of under duplication.
PINNED = {
    "explorer/two writers": [20, 2],
    "explorer/read vs write": [33, 3],
    "explorer/three readers": [746, 9],
    "explorer/intents then write": [298, 14],
    "explorer/iw pair vs read": [370, 24],
    "explorer/upgrade-style u": [73, 4],
    "explorer/re-request race": [60, 4],
    "explorer/reparenting race": [773, 15],
    "explorer/u contention": [30, 2],
    "explorer/w after everything": [1290, 17],
    "explorer/upgrade vs reader": [60, 5],
    "explorer/upgrade vs intents": [605, 23],
    "explorer/upgrade vs upgrade": [40, 2],
    "explorer/upgrade vs writer": [39, 3],
    "explorer/without freezing": [535, 8],
    "explorer/without local_queues": [871, 15],
    "explorer/without child_grants": [808, 15],
    "explorer/without local_reentry": [808, 15],
    "explorer/without freezing+local_queues+child_grants+local_reentry": [585, 8],
    "explorer/four-node mixed": [658, 20],
    "priority/mixed": [294, 14],
    "faults/0/base": [33, 3],
    "faults/0/base/duplicate 0": "ProtocolError",
    "faults/0/base/duplicate 1": "ProtocolError",
    "faults/0/base/duplicate 2": "ProtocolError",
    "faults/0/base/duplicate 3": "ProtocolError",
    "faults/0/base/duplicate 4": "ProtocolError",
    "faults/0/base/duplicate 5": [33, 3],
    "faults/0/base/duplicate 6": [33, 3],
    "faults/0/base/duplicate 7": [33, 3],
    "faults/0/recovery": [33, 3],
    "faults/0/recovery/duplicate 0": [141, 3],
    "faults/0/recovery/duplicate 1": [147, 3],
    "faults/0/recovery/duplicate 2": [90, 3],
    "faults/0/recovery/duplicate 3": [52, 3],
    "faults/0/recovery/duplicate 4": [39, 3],
    "faults/0/recovery/duplicate 5": [33, 3],
    "faults/0/recovery/duplicate 6": [33, 3],
    "faults/0/recovery/duplicate 7": [33, 3],
    "faults/1/base": [44, 4],
    "faults/1/base/duplicate 0": "ProtocolError",
    "faults/1/base/duplicate 1": "ProtocolError",
    "faults/1/base/duplicate 2": "ProtocolError",
    "faults/1/base/duplicate 3": "ProtocolError",
    "faults/1/base/duplicate 4": "ProtocolError",
    "faults/1/base/duplicate 5": [48, 4],
    "faults/1/base/duplicate 6": [44, 4],
    "faults/1/base/duplicate 7": [44, 4],
    "faults/1/recovery": [44, 4],
    "faults/1/recovery/duplicate 0": [271, 6],
    "faults/1/recovery/duplicate 1": [281, 7],
    "faults/1/recovery/duplicate 2": [176, 6],
    "faults/1/recovery/duplicate 3": [82, 4],
    "faults/1/recovery/duplicate 4": [60, 4],
    "faults/1/recovery/duplicate 5": [48, 4],
    "faults/1/recovery/duplicate 6": [44, 4],
    "faults/1/recovery/duplicate 7": [44, 4],
    "faults/2/base": [30, 2],
    "faults/2/base/duplicate 0": "ProtocolError",
    "faults/2/base/duplicate 1": "ProtocolError",
    "faults/2/base/duplicate 2": "ProtocolError",
    "faults/2/base/duplicate 3": "ProtocolError",
    "faults/2/base/duplicate 4": "ProtocolError",
    "faults/2/base/duplicate 5": [30, 2],
    "faults/2/base/duplicate 6": [30, 2],
    "faults/2/base/duplicate 7": [30, 2],
    "faults/2/recovery": [30, 2],
    "faults/2/recovery/duplicate 0": [123, 2],
    "faults/2/recovery/duplicate 1": [129, 2],
    "faults/2/recovery/duplicate 2": [78, 2],
    "faults/2/recovery/duplicate 3": [44, 2],
    "faults/2/recovery/duplicate 4": [34, 2],
    "faults/2/recovery/duplicate 5": [30, 2],
    "faults/2/recovery/duplicate 6": [30, 2],
    "faults/2/recovery/duplicate 7": [30, 2],
    "multilock/disjoint entry writers": [156, 4],
    "multilock/same-entry reader vs writer": [152, 7],
    "multilock/table W vs entry R": [49, 3],
    "multilock/table R vs entry W": [55, 4],
    "multilock/sequential ops": [79, 4],
    "multilock/table W vs entry R, no freezing": [46, 2],
}


def test_census_is_pinned():
    counts = census()
    moved = {
        name: (PINNED.get(name), counts.get(name))
        for name in sorted(PINNED.keys() | counts.keys())
        if PINNED.get(name) != counts.get(name)
    }
    assert not moved, f"census moved (pinned, now): {moved}"
