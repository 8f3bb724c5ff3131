"""The ten observability records on the contract's codec tables: their
JSON is pinned to the bytes the hand-written encoders produced, and one
property runs over every table."""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.live import (
    AuditFinding, AuditReport, ClusterView, LockSnapshot, NodeSnapshot,
    QueueEntry, RecoveryHealth,
)
from repro.obs.spans import RequestSpan
from repro.obs.tracing import Hop, TraceChain

_ENTRY = QueueEntry(origin=2, mode="W", key="2.7", age=0.25)
_LOCK = LockSnapshot(
    lock="db/t1",
    believes_token=True,
    parent=3,
    children=((1, "R"), (4, "IR")),
    held=(("IR", 2), ("R", 1)),
    pending="W",
    queue=(_ENTRY, QueueEntry(origin=5, mode="U", key="5.1")),
    frozen=("IW", "W"),
    token_epoch=2,
    fenced=True,
)
_HEALTH = RecoveryHealth(
    boot=3,
    suspected=(4,),
    live_peers=(0, 1, 2),
    channel_backlog=5,
    channel_retransmits=6,
    app_retransmits=7,
    token_hints=(("db/t1", 1, 2), ("db/t2", 0, 0)),
    custody_pending=("db/t2",),
    durability={"appends": 12, "compactions": 1},
    leases={"fenced": False, "own": [["db/t1", "R", 1, 9, 4.5]], "renewals": 3},
    view_epoch=4,
    view_members=(0, 1, 2, 4),
)
_NODE = NodeSnapshot(node=1, alive=False, locks=(_LOCK,), recovery=_HEALTH)
_FINDING = AuditFinding(
    rule="token-split", severity="violation", detail="2 nodes believe",
    lock="db/t1", nodes=(1, 3),
)
_HOP = Hop(
    hop=2, parent=1, sender=0, dest=3, label="grant", kind="retransmit",
    sent_at=0.5, recv_at=0.75, duplicates=1,
)

#: name -> (every field set off its default, every default left alone)
SAMPLES = {
    "QueueEntry": (_ENTRY, QueueEntry(origin=0, mode="R", key="a:0")),
    "LockSnapshot": (
        _LOCK, LockSnapshot(lock="a", believes_token=False, parent=None)
    ),
    "RecoveryHealth": (_HEALTH, RecoveryHealth(boot=0)),
    "NodeSnapshot": (_NODE, NodeSnapshot(node=0)),
    "ClusterView": (
        ClusterView(
            protocol="hierarchical", captured_at=12.5,
            nodes=(_NODE, NodeSnapshot(node=0)),
        ),
        ClusterView(protocol="naimi", captured_at=0.0),
    ),
    "AuditFinding": (
        _FINDING,
        AuditFinding(rule="deadlock", severity="warning", detail="1 cycle"),
    ),
    "AuditReport": (
        AuditReport(
            findings=(_FINDING,), locks_checked=2, nodes_checked=5,
            quiescent=True,
        ),
        AuditReport(findings=(), locks_checked=0, nodes_checked=0),
    ),
    "Hop": (_HOP, Hop(hop=1, parent=0, sender=1, dest=0, label="request")),
    "TraceChain": (
        TraceChain(
            trace_id="a:1#2", origin=1, lock="a", issued_at=0.25, kind="aux",
            hops=[_HOP], granted_hop=2, granted_at=0.75,
        ),
        TraceChain(trace_id="1.4", origin=1, lock="a", issued_at=0.0),
    ),
    "RequestSpan": (
        RequestSpan(
            node=1, lock="a", kind="W",
            phases=[("issued", 0.25), ("enqueued", 0.5), ("granted", 1.0)],
            key="1.4",
        ),
        RequestSpan(node=0, lock="a", kind="R"),
    ),
}

#: ``json.dumps(sample.to_payload())`` of the above, key order included,
#: as the per-class encoders of PR 22 wrote them.
GOLDEN = {
    "QueueEntry": (
        '{"origin": 2, "mode": "W", "key": "2.7", "age": 0.25}',
        '{"origin": 0, "mode": "R", "key": "a:0", "age": null}',
    ),
    "LockSnapshot": (
        '{"lock": "db/t1", "token": true, "parent": 3, "children": [[1, "R"], [4, "IR"]], "held": [["IR", 2], ["R", 1]], "pending": "W", "queue": [{"origin": 2, "mode": "W", "key": "2.7", "age": 0.25}, {"origin": 5, "mode": "U", "key": "5.1", "age": null}], "frozen": ["IW", "W"], "token_epoch": 2, "fenced": true}',
        '{"lock": "a", "token": false, "parent": null, "children": [], "held": [], "pending": null, "queue": [], "frozen": [], "token_epoch": 0, "fenced": false}',
    ),
    "RecoveryHealth": (
        '{"boot": 3, "suspected": [4], "live_peers": [0, 1, 2], "channel_backlog": 5, "channel_retransmits": 6, "app_retransmits": 7, "token_hints": [["db/t1", 1, 2], ["db/t2", 0, 0]], "custody_pending": ["db/t2"], "view_epoch": 4, "view_members": [0, 1, 2, 4], "durability": {"appends": 12, "compactions": 1}, "leases": {"fenced": false, "own": [["db/t1", "R", 1, 9, 4.5]], "renewals": 3}}',
        '{"boot": 0, "suspected": [], "live_peers": [], "channel_backlog": 0, "channel_retransmits": 0, "app_retransmits": 0, "token_hints": [], "custody_pending": [], "view_epoch": 0, "view_members": []}',
    ),
    "NodeSnapshot": (
        '{"node": 1, "alive": false, "locks": [{"lock": "db/t1", "token": true, "parent": 3, "children": [[1, "R"], [4, "IR"]], "held": [["IR", 2], ["R", 1]], "pending": "W", "queue": [{"origin": 2, "mode": "W", "key": "2.7", "age": 0.25}, {"origin": 5, "mode": "U", "key": "5.1", "age": null}], "frozen": ["IW", "W"], "token_epoch": 2, "fenced": true}], "recovery": {"boot": 3, "suspected": [4], "live_peers": [0, 1, 2], "channel_backlog": 5, "channel_retransmits": 6, "app_retransmits": 7, "token_hints": [["db/t1", 1, 2], ["db/t2", 0, 0]], "custody_pending": ["db/t2"], "view_epoch": 4, "view_members": [0, 1, 2, 4], "durability": {"appends": 12, "compactions": 1}, "leases": {"fenced": false, "own": [["db/t1", "R", 1, 9, 4.5]], "renewals": 3}}}',
        '{"node": 0, "alive": true, "locks": []}',
    ),
    "ClusterView": (
        '{"protocol": "hierarchical", "captured_at": 12.5, "nodes": [{"node": 1, "alive": false, "locks": [{"lock": "db/t1", "token": true, "parent": 3, "children": [[1, "R"], [4, "IR"]], "held": [["IR", 2], ["R", 1]], "pending": "W", "queue": [{"origin": 2, "mode": "W", "key": "2.7", "age": 0.25}, {"origin": 5, "mode": "U", "key": "5.1", "age": null}], "frozen": ["IW", "W"], "token_epoch": 2, "fenced": true}], "recovery": {"boot": 3, "suspected": [4], "live_peers": [0, 1, 2], "channel_backlog": 5, "channel_retransmits": 6, "app_retransmits": 7, "token_hints": [["db/t1", 1, 2], ["db/t2", 0, 0]], "custody_pending": ["db/t2"], "view_epoch": 4, "view_members": [0, 1, 2, 4], "durability": {"appends": 12, "compactions": 1}, "leases": {"fenced": false, "own": [["db/t1", "R", 1, 9, 4.5]], "renewals": 3}}}, {"node": 0, "alive": true, "locks": []}]}',
        '{"protocol": "naimi", "captured_at": 0.0, "nodes": []}',
    ),
    "AuditFinding": (
        '{"rule": "token-split", "severity": "violation", "detail": "2 nodes believe", "lock": "db/t1", "nodes": [1, 3]}',
        '{"rule": "deadlock", "severity": "warning", "detail": "1 cycle", "lock": null, "nodes": []}',
    ),
    "AuditReport": (
        '{"ok": false, "quiescent": true, "locks_checked": 2, "nodes_checked": 5, "findings": [{"rule": "token-split", "severity": "violation", "detail": "2 nodes believe", "lock": "db/t1", "nodes": [1, 3]}]}',
        '{"ok": true, "quiescent": false, "locks_checked": 0, "nodes_checked": 0, "findings": []}',
    ),
    "Hop": (
        '{"hop": 2, "parent": 1, "from": 0, "to": 3, "label": "grant", "kind": "retransmit", "sent": 0.5, "recv": 0.75, "dup": 1}',
        '{"hop": 1, "parent": 0, "from": 1, "to": 0, "label": "request"}',
    ),
    "TraceChain": (
        '{"id": "a:1#2", "origin": 1, "lock": "a", "issued": 0.25, "kind": "aux", "hops": [{"hop": 2, "parent": 1, "from": 0, "to": 3, "label": "grant", "kind": "retransmit", "sent": 0.5, "recv": 0.75, "dup": 1}], "granted_hop": 2, "granted": 0.75}',
        '{"id": "1.4", "origin": 1, "lock": "a", "issued": 0.0, "kind": "request", "hops": []}',
    ),
    "RequestSpan": (
        '{"node": 1, "lock": "a", "kind": "W", "phases": [["issued", 0.25], ["enqueued", 0.5], ["granted", 1.0]], "key": "1.4"}',
        '{"node": 0, "lock": "a", "kind": "R", "phases": []}',
    ),
}


@pytest.mark.parametrize("name", sorted(SAMPLES))
def test_payload_bytes_are_pinned(name):
    for sample, golden in zip(SAMPLES[name], GOLDEN[name]):
        assert json.dumps(sample.to_payload()) == golden
        assert type(sample).from_payload(json.loads(golden)) == sample


# -- one property over the ten tables -----------------------------------

_nodes = st.integers(0, 9)
_locks = st.sampled_from(["a", "db/t1", "lock-0"])
_modes = st.sampled_from(["IR", "R", "U", "IW", "W"])
_times = st.floats(0, 1e6)
_counts = st.integers(0, 99)
_keys = st.text("0123456789.:#ab", max_size=6)


def _tuples(items, max_size=3):
    return st.lists(items, max_size=max_size).map(tuple)


_entries = st.builds(
    QueueEntry, origin=_nodes, mode=_modes, key=_keys, age=st.none() | _times
)
_lock_snapshots = st.builds(
    LockSnapshot,
    lock=_locks,
    believes_token=st.booleans(),
    parent=st.none() | _nodes,
    children=_tuples(st.tuples(_nodes, _modes)),
    held=_tuples(st.tuples(_modes, st.integers(1, 3))),
    pending=st.none() | _modes,
    queue=_tuples(_entries),
    frozen=_tuples(_modes),
    token_epoch=_counts,
    fenced=st.booleans(),
)
_healths = st.builds(
    RecoveryHealth,
    boot=_counts,
    suspected=_tuples(_nodes),
    live_peers=_tuples(_nodes),
    channel_backlog=_counts,
    channel_retransmits=_counts,
    app_retransmits=_counts,
    token_hints=_tuples(st.tuples(_locks, _nodes, _counts)),
    custody_pending=_tuples(_locks),
    durability=st.none()
    | st.dictionaries(st.sampled_from(["appends", "compactions"]), _counts),
    leases=st.none()
    | st.fixed_dictionaries(
        {
            "fenced": st.booleans(),
            "own": st.lists(
                st.tuples(_locks, _modes, _nodes, _counts, _times).map(list),
                max_size=2,
            ),
            "renewals_sent": _counts,
        }
    ),
    view_epoch=_counts,
    view_members=_tuples(_nodes),
)
_node_snapshots = st.builds(
    NodeSnapshot,
    node=_nodes,
    alive=st.booleans(),
    locks=_tuples(_lock_snapshots, 2),
    recovery=st.none() | _healths,
)
_findings = st.builds(
    AuditFinding,
    rule=st.sampled_from(["token-split", "rule1", "deadlock"]),
    severity=st.sampled_from(["violation", "warning"]),
    detail=st.text(max_size=12),
    lock=st.none() | _locks,
    nodes=_tuples(_nodes),
)
_hops = st.builds(
    Hop,
    hop=st.integers(1, 9),
    parent=st.integers(0, 8),
    sender=_nodes,
    dest=_nodes,
    label=st.sampled_from(["request", "grant", "token"]),
    kind=st.sampled_from(["send", "retransmit", "regen", "replay"]),
    sent_at=st.none() | _times,
    recv_at=st.none() | _times,
    duplicates=st.integers(0, 2),
)

STRATEGIES = {
    "QueueEntry": _entries,
    "LockSnapshot": _lock_snapshots,
    "RecoveryHealth": _healths,
    "NodeSnapshot": _node_snapshots,
    "ClusterView": st.builds(
        ClusterView,
        protocol=st.sampled_from(["hierarchical", "naimi", "raymond"]),
        captured_at=_times,
        nodes=_tuples(_node_snapshots, 2),
    ),
    "AuditFinding": _findings,
    "AuditReport": st.builds(
        AuditReport,
        findings=_tuples(_findings),
        locks_checked=_counts,
        nodes_checked=_counts,
        quiescent=st.booleans(),
    ),
    "Hop": _hops,
    "TraceChain": st.builds(
        TraceChain,
        trace_id=_keys,
        origin=_nodes,
        lock=_locks,
        issued_at=_times,
        kind=st.sampled_from(["request", "aux", "recovery"]),
        hops=st.lists(_hops, max_size=3),
        granted_hop=st.none() | st.integers(1, 9),
        granted_at=st.none() | _times,
    ),
    "RequestSpan": st.builds(
        RequestSpan,
        node=_nodes,
        lock=_locks,
        kind=_modes,
        phases=st.lists(
            st.tuples(st.sampled_from(["issued", "granted", "released"]), _times),
            max_size=3,
        ),
        key=st.none() | _keys,
    ),
}

#: The keys a payload may not lack; every other key has a default.
REQUIRED = {
    "QueueEntry": {"origin", "mode", "key"},
    "LockSnapshot": {"lock", "token"},
    "RecoveryHealth": {"boot"},
    "NodeSnapshot": {"node"},
    "ClusterView": set(),
    "AuditFinding": {"rule", "severity", "detail"},
    "AuditReport": set(),
    "Hop": {"hop", "parent", "from", "to", "label"},
    "TraceChain": {"id", "origin", "lock", "issued"},
    "RequestSpan": {"node", "lock", "kind", "phases"},
}


def test_every_record_is_covered():
    assert set(SAMPLES) == set(GOLDEN) == set(STRATEGIES) == set(REQUIRED)
    assert len(SAMPLES) == 10


@pytest.mark.parametrize("name", sorted(SAMPLES))
def test_absent_keys_read_as_their_defaults(name):
    bare = SAMPLES[name][1]
    minimal = {
        key: value
        for key, value in bare.to_payload().items()
        if key in REQUIRED[name]
    }
    # Every ClusterView key has a default, "?" for the protocol.
    expected = ClusterView("?", 0.0) if name == "ClusterView" else bare
    assert type(bare).from_payload(minimal) == expected


@pytest.mark.parametrize("name", sorted(STRATEGIES))
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_round_trip_fixed_point_and_defaults(name, data):
    instance = data.draw(STRATEGIES[name])
    cls = type(instance)
    payload = json.loads(json.dumps(instance.to_payload()))
    rebuilt = cls.from_payload(payload)
    assert rebuilt == instance
    assert rebuilt.to_payload() == instance.to_payload()
    for key in payload:
        trimmed = {k: v for k, v in payload.items() if k != key}
        if key in REQUIRED[name]:
            with pytest.raises(ValueError, match=cls.__name__):
                cls.from_payload(trimmed)
        else:
            decoded = cls.from_payload(trimmed)
            assert cls.from_payload(decoded.to_payload()) == decoded
