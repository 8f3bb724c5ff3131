"""What the recorder records, the replayer can replay — by construction.

Each automaton class carries one table of recorded operations
(``OPS``, built from the ``@recorded`` decorators): the decorator
records every call through it, and replay decodes through it.  Once
nine ``splice_*`` operations were recorded without a decoder, so a dump
of any plain cluster that called ``remove_node`` could not be replayed;
these tests pin that scenario, and what a call records however it is
spelled.
"""

from __future__ import annotations

import inspect
import json
import os

import pytest

from repro.__main__ import main
from repro.core.automaton import HierarchicalLockAutomaton
from repro.core.clock import LamportClock
from repro.core.contract import INT, LockAutomaton, recorded
from repro.core.modes import LockMode
from repro.naimi.automaton import NaimiAutomaton
from repro.obs.collect import RunObserver
from repro.obs.flightrec import (
    NodeReplayer,
    attach_recorders,
    load_dump,
    write_dump,
)
from repro.persist.wal import encode_frame, scan_frames
from repro.raymond.automaton import RaymondAutomaton
from repro.sim.cluster import (
    SimHierarchicalCluster,
    SimNaimiCluster,
    SimRaymondCluster,
)
from repro.sim.engine import Timeout, run_processes

CLUSTERS = (SimHierarchicalCluster, SimNaimiCluster, SimRaymondCluster)
AUTOMATA = (HierarchicalLockAutomaton, NaimiAutomaton, RaymondAutomaton)


def _rounds(cluster, nodes, rounds=4):
    """Every node of *nodes* takes and drops ``lock0`` *rounds* times."""

    mode = (LockMode.W,) if isinstance(cluster, SimHierarchicalCluster) else ()

    def body(node):
        client = cluster.client(node)
        for _ in range(rounds):
            yield client.acquire("lock0", *mode)
            yield Timeout(cluster.sim, 0.002)
            client.release("lock0", *mode)
            yield Timeout(cluster.sim, 0.001)

    run_processes(cluster.sim, [body(node) for node in nodes])


def _replay_findings(recorders, tmp_path):
    path = os.path.join(tmp_path, "run.flight")
    write_dump(path, recorders)
    dump = load_dump(path)
    return {
        node: NodeReplayer.from_dump(dump, node).verify()
        for node in dump.nodes()
    }


@pytest.mark.parametrize("cluster_cls", CLUSTERS)
class TestSplicedRunsReplay:
    def test_remove_node_is_replayable(self, cluster_cls, tmp_path):
        cluster = cluster_cls(4, seed=22)
        recorders = attach_recorders(cluster, checkpoint_every=4)
        _rounds(cluster, range(4))
        cluster.remove_node(2)
        # More traffic, so checkpoints *after* the splice get compared.
        _rounds(cluster, (0, 1, 3), rounds=2)
        spliced = {
            event["op"]
            for recorder in recorders.values()
            for event in recorder.export_events()
            if event["kind"] == "op" and event["op"].startswith("splice_")
        }
        assert spliced, "the scenario must record splice operations"
        findings = _replay_findings(recorders, tmp_path)
        assert findings == {0: [], 1: [], 2: [], 3: []}

    def test_add_then_remove_is_replayable(self, cluster_cls, tmp_path):
        cluster = cluster_cls(3, seed=22)
        joiner = cluster.add_node()
        recorders = attach_recorders(cluster, checkpoint_every=4)
        _rounds(cluster, range(4))
        cluster.remove_node(0)  # a founding member, the initial token home
        _rounds(cluster, (1, 2, joiner), rounds=2)
        findings = _replay_findings(recorders, tmp_path)
        assert findings == {0: [], 1: [], 2: [], joiner: []}


def test_a_recorded_argument_must_be_a_parameter():
    # Refused as the class body runs: no instance, let alone a dump,
    # can ever carry an argument the replayer could not pass back.
    with pytest.raises(TypeError, match="poke.*'ghost'"):

        class Broken(LockAutomaton):
            @recorded(node=INT, ghost=INT)
            def poke(self, node):
                return []


class _Recorded(Exception):
    """Raised by :class:`_Spy` so that no operation body ever runs."""


class _Spy:
    def __init__(self):
        self.ops = []

    def record_op(self, lock_id, op, args):
        self.ops.append((op, args))
        raise _Recorded


def _sample(codec, index):
    """A sample for the *index*-th recorded argument: the first JSON value
    that survives *codec*'s round trip (distinct per index, so a binding
    that swapped two arguments would show)."""

    mode = ("W", "R", "IR")[index % 3]
    for raw in (3 + index, mode, True, [mode]):
        try:
            value = codec.decode(raw)
        except (TypeError, ValueError):
            continue
        if codec.encode(value) == raw:
            return value, raw
    raise AssertionError(f"no sample value for {codec}")


def _recorded_args(automaton_cls, op, *args, **kwargs):
    automaton = automaton_cls.from_birth(
        0, "L", automaton_cls.BLANK, lambda *grant: None, LamportClock()
    )
    automaton.flightrec = spy = _Spy()
    with pytest.raises(_Recorded):
        getattr(automaton, op)(*args, **kwargs)
    assert [name for name, _args in spy.ops] == [op]
    return spy.ops[0][1]


@pytest.mark.parametrize(
    "automaton_cls, op",
    [(cls, op) for cls in AUTOMATA for op in sorted(cls.OPS)],
)
def test_every_call_shape_records_the_table(automaton_cls, op):
    """Positional, keyword and defaulted calls of every recorded
    operation record exactly the table's arguments, in table order."""

    codecs = automaton_cls.OPS[op]
    parameters = list(
        inspect.signature(getattr(automaton_cls, op)).parameters.values()
    )[1:]
    samples = {
        key: _sample(codec, index)
        for index, (key, codec) in enumerate(codecs.items())
    }
    expected = {key: raw for key, (_value, raw) in samples.items()}
    last = max(
        (i for i, p in enumerate(parameters) if p.name in codecs), default=-1
    )
    positional = [
        samples[p.name][0] if p.name in codecs else p.default
        for p in parameters[: last + 1]
    ]
    keywords = {key: value for key, (value, _raw) in samples.items()}
    for args, kwargs in ((positional, {}), ((), keywords)):
        recorded_args = _recorded_args(automaton_cls, op, *args, **kwargs)
        assert list(recorded_args) == list(codecs)
        assert recorded_args == expected
    defaults = {
        p.name: p.default
        for p in parameters
        if p.name in codecs and p.default is not inspect.Parameter.empty
    }
    if defaults:
        required = {k: v for k, v in keywords.items() if k not in defaults}
        recorded_args = _recorded_args(automaton_cls, op, **required)
        expected.update({k: codecs[k].encode(v) for k, v in defaults.items()})
        assert list(recorded_args) == list(codecs)
        assert recorded_args == expected


def test_request_with_its_default_priority_records_the_golden_event():
    cluster = SimHierarchicalCluster(2, seed=22)
    recorders = attach_recorders(cluster)
    cluster.lockspaces[0].request("L", LockMode.R)
    assert json.dumps(recorders[0].export_events()) == (
        '[{"seq": 1, "t": 0.0, "kind": "ckpt", '
        '"state": {"clock": 0, "locks": []}}, '
        '{"kind": "birth", "lock": "L", '
        '"init": {"parent": null, "token": true}, "seq": 2, "t": 0.0}, '
        '{"kind": "op", "lock": "L", "op": "request", '
        '"args": {"mode": "R", "priority": 0}, "seq": 3, "t": 0.0}]'
    )


def test_an_observed_run_replays_clean(tmp_path):
    """Observer state is not protocol state: a run recorded with an
    observer attached replays, without one, to the same checkpoints.
    (The counter naming local-grant spans once sat in the hierarchical
    ``STATE`` table and advanced only while observed, so every
    checkpoint after a local grant mismatched on replay.)"""

    observer = RunObserver()
    cluster = SimHierarchicalCluster(3, seed=9, obs=observer)
    recorders = attach_recorders(cluster, checkpoint_every=4)

    def body(node):
        client = cluster.client(node)
        for _ in range(6):
            yield client.acquire("lock0", LockMode.R)
            yield Timeout(cluster.sim, 0.002)
            client.release("lock0", LockMode.R)
            yield Timeout(cluster.sim, 0.001)

    run_processes(cluster.sim, [body(node) for node in range(3)])
    # The premise: local grants were observed, under minted span keys.
    assert any(span.key.startswith("('L'") for span in observer.spans)
    assert _replay_findings(recorders, tmp_path) == {0: [], 1: [], 2: []}


# -- formats are checked, not assumed -----------------------------------


def _recorded_dump(tmp_path, mutate):
    """A small hierarchical dump whose frame records went through
    *mutate* (a function editing the list of records in place)."""

    cluster = SimHierarchicalCluster(3, seed=5)
    recorders = attach_recorders(cluster, checkpoint_every=4)
    _rounds(cluster, range(3), rounds=2)
    path = os.path.join(tmp_path, "run.flight")
    write_dump(path, recorders)
    with open(path, "rb") as handle:
        records, _end, _report = scan_frames(handle.read())
    mutate(records)
    with open(path, "wb") as handle:
        handle.write(b"".join(encode_frame(record) for record in records))
    return path


def _replay_cli(path, capsys):
    code = main(["replay", path])
    return code, capsys.readouterr()


def test_unknown_dump_version_exits_2_with_one_line(tmp_path, capsys):
    def older(records):
        records[0]["version"] = 1

    path = _recorded_dump(tmp_path, older)
    with pytest.raises(ValueError, match="version 1"):
        load_dump(path)
    code, captured = _replay_cli(path, capsys)
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert len(captured.err.strip().splitlines()) == 1


def test_unknown_op_is_a_replay_error_finding(tmp_path, capsys):
    def forge(records):
        event = next(
            r["event"] for r in records if r.get("event", {}).get("kind") == "op"
        )
        event["op"] = "no_such_operation"

    code, captured = _replay_cli(_recorded_dump(tmp_path, forge), capsys)
    assert code == 1
    assert "replay-error" in captured.out
    assert "no_such_operation" in captured.out
    assert "Traceback" not in captured.err


def test_unknown_message_type_is_a_replay_error_finding(tmp_path, capsys):
    def forge(records):
        event = next(
            r["event"] for r in records if r.get("event", {}).get("kind") == "msg"
        )
        event["msg"]["type"] = "TelepathyMessage"

    code, captured = _replay_cli(_recorded_dump(tmp_path, forge), capsys)
    assert code == 1
    assert "replay-error" in captured.out
    assert "TelepathyMessage" in captured.out
    assert "Traceback" not in captured.err
