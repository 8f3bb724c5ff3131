"""What the recorder records, the replayer can replay — by construction.

Each automaton class carries one table of recorded operations
(``OPS``, built from the ``@recorded`` decorators): ``_flight_op``
refuses names outside it and replay decodes through it.  At the parent
of this change nine ``splice_*`` operations were recorded without a
decoder, so a dump of any plain cluster that called ``remove_node`` could
not be replayed; these tests pin the scenario and the table itself.
"""

from __future__ import annotations

import inspect
import os
import re

import pytest

from repro.__main__ import main
from repro.core.automaton import HierarchicalLockAutomaton
from repro.core.clock import LamportClock
from repro.core.contract import LockAutomaton
from repro.core.modes import LockMode
from repro.errors import ProtocolError
from repro.naimi.automaton import NaimiAutomaton
from repro.obs.flightrec import (
    FlightRecorder,
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


@pytest.mark.parametrize("cluster_cls", CLUSTERS)
def test_every_recorded_name_is_in_the_table(cluster_cls, monkeypatch):
    seen = set()
    original = LockAutomaton._flight_op

    def spy(self, op, **args):
        seen.add((type(self), op))
        return original(self, op, **args)

    monkeypatch.setattr(LockAutomaton, "_flight_op", spy)
    cluster = cluster_cls(4, seed=22)
    attach_recorders(cluster, checkpoint_every=4)
    _rounds(cluster, range(4))
    cluster.remove_node(2)
    assert {op for _cls, op in seen} >= {"request", "release"}
    for automaton_cls, op in seen:
        assert op in automaton_cls.OPS


@pytest.mark.parametrize("automaton_cls", AUTOMATA)
def test_table_matches_the_source(automaton_cls):
    """Statically: every ``_flight_op("name", ...)`` call site in the
    class (and the shared base) names a table entry, and vice versa."""

    source = inspect.getsource(automaton_cls) + inspect.getsource(LockAutomaton)
    called = set(re.findall(r'_flight_op\(\s*"(\w+)"', source))
    assert called == set(automaton_cls.OPS)
    for op, codecs in automaton_cls.OPS.items():
        parameters = inspect.signature(getattr(automaton_cls, op)).parameters
        assert set(codecs) <= set(parameters), op


@pytest.mark.parametrize("automaton_cls", AUTOMATA)
def test_unregistered_name_is_refused_at_record_time(automaton_cls):
    automaton = automaton_cls.from_birth(
        0, "L", automaton_cls.BLANK, lambda *grant: None, LamportClock()
    )
    automaton._flight_op("not_an_operation")  # unrecorded: a no-op
    automaton.flightrec = FlightRecorder(0, protocol=automaton_cls.PROTOCOL)
    with pytest.raises(ProtocolError, match="recorded-operation table"):
        automaton._flight_op("not_an_operation")
    with pytest.raises(ProtocolError, match="recorded-operation table"):
        automaton._flight_op("request", no_such_argument=1)
    assert automaton.flightrec.last_seq == 0


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
