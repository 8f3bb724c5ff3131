"""Tests of the ledger's own machinery.

Run explicitly (tier-1 collects ``tests/`` only)::

    PYTHONPATH=src python -m pytest benchmarks/ledger/test_ledger.py -q
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
import time

import pytest

from benchmarks.ledger import trace
from benchmarks.ledger.scripts import (
    PAPER_MIX,
    WRITE_MIX,
    make_script,
    nested_steps,
    script_bytes,
)
from benchmarks.ledger.stats import (
    highest_supported_percentile,
    longest_gap,
    percentile,
    samples_beyond,
    worsening,
)

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))


def _script(seed, sub=0, mix=PAPER_MIX, workload="paper120"):
    return make_script(workload, seed, sub, range(8), 25, mix, entries=8)


def test_same_seed_gives_byte_identical_scripts():
    assert script_bytes(_script(2003)) == script_bytes(_script(2003))


def test_seed_sub_seed_workload_and_mix_all_change_the_script():
    base = script_bytes(_script(2003))
    assert script_bytes(_script(2004)) != base
    assert script_bytes(_script(2003, sub=1)) != base
    assert script_bytes(_script(2003, workload="stack40")) != base
    assert script_bytes(_script(2003, mix=WRITE_MIX)) != base


def test_script_is_the_same_in_another_process():
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]);"
        "from benchmarks.ledger.scripts import *;"
        "sys.stdout.buffer.write(script_bytes(make_script("
        "'paper120', 2003, 0, range(8), 25, PAPER_MIX, entries=8)))"
    )
    other = subprocess.run(
        [sys.executable, "-c", code, ROOT], capture_output=True, check=True
    ).stdout
    assert other == script_bytes(_script(2003))


def test_script_follows_the_mix_and_the_locality():
    script = make_script("paper120", 7, 0, range(40), 500, PAPER_MIX, entries=40)
    ops = [op for node in script for op in script[node]]
    share = {d: sum(op.draw == d for op in ops) / len(ops) for d, _ in PAPER_MIX}
    for draw, weight in PAPER_MIX:
        assert share[draw] == pytest.approx(weight, abs=0.01)
    entry_ops = [
        (node, op) for node in script for op in script[node] if op.entry >= 0
    ]
    home = sum(op.entry == node % 40 for node, op in entry_ops) / len(entry_ops)
    assert home == pytest.approx(0.8 + 0.2 / 40, abs=0.01)
    assert nested_steps(entry_ops[0][1])[0][0] == "db/tickets"


def test_percentile_is_nearest_rank():
    ordered = [float(i) for i in range(1, 101)]
    assert percentile(ordered, 50) == 50.0
    assert percentile(ordered, 99) == 99.0
    assert percentile(ordered, 100) == 100.0
    assert percentile([3.0], 99) == 3.0


@pytest.mark.parametrize(
    "count, expected",
    [(19, None), (20, 50.0), (100, 90.0), (199, 90.0), (200, 95.0),
     (999, 95.0), (1000, 99.0), (10_000, 99.9), (100_000, 99.99)],
)
def test_highest_percentile_keeps_ten_samples_beyond_it(count, expected):
    assert highest_supported_percentile(count) == expected
    if expected is not None:
        assert samples_beyond(count, expected) >= 10


def test_longest_gap_only_counts_gaps_that_end_after_the_crash():
    times = [0.0, 5.0, 6.0, 6.5, 10.0]
    assert longest_gap(times) == 5.0
    assert longest_gap(times, ends_after=5.0) == 3.5
    assert longest_gap([1.0]) == 0.0


def test_worsening_follows_the_better_direction():
    assert worsening(100.0, 110.0, "lower") == pytest.approx(0.10)
    assert worsening(100.0, 110.0, "higher") == pytest.approx(-0.10)


class _Clock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_is_span_minus_child_spans():
    #  a: 0 ........................ 10
    #    b: 1 ..... 4     b: 5 ... 7
    #      c: 2 . 3
    clock = _Clock()
    recorder = trace.SpanRecorder(clock=clock, keep_spans=True)

    def at(t):
        clock.now = t

    at(0); recorder.enter("a")
    at(1); recorder.enter("b")
    at(2); recorder.enter("c")
    at(3); recorder.exit()
    at(4); recorder.exit()
    at(5); recorder.enter("b")
    at(7); recorder.exit()
    at(10); recorder.exit()

    totals = recorder.totals()
    assert totals["a"] == (1, pytest.approx(10 - 3 - 2))
    assert totals["b"] == (2, pytest.approx((3 - 1) + 2))
    assert totals["c"] == (1, pytest.approx(1))
    assert sum(self_s for _calls, self_s in totals.values()) == pytest.approx(10)
    assert recorder.spans() == [
        ("a", 0.0, 10.0, -1), ("b", 1.0, 4.0, 0), ("c", 2.0, 3.0, 1),
        ("b", 5.0, 7.0, 0),
    ]


def test_same_layer_nesting_does_not_double_count():
    clock = _Clock()
    recorder = trace.SpanRecorder(clock=clock)
    recorder.enter("a")
    clock.now = 1.0
    recorder.enter("a")
    clock.now = 3.0
    recorder.exit()
    clock.now = 4.0
    recorder.exit()
    assert recorder.totals()["a"] == (2, pytest.approx(4.0))


def test_install_wraps_and_unwraps_every_boundary():
    from repro.core.lockspace import LockSpace
    from repro.core.modes import LockMode

    original = LockSpace.request
    recorder = trace.SpanRecorder()
    uninstall = trace.install(recorder)
    try:
        assert LockSpace.request is not original
        space = LockSpace(node_id=0)
        space.request("L", LockMode.IR)
        space.release("L", LockMode.IR)
    finally:
        uninstall()
    assert LockSpace.request is original
    assert recorder.totals()["core.lockspace"][0] == 2


def test_benchmark_json_meets_the_contract():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    assert set(spec) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }
    name = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
    unit = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
    assert spec["paths"] == ["benchmarks/ledger"]
    assert 2 <= len(spec["workloads"]) <= 8
    assert 1 <= len(spec["end_to_end"]) <= 16
    assert 1 <= len(spec["per_layer"]) <= 128
    assert isinstance(spec["run_seconds"], int) and 1 <= spec["run_seconds"] <= 60
    names = []
    for workload in spec["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
        names.append(workload["name"])
    for metric in spec["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
        names.append(metric["name"])
    for metric in spec["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
        names.append(metric["name"])
    for metric in spec["end_to_end"] + spec["per_layer"]:
        assert unit.match(metric["unit"]), metric
        assert metric["better"] in ("lower", "higher")
    assert all(name.match(n) for n in names)
    assert len(set(names)) == len(names)
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"] for m in spec["end_to_end"])
    runs = 4 + 22 * len(spec["workloads"])
    assert runs * (spec["run_seconds"] + 8) < 3420


def test_quick_ledger_finishes_in_under_ten_seconds():
    started = time.perf_counter()
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "__main__.py"), "--quick"],
        capture_output=True, text=True, timeout=120,
    )
    elapsed = time.perf_counter() - started
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    document = json.loads(done.stdout)
    assert document["problems"] == []
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    for workload in spec["workloads"]:
        entry = document["ledger"][workload["name"]]
        assert set(entry["end_to_end"]["metrics"]) == {
            m["name"] for m in spec["end_to_end"]
        }
        assert entry["end_to_end"]["failed"] == 0
    assert elapsed < 10.0, f"--quick took {elapsed:.1f}s"
