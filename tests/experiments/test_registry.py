"""The evaluation written once: one sweep behind the figures, one run
function that refuses a crashed client, one registry behind the CLI,
the benches and EXPERIMENTS.md."""

from __future__ import annotations

import itertools
import os
import re

import pytest

from repro.__main__ import _parse, main
from repro.errors import SimulationError
from repro.experiments import EXPERIMENTS, common, scale
from repro.experiments.ablations import ablate_local_queues
from repro.experiments.figures import (
    run_fig5,
    run_fig6,
    run_fig7,
    run_headline,
)
from repro.experiments.priority import run_priority_study
from repro.experiments.related_work import run_raymond
from repro.sim.cluster import ExclusiveClient, HierClient
from repro.sim.engine import SimEvent, Simulator, run_processes
from repro.workload.spec import WorkloadSpec

_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(__file__)))


class TestOneSweep:
    def test_readings_share_the_sweeps_runs(self):
        counts, spec = (2, 4), WorkloadSpec(ops_per_node=6, seed=8101)
        fig5 = run_fig5(counts, spec)
        fig6 = run_fig6(counts, spec)
        fig7 = run_fig7(counts, spec)
        headline = run_headline(4, spec)
        for protocol, runs in fig5.runs.items():
            for mine, theirs in zip(runs, fig6.runs[protocol]):
                assert mine is theirs
        for mine, theirs in zip(fig5.runs["hierarchical"], fig7.all_runs()):
            assert mine is theirs
        assert headline.ours is fig5.runs["hierarchical"][-1]
        assert headline.pure is fig5.runs["naimi-pure"][-1]
        assert headline.same_work is fig5.runs["naimi-same-work"][-1]

    def test_quick_scale_simulates_each_point_once(self, monkeypatch):
        built = []

        class CountedSimulator(Simulator):
            def __init__(self, *args, **kwargs):
                built.append(self)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(common, "Simulator", CountedSimulator)
        # A seed no other test sweeps, so nothing is simulated yet.
        at = scale(quick=True, seed=8102)
        run_fig5(at.node_counts, at.spec)
        run_fig6(at.node_counts, at.spec)
        run_fig7(at.node_counts, at.spec)
        run_headline(max(at.node_counts), at.spec)
        assert len(built) == 3 * len(at.node_counts) == 12

    def test_all_trace_out_writes_each_run_once(self, tmp_path, capsys):
        path = tmp_path / "all.jsonl"
        argv = ["all", "--nodes", "4", "--ops", "5", "--seed", "8103"]
        assert main(argv + ["--trace-out", str(path)]) == 0
        capsys.readouterr()
        sections = [
            line for line in path.read_text().splitlines()
            if line.startswith('{"cat": "run"')
        ]
        assert len(sections) == 3  # one per protocol, not one per figure


def _crash_on_fifth_acquire(monkeypatch, client_class):
    original = client_class.acquire
    calls = itertools.count(1)

    def acquire(self, *args, **kwargs):
        if next(calls) == 5:
            raise RuntimeError("injected client crash")
        return original(self, *args, **kwargs)

    monkeypatch.setattr(client_class, "acquire", acquire)


class TestCrashedClientFailsTheRun:
    """``Process`` triggers ``done`` when its body raises, so "every
    client is done" does not mean the run finished."""

    def test_ablation(self, monkeypatch):
        _crash_on_fifth_acquire(monkeypatch, HierClient)
        with pytest.raises(SimulationError, match=r"process \d+ crashed"):
            ablate_local_queues(num_nodes=4, ops_per_node=5, seed=1)

    def test_priority_study(self, monkeypatch):
        _crash_on_fifth_acquire(monkeypatch, HierClient)
        with pytest.raises(SimulationError, match="injected client crash"):
            run_priority_study(num_nodes=4, ops_per_node=5, seed=1)

    def test_raymond(self, monkeypatch):
        _crash_on_fifth_acquire(monkeypatch, ExclusiveClient)
        with pytest.raises(SimulationError, match=r"process \d+ crashed"):
            run_raymond(4, WorkloadSpec(ops_per_node=5, seed=1))

    def test_blocked_client_is_named(self):
        sim = Simulator()

        def finishes():
            return
            yield

        def blocks():
            yield SimEvent(sim)

        with pytest.raises(SimulationError, match=r"client processes \[1\]"):
            run_processes(sim, [finishes(), blocks()])


class TestOneRegistry:
    """Statically: a registered experiment is reachable everywhere."""

    @pytest.mark.parametrize("name", list(EXPERIMENTS))
    def test_is_a_cli_choice(self, name):
        assert _parse([name]).experiment == name

    def test_bench_is_parametrised_over_it(self):
        from benchmarks import bench_paper

        (mark,) = bench_paper.test_experiment.pytestmark
        assert mark.args == ("name", list(EXPERIMENTS))
        assert set(bench_paper.BENCHES) == set(EXPERIMENTS)

    def test_experiments_md_documents_a_command_per_name(self):
        path = os.path.join(_ROOT, "EXPERIMENTS.md")
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
        commands = set(re.findall(r"^python -m repro (\w+)", text, re.M))
        assert commands >= set(EXPERIMENTS)
