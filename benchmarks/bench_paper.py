"""E1-E8, A1-A4, X1, X2 — every artifact EXPERIMENTS.md reports.

One bench per name of the registry ``python -m repro <name>`` runs: each
regenerates its table, figure or study once, prints it as the paper
shows it and asserts the paper's qualitative claims — the rule tables
cell by cell against the reconstruction oracle; our protocol flattening
near ~3 messages per request below Naimi pure (~4) while Naimi same-work
grows superlinearly; latency ordered ours < pure < same-work; copy
grants overtaking token transfers; ~3 vs ~4 messages at the largest
cluster; each removed mechanism regressing its metric; the VIP's latency
cut; dynamic trees beating static ones.
"""

from __future__ import annotations

import pytest

from repro.experiments import EXPERIMENTS, rendered, tables
from repro.experiments.ablations import (
    ablate_child_grants,
    ablate_freezing,
    ablate_local_queues,
    ablate_local_reentry,
)
from repro.experiments.priority import run_priority_study



def _ablations_at_bench_scale(at):
    """A1-A4 on larger clusters than ``python -m repro ablations`` uses
    (EXPERIMENTS.md quotes those; the directions are the same)."""

    return [
        ablate_freezing(num_nodes=16, ops_per_node=40),
        ablate_local_queues(num_nodes=24, ops_per_node=30),
        ablate_child_grants(num_nodes=24, ops_per_node=30),
        ablate_local_reentry(num_nodes=24, ops_per_node=30),
    ]


def _print(result):
    print()
    print(rendered(result))


def _paper_claims_hold(result):
    _print(result)
    failures = [claim for claim, ok in result.checks() if not ok]
    assert not failures, f"shape checks failed: {failures}"


def _tables_match_oracle(rendered):
    _print(rendered)
    assert tables.table_1a_matrix() == tables.EXPECTED_TABLE_1A
    assert tables.table_1b_matrix() == tables.EXPECTED_TABLE_1B
    assert tables.table_2a_matrix() == tables.EXPECTED_TABLE_2A
    assert tables.table_2b_matrix() == tables.EXPECTED_TABLE_2B
    assert rendered.count("[PASS]") == 4


def _ablations_regress(results):
    for result in results:
        _print(result)
    freezing, local_queues, child_grants, local_reentry = results
    # Removing Rule 6 must produce strictly more conflicting-mode
    # overtakes (the §3.3 starvation mechanism).
    assert freezing.regression > 1.2
    assert local_queues.regression >= 0.95
    assert child_grants.regression >= 0.9
    assert local_reentry.regression >= 0.95


def _priority_pays_off(result):
    _print(result)
    assert result.speedup > 1.1
    # The crowd pays for the VIP treatment (or at worst breaks even).
    assert result.priority_crowd_latency >= result.fifo_crowd_latency * 0.9


#: name → (run, what its result must show): the registry's own run held
#: to its paper claims, except where the bench asserts more or runs larger.
BENCHES = {
    name: (run, _paper_claims_hold) for name, run in EXPERIMENTS.items()
}
BENCHES["tables"] = (EXPERIMENTS["tables"], _tables_match_oracle)
BENCHES["ablations"] = (_ablations_at_bench_scale, _ablations_regress)
BENCHES["priority"] = (
    lambda at: run_priority_study(num_nodes=12, ops_per_node=25),
    _priority_pays_off,
)


@pytest.mark.parametrize("name", list(EXPERIMENTS))
def test_experiment(benchmark, name, scale):
    """Run the experiment once, time it, hold it to the paper."""

    run, check = BENCHES[name]
    check(benchmark.pedantic(run, args=(scale,), rounds=1, iterations=1))
