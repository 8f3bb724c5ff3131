"""Experiment harness: the paper's evaluation, and the registry of every
artifact it reproduces.

:data:`EXPERIMENTS` is the one list of them: ``python -m repro
<name>|all`` iterates it, ``benchmarks/bench_paper.py`` is parametrised
over it and EXPERIMENTS.md documents a command per name.  :func:`scale`
is the one place that knows what ``--quick`` means.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Dict, Optional, Sequence

from ..workload.spec import WorkloadSpec
from . import tables
from .ablations import render_ablations
from .common import (
    PAPER_NODE_COUNTS,
    PROTOCOLS,
    QUICK_NODE_COUNTS,
    RunResult,
    run,
    run_hierarchical,
    run_naimi_pure,
    run_naimi_same_work,
    sweep,
)
from .figures import (
    Figure,
    HeadlineResult,
    run_fig5,
    run_fig6,
    run_fig7,
    run_headline,
)
from .priority import run_priority_study
from .related_work import RELATED_NODE_COUNTS, run_related_work

#: Seed of every number EXPERIMENTS.md quotes (the paper's year).
PAPER_SEED = 2003


@dataclasses.dataclass(frozen=True)
class Scale:
    """The size an experiment runs at."""

    #: CI scale (a few seconds in total) instead of the paper's.
    quick: bool
    node_counts: Sequence[int]
    spec: WorkloadSpec
    #: Attach the observability layer to the sweep's runs.
    observe: bool = False


def scale(
    quick: bool = False,
    nodes: Optional[int] = None,
    ops: Optional[int] = None,
    seed: int = PAPER_SEED,
    observe: bool = False,
) -> Scale:
    """Resolve the CLI's ``--quick`` / ``--nodes`` / ``--ops`` / ``--seed``
    (or the benches' ``REPRO_BENCH_QUICK``) into a :class:`Scale`."""

    if nodes is not None:
        node_counts: Sequence[int] = (nodes,)
    else:
        node_counts = QUICK_NODE_COUNTS if quick else PAPER_NODE_COUNTS
    if ops is None:
        # The paper's 30 operations per node; CI scale halves them.
        ops = 15 if quick else 30
    spec = WorkloadSpec(ops_per_node=ops, seed=seed)
    return Scale(quick, node_counts, spec, observe)


#: name → ``run(scale)``, in the order ``python -m repro all`` prints.
#: A run returns its result (``render()``, ``checks()``) or, for the
#: rule tables and the ablation set, which have no single result
#: object, the rendered text.  Only the sweep's readings take the node
#: counts and the workload; the studies run at their own fixed sizes.
EXPERIMENTS: Dict[str, Callable[[Scale], object]] = {
    "tables": lambda at: tables.render_all(),
    "fig5": lambda at: run_fig5(at.node_counts, at.spec, observe=at.observe),
    "fig6": lambda at: run_fig6(at.node_counts, at.spec, observe=at.observe),
    "fig7": lambda at: run_fig7(at.node_counts, at.spec, observe=at.observe),
    "headline": lambda at: run_headline(
        max(at.node_counts), at.spec, observe=at.observe
    ),
    "ablations": lambda at: render_ablations(),
    "priority": lambda at: run_priority_study(),
    "related": lambda at: run_related_work(
        QUICK_NODE_COUNTS if at.quick else RELATED_NODE_COUNTS
    ),
}


def rendered(result: object) -> str:
    """The text of what an :data:`EXPERIMENTS` run returned."""

    return result if isinstance(result, str) else result.render()


__all__ = [
    "EXPERIMENTS",
    "Figure",
    "HeadlineResult",
    "PAPER_NODE_COUNTS",
    "PAPER_SEED",
    "PROTOCOLS",
    "QUICK_NODE_COUNTS",
    "RunResult",
    "Scale",
    "rendered",
    "run",
    "run_fig5",
    "run_fig6",
    "run_fig7",
    "run_headline",
    "run_hierarchical",
    "run_naimi_pure",
    "run_naimi_same_work",
    "scale",
    "sweep",
]
