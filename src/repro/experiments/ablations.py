"""Ablation studies of the protocol's design choices (DESIGN.md A1-A4).

The paper argues three mechanisms produce its numbers: mode freezing for
fairness (§3.3), local queues to suppress messages (Rule 4), and grants by
children (Rule 3.1).  Each ablation re-runs a workload with one mechanism
disabled via :class:`~repro.core.automaton.ProtocolOptions` and reports
the delta — turning the paper's qualitative arguments into measurements.
"""

from __future__ import annotations

import dataclasses
import functools
from typing import Callable, Tuple

from ..core.automaton import FULL_PROTOCOL, ProtocolOptions
from ..core.modes import LockMode
from ..verification.fairness import analyze
from ..workload.airline import hierarchical_client
from ..workload.spec import WorkloadSpec
from .common import PROTOCOLS, RunResult, airline, run
from .report import shape_checks

#: Write-heavy, conflict-heavy mix used by the freezing ablation: a stream
#: of entry writes (table IW) that, without freezing, keeps overtaking the
#: table-level readers.
STARVATION_MODE_MIX: Tuple[Tuple[LockMode, float], ...] = (
    (LockMode.IW, 0.75),
    (LockMode.R, 0.25),
)

#: The hierarchical protocol on the ablations' own RNG stream.
ABLATED = dataclasses.replace(
    PROTOCOLS["hierarchical"], clients=airline(hierarchical_client, "ablate")
)


def run_with_options(
    num_nodes: int,
    spec: WorkloadSpec,
    options: ProtocolOptions,
    check_invariants: bool = True,
) -> RunResult:
    """Run the airline workload with custom protocol options."""

    return run(ABLATED, num_nodes, spec, check_invariants, options=options)


@dataclasses.dataclass(frozen=True)
class Ablation:
    """One mechanism switched off, the workload that shows its loss and
    the metric the loss is read from."""

    name: str
    claim: str
    options: ProtocolOptions
    seed: int
    num_nodes: int = 16
    ops_per_node: int = 30
    #: Workload parameters other than ``ops_per_node`` and ``seed``.
    workload: WorkloadSpec = WorkloadSpec()
    metric_name: str = "messages per lock request"
    metric: Callable[[RunResult], float] = RunResult.message_overhead


@dataclasses.dataclass
class AblationResult:
    """Full-protocol vs. ablated comparison."""

    name: str
    metric_name: str
    full_value: float
    ablated_value: float
    full_run: RunResult
    ablated_run: RunResult
    claim: str

    @property
    def regression(self) -> float:
        """Ablated / full ratio for the chosen metric (>1 = full wins)."""

        if self.full_value <= 0:
            return float("inf") if self.ablated_value > 0 else 1.0
        return self.ablated_value / self.full_value

    def render(self) -> str:
        """One comparison block."""

        return "\n".join(
            [
                f"Ablation: {self.name}",
                f"  claim: {self.claim}",
                f"  {self.metric_name}: full={self.full_value:.3f} "
                f"ablated={self.ablated_value:.3f} "
                f"(x{self.regression:.2f})",
            ]
        )


def _bypasses(run_result: RunResult) -> float:
    return float(analyze(run_result.metrics.requests).bypasses)


# A1 uses the conflict-heavy mix: table-level ``R`` requests queue at the
# token behind a stream of entry ``IW`` grants.  With freezing, ``IW`` is
# frozen the moment the ``R`` queues and the reader proceeds after one
# drain; without it, every new ``IW`` overtakes — the §3.3 starvation
# scenario, visible as a blow-up of the overtake count.
FREEZING = Ablation(
    name="no freezing (Rule 6 off)",
    claim="freezing stops newcomers from overtaking queued "
    "incompatible requests (§3.3)",
    options=ProtocolOptions(freezing=False),
    seed=11,
    num_nodes=12,
    ops_per_node=40,
    workload=WorkloadSpec(mode_mix=STARVATION_MODE_MIX, locality=0.2),
    metric_name="conflicting-mode bypasses (overtakes)",
    metric=_bypasses,
)
# A2: without Rule 4.1 queueing, requests always chase the token.
LOCAL_QUEUES = Ablation(
    name="no local queues (Rule 4.1 off)",
    claim="local queues suppress forwarding traffic (Rule 4)",
    options=ProtocolOptions(local_queues=False),
    seed=12,
)
# A3: without Rule 3.1, only the token node may grant.
CHILD_GRANTS = Ablation(
    name="no child grants (Rule 3.1 off)",
    claim="grants by children cut message overhead and latency (§4)",
    options=ProtocolOptions(child_grants=False),
    seed=13,
)
# A4: without Rule 2's zero-message path, every acquisition sends.
LOCAL_REENTRY = Ablation(
    name="no local re-entry (Rule 2 local path off)",
    claim="local acquisitions without messages drive the low constant "
    "factor (Rule 2, §4)",
    options=ProtocolOptions(local_reentry=False),
    seed=14,
)

ABLATIONS = (FREEZING, LOCAL_QUEUES, CHILD_GRANTS, LOCAL_REENTRY)


def ablate(ablation: Ablation, **size: int) -> AblationResult:
    """Run *ablation*'s workload under the full protocol and with its
    mechanism off; *size* overrides ``num_nodes`` / ``ops_per_node`` /
    ``seed``."""

    row = dataclasses.replace(ablation, **size)
    spec = dataclasses.replace(
        row.workload, ops_per_node=row.ops_per_node, seed=row.seed
    )
    full = run_with_options(row.num_nodes, spec, FULL_PROTOCOL)
    ablated = run_with_options(row.num_nodes, spec, row.options)
    return AblationResult(
        name=row.name,
        metric_name=row.metric_name,
        full_value=row.metric(full),
        ablated_value=row.metric(ablated),
        full_run=full,
        ablated_run=ablated,
        claim=row.claim,
    )


ablate_freezing = functools.partial(ablate, FREEZING)
ablate_local_queues = functools.partial(ablate, LOCAL_QUEUES)
ablate_child_grants = functools.partial(ablate, CHILD_GRANTS)
ablate_local_reentry = functools.partial(ablate, LOCAL_REENTRY)


def render_ablations() -> str:
    """Every ablation at its default size, and whether each mechanism's
    removal regresses its metric."""

    results = [ablate(ablation) for ablation in ABLATIONS]
    checks = [
        (result.name + " regresses when removed", result.regression > 1.0)
        for result in results
    ]
    return "\n\n".join(
        [result.render() for result in results] + [shape_checks(checks)]
    )
