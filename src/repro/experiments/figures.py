"""Figures 5-7 and the Section 6 headline — four readings of one sweep.

The paper's evaluation is a single experiment: the airline workload
under our protocol, Naimi *pure* and Naimi *same work* as the cluster
grows from 2 to 120 nodes.  Figure 5 reads the runs' messages per lock
request, Figure 6 their latency factor, Figure 7 our protocol's
per-type message rates, and the conclusion quotes the largest cluster.
Each reading is a :class:`Reading` row over
:func:`~repro.experiments.common.sweep`, which simulates every
``(protocol, n)`` point once however many figures ask for it.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..workload.spec import WorkloadSpec
from .common import PAPER_NODE_COUNTS, PROTOCOLS, RunResult, sweep
from .report import (
    flattening,
    render_ascii_plot,
    render_series_table,
    shape_checks,
    superlinear_growth,
)

Series = Dict[str, List[float]]
Checks = List[Tuple[str, bool]]

#: Figure 7's legend, in rendering order.
MESSAGE_TYPES = ("request", "grant", "token", "release", "freeze")


@dataclasses.dataclass(frozen=True)
class Reading:
    """How one figure presents its series and which of the paper's
    claims they must bear out."""

    title: str
    #: Name the figure also publishes its series under (``overhead``,
    #: ``latency_factor``, ``breakdown``).
    attribute: str
    #: ``(node_counts, series)`` → the paper's qualitative claims.
    checks: Callable[[List[int], Series], Checks]
    precision: int = 2
    #: Title of the ASCII plot under the table; ``None`` = table only.
    plot: Optional[str] = None


@dataclasses.dataclass
class Figure:
    """The data behind one figure: a named series per curve."""

    reading: Reading
    node_counts: List[int]
    series: Series
    runs: Dict[str, List[RunResult]]

    def __post_init__(self) -> None:
        setattr(self, self.reading.attribute, self.series)

    def all_runs(self) -> List[RunResult]:
        """Every underlying run, in protocol then node-count order."""

        return [run for results in self.runs.values() for run in results]

    def checks(self) -> Checks:
        """The paper's qualitative claims, evaluated on this data."""

        return self.reading.checks(self.node_counts, self.series)

    def render(self) -> str:
        """Paper-style rows, the ASCII figure if any, the shape checks."""

        xs = [float(n) for n in self.node_counts]
        blocks = [
            render_series_table(
                self.reading.title, "nodes", xs, self.series,
                precision=self.reading.precision,
            )
        ]
        if self.reading.plot is not None:
            blocks.append(
                render_ascii_plot(self.reading.plot, xs, self.series)
            )
        return "\n\n".join(blocks + [shape_checks(self.checks())])


def _reader(
    reading: Reading,
    protocols: Sequence[str],
    extract: Callable[[Dict[str, List[RunResult]]], Series],
) -> Callable[..., Figure]:
    """The function that reads *reading* off *protocols*' curves of the
    sweep: *extract* turns their runs into the figure's series."""

    def read(
        node_counts: Sequence[int] = PAPER_NODE_COUNTS,
        spec: WorkloadSpec = WorkloadSpec(),
        check_invariants: bool = True,
        observe: bool = False,
    ) -> Figure:
        runs = {
            protocol: sweep(
                protocol, node_counts, spec, check_invariants, observe=observe
            )
            for protocol in protocols
        }
        return Figure(reading, list(node_counts), extract(runs), runs)

    read.__doc__ = f"Run the sweep and read off {reading.title}."
    return read


def _per_protocol(metric: Callable[[RunResult], float]) -> Callable:
    return lambda runs: {
        protocol: [metric(run) for run in results]
        for protocol, results in runs.items()
    }


def _fig5_checks(node_counts: List[int], overhead: Series) -> Checks:
    ours = overhead["hierarchical"]
    pure = overhead["naimi-pure"]
    same = overhead["naimi-same-work"]
    return [
        (
            "our protocol's message overhead flattens (log asymptote)",
            # Flattening is a paper-scale property; the curve is still
            # in its initial rise below ~40 nodes.
            flattening(ours) if node_counts[-1] >= 40 else ours[-1] < 4.5,
        ),
        (
            "our protocol stays below Naimi pure at scale",
            ours[-1] < pure[-1],
        ),
        (
            "Naimi same-work grows superlinearly",
            superlinear_growth([float(n) for n in node_counts], same),
        ),
        (
            "our asymptote lands in the paper's ~3-message band",
            # The 2-4.5 band is a paper-scale property; small sweeps
            # only check the upper bound.
            (2.0 <= ours[-1] <= 4.5)
            if node_counts[-1] >= 40
            else ours[-1] <= 4.5,
        ),
    ]


# Figure 5 — scalability: the average number of messages per lock
# request as the cluster grows.  Paper claims:
#
# * our protocol flattens after an initial increase ("asymptotic
#   threshold of about 3 messages"),
# * Naimi pure flattens too, at a higher level ("up to 4 messages" —
#   ours is ~20 % cheaper despite doing more work),
# * Naimi same-work grows superlinearly with the node count.
FIG5 = Reading(
    title="Figure 5 — message overhead (messages per lock request)",
    attribute="overhead",
    checks=_fig5_checks,
    plot="Figure 5 (ASCII)",
)
run_fig5 = _reader(
    FIG5, tuple(PROTOCOLS), _per_protocol(RunResult.message_overhead)
)


def _fig6_checks(node_counts: List[int], latency_factor: Series) -> Checks:
    xs = [float(n) for n in node_counts]
    ours = latency_factor["hierarchical"]
    pure = latency_factor["naimi-pure"]
    same = latency_factor["naimi-same-work"]
    return [
        (
            "our protocol has the lowest latency factor at scale",
            ours[-1] < pure[-1] and ours[-1] < same[-1],
        ),
        (
            "Naimi same-work latency grows superlinearly",
            superlinear_growth(xs, same),
        ),
        (
            "our latency factor is not superlinear (≈linear growth)",
            not superlinear_growth(xs[len(xs) // 2 :], ours[len(ours) // 2 :])
            or ours[-1] < pure[-1],
        ),
        (
            "ordering matches the paper at max n: ours < pure < same-work",
            ours[-1] < pure[-1] < same[-1],
        ),
    ]


# Figure 6 — response time: mean lock-request latency divided by the
# mean network latency (150 ms).  Paper claims:
#
# * our protocol grows roughly linearly with the concurrency level
#   (interference from other nodes' conflicting critical sections),
# * Naimi pure is also linear but with a worse constant (everything
#   serializes through one exclusive token),
# * Naimi same-work is superlinear (whole-table operations acquire a
#   per-node-growing set of tokens in order).
FIG6 = Reading(
    title="Figure 6 — request latency (× mean point-to-point latency)",
    attribute="latency_factor",
    checks=_fig6_checks,
    precision=1,
    plot="Figure 6 (ASCII)",
)
run_fig6 = _reader(
    FIG6, tuple(PROTOCOLS), _per_protocol(RunResult.latency_factor)
)


def _breakdown(runs: Dict[str, List[RunResult]]) -> Series:
    per_type = [
        run.metrics.message_overhead_by_type() for run in runs["hierarchical"]
    ]
    return {
        kind: [rates.get(kind, 0.0) for rates in per_type]
        for kind in MESSAGE_TYPES
    }


def _fig7_checks(node_counts: List[int], breakdown: Series) -> Checks:
    last = {kind: series[-1] for kind, series in breakdown.items()}
    return [
        (
            "request messages stabilize after the initial rise",
            flattening(breakdown["request"], ratio=0.75),
        ),
        (
            "copy grants exceed token transfers at scale",
            last["grant"] > last["token"],
        ),
        (
            "freeze messages stay a small constant (< 1 per request)",
            max(breakdown["freeze"]) < 1.0,
        ),
        (
            "every type's rate is bounded (< 3 per request)",
            all(max(series) < 3.0 for series in breakdown.values()),
        ),
    ]


# Figure 7 — our protocol's message overhead by message type: request,
# grant (copy grants), token (transfers), release and freeze messages
# per lock request.  Paper claims:
#
# * request messages rise with the tree height, then stabilize,
# * token transfers fall from their initial level and flatten (more and
#   more requests are satisfied by copy grants or queueing),
# * copy grants rise and stabilize (they absorb what transfers lose),
# * releases track copy grants (every copy grant is eventually matched
#   by release traffic; the token node itself never sends releases),
# * freeze messages stay small and flat (at most five modes exist).
FIG7 = Reading(
    title="Figure 7 — message behaviour (messages per lock request, by type)",
    attribute="breakdown",
    checks=_fig7_checks,
)
run_fig7 = _reader(FIG7, ("hierarchical",), _breakdown)


@dataclasses.dataclass
class HeadlineResult:
    """The §6 comparison at one cluster size.

    The conclusion condenses the evaluation into two numbers at the
    largest cluster: **message overhead 3 vs. 4** (ours vs. Naimi's base
    protocol) and **latency factor 90 vs. 160**, plus the relative
    saving it quotes (~20 % fewer messages).
    """

    num_nodes: int
    ours: RunResult
    pure: RunResult
    same_work: RunResult

    def all_runs(self) -> List[RunResult]:
        """The three underlying runs in rendering order."""

        return [self.ours, self.pure, self.same_work]

    def message_saving(self) -> float:
        """Relative message saving of ours vs. Naimi pure (paper: ~20 %)."""

        pure = self.pure.message_overhead()
        if pure <= 0:
            return 0.0
        return 1.0 - self.ours.message_overhead() / pure

    def checks(self) -> Checks:
        """The conclusion's claims, evaluated on this run."""

        return [
            (
                "ours beats Naimi pure on message overhead",
                self.ours.message_overhead() < self.pure.message_overhead(),
            ),
            (
                "ours beats both baselines on latency factor",
                self.ours.latency_factor() < self.pure.latency_factor()
                and self.ours.latency_factor() < self.same_work.latency_factor(),
            ),
            (
                "message saving vs. pure is positive (paper: ~20 %)",
                self.message_saving() > 0.0,
            ),
        ]

    def render(self) -> str:
        """Paper-vs-measured rows."""

        lines = [
            f"Section 6 headline comparison at n={self.num_nodes}",
            "",
            "metric                         paper      measured",
            "-" * 52,
            (
                "msg overhead, ours             ~3         "
                f"{self.ours.message_overhead():.2f}"
            ),
            (
                "msg overhead, Naimi pure       ~4         "
                f"{self.pure.message_overhead():.2f}"
            ),
            (
                "latency factor, ours           ~90        "
                f"{self.ours.latency_factor():.1f}"
            ),
            (
                "latency factor, Naimi          ~160       "
                f"{self.pure.latency_factor():.1f} (pure) / "
                f"{self.same_work.latency_factor():.1f} (same work)"
            ),
            (
                "message saving vs. pure        ~20%       "
                f"{self.message_saving() * 100:.0f}%"
            ),
            "",
            shape_checks(self.checks()),
        ]
        return "\n".join(lines)


def run_headline(
    num_nodes: int = 120,
    spec: WorkloadSpec = WorkloadSpec(),
    observe: bool = False,
) -> HeadlineResult:
    """Read the three protocols' runs at *num_nodes* off the sweep."""

    ours, pure, same_work = (
        sweep(protocol, (num_nodes,), spec, observe=observe)[0]
        for protocol in PROTOCOLS
    )
    return HeadlineResult(num_nodes, ours, pure, same_work)
