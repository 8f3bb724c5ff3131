"""Text rendering of experiment results (paper-style rows + ASCII plots).

All experiment modules report through these helpers so the benchmark
harness, the examples and EXPERIMENTS.md show the same rows the paper's
figures plot.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple


def render_series_table(
    title: str,
    x_label: str,
    xs: Sequence[float],
    series: Dict[str, Sequence[float]],
    precision: int = 2,
) -> str:
    """Render an x-column plus one column per named series."""

    width = max(12, max((len(name) for name in series), default=0) + 2)
    lines = [title]
    header = x_label.ljust(10) + "".join(name.rjust(width) for name in series)
    lines.append(header)
    lines.append("-" * len(header))
    for index, x in enumerate(xs):
        row = f"{x:<10g}"
        for values in series.values():
            value = values[index]
            row += f"{value:>{width}.{precision}f}"
        lines.append(row)
    return "\n".join(lines)


def render_ascii_plot(
    title: str,
    xs: Sequence[float],
    series: Dict[str, Sequence[float]],
    height: int = 12,
    width: int = 60,
) -> str:
    """A small ASCII scatter of the series (one marker char per series)."""

    markers = "ox+*#@"
    all_values = [v for values in series.values() for v in values]
    if not all_values or not xs:
        return f"{title}\n(no data)"
    y_max = max(all_values) or 1.0
    x_max = max(xs) or 1.0
    grid = [[" "] * width for _ in range(height)]
    for s_index, values in enumerate(series.values()):
        marker = markers[s_index % len(markers)]
        for x, y in zip(xs, values):
            col = min(width - 1, int(x / x_max * (width - 1)))
            row = min(height - 1, int(y / y_max * (height - 1)))
            grid[height - 1 - row][col] = marker
    lines = [title, f"y: 0 .. {y_max:.2f}   x: 0 .. {x_max:g}"]
    lines.extend("|" + "".join(row) for row in grid)
    lines.append("+" + "-" * width)
    legend = "   ".join(
        f"{markers[i % len(markers)]}={name}" for i, name in enumerate(series)
    )
    lines.append(legend)
    return "\n".join(lines)


def shape_checks(
    checks: List[Tuple[str, bool]],
    heading: str = "Shape checks (paper claims):",
) -> str:
    """Render pass/fail rows under *heading* — by default, the
    qualitative claims being reproduced."""

    lines = [heading]
    for description, passed in checks:
        status = "PASS" if passed else "FAIL"
        lines.append(f"  [{status}] {description}")
    return "\n".join(lines)


def monotonically_increasing(values: Sequence[float], slack: float = 0.0) -> bool:
    """True if the series never decreases by more than *slack* (relative)."""

    for earlier, later in zip(values, values[1:]):
        if later < earlier * (1.0 - slack):
            return False
    return True


def superlinear_growth(xs: Sequence[float], ys: Sequence[float]) -> bool:
    """True if y grows faster than linearly in x across the sweep ends.

    Compares the end-to-end growth ratio of y against that of x: a series
    whose y multiplies by more than the x multiple is superlinear in the
    sense of the paper's Figures 5-6 ("superlinear" vs the flat/linear
    competitor curves).
    """

    if len(xs) < 2 or ys[0] <= 0:
        return False
    return (ys[-1] / ys[0]) > (xs[-1] / xs[0])


def flattening(values: Sequence[float], ratio: float = 0.5) -> bool:
    """True if late growth is at most *ratio* of early growth (asymptote).

    Captures the paper's "remains constant after an initial increase"
    claim without demanding exact constancy from a stochastic simulation.
    """

    if len(values) < 3:
        return False
    early = values[len(values) // 2] - values[0]
    late = values[-1] - values[len(values) // 2]
    if early <= 0:
        return late <= max(values) * 0.25
    return late <= early * max(ratio, 0.0) + 1e-9
