"""Metrics collection and summary statistics."""

from .collector import MetricsCollector
from .stats import Summary, mean_confidence_halfwidth, percentile, summarize

__all__ = [
    "MetricsCollector",
    "Summary",
    "mean_confidence_halfwidth",
    "percentile",
    "summarize",
]
