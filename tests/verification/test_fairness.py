"""Tests for the overtaking/fairness analyzer, including the §3.3 claim."""

from __future__ import annotations

import pytest

from repro.core.automaton import FULL_PROTOCOL, ProtocolOptions
from repro.core.modes import LockMode
from repro.experiments.ablations import STARVATION_MODE_MIX, run_with_options
from repro.obs.sink import GRANTED, ISSUED
from repro.obs.spans import RequestSpan
from repro.verification.fairness import (
    FairnessReport,
    analyze,
    bypass_histogram,
    kind_to_mode,
)
from repro.workload.spec import WorkloadSpec


def _record(kind, issued, granted, node=0):
    return RequestSpan(
        node=node, lock="", kind=kind,
        phases=[(ISSUED, issued), (GRANTED, granted)],
    )


class TestAnalyzer:
    def test_empty_is_all_zero(self):
        report = analyze([])
        assert report.requests == 0
        assert report.bypasses == 0

    def test_kind_mapping(self):
        assert kind_to_mode("IR") is LockMode.IR
        assert kind_to_mode("U->W") is LockMode.W
        assert kind_to_mode("pure") is None
        assert kind_to_mode("table") is None

    def test_compatible_overtaking_not_counted(self):
        # A later IR granted before an earlier R: compatible → allowed.
        report = analyze(
            [_record("R", 0.0, 2.0), _record("IR", 1.0, 1.5)]
        )
        assert report.bypasses == 0
        assert report.conflicting_pairs == 0

    def test_conflicting_overtake_counted(self):
        # A later W granted before an earlier R: a real bypass.
        report = analyze([_record("R", 0.0, 3.0), _record("W", 1.0, 2.0)])
        assert report.bypasses == 1
        assert report.max_bypass_per_request == 1

    def test_fifo_order_counts_zero(self):
        report = analyze(
            [
                _record("W", 0.0, 1.0),
                _record("W", 0.5, 2.0),
                _record("W", 0.6, 3.0),
            ]
        )
        assert report.conflicting_pairs == 3
        assert report.bypasses == 0

    def test_histogram_buckets(self):
        records = [
            _record("R", 0.0, 5.0),    # bypassed twice
            _record("W", 1.0, 2.0),
            _record("IW", 1.5, 3.0),
        ]
        histogram = bypass_histogram(records)
        assert histogram[2] == 1  # the poor reader
        assert histogram[0] == 2

    def test_report_str(self):
        text = str(analyze([_record("W", 0, 1)]))
        assert "requests=1" in text


class TestFreezingFairnessClaim:
    """§3.3 quantified: freezing bounds conflicting-mode overtaking."""

    def _bypasses(self, options: ProtocolOptions) -> FairnessReport:
        spec = WorkloadSpec(
            ops_per_node=30, seed=77, mode_mix=STARVATION_MODE_MIX,
            locality=0.2,
        )
        result = run_with_options(10, spec, options)
        return analyze(result.metrics.requests)

    def test_freezing_reduces_overtaking(self):
        with_freezing = self._bypasses(FULL_PROTOCOL)
        without = self._bypasses(ProtocolOptions(freezing=False))
        assert without.bypasses > with_freezing.bypasses

    def test_overtaking_with_freezing_is_modest(self):
        report = self._bypasses(FULL_PROTOCOL)
        # Residual overtakes come only from requests already in flight
        # when the freeze is instated (propagation is not instantaneous).
        assert report.mean_bypass_per_request < 1.0

    def test_freezing_bounds_worst_case_overtaking(self):
        with_freezing = self._bypasses(FULL_PROTOCOL)
        without = self._bypasses(ProtocolOptions(freezing=False))
        assert (
            with_freezing.max_bypass_per_request
            < without.max_bypass_per_request
        )
