"""Unit tests for frequency estimation from a query log."""

import pytest

from repro.errors import WorkloadError, WorkloadWarning
from repro.workload import paper_workload
from repro.workload.query_log import (
    FrequencyEstimate,
    LogEntry,
    apply_to_workload,
    estimate_frequencies,
)


def make_log():
    """Ten periods of 100s each: Q1 runs 10x/period, Q2 once per 2
    periods, Order updated once per period."""
    entries = []
    for period in range(10):
        base = period * 100.0
        for i in range(10):
            entries.append(LogEntry("query", "Q1", base + i))
        if period % 2 == 0:
            entries.append(LogEntry("query", "Q2", base + 50))
        entries.append(LogEntry("update", "Order", base + 99))
    return entries


class TestEstimate:
    def test_uniform_rates_recovered(self):
        estimate = estimate_frequencies(make_log(), period=100.0)
        assert estimate.query_frequencies["Q1"] == pytest.approx(10.0, rel=0.15)
        assert estimate.query_frequencies["Q2"] == pytest.approx(0.5, rel=0.25)
        assert estimate.update_frequencies["Order"] == pytest.approx(1.0, rel=0.15)

    def test_empty_log_rejected(self):
        with pytest.raises(WorkloadError):
            estimate_frequencies([], period=1.0)

    def test_bad_period_rejected(self):
        with pytest.raises(WorkloadError):
            estimate_frequencies(make_log(), period=0)

    def test_bad_kind_rejected(self):
        with pytest.raises(WorkloadError):
            LogEntry("wish", "Q1", 0.0)

    def test_decay_prefers_recent_behaviour(self):
        """Q1 was hot early and went quiet; Q2 took over.  With decay the
        estimate ranks Q2 above Q1; without, Q1 dominates."""
        entries = []
        for period in range(10):
            base = period * 100.0
            name = "Q1" if period < 5 else "Q2"
            for i in range(8):
                entries.append(LogEntry("query", name, base + i))
        flat = estimate_frequencies(entries, period=100.0)
        decayed = estimate_frequencies(
            entries, period=100.0, half_life_periods=1.0
        )
        assert flat.query_frequencies["Q1"] == flat.query_frequencies["Q2"]
        assert (
            decayed.query_frequencies["Q2"]
            > decayed.query_frequencies["Q1"] * 4
        )

    def test_single_event_log(self):
        estimate = estimate_frequencies(
            [LogEntry("query", "Q1", 5.0)], period=10.0
        )
        assert estimate.query_frequencies["Q1"] == 1.0


class TestApplyToWorkload:
    def test_frequencies_replaced(self):
        workload = paper_workload()
        estimate = FrequencyEstimate(
            query_frequencies={"Q1": 3.0, "Q4": 7.0},
            update_frequencies={"Order": 2.0},
            periods=5.0,
        )
        observed = apply_to_workload(workload, estimate)
        assert observed.query("Q1").frequency == 3.0
        assert observed.query("Q4").frequency == 7.0
        assert observed.query("Q2").frequency == 0.0  # unobserved
        assert observed.update_frequency("Order") == 2.0
        assert observed.update_frequency("Part") == 1.0  # untouched

    def test_drop_unobserved(self):
        workload = paper_workload()
        estimate = FrequencyEstimate({"Q1": 1.0}, {}, 1.0)
        observed = apply_to_workload(
            workload, estimate, drop_unobserved_queries=True
        )
        assert [q.name for q in observed.queries] == ["Q1"]

    def test_all_dropped_rejected(self):
        workload = paper_workload()
        estimate = FrequencyEstimate({"Q99": 1.0}, {}, 1.0)
        with pytest.warns(WorkloadWarning), pytest.raises(WorkloadError):
            apply_to_workload(workload, estimate, drop_unobserved_queries=True)

    def test_unknown_relations_ignored_with_warning(self):
        workload = paper_workload()
        estimate = FrequencyEstimate({"Q1": 1.0}, {"Elsewhere": 9.0}, 1.0)
        with pytest.warns(WorkloadWarning, match="'Elsewhere'"):
            observed = apply_to_workload(workload, estimate)
        assert "Elsewhere" not in observed.update_frequencies

    def test_unknown_queries_ignored_with_warning(self):
        workload = paper_workload()
        estimate = FrequencyEstimate({"Q1": 2.0, "Q99": 5.0}, {}, 1.0)
        with pytest.warns(WorkloadWarning, match="'Q99'"):
            observed = apply_to_workload(workload, estimate)
        assert observed.query("Q1").frequency == 2.0
        assert "Q99" not in {q.name for q in observed.queries}

    def test_known_names_warn_nothing(self):
        import warnings

        workload = paper_workload()
        estimate = FrequencyEstimate({"Q1": 2.0}, {"Order": 3.0}, 1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            apply_to_workload(workload, estimate)

    def test_design_from_observed_frequencies(self):
        """A log-derived workload flows through the design pipeline, and
        skewed observations steer the design: if only Q4 is ever asked,
        only Q4's lineage is worth materializing."""
        from repro.mvpp import DesignConfig, design

        workload = paper_workload()
        estimate = FrequencyEstimate({"Q4": 20.0}, {}, 1.0)
        observed = apply_to_workload(workload, estimate)
        result = design(observed, DesignConfig(rotations=1))
        for vertex in result.materialized:
            assert vertex.operator.base_relations() <= {"Order", "Customer"}
