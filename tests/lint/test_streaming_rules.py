"""Fixture tests for the streaming-scope lint rules S001/S002: each
seeds one violation and asserts the expected diagnostic fires."""

import pytest

from repro.algebra.operators import (
    Aggregate,
    AggregateFunction,
    AggregateSpec,
    Relation,
)
from repro.cdc import DEFAULT_STREAMING_POLICY, StreamingPolicy
from repro.errors import LintError
from repro.lint import Severity, lint_design, lint_streaming_policy
from repro.mvpp import design
from repro.mvpp.graph import Vertex, VertexKind
from repro.workload import paper_workload


def fired(report, rule_id):
    return [d for d in report.diagnostics if d.rule == rule_id]


@pytest.fixture()
def fresh_workload():
    return paper_workload()


class TestS001LagVsRetention:
    def test_fires_when_lag_bound_exceeds_retention(self):
        policy = StreamingPolicy(max_lag_records=10_000, retention=100)
        assert not policy.covers_lag_bound
        (diag,) = fired(lint_streaming_policy(policy), "S001")
        assert diag.severity is Severity.WARNING
        assert "10000" in diag.message
        assert "100" in diag.message

    def test_default_policy_is_clean(self):
        report = lint_streaming_policy(DEFAULT_STREAMING_POLICY)
        assert report.diagnostics == []
        assert report.exit_code == 0

    def test_boundary_is_covered(self):
        policy = StreamingPolicy(max_lag_records=100, retention=100)
        assert fired(lint_streaming_policy(policy), "S001") == []

    def test_non_policy_rejected(self):
        with pytest.raises(LintError):
            lint_streaming_policy(object())


class TestS002RecomputeOnlyView:
    def _aggregate_vertex(self, workload):
        order = Relation(
            "Order", workload.catalog.schema("Order").qualify()
        )
        plan = Aggregate(
            order,
            ["Order.Cid"],
            [AggregateSpec(AggregateFunction.AVG, "Order.quantity", "mean")],
        )
        return Vertex(
            vertex_id=999,
            name="agg_per_customer",
            kind=VertexKind.OPERATION,
            operator=plan,
            children=(),
        )

    def test_fires_on_aggregate_only_view(self, fresh_workload):
        result = design(fresh_workload)
        vertex = self._aggregate_vertex(fresh_workload)
        report = lint_design(
            result.mvpp,
            [vertex],
            workload=fresh_workload,
            streaming=DEFAULT_STREAMING_POLICY,
        )
        (diag,) = fired(report, "S002")
        assert "agg_per_customer" in diag.message
        assert "full recompute" in diag.message
        assert "(avg)" in diag.message

    def test_paper_design_is_clean(self, fresh_workload):
        result = design(fresh_workload)
        report = lint_design(
            result.mvpp,
            result.materialized,
            calculator=result.calculator,
            workload=fresh_workload,
            streaming=DEFAULT_STREAMING_POLICY,
        )
        assert fired(report, "S001") == []
        assert fired(report, "S002") == []

    def test_skipped_without_streaming_policy(self, fresh_workload):
        result = design(fresh_workload)
        vertex = self._aggregate_vertex(fresh_workload)
        report = lint_design(
            result.mvpp, [vertex], workload=fresh_workload
        )
        assert fired(report, "S002") == []


class TestDesignPipeline:
    def test_design_config_streaming_feeds_lint_gate(self, fresh_workload):
        from repro.mvpp import DesignConfig

        policy = StreamingPolicy(max_lag_records=10_000, retention=100)
        result = design(
            fresh_workload, DesignConfig(streaming=policy, lint=True)
        )
        assert result.lint_report is not None
        assert any(
            d.rule == "S001" for d in result.lint_report.diagnostics
        )
