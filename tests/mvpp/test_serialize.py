"""Unit tests for JSON serialization of plans, MVPPs, and designs."""

import datetime
import json

import pytest

from repro.algebra.expressions import And, Not, Or, column, compare, literal
from repro.errors import MVPPError
from repro.mvpp.serialize import (
    design_to_dict,
    expression_from_dict,
    expression_to_dict,
    mvpp_from_dict,
    mvpp_to_dict,
    operator_from_dict,
    operator_to_dict,
    schema_from_dict,
    schema_to_dict,
)


class TestExpressionRoundTrip:
    @pytest.mark.parametrize(
        "expression",
        [
            compare("Division.city", "=", literal("LA")),
            compare("Order.quantity", ">", 100),
            compare("Order.date", ">", literal(datetime.date(1996, 7, 1))),
            compare("A.x", "=", column("B.y")),
            And([compare("a", ">", 1), compare("b", "<", 2)]),
            Or([compare("a", ">", 1), compare("b", "<", 2)]),
            Not(compare("a", "=", 1)),
        ],
    )
    def test_round_trip_preserves_signature(self, expression):
        data = expression_to_dict(expression)
        json.dumps(data)  # must be JSON-safe
        rebuilt = expression_from_dict(data)
        assert rebuilt.signature == expression.signature

    def test_date_round_trip_preserves_type(self):
        expression = compare(
            "Order.date", ">", literal(datetime.date(1996, 7, 1))
        )
        rebuilt = expression_from_dict(expression_to_dict(expression))
        assert rebuilt.right.value == datetime.date(1996, 7, 1)

    def test_unknown_kind_rejected(self):
        with pytest.raises(MVPPError):
            expression_from_dict({"kind": "magic"})


class TestOperatorRoundTrip:
    def test_full_query_plans(self, paper_mvpp):
        for name in paper_mvpp.query_names:
            plan = paper_mvpp.query_root(name).operator
            data = operator_to_dict(plan)
            json.dumps(data)
            rebuilt = operator_from_dict(data)
            assert rebuilt.signature == plan.signature
            assert rebuilt.schema == plan.schema

    def test_schema_round_trip(self, workload):
        schema = workload.catalog.schema("Order").qualify()
        rebuilt = schema_from_dict(schema_to_dict(schema))
        assert rebuilt == schema

    def test_aggregate_plan_round_trip(self, workload, estimator):
        from repro.optimizer.heuristics import optimize_query
        from repro.sql.translator import parse_query

        plan = optimize_query(
            parse_query(
                "SELECT Division.city, COUNT(*) AS n, SUM(Division.Did) AS s "
                "FROM Division GROUP BY Division.city",
                workload.catalog,
            ),
            estimator,
        )
        rebuilt = operator_from_dict(operator_to_dict(plan))
        assert rebuilt.signature == plan.signature


class TestMVPPRoundTrip:
    def test_structure_preserved(self, paper_mvpp, estimator):
        data = mvpp_to_dict(paper_mvpp)
        json.dumps(data)
        rebuilt = mvpp_from_dict(data, estimator)
        assert rebuilt.structure_signature() == paper_mvpp.structure_signature()
        assert set(rebuilt.query_names) == set(paper_mvpp.query_names)

    def test_frequencies_preserved(self, paper_mvpp, estimator):
        rebuilt = mvpp_from_dict(mvpp_to_dict(paper_mvpp), estimator)
        for root in paper_mvpp.roots:
            assert rebuilt.query_root(root.name).frequency == root.frequency
        for leaf in paper_mvpp.leaves:
            assert rebuilt.vertex_by_name(leaf.name).frequency == leaf.frequency

    def test_names_are_deterministic(self, paper_mvpp, estimator):
        rebuilt = mvpp_from_dict(mvpp_to_dict(paper_mvpp), estimator)
        original = {v.signature: v.name for v in paper_mvpp.operations}
        for vertex in rebuilt.operations:
            assert original[vertex.signature] == vertex.name

    def test_costs_recomputed_identically(self, paper_mvpp, estimator):
        rebuilt = mvpp_from_dict(mvpp_to_dict(paper_mvpp), estimator)
        for vertex in paper_mvpp.operations:
            twin = rebuilt.vertex_by_signature(vertex.signature)
            assert twin is not None
            assert twin.access_cost == pytest.approx(vertex.access_cost)

    def test_unannotated_without_estimator(self, paper_mvpp):
        rebuilt = mvpp_from_dict(mvpp_to_dict(paper_mvpp))
        assert not rebuilt.is_annotated


class TestDesignSerialization:
    def test_design_to_dict(self, workload, estimator):
        from repro.mvpp.config import DesignConfig
        from repro.mvpp.generation import design

        result = design(workload, DesignConfig(rotations=1), estimator=estimator)
        data = design_to_dict(result)
        json.dumps(data)
        assert data["materialized_names"] == list(result.materialized_names)
        assert data["cost"]["total"] == pytest.approx(result.total_cost)
        # Materialized view plans rebuild losslessly.
        for serialized, vertex in zip(data["materialized"], result.materialized):
            assert (
                operator_from_dict(serialized).signature
                == vertex.operator.signature
            )


class TestSerializationProperties:
    """Random plans round-trip losslessly (hypothesis)."""

    def test_random_plans_round_trip(self):
        from hypothesis import HealthCheck, given, settings, strategies as st

        from tests.executor.test_reference_equivalence import make_plan

        @settings(
            max_examples=40,
            deadline=None,
            suppress_health_check=[HealthCheck.too_slow],
        )
        @given(st.integers(0, 10_000))
        def check(seed):
            plan = make_plan(seed)
            rebuilt = operator_from_dict(operator_to_dict(plan))
            assert rebuilt.signature == plan.signature
            assert rebuilt.schema == plan.schema

        check()
