"""Unit tests for ORDER BY / LIMIT, from parsing to execution."""

import pytest

from repro.algebra.operators import Limit, Sort
from repro.errors import AlgebraError, ParseError, TranslationError
from repro.executor.engine import ExecutionEngine, load_database
from repro.sql.parser import parse
from repro.sql.translator import parse_query
from repro.workload.datagen import paper_rows


class TestParsing:
    def test_order_by_directions(self):
        statement = parse("SELECT a FROM R ORDER BY a DESC, b, c ASC")
        assert [(str(o.column), o.ascending) for o in statement.order_by] == [
            ("a", False),
            ("b", True),
            ("c", True),
        ]

    def test_limit(self):
        assert parse("SELECT a FROM R LIMIT 7").limit == 7

    def test_limit_requires_integer(self):
        with pytest.raises(ParseError):
            parse("SELECT a FROM R LIMIT 2.5")

    def test_order_is_soft_keyword(self):
        """The paper's relation is literally named Order."""
        statement = parse("SELECT date FROM Order WHERE quantity > 100")
        assert statement.tables[0].name == "Order"

    def test_order_table_with_order_by(self):
        statement = parse("SELECT date FROM Order ORDER BY date")
        assert statement.tables[0].name == "Order"
        assert len(statement.order_by) == 1

    def test_round_trip(self):
        sql = "SELECT a FROM R WHERE a > 1 ORDER BY a DESC LIMIT 3"
        assert parse(str(parse(sql))) == parse(sql)


class TestTranslation:
    def test_sort_and_limit_on_top(self, workload):
        plan = parse_query(
            "SELECT Customer.city, date FROM Order, Customer "
            "WHERE Order.Cid = Customer.Cid ORDER BY date DESC LIMIT 5",
            workload.catalog,
        )
        assert isinstance(plan, Limit)
        assert isinstance(plan.child, Sort)
        assert plan.count == 5
        assert plan.child.keys == (("Order.date", False),)

    def test_order_by_aggregate_alias(self, workload):
        plan = parse_query(
            "SELECT Division.city, COUNT(*) AS n FROM Division "
            "GROUP BY Division.city ORDER BY n DESC LIMIT 3",
            workload.catalog,
        )
        assert isinstance(plan, Limit)
        assert plan.child.keys == (("n", False),)

    def test_order_by_must_be_in_output(self, workload):
        with pytest.raises(TranslationError):
            parse_query(
                "SELECT name FROM Product ORDER BY Division.city",
                workload.catalog,
            )

    def test_negative_limit_rejected(self, workload):
        with pytest.raises(AlgebraError):
            Limit(
                parse_query("SELECT name FROM Product", workload.catalog), -1
            )


class TestOptimizerAndGeneration:
    def test_optimizer_keeps_decorations_on_top(self, workload, estimator):
        from repro.optimizer.heuristics import optimize_query

        plan = parse_query(
            "SELECT Customer.city, date FROM Order, Customer "
            "WHERE Order.Cid = Customer.Cid ORDER BY date LIMIT 10",
            workload.catalog,
        )
        optimized = optimize_query(plan, estimator)
        assert isinstance(optimized, Limit)
        assert isinstance(optimized.child, Sort)

    def test_design_pipeline_with_order_limit(self, workload):
        from dataclasses import replace

        from repro.mvpp import DesignConfig, design
        from repro.workload.spec import QuerySpec

        queries = tuple(
            list(workload.queries[:3])
            + [
                QuerySpec(
                    "Q4",
                    "SELECT Customer.city, date FROM Order, Customer "
                    "WHERE quantity > 100 AND Order.Cid = Customer.Cid "
                    "ORDER BY date DESC LIMIT 100",
                    5.0,
                )
            ]
        )
        result = design(replace(workload, queries=queries), DesignConfig(rotations=1))
        result.mvpp.validate()
        q4_plan = result.mvpp.query_root("Q4").operator
        assert isinstance(q4_plan, Limit)

    def test_estimation_and_cost(self, workload, estimator):
        plan = parse_query(
            "SELECT name FROM Product ORDER BY name LIMIT 10",
            workload.catalog,
        )
        stats = estimator.estimate(plan)
        assert stats.cardinality == 10
        from repro.optimizer.plans import AnnotatedPlan

        annotated = AnnotatedPlan(plan, estimator)
        assert annotated.total_cost > 0


class TestExecution:
    @pytest.fixture(scope="class")
    def database(self, workload):
        return load_database(paper_rows(scale=0.02, seed=31), workload.catalog)

    def test_sorted_output(self, workload, database):
        plan = parse_query(
            "SELECT date FROM Order ORDER BY date", workload.catalog
        )
        result = ExecutionEngine(database).execute(plan)
        dates = [r["Order.date"] for r in result.rows()]
        assert dates == sorted(dates)

    def test_descending(self, workload, database):
        plan = parse_query(
            "SELECT quantity FROM Order ORDER BY quantity DESC LIMIT 5",
            workload.catalog,
        )
        result = ExecutionEngine(database).execute(plan)
        quantities = [r["Order.quantity"] for r in result.rows()]
        assert quantities == sorted(quantities, reverse=True)
        assert len(quantities) == 5

    def test_limit_truncates(self, workload, database):
        plan = parse_query(
            "SELECT name FROM Product LIMIT 3", workload.catalog
        )
        result = ExecutionEngine(database).execute(plan)
        assert result.cardinality == 3

    def test_limit_beyond_input(self, workload, database):
        plan = parse_query(
            "SELECT name FROM Division LIMIT 10000000", workload.catalog
        )
        result = ExecutionEngine(database).execute(plan)
        assert result.cardinality == database.table("Division").cardinality

    def test_matches_reference_evaluator(self, workload, database):
        from repro.executor.reference import evaluate

        plan = parse_query(
            "SELECT quantity FROM Order ORDER BY quantity LIMIT 20",
            workload.catalog,
        )
        engine_rows = [
            r["Order.quantity"]
            for r in ExecutionEngine(database).execute(plan).rows()
        ]
        tables = {
            "Order": database.table("Order").rows(),
        }
        reference_rows = [r["Order.quantity"] for r in evaluate(plan, tables)]
        assert engine_rows == reference_rows

    def test_serialization_round_trip(self, workload):
        from repro.mvpp.serialize import operator_from_dict, operator_to_dict

        plan = parse_query(
            "SELECT date FROM Order ORDER BY date DESC LIMIT 9",
            workload.catalog,
        )
        rebuilt = operator_from_dict(operator_to_dict(plan))
        assert rebuilt.signature == plan.signature
