"""Unit tests for the SQL dialect extensions: JOIN..ON, BETWEEN, IN."""

import pytest

from repro.errors import ParseError
from repro.sql.ast_nodes import BooleanCondition, ComparisonCondition, NotCondition
from repro.sql.parser import parse
from repro.sql.translator import parse_query


class TestJoinOn:
    def test_single_join(self):
        statement = parse(
            "SELECT * FROM Product JOIN Division ON Product.Did = Division.Did"
        )
        assert [t.name for t in statement.tables] == ["Product", "Division"]
        assert isinstance(statement.where, ComparisonCondition)

    def test_join_chain(self):
        statement = parse(
            "SELECT * FROM A JOIN B ON A.x = B.x JOIN C ON B.y = C.y"
        )
        assert len(statement.tables) == 3
        assert isinstance(statement.where, BooleanCondition)
        assert len(statement.where.parts) == 2

    def test_join_mixed_with_where(self):
        statement = parse(
            "SELECT * FROM A JOIN B ON A.x = B.x WHERE A.v > 3"
        )
        assert isinstance(statement.where, BooleanCondition)
        assert len(statement.where.parts) == 2

    def test_join_with_comma_chains(self):
        statement = parse("SELECT * FROM A JOIN B ON A.x = B.x, C")
        assert [t.name for t in statement.tables] == ["A", "B", "C"]

    def test_join_with_aliases(self):
        statement = parse("SELECT * FROM Product Pd JOIN Division Dv ON Pd.Did = Dv.Did")
        assert statement.tables[0].binding == "Pd"
        assert statement.tables[1].binding == "Dv"

    def test_missing_on_rejected(self):
        with pytest.raises(ParseError):
            parse("SELECT * FROM A JOIN B WHERE A.x = B.x")

    def test_translates_like_comma_form(self, workload):
        comma = parse_query(
            "SELECT Product.name FROM Product, Division "
            "WHERE Product.Did = Division.Did AND Division.city = 'LA'",
            workload.catalog,
        )
        join_on = parse_query(
            "SELECT Product.name FROM Product JOIN Division "
            "ON Product.Did = Division.Did WHERE Division.city = 'LA'",
            workload.catalog,
        )
        assert comma.signature == join_on.signature


class TestBetween:
    def test_desugars_to_range(self):
        statement = parse("SELECT * FROM R WHERE a BETWEEN 3 AND 9")
        condition = statement.where
        assert isinstance(condition, BooleanCondition)
        assert condition.op == "and"
        ops = {c.op for c in condition.parts}
        assert ops == {">=", "<="}

    def test_not_between(self):
        statement = parse("SELECT * FROM R WHERE a NOT BETWEEN 3 AND 9")
        assert isinstance(statement.where, NotCondition)

    def test_between_combines_with_and(self):
        statement = parse(
            "SELECT * FROM R WHERE a BETWEEN 3 AND 9 AND b = 1"
        )
        assert isinstance(statement.where, BooleanCondition)
        assert len(statement.where.parts) == 2

    def test_between_evaluates_correctly(self, workload):
        plan = parse_query(
            "SELECT Pid FROM Order WHERE quantity BETWEEN 50 AND 150",
            workload.catalog,
        )
        from repro.algebra.operators import Select
        from repro.algebra.tree import find

        select = find(plan, lambda n: isinstance(n, Select))[0]
        assert select.predicate.evaluate({"Order.quantity": 100}) is True
        assert select.predicate.evaluate({"Order.quantity": 200}) is False
        assert select.predicate.evaluate({"Order.quantity": 50}) is True


class TestIn:
    def test_desugars_to_disjunction(self):
        statement = parse("SELECT * FROM R WHERE city IN ('LA', 'SF', 'NY')")
        condition = statement.where
        assert isinstance(condition, BooleanCondition)
        assert condition.op == "or"
        assert len(condition.parts) == 3

    def test_single_member_is_equality(self):
        statement = parse("SELECT * FROM R WHERE city IN ('LA')")
        assert isinstance(statement.where, ComparisonCondition)

    def test_not_in(self):
        statement = parse("SELECT * FROM R WHERE a NOT IN (1, 2)")
        assert isinstance(statement.where, NotCondition)

    def test_in_evaluates(self, workload):
        plan = parse_query(
            "SELECT name FROM Division WHERE city IN ('LA', 'SF')",
            workload.catalog,
        )
        from repro.algebra.operators import Select
        from repro.algebra.tree import find

        predicate = find(plan, lambda n: isinstance(n, Select))[0].predicate
        assert predicate.evaluate({"Division.city": "SF"}) is True
        assert predicate.evaluate({"Division.city": "NY"}) is False

    def test_dangling_not_rejected(self):
        with pytest.raises(ParseError):
            parse("SELECT * FROM R WHERE a NOT = 3")


class TestEndToEnd:
    def test_designable_with_extended_syntax(self, workload):
        """A workload written with JOIN..ON / BETWEEN / IN flows through
        the whole design pipeline."""
        from repro.mvpp.config import DesignConfig
        from repro.mvpp.generation import design
        from repro.workload.spec import QuerySpec, Workload

        queries = (
            QuerySpec(
                "J1",
                "SELECT Product.name FROM Product JOIN Division "
                "ON Product.Did = Division.Did "
                "WHERE Division.city IN ('LA', 'SF')",
                5.0,
            ),
            QuerySpec(
                "J2",
                "SELECT Customer.city FROM Order JOIN Customer "
                "ON Order.Cid = Customer.Cid "
                "WHERE quantity BETWEEN 50 AND 150",
                2.0,
            ),
        )
        extended = Workload(
            name="extended-sql",
            catalog=workload.catalog,
            statistics=workload.statistics,
            queries=queries,
        )
        result = design(extended, DesignConfig(rotations=1))
        assert result.breakdown.total > 0
