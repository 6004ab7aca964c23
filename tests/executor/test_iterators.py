"""Unit tests for the physical operators and their I/O accounting."""

import pytest

from repro.algebra.expressions import column, compare, literal
from repro.algebra.operators import AggregateFunction, AggregateSpec, Aggregate, Relation
from repro.catalog.datatypes import DataType
from repro.catalog.schema import Attribute, RelationSchema
from repro.errors import ExecutionError
from repro.executor.physical import (
    Filter,
    HashAggregate,
    HashJoin,
    NestedLoopJoin,
    Projection,
    charge_materialize,
    execute_operator,
    scan_of,
)
from repro.storage.block import IOCounter
from repro.storage.table import Table, table_from_rows


def make_table(name, cols, rows, bf=10, io=None):
    schema = RelationSchema(
        name, [Attribute(f"{name}.{c}", t) for c, t in cols]
    )
    table = Table(schema, bf, io=io)
    for row in rows:
        table.insert(row)
    return table


@pytest.fixture
def orders():
    return make_table(
        "Order",
        [("id", DataType.INTEGER), ("cid", DataType.INTEGER), ("qty", DataType.INTEGER)],
        [{"id": i, "cid": i % 4, "qty": i * 10} for i in range(20)],
        bf=5,
    )


@pytest.fixture
def customers(orders):
    return make_table(
        "Customer",
        [("cid", DataType.INTEGER), ("city", DataType.STRING)],
        [{"cid": i, "city": f"C{i}"} for i in range(4)],
        bf=2,
        io=orders.io,
    )


class TestLinearSelect:
    def test_filters_rows(self, orders):
        result = execute_operator(
            Filter(scan_of(orders), compare("Order.qty", ">", 100)), io=orders.io
        )
        assert result.cardinality == 9

    def test_charges_one_pass(self, orders):
        orders.io.reset()
        execute_operator(
            Filter(scan_of(orders), compare("Order.qty", ">", 100)), io=orders.io
        )
        assert orders.io.reads == orders.num_blocks == 4

    def test_null_semantics_drop_unknown(self):
        table = make_table(
            "R", [("a", DataType.INTEGER)], [{"a": None}, {"a": 5}]
        )
        result = execute_operator(
            Filter(scan_of(table), compare("R.a", ">", 1)), io=table.io
        )
        assert result.cardinality == 1


class TestProject:
    def test_keeps_columns(self, orders):
        result = execute_operator(
            Projection(scan_of(orders), ["Order.qty"]), io=orders.io
        )
        assert result.schema.attribute_names == ("Order.qty",)
        assert result.cardinality == 20

    def test_blocking_factor_improves(self, orders):
        result = execute_operator(
            Projection(scan_of(orders), ["Order.qty"]), io=orders.io
        )
        assert result.blocking_factor > orders.blocking_factor

    def test_bag_semantics_keep_duplicates(self, orders):
        result = execute_operator(
            Projection(scan_of(orders), ["Order.cid"]), io=orders.io
        )
        assert result.cardinality == 20  # no dedup


class TestNestedLoopJoin:
    def test_result_rows(self, orders, customers):
        condition = compare("Order.cid", "=", column("Customer.cid"))
        result = execute_operator(
            NestedLoopJoin(scan_of(orders), scan_of(customers), condition),
            io=orders.io,
        )
        assert result.cardinality == 20
        assert set(result.schema.attribute_names) >= {"Order.id", "Customer.city"}

    def test_io_formula(self, orders, customers):
        orders.io.reset()
        condition = compare("Order.cid", "=", column("Customer.cid"))
        execute_operator(
            NestedLoopJoin(scan_of(orders), scan_of(customers), condition),
            io=orders.io,
        )
        expected = orders.num_blocks + orders.num_blocks * customers.num_blocks
        assert orders.io.reads == expected

    def test_cross_product(self, orders, customers):
        result = execute_operator(
            NestedLoopJoin(scan_of(orders), scan_of(customers), None),
            io=orders.io,
        )
        assert result.cardinality == 20 * 4


class TestHashJoin:
    def test_matches_nested_loop(self, orders, customers):
        condition = compare("Order.cid", "=", column("Customer.cid"))
        nested = execute_operator(
            NestedLoopJoin(scan_of(orders), scan_of(customers), condition),
            io=orders.io,
        )
        hashed = execute_operator(
            HashJoin(
                scan_of(orders),
                scan_of(customers),
                [("Order.cid", "Customer.cid")],
                None,
            ),
            io=orders.io,
        )
        key = lambda t: sorted(  # noqa: E731
            tuple(sorted(r.items())) for r in t.rows()
        )
        assert key(nested) == key(hashed)

    def test_io_linear(self, orders, customers):
        orders.io.reset()
        execute_operator(
            HashJoin(
                scan_of(orders),
                scan_of(customers),
                [("Order.cid", "Customer.cid")],
                None,
            ),
            io=orders.io,
        )
        assert orders.io.reads == orders.num_blocks + customers.num_blocks

    def test_requires_keys(self, orders, customers):
        with pytest.raises(ExecutionError):
            execute_operator(
                HashJoin(scan_of(orders), scan_of(customers), [], None),
                io=orders.io,
            )

    def test_residual_applied(self, orders, customers):
        result = execute_operator(
            HashJoin(
                scan_of(orders),
                scan_of(customers),
                [("Order.cid", "Customer.cid")],
                compare("Order.qty", ">", 100),
            ),
            io=orders.io,
        )
        assert result.cardinality == 9


class TestAggregate:
    def test_group_count_sum(self, orders):
        rel = Relation("Order", orders.schema)
        agg = Aggregate(
            rel,
            ["Order.cid"],
            [
                AggregateSpec(AggregateFunction.COUNT, None, "n"),
                AggregateSpec(AggregateFunction.SUM, "Order.qty", "total"),
            ],
        )
        result = execute_operator(
            HashAggregate(scan_of(orders), agg.group_by, agg.aggregates, agg.schema),
            io=orders.io,
        )
        assert result.cardinality == 4
        by_cid = {r["Order.cid"]: r for r in result.rows()}
        assert by_cid[0]["n"] == 5
        assert by_cid[0]["total"] == sum(i * 10 for i in range(20) if i % 4 == 0)

    def test_min_max_avg(self, orders):
        rel = Relation("Order", orders.schema)
        agg = Aggregate(
            rel,
            [],
            [
                AggregateSpec(AggregateFunction.MIN, "Order.qty", "lo"),
                AggregateSpec(AggregateFunction.MAX, "Order.qty", "hi"),
                AggregateSpec(AggregateFunction.AVG, "Order.qty", "mean"),
            ],
        )
        result = execute_operator(
            HashAggregate(scan_of(orders), agg.group_by, agg.aggregates, agg.schema),
            io=orders.io,
        )
        row = result.rows()[0]
        assert row["lo"] == 0 and row["hi"] == 190
        assert row["mean"] == pytest.approx(95.0)

    def test_global_aggregate_on_empty_input(self):
        table = make_table("R", [("a", DataType.INTEGER)], [])
        rel = Relation("R", table.schema)
        agg = Aggregate(
            rel, [], [AggregateSpec(AggregateFunction.COUNT, None, "n")]
        )
        result = execute_operator(
            HashAggregate(scan_of(table), agg.group_by, agg.aggregates, agg.schema),
            io=table.io,
        )
        assert result.rows() == [{"n": 0}]

    def test_null_values_skipped(self):
        table = make_table(
            "R", [("a", DataType.INTEGER)], [{"a": None}, {"a": 4}]
        )
        rel = Relation("R", table.schema)
        agg = Aggregate(
            rel,
            [],
            [
                AggregateSpec(AggregateFunction.COUNT, "R.a", "n"),
                AggregateSpec(AggregateFunction.SUM, "R.a", "s"),
            ],
        )
        result = execute_operator(
            HashAggregate(scan_of(table), agg.group_by, agg.aggregates, agg.schema),
            io=table.io,
        )
        assert result.rows()[0] == {"n": 1, "s": 4.0}


class TestMaterialize:
    def test_charges_writes(self, orders):
        orders.io.reset()
        charge_materialize(orders)
        assert orders.io.writes == orders.num_blocks
