"""Unit tests for the sort-merge join operator and engine mode."""

import math

import pytest

from repro.algebra.expressions import column, compare
from repro.catalog.datatypes import DataType
from repro.catalog.schema import Attribute, RelationSchema
from repro.errors import ExecutionError
from repro.executor.engine import ExecutionEngine, SORT_MERGE, load_database
from repro.executor.physical import (
    MergeJoin,
    NestedLoopJoin,
    execute_operator,
    scan_of,
)
from repro.storage.table import Table
from repro.workload.datagen import paper_rows


def make_table(name, cols, rows, bf=5, io=None):
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
        [("id", DataType.INTEGER), ("cid", DataType.INTEGER)],
        [{"id": i, "cid": (i * 7) % 5} for i in range(25)],
    )


@pytest.fixture
def customers(orders):
    return make_table(
        "Customer",
        [("cid", DataType.INTEGER), ("city", DataType.STRING)],
        [{"cid": i, "city": f"C{i}"} for i in range(5)],
        io=orders.io,
    )


def multiset(table):
    return sorted(tuple(sorted(r.items())) for r in table.rows())


class TestSortMergeJoin:
    def test_matches_nested_loop(self, orders, customers):
        condition = compare("Order.cid", "=", column("Customer.cid"))
        expected = multiset(
            execute_operator(
                NestedLoopJoin(scan_of(orders), scan_of(customers), condition),
                io=orders.io,
            )
        )
        got = multiset(
            execute_operator(
                MergeJoin(
                    scan_of(orders),
                    scan_of(customers),
                    [("Order.cid", "Customer.cid")],
                    None,
                ),
                io=orders.io,
            )
        )
        assert got == expected

    def test_duplicate_keys_cross_product(self):
        left = make_table(
            "L", [("k", DataType.INTEGER), ("a", DataType.INTEGER)],
            [{"k": 1, "a": i} for i in range(3)],
        )
        right = make_table(
            "R", [("k", DataType.INTEGER), ("b", DataType.INTEGER)],
            [{"k": 1, "b": i} for i in range(4)],
            io=left.io,
        )
        result = execute_operator(
            MergeJoin(scan_of(left), scan_of(right), [("L.k", "R.k")], None),
            io=left.io,
        )
        assert result.cardinality == 12

    def test_null_keys_never_match(self):
        left = make_table(
            "L", [("k", DataType.INTEGER)], [{"k": None}, {"k": 1}]
        )
        right = make_table(
            "R", [("k2", DataType.INTEGER)], [{"k2": None}, {"k2": 1}],
            io=left.io,
        )
        result = execute_operator(
            MergeJoin(scan_of(left), scan_of(right), [("L.k", "R.k2")], None),
            io=left.io,
        )
        assert result.cardinality == 1

    def test_io_includes_sort_passes(self, orders, customers):
        orders.io.reset()
        execute_operator(
            MergeJoin(
                scan_of(orders),
                scan_of(customers),
                [("Order.cid", "Customer.cid")],
                None,
            ),
            io=orders.io,
        )
        expected = 0
        for table in (orders, customers):
            blocks = table.num_blocks
            expected += blocks
            if blocks > 1:
                expected += blocks * math.ceil(math.log2(blocks))
        assert orders.io.reads == expected

    def test_requires_keys(self, orders, customers):
        with pytest.raises(ExecutionError):
            execute_operator(
                MergeJoin(scan_of(orders), scan_of(customers), [], None),
                io=orders.io,
            )

    def test_residual_applied(self, orders, customers):
        result = execute_operator(
            MergeJoin(
                scan_of(orders),
                scan_of(customers),
                [("Order.cid", "Customer.cid")],
                compare("Order.id", "<", 5),
            ),
            io=orders.io,
        )
        assert result.cardinality == 5


class TestEngineMode:
    def test_matches_other_engines_on_paper_queries(self, workload):
        database = load_database(paper_rows(scale=0.02, seed=29), workload.catalog)
        from repro.sql.translator import parse_query

        nested = ExecutionEngine(database)
        merged = ExecutionEngine(database, SORT_MERGE)
        for name in ("Q1", "Q2", "Q3", "Q4"):
            plan = parse_query(workload.query(name).sql, workload.catalog)
            a, _ = nested.run(plan)
            b, _ = merged.run(plan)
            assert multiset(a) == multiset(b), name
