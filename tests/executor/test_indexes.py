"""Unit tests for the index-nested-loop join and its index build.

Backs the paper's Section-3.2 claim: an index built on a materialized
result makes probing it cheaper than rescanning, so materialization is
never a loss at query time.  The join probes the position index of the
stored inner table (``ColumnView.positions``); its build charges one
pass over the inner table once per write of that table.
"""

import pytest

from repro.algebra.expressions import column, compare
from repro.algebra.operators import Join, Relation
from repro.catalog.datatypes import DataType
from repro.catalog.schema import Attribute, RelationSchema
from repro.errors import ExecutionError, UnknownAttributeError
from repro.executor.engine import (
    ENGINES,
    HASH,
    INDEX_NESTED_LOOP,
    Database,
    ExecutionEngine,
    load_database,
)
from repro.executor.physical import (
    IndexNestedLoopJoin,
    NestedLoopJoin,
    execute_operator,
    scan_of,
)
from repro.storage.table import Table
from repro.workload.datagen import paper_rows

def make_table(name, cols, rows, bf=10, io=None):
    schema = RelationSchema(
        name, [Attribute(f"{name}.{c}", t) for c, t in cols]
    )
    table = Table(schema, bf, io=io)
    for row in rows:
        table.insert(row)
    return table


CUSTOMER_COLUMNS = [("cid", DataType.INTEGER), ("city", DataType.STRING)]


def make_orders():
    return make_table(
        "Order",
        [("id", DataType.INTEGER), ("cid", DataType.INTEGER)],
        [{"id": i, "cid": i % 6} for i in range(30)],
        bf=5,
    )


def make_customers(io=None):
    return make_table(
        "Customer",
        CUSTOMER_COLUMNS,
        [{"cid": i, "city": f"C{i}"} for i in range(6)],
        bf=3,
        io=io,
    )


@pytest.fixture
def orders():
    return make_orders()


@pytest.fixture
def customers(orders):
    return make_customers(io=orders.io)


def each_engine():
    """``(engine, orders, customers, database)``, fresh tables per engine."""
    for mode in ENGINES:
        orders = make_orders()
        customers = make_customers()
        database = Database()
        database.register("Order", orders)
        database.register("Customer", customers)
        yield mode, orders, customers, database


def join_plan(orders, customers):
    return Join(
        Relation("Order", orders.schema),
        Relation("Customer", customers.schema),
        compare("Order.cid", "=", column("Customer.cid")),
    )


def run(database, plan, mode):
    """(rows, reads) of one index-nested-loop run under ``mode``."""
    engine = ExecutionEngine(database, INDEX_NESTED_LOOP, engine=mode)
    before = database.io.snapshot()
    result = engine.execute(plan)
    return result.rows(), database.io.since(before).reads


class TestIndexManager:
    """The index build: ``B(inner)``, charged once per write of the inner."""

    def test_build_once(self):
        for mode, orders, customers, database in each_engine():
            plan = join_plan(orders, customers)
            cold_rows, cold = run(database, plan, mode)
            warm_rows, warm = run(database, plan, mode)
            assert warm_rows == cold_rows, mode
            assert cold - warm == customers.num_blocks, mode
            assert customers.column_view().charged_builds == {"Customer.cid"}

    def test_rebuild_after_growth(self):
        for mode, orders, customers, database in each_engine():
            plan = join_plan(orders, customers)
            run(database, plan, mode)
            customers.insert({"cid": 99, "city": "X"})
            orders.insert({"id": 30, "cid": 99})
            rows, regrown = run(database, plan, mode)
            _, warm = run(database, plan, mode)
            assert regrown - warm == customers.num_blocks, mode
            assert rows[-1] == {
                "Order.id": 30,
                "Order.cid": 99,
                "Customer.cid": 99,
                "Customer.city": "X",
            }

    def test_rebuild_after_table_replacement(self):
        for mode, orders, customers, database in each_engine():
            plan = join_plan(orders, customers)
            run(database, plan, mode)
            replacement = make_table(
                "Customer",
                CUSTOMER_COLUMNS,
                [{"cid": i, "city": "Y"} for i in range(6)],
                bf=3,
            )
            database.register("Customer", replacement)
            rows, replaced = run(database, plan, mode)
            _, warm = run(database, plan, mode)
            assert replaced - warm == replacement.num_blocks, mode
            assert {row["Customer.city"] for row in rows} == {"Y"}

    def test_invalidate(self, customers):
        view = customers.column_view()
        for write in (
            lambda: customers.insert({"cid": 7, "city": "Z"}),
            lambda: customers.insert_many([{"cid": 8, "city": "Z"}]),
            lambda: customers.delete_many([{"cid": 8, "city": "Z"}]),
            customers.clear,
        ):
            view.charged_builds.add("Customer.cid")
            write()
            assert view.charged_builds == set()

    def test_build_charges_one_pass(self, orders, customers):
        op = IndexNestedLoopJoin(
            scan_of(orders), scan_of(customers), ("Order.cid", "Customer.cid")
        )
        customers.io.reset()
        execute_operator(op, io=orders.io)
        # B(inner) + B(outer) + per order: 1 probe + 1 block of matches
        assert customers.io.reads == (
            customers.num_blocks + orders.num_blocks + 2 * orders.cardinality
        )


class TestIndexNestedLoopJoin:
    def test_matches_nested_loop(self, orders, customers):
        condition = compare("Order.cid", "=", column("Customer.cid"))
        reference = execute_operator(
            NestedLoopJoin(scan_of(orders), scan_of(customers), condition),
            io=orders.io,
        )
        indexed = execute_operator(
            IndexNestedLoopJoin(
                scan_of(orders), scan_of(customers), ("Order.cid", "Customer.cid")
            ),
            io=orders.io,
        )
        key = lambda t: sorted(  # noqa: E731
            tuple(sorted(r.items())) for r in t.rows()
        )
        assert key(reference) == key(indexed)

    def test_cheaper_than_nested_loop_on_large_inner(self, orders):
        """Index probes win once the inner relation is large: nested loop
        pays B(outer)·B(inner) while the index pays per-match blocks."""
        big_customers = make_table(
            "Customer",
            CUSTOMER_COLUMNS,
            [{"cid": i, "city": f"C{i}"} for i in range(600)],
            bf=3,
            io=orders.io,
        )
        indexed = IndexNestedLoopJoin(
            scan_of(orders), scan_of(big_customers), ("Order.cid", "Customer.cid")
        )
        orders.io.reset()
        execute_operator(indexed, io=orders.io)
        indexed_io = orders.io.reads
        orders.io.reset()
        execute_operator(
            NestedLoopJoin(
                scan_of(orders),
                scan_of(big_customers),
                compare("Order.cid", "=", column("Customer.cid")),
            ),
            io=orders.io,
        )
        assert indexed_io < orders.io.reads

    def test_wrong_key_rejected(self, orders, customers):
        with pytest.raises(UnknownAttributeError):
            IndexNestedLoopJoin(
                scan_of(orders), scan_of(customers), ("Order.cid", "Customer.nope")
            )

    def test_residual_applied(self, orders, customers):
        result = execute_operator(
            IndexNestedLoopJoin(
                scan_of(orders),
                scan_of(customers),
                ("Order.cid", "Customer.cid"),
                leftover=compare("Order.id", "<", 10),
            ),
            io=orders.io,
        )
        assert result.cardinality == 10


class TestEngineIntegration:
    def test_index_engine_matches_hash(self, workload):
        database = load_database(paper_rows(scale=0.02, seed=17), workload.catalog)
        hash_engine = ExecutionEngine(database, HASH)
        index_engine = ExecutionEngine(database, INDEX_NESTED_LOOP)
        from repro.sql.translator import parse_query

        for name in ("Q1", "Q2", "Q3", "Q4"):
            plan = parse_query(workload.query(name).sql, workload.catalog)
            a, _ = hash_engine.run(plan)
            b, _ = index_engine.run(plan)
            key = lambda t: sorted(  # noqa: E731
                tuple(sorted(r.items())) for r in t.rows()
            )
            assert key(a) == key(b), name

    def test_unknown_method_rejected(self):
        with pytest.raises(ExecutionError):
            ExecutionEngine(Database(), "btree-magic")
