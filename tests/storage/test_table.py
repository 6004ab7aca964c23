"""Unit tests for block-structured heap tables."""

import pytest

from repro.catalog.datatypes import DataType
from repro.catalog.schema import Attribute, RelationSchema
from repro.errors import StorageError
from repro.storage.table import Table, table_from_rows


@pytest.fixture
def schema():
    return RelationSchema(
        "Product",
        [
            Attribute("Pid", DataType.INTEGER),
            Attribute("name", DataType.STRING),
        ],
    )


class TestInsert:
    def test_insert_and_cardinality(self, schema):
        table = Table(schema, blocking_factor=2)
        table.insert({"Pid": 1, "name": "a"})
        assert table.cardinality == 1
        assert table.num_blocks == 1

    def test_blocks_grow_with_blocking_factor(self, schema):
        table = Table(schema, blocking_factor=2)
        for i in range(5):
            table.insert({"Pid": i, "name": str(i)})
        assert table.num_blocks == 3

    def test_missing_attribute_rejected(self, schema):
        table = Table(schema)
        with pytest.raises(StorageError):
            table.insert({"Pid": 1})

    def test_type_validated(self, schema):
        table = Table(schema)
        with pytest.raises(Exception):
            table.insert({"Pid": "not-an-int", "name": "x"})

    def test_qualified_schema_accepts_short_names(self, schema):
        table = Table(schema.qualify())
        table.insert({"Pid": 1, "name": "a"})
        assert table.rows()[0] == {"Product.Pid": 1, "Product.name": "a"}

    def test_insert_many_charges_block_writes(self, schema):
        table = Table(schema, blocking_factor=10)
        added = table.insert_many(
            ({"Pid": i, "name": str(i)} for i in range(25))
        )
        assert added == 25
        assert table.io.writes == 3  # ceil(25/10)

    def test_invalid_blocking_factor(self, schema):
        with pytest.raises(StorageError):
            Table(schema, blocking_factor=0)


class TestScan:
    def test_scan_counts_blocks(self, schema):
        table = table_from_rows(
            schema, [{"Pid": i, "name": str(i)} for i in range(30)], blocking_factor=10
        )
        rows = list(table.scan())
        assert len(rows) == 30
        assert table.io.reads == 3

    def test_scan_without_accounting(self, schema):
        table = table_from_rows(schema, [{"Pid": 1, "name": "a"}])
        list(table.scan(count_io=False))
        assert table.io.reads == 0

    def test_table_from_rows_charges_nothing(self, schema):
        table = table_from_rows(schema, [{"Pid": 1, "name": "a"}] * 100)
        assert table.io.writes == 0


class TestQualified:
    def test_qualified_renames_columns(self, schema):
        table = table_from_rows(schema, [{"Pid": 1, "name": "a"}])
        qualified = table.qualified()
        assert qualified.schema.attribute_names == ("Product.Pid", "Product.name")
        assert qualified.rows()[0]["Product.Pid"] == 1

    def test_qualified_shares_io_counter(self, schema):
        table = table_from_rows(schema, [{"Pid": 1, "name": "a"}])
        qualified = table.qualified()
        list(qualified.scan())
        assert table.io.reads == qualified.io.reads > 0

    def test_clear(self, schema):
        table = table_from_rows(schema, [{"Pid": 1, "name": "a"}])
        table.clear()
        assert table.cardinality == 0 and table.num_blocks == 0


class TestCopy:
    def test_same_rows_schema_and_blocking_factor(self, schema):
        table = table_from_rows(
            schema, [{"Pid": i, "name": str(i)} for i in range(5)], blocking_factor=2
        )
        copy = table.copy()
        assert type(copy) is Table
        assert copy.rows() == table.rows()
        assert copy.schema is table.schema
        assert copy.blocking_factor == 2 and copy.num_blocks == table.num_blocks

    def test_row_lists_are_independent(self, schema):
        table = table_from_rows(
            schema, [{"Pid": 1, "name": "a"}, {"Pid": 2, "name": "b"}]
        )
        copy = table.copy()
        copy.insert({"Pid": 3, "name": "c"})
        table.delete_many([{"Pid": 1, "name": "a"}])
        assert [r["Pid"] for r in table.rows()] == [2]
        assert [r["Pid"] for r in copy.rows()] == [1, 2, 3]
        table.insert_many([{"Pid": 4, "name": "d"}])
        copy.delete_many([{"Pid": 2, "name": "b"}])
        assert [r["Pid"] for r in table.rows()] == [2, 4]
        assert [r["Pid"] for r in copy.rows()] == [1, 3]

    def test_no_io_and_shared_counter(self, schema):
        table = table_from_rows(schema, [{"Pid": i, "name": str(i)} for i in range(30)])
        copy = table.copy()
        assert copy.io is table.io
        assert (table.io.reads, table.io.writes) == (0, 0)

    def test_write_hook_not_carried(self, schema):
        calls = []
        table = table_from_rows(schema, [{"Pid": 1, "name": "a"}])
        table.write_hook = lambda op, rows: calls.append(op)
        copy = table.copy()
        assert copy.write_hook is None
        copy.insert({"Pid": 2, "name": "b"})
        assert calls == []

    def test_read_fault_on_faulty_source_raises(self, schema):
        from repro.errors import StorageFault
        from repro.executor.engine import Database
        from repro.resilience import SCOPE_ALL, FaultInjector, FaultPolicy

        database = Database()
        stored = database.register(
            "Product", table_from_rows(schema, [{"Pid": 1, "name": "a"}])
        )
        database.fault_injector = FaultInjector(
            FaultPolicy(storage_failure_rate=1.0, scope=SCOPE_ALL, seed=0)
        )
        with pytest.raises(StorageFault):
            database.table("Product").copy()
        database.fault_injector = None
        assert database.table_names == ("Product",)
        assert database.table("Product") is stored
        assert stored.rows() == [{"Pid": 1, "name": "a"}]
