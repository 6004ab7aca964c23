"""Unit tests for hash and sorted indexes."""

import pytest

from repro.catalog.datatypes import DataType
from repro.catalog.schema import Attribute, RelationSchema
from repro.storage.index import HashIndex, SortedIndex
from repro.storage.table import table_from_rows


@pytest.fixture
def table():
    schema = RelationSchema(
        "R",
        [Attribute("id", DataType.INTEGER), Attribute("v", DataType.INTEGER)],
    )
    rows = [{"id": i, "v": i % 5} for i in range(50)]
    return table_from_rows(schema, rows, blocking_factor=10)


class TestHashIndex:
    def test_lookup_matches(self, table):
        index = HashIndex(table, "v")
        matches = index.lookup(3)
        assert len(matches) == 10
        assert all(r["v"] == 3 for r in matches)

    def test_lookup_missing_value(self, table):
        index = HashIndex(table, "v")
        assert index.lookup(99) == []

    def test_lookup_charges_io(self, table):
        index = HashIndex(table, "v")
        table.io.reset()
        index.lookup(3)
        # 1 probe + ceil(10 matches / bf 10) = 2 blocks
        assert table.io.reads == 2

    def test_len(self, table):
        assert len(HashIndex(table, "id")) == 50

    def test_probe_on_plain_table_does_not_copy_rows(self, table, monkeypatch):
        index = HashIndex(table, "v")

        def copy_all_rows():
            raise AssertionError("lookup copied the whole table")

        monkeypatch.setattr(table, "rows", copy_all_rows)
        table.io.reset()
        matches = index.lookup(3)
        assert [r["id"] for r in matches] == list(range(3, 50, 5))
        assert table.io.reads == 2

    def test_probe_on_fault_proxy_keeps_its_read_fault(self, table):
        from repro.errors import StorageFault
        from repro.resilience.faults import (
            SCOPE_ALL,
            FaultInjector,
            FaultPolicy,
            FaultyTable,
        )

        injector = FaultInjector(
            FaultPolicy(storage_failure_rate=1.0, scope=SCOPE_ALL, seed=0)
        )
        index = HashIndex(table, "v")
        index.table = FaultyTable(table, "R", injector)
        with pytest.raises(StorageFault):
            index.lookup(3)

    def test_rebuild_after_insert(self, table):
        index = HashIndex(table, "v")
        table.insert({"id": 100, "v": 3})
        index.rebuild()
        assert len(index.lookup(3, count_io=False)) == 11


class TestSortedIndex:
    def test_range_inclusive(self, table):
        index = SortedIndex(table, "id")
        rows = index.range(low=10, high=14)
        assert sorted(r["id"] for r in rows) == [10, 11, 12, 13, 14]

    def test_range_exclusive_bounds(self, table):
        index = SortedIndex(table, "id")
        rows = index.range(low=10, high=14, include_low=False, include_high=False)
        assert sorted(r["id"] for r in rows) == [11, 12, 13]

    def test_unbounded_low(self, table):
        index = SortedIndex(table, "id")
        assert len(index.range(high=4)) == 5

    def test_unbounded_high(self, table):
        index = SortedIndex(table, "id")
        assert len(index.range(low=45)) == 5

    def test_empty_range(self, table):
        index = SortedIndex(table, "id")
        assert index.range(low=30, high=20) == []

    def test_charges_io(self, table):
        index = SortedIndex(table, "id")
        table.io.reset()
        index.range(low=0, high=9)
        assert table.io.reads == 2  # probe + 1 block of matches

    def test_none_values_excluded(self):
        schema = RelationSchema(
            "R", [Attribute("id", DataType.INTEGER)]
        )
        t = table_from_rows(schema, [{"id": None}, {"id": 1}, {"id": 2}])
        index = SortedIndex(t, "id")
        assert len(index) == 2
