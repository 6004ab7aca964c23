"""Unit tests for the position index a stored table keeps per column.

``ColumnView.positions`` is a hash index: each value of a column mapped
to the ascending row positions holding it.  An index-nested-loop join
probes it for its stored inner relation, charging one index read plus
the blocks of the matches per probe.
"""

import pytest

from repro.catalog.datatypes import DataType
from repro.catalog.schema import Attribute, RelationSchema
from repro.executor.physical import IndexNestedLoopJoin, execute_operator, scan_of
from repro.storage.table import table_from_rows


@pytest.fixture
def table():
    schema = RelationSchema(
        "R",
        [Attribute("id", DataType.INTEGER), Attribute("v", DataType.INTEGER)],
    )
    rows = [{"id": i, "v": i % 5} for i in range(50)]
    return table_from_rows(schema, rows, blocking_factor=10)


def probe(table, *keys):
    """Join one outer row per key against ``table`` on ``R.v``; the
    outer table has its own I/O counter, so ``table.io`` sees only the
    index build and the probes."""
    outer = table_from_rows(
        RelationSchema("O", [Attribute("O.k", DataType.INTEGER)]),
        [{"O.k": key} for key in keys],
    )
    op = IndexNestedLoopJoin(scan_of(outer), scan_of(table), ("O.k", "v"))
    return execute_operator(op, io=outer.io)


class TestHashIndex:
    def test_lookup_matches(self, table):
        index = table.column_view().positions("v")
        assert index[3] == list(range(3, 50, 5))
        assert [row["id"] for row in probe(table, 3).rows()] == index[3]

    def test_lookup_missing_value(self, table):
        assert 99 not in table.column_view().positions("v")
        table.column_view().charged_builds.add("v")  # the build is paid
        table.io.reset()
        assert probe(table, 99).rows() == []
        assert table.io.reads == 1  # the probe itself, no match blocks

    def test_lookup_charges_io(self, table):
        probe(table, 3)
        table.io.reset()
        probe(table, 3)
        # 1 probe + ceil(10 matches / bf 10) = 2 blocks; the build is warm
        assert table.io.reads == 2

    def test_len(self, table):
        index = table.column_view().positions("id")
        assert sum(len(positions) for positions in index.values()) == 50
        assert len(table.column_view().positions("v")) == 5

    def test_probe_on_plain_table_does_not_copy_rows(self, table, monkeypatch):
        def copy_all_rows():
            raise AssertionError("the join copied the whole table")

        monkeypatch.setattr(table, "rows", copy_all_rows)
        table.io.reset()
        result = probe(table, 3)
        assert [r["id"] for r in result.rows()] == list(range(3, 50, 5))
        assert table.io.reads == table.num_blocks + 2

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
        table.column_view().charged_builds.add("v")  # no build draw
        proxy = FaultyTable(table, "R", injector)
        outer = table_from_rows(
            RelationSchema("O", [Attribute("O.k", DataType.INTEGER)]),
            [{"O.k": 3}],
        )
        op = IndexNestedLoopJoin(scan_of(outer), scan_of(proxy), ("O.k", "v"))
        table.io.reset()
        with pytest.raises(StorageFault):
            execute_operator(op, io=outer.io)
        assert table.io.reads == 2  # the probe is charged, then it faults
        assert injector.storage_faults == 1

    def test_rebuild_after_insert(self, table):
        view = table.column_view()
        probe(table, 3)
        assert view.charged_builds == {"v"}
        table.insert({"id": 100, "v": 3})
        assert view.charged_builds == set()
        assert len(view.positions("v")) == 5
        assert view.positions("v")[3][-1] == 50
        assert len(probe(table, 3).rows()) == 11
