"""Warehouse-level streaming maintenance: ingest, drain, backpressure,
bounded staleness, schema validation and fault degradation."""

import datetime
import warnings

import pytest

from repro.cdc import StreamingPolicy
from repro.cdc.changelog import ChangeRecord, DELETE, INSERT, UPDATE
from repro.cdc.streaming import _coalesce
from repro.errors import DeltaSchemaError, WarehouseError, WorkloadWarning
from repro.mvpp.config import DesignConfig
from repro.resilience.config import ResilienceConfig
from repro.resilience.faults import FaultPolicy
from repro.warehouse import DataWarehouse
from repro.warehouse.simulation import row_multiset
from repro.workload import paper_workload
from repro.workload.datagen import paper_rows, star_rows
from repro.workload.star_schema import StarConfig, star_workload

NEW_ORDER = {
    "Pid": 1,
    "Cid": 2,
    "quantity": 199,
    "date": datetime.date(1996, 10, 1),
}

#: High bounds: nothing drains unless the test asks for it.
LAZY = StreamingPolicy(max_lag_records=10_000, max_lag_ticks=float("inf"))


def _multiset(rows):
    return sorted(tuple(sorted(row.items())) for row in rows)


def _assert_consistent(warehouse):
    """Every stored view equals a from-scratch evaluation of its plan."""
    for view in warehouse.views:
        stored = warehouse.database.table(view.name).rows()
        expected = warehouse.engine.execute(view.plan).rows()
        assert _multiset(stored) == _multiset(expected), view.name


@pytest.fixture()
def warehouse():
    wh = DataWarehouse.from_workload(paper_workload())
    wh.design(DesignConfig(seed=0))
    for relation, rows in sorted(paper_rows(scale=0.02, seed=23).items()):
        wh.load(relation, rows)
    wh.materialize()
    return wh


class TestEnableStreaming:
    def test_captures_every_base_dependency(self, warehouse):
        streaming = warehouse.enable_streaming(LAZY)
        needed = {
            relation
            for view in warehouse.views
            for relation in view.base_relations
        }
        assert needed <= set(streaming.changes.relations)
        assert streaming.max_lag() == 0
        assert warehouse.stale_views() == []

    def test_stream_policy_requires_enable(self, warehouse):
        with pytest.raises(WarehouseError):
            warehouse.apply_update("Order", [NEW_ORDER], policy="stream")

    def test_enable_is_idempotent_without_policy(self, warehouse):
        first = warehouse.enable_streaming(LAZY)
        assert warehouse.enable_streaming() is first
        second = warehouse.enable_streaming(LAZY)
        assert second is not first

    def test_disable_removes_capture(self, warehouse):
        streaming = warehouse.enable_streaming(LAZY)
        warehouse.disable_streaming()
        assert warehouse.streaming is None
        assert warehouse.database.change_capture is None
        warehouse.apply_update("Order", [NEW_ORDER])  # plain recompute path
        assert len(streaming.changes.log("Order")) == 0


class TestIngestAndDrain:
    def test_ingest_queues_without_draining(self, warehouse):
        streaming = warehouse.enable_streaming(LAZY)
        warehouse.apply_update("Order", [NEW_ORDER], policy="stream")
        assert streaming.drains == 0
        assert streaming.max_lag() >= 1
        assert warehouse.stale_views()  # affected views lag behind

    def test_drain_catches_up_and_matches_recompute(self, warehouse):
        streaming = warehouse.enable_streaming(LAZY)
        warehouse.apply_update("Order", [NEW_ORDER], policy="stream")
        report = warehouse.drain_changes()
        assert report.converged
        assert report.records >= 1
        assert streaming.max_lag() == 0
        assert warehouse.stale_views() == []
        _assert_consistent(warehouse)

    def test_watermarks_advance_to_head(self, warehouse):
        streaming = warehouse.enable_streaming(LAZY)
        warehouse.apply_update("Order", [NEW_ORDER], policy="stream")
        warehouse.apply_update(
            "Part",
            [{"Tid": 10**6, "name": "P", "Pid": 0, "supplier": "S"}],
            policy="stream",
        )
        warehouse.drain_changes()
        head = streaming.changes.head_seq
        for view in warehouse.views:
            assert streaming.watermark(view.name) == head

    def test_delete_streams_too(self, warehouse):
        streaming = warehouse.enable_streaming(LAZY)
        victim = warehouse.database.table("Order").rows()[0]
        warehouse.apply_delete("Order", [victim], policy="stream")
        assert streaming.max_lag() >= 1
        report = warehouse.drain_changes()
        assert report.converged
        _assert_consistent(warehouse)

    def test_insert_delete_pair_cancels_exactly(self, warehouse):
        streaming = warehouse.enable_streaming(LAZY)
        before = {
            view.name: _multiset(warehouse.database.table(view.name).rows())
            for view in warehouse.views
        }
        warehouse.apply_update("Order", [NEW_ORDER], policy="stream")
        warehouse.apply_delete("Order", [NEW_ORDER], policy="stream")
        report = warehouse.drain_changes()
        assert report.coalesced == 2  # the pair vanished before evaluation
        assert report.converged
        for view in warehouse.views:
            stored = _multiset(warehouse.database.table(view.name).rows())
            assert stored == before[view.name], view.name
        _assert_consistent(warehouse)

    def test_reload_forces_recompute_via_snapshot_barrier(self, warehouse):
        warehouse.enable_streaming(LAZY)
        warehouse.apply_update("Order", [NEW_ORDER], policy="stream")
        # A full reload supersedes the log: retained history no longer
        # describes the stored rows, so affected views must recompute.
        warehouse.load("Order", warehouse.database.table("Order").rows())
        report = warehouse.drain_changes()
        assert report.converged
        affected = {
            view.name
            for view in warehouse.views
            if view.depends_on("Order")
        }
        assert affected <= set(report.views_recomputed)
        _assert_consistent(warehouse)


class TestBackpressure:
    def test_lag_bound_forces_drain_on_ingest(self, warehouse):
        streaming = warehouse.enable_streaming(
            StreamingPolicy(max_lag_records=2, max_lag_ticks=float("inf"))
        )
        for quantity in (110, 120, 130, 140):
            warehouse.apply_update(
                "Order", [dict(NEW_ORDER, quantity=quantity)], policy="stream"
            )
        assert streaming.drains >= 1
        assert streaming.max_lag() <= 2
        warehouse.drain_changes()  # absorb the still-queued tail
        _assert_consistent(warehouse)


class TestBoundedStalenessServe:
    def test_serve_forces_catchup_past_bound(self, warehouse):
        streaming = warehouse.enable_streaming(LAZY)
        warehouse.apply_update("Order", [NEW_ORDER], policy="stream")
        assert streaming.max_lag() >= 1
        result = warehouse.serve("Q1", max_staleness=0)
        assert streaming.max_lag() == 0
        assert result.max_staleness == 0

    def test_serve_within_bound_skips_drain(self, warehouse):
        streaming = warehouse.enable_streaming(LAZY)
        warehouse.apply_update("Order", [NEW_ORDER], policy="stream")
        lag = streaming.max_lag()
        warehouse.serve("Q1", max_staleness=10_000)
        assert streaming.max_lag() == lag  # still queued
        assert streaming.drains == 0

    def test_max_staleness_requires_streaming(self, warehouse):
        with pytest.raises(WarehouseError):
            warehouse.serve("Q1", max_staleness=0)


class TestDeltaValidation:
    def test_unknown_column_named_in_error(self, warehouse):
        warehouse.enable_streaming(LAZY)
        bad = dict(NEW_ORDER)
        bad["quantty"] = bad.pop("quantity")
        with pytest.raises(DeltaSchemaError) as excinfo:
            warehouse.apply_update("Order", [bad], policy="stream")
        message = str(excinfo.value)
        assert "quantty" in message
        assert "quantity" in message  # reported as missing too

    def test_missing_column_named_in_error(self, warehouse):
        bad = {k: v for k, v in NEW_ORDER.items() if k != "date"}
        with pytest.raises(DeltaSchemaError) as excinfo:
            warehouse.apply_update("Order", [bad])
        assert "date" in str(excinfo.value)

    def test_rejected_rows_leave_no_trace(self, warehouse):
        streaming = warehouse.enable_streaming(LAZY)
        cardinality = warehouse.database.table("Order").cardinality
        with pytest.raises(DeltaSchemaError):
            warehouse.apply_update(
                "Order", [{"bogus": 1}], policy="stream"
            )
        assert warehouse.database.table("Order").cardinality == cardinality
        assert len(streaming.changes.log("Order")) == 0


class TestCoalesce:
    def _record(self, op, row=None, old_row=None, seq=1):
        return ChangeRecord(
            relation="R", lsn=seq, seq=seq, op=op, row=row, old_row=old_row
        )

    def test_update_expands_to_delete_plus_insert(self):
        records = [
            self._record(
                UPDATE, row={"a": 2}, old_row={"a": 1}, seq=1
            )
        ]
        inserts, deletes, cancelled = _coalesce(records)
        assert inserts == [{"a": 2}]
        assert deletes == [{"a": 1}]
        assert cancelled == 0

    def test_multiset_counts_preserved(self):
        records = [
            self._record(INSERT, row={"a": 1}, seq=1),
            self._record(INSERT, row={"a": 1}, seq=2),
            self._record(DELETE, old_row={"a": 1}, seq=3),
        ]
        inserts, deletes, cancelled = _coalesce(records)
        assert inserts == [{"a": 1}]
        assert deletes == []
        assert cancelled == 2

    @pytest.mark.parametrize("value", [5, "a3"])
    def test_null_sorts_before_a_value(self, value):
        records = [
            self._record(INSERT, row={"a": 1, "b": value}, seq=1),
            self._record(INSERT, row={"a": 1, "b": None}, seq=2),
            self._record(DELETE, old_row={"a": 2, "b": value}, seq=3),
            self._record(DELETE, old_row={"a": 2, "b": None}, seq=4),
        ]
        inserts, deletes, cancelled = _coalesce(records)
        assert inserts == [{"a": 1, "b": None}, {"a": 1, "b": value}]
        assert deletes == [{"a": 2, "b": None}, {"a": 2, "b": value}]
        assert cancelled == 0

    def test_drain_takes_a_null_beside_a_value(self, warehouse):
        warehouse.enable_streaming(LAZY)
        warehouse.apply_update(
            "Order",
            [dict(NEW_ORDER, quantity=None), dict(NEW_ORDER, quantity=5)],
            policy="stream",
        )
        report = warehouse.drain_changes()
        assert report.converged
        for view in warehouse.views:
            stored = warehouse.database.table(view.name).rows()
            expected = warehouse.engine.execute(view.plan).rows()
            assert row_multiset(stored) == row_multiset(expected), view.name


class TestLogRetention:
    """Drains trim what every reader absorbed; overflow still evicts."""

    def test_long_replay_keeps_only_unabsorbed_records(self, warehouse):
        streaming = warehouse.enable_streaming(
            StreamingPolicy(
                max_lag_records=4, max_lag_ticks=float("inf"), retention=8
            )
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error", WorkloadWarning)
            for quantity in range(100, 160):
                row = dict(NEW_ORDER, quantity=quantity)
                warehouse.apply_update("Order", [row], policy="stream")
                warehouse.apply_delete("Order", [row], policy="stream")
                for relation in streaming.changes.relations:
                    log = streaming.changes.log(relation)
                    readers = [
                        streaming.watermark(view.name) or 0
                        for view in warehouse.views
                        if view.depends_on(relation)
                    ]
                    floor = min(readers, default=streaming.changes.head_seq)
                    assert len(log.records_after(floor)) == len(log)
            warehouse.drain_changes()
        assert streaming.drains > 1
        assert streaming.changes.head_seq == 120
        assert streaming.changes.dropped_total() == 0
        for relation in streaming.changes.relations:
            assert len(streaming.changes.log(relation)) == 0, relation
        _assert_consistent(warehouse)

    def test_a_view_held_behind_keeps_its_records(self, warehouse):
        # Every read of Customer fails, so the Customer-Order view can
        # neither take its deltas nor recompute: it stays behind.
        warehouse.attach_faults(
            FaultPolicy(relation_rates=(("Customer", 1.0),), seed=3)
        )
        warehouse.scheduler(ResilienceConfig(seed=3))
        streaming = warehouse.enable_streaming(
            StreamingPolicy(
                max_lag_records=10_000, max_lag_ticks=float("inf"), retention=8
            )
        )
        behind = [v.name for v in warehouse.views if v.depends_on("Customer")]
        assert behind
        for quantity in (110, 120, 130):
            warehouse.apply_update(
                "Order", [dict(NEW_ORDER, quantity=quantity)], policy="stream"
            )
        report = warehouse.drain_changes()
        assert set(behind) <= set(report.views_failed)
        log = streaming.changes.log("Order")
        assert [r.seq for r in log.records_after(0)] == [1, 2, 3]
        # Overflow past the held records still evicts, warns and gaps.
        with pytest.warns(WorkloadWarning, match="retention pressure"):
            for quantity in range(140, 210, 10):
                warehouse.apply_update(
                    "Order", [dict(NEW_ORDER, quantity=quantity)],
                    policy="stream",
                )
        assert log.dropped == 2
        assert log.has_gap(streaming.watermark(behind[0]))
        warehouse.detach_faults()
        report = warehouse.drain_changes()
        assert set(behind) <= set(report.views_recomputed)
        assert report.converged
        assert len(log) == 0
        _assert_consistent(warehouse)


class TestViewsAtDifferentWatermarks:
    def test_a_view_ahead_is_not_handed_absorbed_records(self):
        """Fact readers split by a Dim1 read fault: the views that do
        not read Dim1 absorb each drain, the others stay behind.  A
        later run of Fact records that straddles the ahead views'
        watermark must not re-apply what they already absorbed."""
        star = StarConfig(num_queries=16, include_aggregates=True, seed=0)
        warehouse = DataWarehouse.from_workload(star_workload(star))
        warehouse.design()
        rows = star_rows(star, 0.005, 0)
        for relation, batch in sorted(rows.items()):
            warehouse.load(relation, batch)
        warehouse.materialize()
        readers = [v for v in warehouse.views if v.depends_on("Fact")]
        behind = {v.name for v in readers if v.depends_on("Dim1")}
        ahead = {v.name for v in readers} - behind
        assert behind and ahead
        warehouse.attach_faults(
            FaultPolicy(relation_rates=(("Dim1", 1.0),), seed=3)
        )
        warehouse.scheduler(ResilienceConfig(seed=3))
        streaming = warehouse.enable_streaming(LAZY)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", WorkloadWarning)
            for start in (0, 3):
                warehouse.apply_update(
                    "Fact", rows["Fact"][start:start + 3], policy="stream"
                )
                report = warehouse.drain_changes()
                assert set(report.views_failed) == behind
            for name in ahead:
                assert streaming.watermark(name) == streaming.changes.head_seq
            warehouse.detach_faults()
            assert warehouse.drain_changes().converged
        _assert_consistent(warehouse)


class TestFaultDegradation:
    def test_drain_degrades_and_converges_under_faults(self, warehouse):
        warehouse.attach_faults(FaultPolicy(storage_failure_rate=0.4, seed=3))
        warehouse.scheduler(ResilienceConfig(seed=3))
        streaming = warehouse.enable_streaming(LAZY)
        for quantity in (110, 120, 130):
            warehouse.apply_update(
                "Order", [dict(NEW_ORDER, quantity=quantity)], policy="stream"
            )
        report = warehouse.drain_changes()
        if not report.converged:
            warehouse.scheduler().refresh_until_converged()
        assert not warehouse.stale_views()
        assert streaming.max_lag() == 0
        # No partial writes: committed swaps match stored cardinalities.
        for view in warehouse.views:
            committed = warehouse.committed_cardinality(view.name)
            stored = warehouse.database.table(view.name).cardinality
            assert committed == stored, view.name
        warehouse.detach_faults()
        _assert_consistent(warehouse)
