"""Unit tests for the per-relation change logs and capture plumbing."""

import pytest

from repro.cdc import (
    ChangeLog,
    ChangeLogSet,
    ChangeRecord,
    DELETE,
    INSERT,
    UPDATE,
)
from repro.errors import StreamingError, WorkloadWarning


def record(relation="R", lsn=1, seq=1, op=INSERT, row=None, old_row=None):
    if op in (INSERT, UPDATE) and row is None:
        row = {"a": lsn}
    if op in (DELETE, UPDATE) and old_row is None:
        old_row = {"a": lsn}
    return ChangeRecord(
        relation=relation, lsn=lsn, seq=seq, op=op, row=row, old_row=old_row
    )


class TestChangeRecord:
    def test_rejects_unknown_op(self):
        with pytest.raises(StreamingError):
            ChangeRecord(relation="R", lsn=1, seq=1, op="truncate")

    def test_insert_needs_row(self):
        with pytest.raises(StreamingError):
            ChangeRecord(relation="R", lsn=1, seq=1, op=INSERT)

    def test_delete_needs_old_row(self):
        with pytest.raises(StreamingError):
            ChangeRecord(relation="R", lsn=1, seq=1, op=DELETE)

    def test_update_needs_both(self):
        with pytest.raises(StreamingError):
            ChangeRecord(relation="R", lsn=1, seq=1, op=UPDATE, row={"a": 1})

    def test_to_dict_round_trips_rows(self):
        rec = record(op=UPDATE, row={"a": 2}, old_row={"a": 1})
        document = rec.to_dict()
        assert document["op"] == UPDATE
        assert document["row"] == {"a": 2}
        assert document["old_row"] == {"a": 1}


class TestChangeLogRetention:
    def test_append_and_lookup(self):
        log = ChangeLog("R", capacity=10)
        for i in range(1, 4):
            log.append(record(lsn=i, seq=i))
        assert len(log) == 3
        assert log.last_lsn == 3
        assert [r.seq for r in log.records_after(1)] == [2, 3]

    def test_records_after_matches_a_full_scan(self):
        import warnings

        log = ChangeLog("R", capacity=4)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            for i in range(1, 7):
                log.append(record(lsn=i, seq=2 * i))
        retained = [r.seq for r in log.records_after(0)]
        assert retained == [6, 8, 10, 12]
        for seq in range(14):
            assert [r.seq for r in log.records_after(seq)] == [
                s for s in retained if s > seq
            ]

    def test_rejects_foreign_relation(self):
        log = ChangeLog("R")
        with pytest.raises(StreamingError):
            log.append(record(relation="S"))

    def test_retention_evicts_and_warns_once(self):
        log = ChangeLog("R", capacity=2)
        log.append(record(lsn=1, seq=1))
        log.append(record(lsn=2, seq=2))
        with pytest.warns(WorkloadWarning, match="retention pressure"):
            log.append(record(lsn=3, seq=3))
        # Subsequent drops in the same pressure episode stay silent.
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            log.append(record(lsn=4, seq=4))
        assert log.dropped == 2
        assert log.min_retained_seq == 3

    def test_gap_after_eviction(self):
        import warnings

        log = ChangeLog("R", capacity=2)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            for i in range(1, 5):
                log.append(record(lsn=i, seq=i))
        # A consumer at seq 1 lost records; one at seq 2 has not.
        assert log.has_gap(1)
        assert not log.has_gap(2)
        assert not log.has_gap(4)

    def test_gap_is_measured_from_the_newest_evicted_record(self):
        import warnings

        # Global seqs interleave with other logs: this log holds 1, 5, 9.
        log = ChangeLog("R", capacity=2)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            for lsn, seq in ((1, 1), (2, 5), (3, 9)):
                log.append(record(lsn=lsn, seq=seq))
        assert log.evicted_seq == 1
        assert log.has_gap(0)
        # A consumer at seq 3 absorbed the evicted record: no gap, though
        # it is behind the oldest retained record's seq - 1.
        assert not log.has_gap(3)

    def test_trim_drops_absorbed_records_without_counting_them(self):
        import warnings

        log = ChangeLog("R", capacity=3)
        for i in range(1, 4):
            log.append(record(lsn=i, seq=2 * i))
        log.trim(4)
        assert [r.seq for r in log.records_after(0)] == [6]
        log.trim(4)
        assert len(log) == 1
        assert log.dropped == 0
        assert not log.has_gap(0)
        # Trimmed room is reused without an eviction or a warning.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            log.append(record(lsn=4, seq=8))
            log.append(record(lsn=5, seq=10))
        assert log.dropped == 0
        assert log.last_lsn == 5

    def test_snapshot_barrier_clears_and_gaps(self):
        log = ChangeLog("R", capacity=10)
        log.append(record(lsn=1, seq=1))
        log.snapshot_barrier(5)
        assert len(log) == 0
        assert log.barrier_seq == 5
        assert log.has_gap(4)
        assert not log.has_gap(5)
        # LSNs keep counting after a snapshot.
        log.append(record(lsn=2, seq=6))
        assert log.last_lsn == 2

    def test_capacity_must_be_positive(self):
        with pytest.raises(StreamingError):
            ChangeLog("R", capacity=0)


class TestChangeLogSet:
    def test_record_assigns_global_seq_and_per_relation_lsn(self):
        changes = ChangeLogSet()
        changes.capture("R")
        changes.capture("S")
        r1 = changes.record("R", INSERT, row={"a": 1})
        s1 = changes.record("S", INSERT, row={"b": 1})
        r2 = changes.record("R", DELETE, old_row={"a": 1})
        assert (r1.seq, s1.seq, r2.seq) == (1, 2, 3)
        assert (r1.lsn, s1.lsn, r2.lsn) == (1, 1, 2)
        assert changes.head_seq == 3

    def test_uncaptured_relation_raises(self):
        changes = ChangeLogSet()
        with pytest.raises(StreamingError):
            changes.log("missing")

    def test_pending_after_counts_by_relation(self):
        changes = ChangeLogSet()
        changes.capture("R")
        changes.capture("S")
        changes.record("R", INSERT, row={"a": 1})
        changes.record("S", INSERT, row={"b": 1})
        assert changes.pending_after(0) == 2
        assert changes.pending_after(0, relations=("R",)) == 1
        assert changes.pending_after(2) == 0


class TestWriteHookCapture:
    def _database(self):
        from repro.catalog.schema import Attribute, DataType, RelationSchema
        from repro.executor.engine import Database
        from repro.storage.table import Table

        schema = RelationSchema("R", [Attribute("a", DataType.INTEGER)])
        database = Database()
        database.register("R", Table(schema.qualify(), 10))
        return database

    def test_insert_emits_insert_record(self):
        database = self._database()
        changes = ChangeLogSet()
        changes.capture("R")
        changes.attach(database)
        database.table("R").insert({"R.a": 1})
        log = changes.log("R")
        assert len(log) == 1
        assert log.records_after(0)[0].op == INSERT

    def test_delete_emits_delete_record(self):
        database = self._database()
        changes = ChangeLogSet()
        changes.capture("R")
        changes.attach(database)
        table = database.table("R")
        table.insert({"R.a": 1})
        table.delete_many([{"R.a": 1}])
        ops = [r.op for r in changes.log("R").records_after(0)]
        assert ops == [INSERT, DELETE]

    def test_reregister_records_snapshot_barrier_and_rehooks(self):
        from repro.storage.table import Table

        database = self._database()
        changes = ChangeLogSet()
        changes.capture("R")
        changes.attach(database)
        database.table("R").insert({"R.a": 1})
        old = database.table("R")
        fresh = Table(old.schema, old.blocking_factor)
        database.register("R", fresh)
        log = changes.log("R")
        assert log.barrier_seq > 0
        assert len(log) == 0
        # Writes to the replacement table are captured again.
        fresh.insert({"R.a": 2})
        assert len(log) == 1

    def test_suspend_silences_capture(self):
        database = self._database()
        changes = ChangeLogSet()
        changes.capture("R")
        changes.attach(database)
        with changes.suspend("R"):
            database.table("R").insert({"R.a": 1})
        assert len(changes.log("R")) == 0

    def test_detach_removes_hooks(self):
        database = self._database()
        changes = ChangeLogSet()
        changes.capture("R")
        changes.attach(database)
        changes.detach()
        database.table("R").insert({"R.a": 1})
        assert len(changes.log("R")) == 0
        assert database.change_capture is None
