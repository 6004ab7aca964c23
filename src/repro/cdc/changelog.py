"""Per-relation write-ahead change logs (transactional-outbox style).

Every captured base relation gets a :class:`ChangeLog`: an append-only,
durable-in-memory ring of :class:`ChangeRecord` entries with a monotonic
per-relation LSN.  Records are emitted by the storage layer's write hook
(:attr:`repro.storage.table.Table.write_hook`), so a
``DataWarehouse.apply_update`` and a direct ``table.insert_many`` both
land in the log — exactly like a transactional outbox written in the
same transaction as the base write (the hook fires only after the
mutation succeeded; a fault-aborted write emits nothing).

Retention is bounded two ways.  After each drain the streaming
maintainer trims every log through the lowest watermark of the views
that read its relation (:meth:`ChangeLog.trim`): records every reader
has absorbed are needed by nobody, and a trim is not a drop.  A ring
that still fills up evicts its oldest record, increments the
``dropped`` counter, warns once per pressure episode with a
:class:`~repro.errors.WorkloadWarning` (an evicted record is one some
view has not absorbed, so that view can no longer be maintained
incrementally and must fall back to a batch recompute), and journals a
``cdc.dropped`` event.

The global ``seq`` stamped on every record across all logs is the
serialization order the :class:`~repro.cdc.streaming.StreamingMaintainer`
replays deltas in; per-relation LSNs answer "how far behind is this
view?" in the bounded-staleness contract.
"""

from __future__ import annotations

import warnings
from collections import deque
from dataclasses import dataclass, field
from itertools import takewhile
from typing import Any, Deque, Dict, List, Mapping, Optional, Tuple

from repro import obs
from repro.errors import StreamingError, WorkloadWarning

__all__ = [
    "INSERT",
    "DELETE",
    "UPDATE",
    "CHANGE_OPS",
    "ChangeRecord",
    "ChangeLog",
    "ChangeLogSet",
    "DEFAULT_RETENTION",
]

INSERT = "insert"
DELETE = "delete"
UPDATE = "update"
CHANGE_OPS = (INSERT, DELETE, UPDATE)

#: Ring capacity per relation when the policy does not say otherwise.
DEFAULT_RETENTION = 4096


@dataclass(frozen=True)
class ChangeRecord:
    """One captured base-relation change.

    ``lsn`` is monotonic per relation (1-based); ``seq`` is the global
    append order across every log in the owning :class:`ChangeLogSet` —
    the order delta propagation replays batches in.  ``row`` carries the
    inserted row (insert / update-new); ``old_row`` the removed row
    (delete / update-old).  ``tick`` stamps the logical clock at append
    time, so lag is answerable in ticks as well as records.
    """

    relation: str
    lsn: int
    seq: int
    op: str
    row: Optional[Mapping[str, Any]] = None
    old_row: Optional[Mapping[str, Any]] = None
    tick: float = 0.0

    def __post_init__(self) -> None:
        if self.op not in CHANGE_OPS:
            raise StreamingError(
                f"unknown change op {self.op!r}; expected one of {CHANGE_OPS}"
            )
        if self.op in (INSERT, UPDATE) and self.row is None:
            raise StreamingError(f"{self.op} record needs a row")
        if self.op in (DELETE, UPDATE) and self.old_row is None:
            raise StreamingError(f"{self.op} record needs an old_row")

    def to_dict(self) -> Dict[str, Any]:
        return {
            "relation": self.relation,
            "lsn": self.lsn,
            "seq": self.seq,
            "op": self.op,
            "row": dict(self.row) if self.row is not None else None,
            "old_row": dict(self.old_row) if self.old_row is not None else None,
            "tick": self.tick,
        }


class ChangeLog:
    """A bounded ring of change records for one base relation."""

    def __init__(self, relation: str, capacity: int = DEFAULT_RETENTION):
        if capacity < 1:
            raise StreamingError(f"retention must be >= 1: {capacity}")
        self.relation = relation
        self.capacity = capacity
        self._records: Deque[ChangeRecord] = deque()
        #: Highest LSN ever assigned (monotonic across snapshots/evictions).
        self.last_lsn = 0
        #: Records evicted under retention pressure (never reset).
        self.dropped = 0
        #: Global seq of the newest evicted record (0 = none evicted).
        self.evicted_seq = 0
        #: Global seq of the latest snapshot barrier: a full (re)load of
        #: the relation.  A view that has not absorbed past the barrier
        #: cannot be maintained from the log — it must recompute.
        self.barrier_seq = 0
        self._warned = False

    def __len__(self) -> int:
        return len(self._records)

    @property
    def min_retained_seq(self) -> int:
        """Global seq of the oldest retained record (0 when empty)."""
        return self._records[0].seq if self._records else 0

    @property
    def max_seq(self) -> int:
        return self._records[-1].seq if self._records else 0

    def append(self, record: ChangeRecord) -> ChangeRecord:
        if record.relation != self.relation:
            raise StreamingError(
                f"record for {record.relation!r} appended to the "
                f"{self.relation!r} log"
            )
        self.last_lsn = record.lsn
        if len(self._records) >= self.capacity:
            evicted = self._records.popleft()
            self.dropped += 1
            self.evicted_seq = evicted.seq
            if not self._warned:
                self._warned = True
                warnings.warn(
                    WorkloadWarning(
                        f"change log for {self.relation!r} dropped a record "
                        f"under retention pressure (capacity {self.capacity}); "
                        f"views behind LSN {evicted.lsn} fall back to batch "
                        f"recompute — raise StreamingPolicy.retention or "
                        f"drain more often"
                    ),
                    stacklevel=2,
                )
            if obs.enabled():
                obs.metrics().counter(
                    "cdc.records_dropped", relation=self.relation
                ).inc()
                obs.journal_event(
                    "cdc.dropped",
                    relation=self.relation,
                    lsn=evicted.lsn,
                    dropped_total=self.dropped,
                )
        self._records.append(record)
        return record

    def snapshot_barrier(self, seq: int) -> None:
        """A full (re)load superseded the log's history.

        Retained records predate the new contents, so they are cleared;
        LSNs keep counting monotonically.  Consumers behind ``seq`` must
        recompute from the fresh base table.
        """
        self._records.clear()
        self.barrier_seq = seq
        self._warned = False

    def trim(self, seq: int) -> None:
        """Drop the retained records with a global seq up to ``seq``,
        which every consumer has absorbed.  Not an eviction:
        ``dropped`` and :meth:`has_gap` ignore it."""
        records = self._records
        while records and records[0].seq <= seq:
            records.popleft()

    def records_after(self, seq: int) -> List[ChangeRecord]:
        """Retained records with a global seq greater than ``seq``, read
        back from the newest: seqs grow along the log."""
        newer = list(takewhile(lambda r: r.seq > seq, reversed(self._records)))
        newer.reverse()
        return newer

    def has_gap(self, seq: int) -> bool:
        """Whether a consumer at watermark ``seq`` lost history.

        True when a snapshot barrier or retention eviction removed
        records the consumer has not absorbed yet: the barrier or the
        newest evicted record lies past ``seq``.
        """
        return self.barrier_seq > seq or self.evicted_seq > seq

    def to_dict(self) -> Dict[str, Any]:
        return {
            "relation": self.relation,
            "capacity": self.capacity,
            "records": len(self._records),
            "last_lsn": self.last_lsn,
            "dropped": self.dropped,
            "barrier_seq": self.barrier_seq,
        }


@dataclass
class _CaptureState:
    """Bookkeeping for one captured relation."""

    log: ChangeLog
    attached: bool = False
    suspended: int = 0  # re-entrancy guard depth


class ChangeLogSet:
    """All change logs of one warehouse plus the write-hook plumbing.

    ``capture(relation)`` creates the relation's log and (when the
    relation is already registered) installs the write hook; the set
    also registers itself as ``database.change_capture`` so a re-load —
    which replaces the Table object — re-attaches the hook and records a
    snapshot barrier.
    """

    def __init__(self, retention: int = DEFAULT_RETENTION, clock: Any = None):
        if retention < 1:
            raise StreamingError(f"retention must be >= 1: {retention}")
        self.retention = retention
        self.clock = clock  # LogicalClock or None (tick = 0.0)
        self._states: Dict[str, _CaptureState] = {}
        self._seq = 0
        self._database = None

    # ---------------------------------------------------------------- lookup
    @property
    def relations(self) -> Tuple[str, ...]:
        return tuple(sorted(self._states))

    def captures(self, relation: str) -> bool:
        return relation in self._states

    def log(self, relation: str) -> ChangeLog:
        try:
            return self._states[relation].log
        except KeyError:
            raise StreamingError(
                f"relation {relation!r} is not captured; call capture() first"
            ) from None

    @property
    def head_seq(self) -> int:
        """The global seq of the latest append (0 = nothing captured yet)."""
        return self._seq

    def dropped_total(self) -> int:
        return sum(s.log.dropped for s in self._states.values())

    # ------------------------------------------------------------ attachment
    def attach(self, database: Any) -> None:
        """Capture writes on ``database`` (hooks + re-register barrier)."""
        self._database = database
        database.change_capture = self
        for relation in self.relations:
            if relation in database:
                self._attach_hook(relation, database._tables[relation])

    def detach(self) -> None:
        if self._database is None:
            return
        for relation, state in self._states.items():
            if relation in self._database:
                self._database._tables[relation].write_hook = None
            state.attached = False
        if getattr(self._database, "change_capture", None) is self:
            self._database.change_capture = None
        self._database = None

    def capture(self, relation: str) -> ChangeLog:
        """Create (or return) the relation's change log and hook it up."""
        state = self._states.get(relation)
        if state is None:
            state = _CaptureState(ChangeLog(relation, self.retention))
            self._states[relation] = state
        if self._database is not None and relation in self._database:
            self._attach_hook(relation, self._database._tables[relation])
        return state.log

    def on_register(self, name: str, table: Any) -> None:
        """Database hook: a captured relation got a fresh Table object.

        A registration is a snapshot (full load / reload): the log's
        retained history no longer describes the stored contents, so a
        barrier is recorded and the hook is re-attached to the new table.
        """
        state = self._states.get(name)
        if state is None:
            return
        self._seq += 1
        state.log.snapshot_barrier(self._seq)
        self._attach_hook(name, table)
        if obs.enabled():
            obs.journal_event(
                "cdc.snapshot", relation=name, seq=self._seq,
                tick=self._tick(),
            )

    def _attach_hook(self, relation: str, table: Any) -> None:
        state = self._states[relation]

        def hook(op: str, rows: List[Mapping[str, Any]]) -> None:
            self._on_write(relation, op, rows)

        table.write_hook = hook
        state.attached = True

    # -------------------------------------------------------------- emission
    def _tick(self) -> float:
        if self.clock is None:
            return 0.0
        if callable(self.clock):
            return float(self.clock())
        return float(self.clock.now)

    def _on_write(
        self, relation: str, op: str, rows: List[Mapping[str, Any]]
    ) -> None:
        state = self._states[relation]
        if state.suspended:
            return  # internal write (e.g. building a rewound overlay)
        for row in rows:
            if op == INSERT:
                self.record(relation, INSERT, row=row)
            else:
                self.record(relation, DELETE, old_row=row)

    def record(
        self,
        relation: str,
        op: str,
        row: Optional[Mapping[str, Any]] = None,
        old_row: Optional[Mapping[str, Any]] = None,
    ) -> ChangeRecord:
        """Append one change record (assigning its LSN and global seq)."""
        log = self.log(relation)
        self._seq += 1
        record = ChangeRecord(
            relation=relation,
            lsn=log.last_lsn + 1,
            seq=self._seq,
            op=op,
            row=dict(row) if row is not None else None,
            old_row=dict(old_row) if old_row is not None else None,
            tick=self._tick(),
        )
        log.append(record)
        if obs.enabled():
            obs.metrics().counter(
                "cdc.records_appended", relation=relation, op=op
            ).inc()
        return record

    def suspend(self, relation: str) -> "_SuspendScope":
        """Context manager silencing capture for internal writes."""
        return _SuspendScope(self._states[relation])

    # ---------------------------------------------------------------- status
    def pending_after(self, watermark: int, relations: Any = None) -> int:
        """Retained records past ``watermark`` over the given relations."""
        names = self.relations if relations is None else relations
        return sum(
            len(self._states[name].log.records_after(watermark))
            for name in names
            if name in self._states
        )

    def to_dict(self) -> Dict[str, Any]:
        return {
            "retention": self.retention,
            "head_seq": self._seq,
            "dropped_total": self.dropped_total(),
            "logs": {name: self.log(name).to_dict() for name in self.relations},
        }


class _SuspendScope:
    def __init__(self, state: _CaptureState):
        self._state = state

    def __enter__(self) -> None:
        self._state.suspended += 1

    def __exit__(self, *exc_info: Any) -> None:
        self._state.suspended -= 1
