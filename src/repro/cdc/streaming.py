"""Queue-based streaming view maintenance over the change logs.

The :class:`StreamingMaintainer` drains per-relation change logs on the
scheduler's logical tick clock and propagates the resulting deltas to
every affected view through the compiled
:class:`~repro.cdc.propagation.PropagationGraph`:

* **load leveling** — ingest only appends to the change log (cheap);
  delta evaluation happens in :meth:`drain`, where up to
  ``StreamingPolicy.coalesce_records`` consecutive same-relation records
  merge into one evaluation (insert/delete pairs of identical rows
  cancel exactly);
* **backpressure** — :meth:`on_ingest` forces a drain as soon as any
  view's lag exceeds ``max_lag_records`` pending records or
  ``max_lag_ticks`` logical ticks, bounding both queue depth and
  staleness;
* **degradation** — a view whose delta cannot be evaluated (propagation
  fault, retention gap, recompute-only edge, a delete reaching an
  insert-only edge, a SUM overflow) falls back
  to a batch refresh through
  :meth:`repro.resilience.scheduler.RefreshScheduler.degrade`, i.e. the
  normal retry/backoff/circuit-breaker machinery.

Correctness: records are replayed in global ``seq`` order.  Because the
base tables already hold the head state, a batch ``[a..b]`` on relation
``R`` evaluates against *rewound* overlays of every other relation with
pending records past ``b`` — head rows minus future inserts plus future
deletes — which makes the coalesced batch bit-identical to applying the
records one at a time, and therefore to a full recomputation (the
property ``tests/cdc`` pins with hypothesis, on both engines).
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from repro import obs
from repro.cdc.changelog import (
    ChangeLogSet,
    ChangeRecord,
    DELETE,
    INSERT,
    UPDATE,
)
from repro.cdc.policy import StreamingPolicy
from repro.cdc.propagation import (
    DeltaPropagator,
    MODE_DELTA,
    PropagationGraph,
    ViewDelta,
)
from repro.errors import ReproError, StreamingError
from repro.storage.block import IOSnapshot
from repro.storage.table import Table, items_order, row_items, row_values
from repro.warehouse.maintenance import DELETE, SUM_OVERFLOW, shadow_table

__all__ = ["StreamingMaintainer", "DrainReport"]


def _coalesce(
    records: Sequence[ChangeRecord],
) -> Tuple[List[Dict[str, Any]], List[Dict[str, Any]], int]:
    """Net inserts/deletes of one same-relation run, with cancellation.

    Within a run the other relations are fixed, so an insert and a
    delete of the same row contribute identical derived rows — the pair
    cancels exactly (multiset semantics).  Returns ``(inserts, deletes,
    cancelled)`` where ``cancelled`` counts the records removed by
    coalescing.
    """
    counts: Dict[Tuple[Tuple[str, Any], ...], int] = {}
    sample: Dict[Tuple[Tuple[str, Any], ...], Dict[str, Any]] = {}

    def bump(row: Mapping[str, Any], delta: int) -> None:
        key = row_items(row)
        counts[key] = counts.get(key, 0) + delta
        sample.setdefault(key, dict(row))

    total = 0
    for record in records:
        if record.op == INSERT:
            bump(record.row, +1)
            total += 1
        elif record.op == DELETE:
            bump(record.old_row, -1)
            total += 1
        else:  # UPDATE = delete(old) + insert(new)
            bump(record.old_row, -1)
            bump(record.row, +1)
            total += 2
    inserts: List[Dict[str, Any]] = []
    deletes: List[Dict[str, Any]] = []
    for key in sorted(counts, key=items_order):
        count = counts[key]
        row = sample[key]
        if count > 0:
            inserts.extend(dict(row) for _ in range(count))
        elif count < 0:
            deletes.extend(dict(row) for _ in range(-count))
    return inserts, deletes, total - len(inserts) - len(deletes)


def _rewound(table: Table, future: Sequence[ChangeRecord]) -> Table:
    """``table`` with the ``future`` records undone, newest first: an
    insert removes the newest stored occurrence of its row, a delete
    appends its row again.

    Starts from :meth:`Table.copy`, so only the re-appended rows are
    validated, and removes the inserts still in the copied rows in one
    pass from the end, keyed by :func:`row_values` as
    :meth:`Table.delete_many` keys rows.  Raises :class:`StreamingError`
    when a logged insert is not in the table.
    """
    key = row_values(table.schema)
    appended: List[Dict[str, Any]] = []
    missing: Dict[Any, int] = {}  # inserts to remove from the copied rows
    for record in reversed(future):
        if record.op in (INSERT, UPDATE):
            wanted = key(table._normalize(record.row))
            for index in range(len(appended) - 1, -1, -1):
                if key(appended[index]) == wanted:
                    del appended[index]
                    break
            else:
                missing[wanted] = missing.get(wanted, 0) + 1
        if record.op in (DELETE, UPDATE):
            appended.append(table._normalize(record.old_row))
    rewound = table.copy()
    rows = rewound._rows
    for index in range(len(rows) - 1, -1, -1):
        if not missing:
            break
        stored = key(rows[index])
        count = missing.get(stored)
        if count:
            del rows[index]
            if count == 1:
                del missing[stored]
            else:
                missing[stored] = count - 1
    if missing:
        raise StreamingError(
            "change log is inconsistent with the stored table: "
            "a logged insert is missing from the head state"
        )
    rows.extend(appended)
    return rewound


@dataclass(frozen=True)
class DrainReport:
    """What one :meth:`StreamingMaintainer.drain` call did."""

    records: int
    runs: int
    coalesced: int
    views_updated: Tuple[str, ...]
    views_recomputed: Tuple[str, ...]
    views_failed: Tuple[str, ...]
    io: IOSnapshot
    head_seq: int

    @property
    def converged(self) -> bool:
        return not self.views_failed

    def to_dict(self) -> Dict[str, Any]:
        return {
            "records": self.records,
            "runs": self.runs,
            "coalesced": self.coalesced,
            "views_updated": list(self.views_updated),
            "views_recomputed": list(self.views_recomputed),
            "views_failed": list(self.views_failed),
            "io_blocks": self.io.total,
            "head_seq": self.head_seq,
        }


class StreamingMaintainer:
    """Drains change logs into materialized views (one per warehouse)."""

    def __init__(self, warehouse: Any, policy: StreamingPolicy):
        if not isinstance(policy, StreamingPolicy):
            raise StreamingError(f"not a StreamingPolicy: {policy!r}")
        self.warehouse = warehouse
        self.policy = policy
        self.changes = ChangeLogSet(
            retention=policy.retention,
            clock=lambda: self.scheduler.clock.now,
        )
        self.changes.attach(warehouse.database)
        self.graph = PropagationGraph([])
        #: Per-view watermark: the view reflects every change record with
        #: a global seq <= synced[view] (plus all data present at its
        #: last full recompute).
        self._synced: Dict[str, int] = {}
        self.coalesced_total = 0
        self.drains = 0
        self.recompile()

    # ------------------------------------------------------------- wiring
    @property
    def scheduler(self):
        """The warehouse's refresh scheduler (shared clock + breakers)."""
        return self.warehouse.scheduler()

    @property
    def propagator(self) -> DeltaPropagator:
        return DeltaPropagator(
            self.graph, self.warehouse.database, self.warehouse.engine
        )

    def recompile(self) -> PropagationGraph:
        """Rebuild the propagation graph for the installed design.

        Called by the warehouse whenever the view set changes
        (``design()`` / ``install_design()``).  New base dependencies
        get change logs; views already materialized *and fresh* start
        synced at the head (their contents reflect the current base
        state), anything else syncs on its first recompute.
        """
        views = list(self.warehouse.views)
        self.graph = PropagationGraph(views)
        for relation in self.graph.relations:
            self.changes.capture(relation)
        head = self.changes.head_seq
        installed = {view.name for view in views}
        for name in list(self._synced):
            if name not in installed:
                del self._synced[name]
        for view in views:
            if view.name in self._synced:
                continue
            if view.name in self.warehouse.database and (
                self.warehouse.is_fresh(view)
            ):
                self._synced[view.name] = head
        return self.graph

    def note_refresh(self, view_name: str) -> None:
        """A full recompute committed: the view reflects the head state."""
        self._synced[view_name] = self.changes.head_seq

    def watermark(self, view_name: str) -> Optional[int]:
        return self._synced.get(view_name)

    # ---------------------------------------------------------------- lag
    def _view(self, view_name: str):
        for view in self.warehouse.views:
            if view.name == view_name:
                return view
        raise StreamingError(f"unknown view {view_name!r}")

    def _pending(self, view) -> List[ChangeRecord]:
        watermark = self._synced.get(view.name, 0)
        records: List[ChangeRecord] = []
        for relation in sorted(view.base_relations):
            if self.changes.captures(relation):
                records.extend(
                    self.changes.log(relation).records_after(watermark)
                )
        records.sort(key=lambda r: r.seq)
        return records

    def lag_records(self, view_name: str) -> int:
        """LSN lag: pending change records the view has not absorbed."""
        return len(self._pending(self._view(view_name)))

    def lag_ticks(self, view_name: str) -> float:
        """Age (logical ticks) of the view's oldest unabsorbed record."""
        pending = self._pending(self._view(view_name))
        if not pending:
            return 0.0
        return max(0.0, self.scheduler.clock.now - pending[0].tick)

    def max_lag(self) -> int:
        """The worst record lag across materialized views."""
        lags = [
            self.lag_records(view.name)
            for view in self.warehouse.views
            if view.name in self.warehouse.database
        ]
        return max(lags, default=0)

    def staleness(self) -> Dict[str, int]:
        """Per-view LSN lag (the streaming bounded-staleness answer)."""
        return {
            view.name: self.lag_records(view.name)
            for view in self.warehouse.views
            if view.name in self.warehouse.database
        }

    # ------------------------------------------------------------- ingest
    def on_ingest(self) -> Optional[DrainReport]:
        """Backpressure check after appending change records.

        Drains immediately when any materialized view's lag exceeds the
        policy's record or tick bound; otherwise the records just queue
        (load leveling).
        """
        for view in self.warehouse.views:
            if view.name not in self.warehouse.database:
                continue
            if self.lag_records(view.name) > self.policy.max_lag_records:
                return self.drain()
            if self.lag_ticks(view.name) > self.policy.max_lag_ticks:
                return self.drain()
        return None

    # -------------------------------------------------------------- drain
    def drain(self) -> DrainReport:
        """Propagate every pending change record to every affected view.

        Processes maximal same-relation runs of the global change
        sequence (chunked at ``coalesce_records`` and cut at the
        watermarks of the views reading the relation); each run is
        coalesced, evaluated once against rewound overlays, and applied
        to its delta-eligible views atomically (shadow swap).  Views
        that cannot take the delta are recomputed through the
        scheduler's breaker-guarded batch path at the end.
        """
        warehouse = self.warehouse
        database = warehouse.database
        scheduler = self.scheduler
        self.drains += 1
        io_before = database.io.snapshot()
        head = self.changes.head_seq
        views = [
            view for view in warehouse.views if view.name in database
        ]
        by_name = {view.name: view for view in views}
        need_recompute: Dict[str, str] = {}
        updated: List[str] = []
        coalesced = 0

        min_watermark = min(
            (self._synced.get(view.name, 0) for view in views),
            default=head,
        )
        records: List[ChangeRecord] = []
        for relation in self.changes.relations:
            records.extend(
                self.changes.log(relation).records_after(min_watermark)
            )
        records.sort(key=lambda r: r.seq)

        # A run ends at the watermark of every view reading its relation,
        # so a view ahead of others is never handed records it absorbed.
        marks = {
            relation: {
                self._synced[view.name]
                for view in views
                if view.name in self._synced and view.depends_on(relation)
            }
            for relation in self.changes.relations
        }
        runs: List[Tuple[str, List[ChangeRecord]]] = []
        for record in records:
            if (
                runs
                and runs[-1][0] == record.relation
                and len(runs[-1][1]) < self.policy.coalesce_records
                and not any(
                    runs[-1][1][-1].seq <= mark < record.seq
                    for mark in marks[record.relation]
                )
            ):
                runs[-1][1].append(record)
            else:
                runs.append((record.relation, [record]))

        self._journal(
            "cdc.drain.begin", records=len(records), runs=len(runs),
            head_seq=head,
        )
        for relation, run in runs:
            first_seq, last_seq = run[0].seq, run[-1].seq
            inserts, deletes, cancelled = _coalesce(run)
            coalesced += cancelled
            targets = self._run_targets(
                views, relation, first_seq, last_seq, bool(deletes),
                need_recompute,
            )
            if targets and (inserts or deletes):
                rewinds = self._rewinds(relation, last_seq, targets)
                applied = self._apply_run(
                    relation, inserts, deletes, targets, rewinds,
                    need_recompute,
                )
                for view in applied:
                    self._synced[view.name] = last_seq
                    if view.name not in updated:
                        updated.append(view.name)
            else:
                for view in targets:
                    self._synced[view.name] = last_seq

        # Views fully caught up reflect the current base contents: no
        # retained record past their watermark over any dependency (and
        # no gap hiding evicted ones), so the watermark can jump to head.
        for view in views:
            if view.name in need_recompute or view.name not in self._synced:
                continue
            watermark = self._synced[view.name]
            if any(
                self.changes.log(r).has_gap(watermark)
                for r in sorted(view.base_relations)
                if self.changes.captures(r)
            ):
                need_recompute[view.name] = "gap"
                continue
            if not self._pending(view):
                self._synced[view.name] = head
                warehouse._mark_fresh(view)
        delta_io = database.io.since(io_before)
        scheduler.note_io(float(delta_io.total))

        # Degradation: batch-refresh (retry/backoff/breaker) everything
        # that could not absorb its deltas.  refresh_view marks the view
        # fresh on success, which advances the watermark to head via
        # note_refresh().
        failed: List[str] = []
        for name in sorted(need_recompute):
            outcome = scheduler.degrade(by_name[name], need_recompute[name])
            if not outcome.ok:
                failed.append(name)

        self._trim(views)
        self.coalesced_total += coalesced
        report = DrainReport(
            records=len(records),
            runs=len(runs),
            coalesced=coalesced,
            views_updated=tuple(sorted(updated)),
            views_recomputed=tuple(
                sorted(n for n in need_recompute if n not in failed)
            ),
            views_failed=tuple(sorted(failed)),
            io=database.io.since(io_before),
            head_seq=head,
        )
        if obs.enabled():
            registry = obs.metrics()
            if coalesced:
                registry.counter("cdc.coalesced").inc(coalesced)
            for view in views:
                registry.gauge("cdc.lag", view=view.name).set(
                    float(self.lag_records(view.name))
                )
        self._journal("cdc.drain.end", **report.to_dict())
        return report

    # ------------------------------------------------------------ internals
    def _trim(self, views: Sequence[Any]) -> None:
        """Trim each log through the lowest watermark of the ``views``
        reading its relation (a view without one has absorbed nothing),
        so a log keeps only records some view still needs."""
        for relation in self.changes.relations:
            through = min(
                (
                    self._synced.get(view.name, 0)
                    for view in views
                    if view.depends_on(relation)
                ),
                default=self.changes.head_seq,
            )
            self.changes.log(relation).trim(through)

    def _run_targets(
        self,
        views: Sequence[Any],
        relation: str,
        first_seq: int,
        last_seq: int,
        deletes: bool,
        need_recompute: Dict[str, str],
    ) -> List[Any]:
        """Views that must absorb the run ``[first_seq..last_seq]``.

        A view qualifies when its oldest unabsorbed record is exactly
        the start of this run and its edge takes the run's delta;
        anything behind (missed history, log gap, never synced) or
        whose edge does not (a recompute rule, or ``deletes`` reaching
        an insert-only edge) degrades to recompute, anything ahead
        skips.
        """
        targets = []
        for view in views:
            name = view.name
            if name in need_recompute or not view.depends_on(relation):
                continue
            watermark = self._synced.get(name)
            if watermark is None:
                need_recompute[name] = "unsynced"
                continue
            if any(
                self.changes.log(r).has_gap(watermark)
                for r in sorted(view.base_relations)
                if self.changes.captures(r)
            ):
                need_recompute[name] = "gap"
                continue
            if watermark >= last_seq:
                continue
            pending = self._pending(view)
            if not pending or pending[0].seq > last_seq:
                continue
            if pending[0].seq < first_seq:
                need_recompute[name] = "behind"
                continue
            rule = self.graph.rule(name, relation)
            if rule is None or rule.mode != MODE_DELTA:
                need_recompute[name] = rule.reason if rule else "no-edge"
                continue
            if deletes and rule.insert_only:
                need_recompute[name] = DELETE
                continue
            targets.append(view)
        return targets

    def _rewinds(
        self, relation: str, last_seq: int, targets: Sequence[Any]
    ) -> Dict[str, Table]:
        """Overlay tables restoring other relations to their state at
        ``last_seq`` (head rows minus future inserts plus future
        deletes), so a coalesced run evaluates against the base state it
        logically executed in."""
        others = sorted(  # lint: ignore[C102] — relation names, totally ordered
            {
                r
                for view in targets
                for r in view.base_relations
                if r != relation and self.changes.captures(r)
            }
        )
        rewinds: Dict[str, Table] = {}
        database = self.warehouse.database
        for name in others:
            future = self.changes.log(name).records_after(last_seq)
            if future:  # raw table: no fault, no I/O charge
                rewinds[name] = _rewound(database._tables[name], future)
        return rewinds

    def _apply_run(
        self,
        relation: str,
        inserts: List[Dict[str, Any]],
        deletes: List[Dict[str, Any]],
        targets: List[Any],
        rewinds: Dict[str, Table],
        need_recompute: Dict[str, str],
    ) -> List[Any]:
        """Propagate one coalesced run and commit the per-view deltas.

        Tries the shared-subplan batch evaluation first; if a fault
        interrupts it, falls back to per-view propagation so one failing
        view degrades alone instead of taking the whole run down."""
        injector = self.warehouse.fault_injector

        def guarded():
            return injector.maintenance() if injector is not None else nullcontext()

        def propagate(view_names: Sequence[str]) -> Dict[str, ViewDelta]:
            with guarded():
                return self.propagator.propagate(
                    relation, inserts, deletes, view_names, rewinds
                )

        deltas: Dict[str, ViewDelta] = {}
        try:
            deltas = propagate([view.name for view in targets])
        except ReproError:
            for view in targets:
                try:
                    deltas.update(propagate([view.name]))
                except ReproError as exc:
                    need_recompute[view.name] = "fault"
                    self._journal(
                        "cdc.propagate.fault", view=view.name,
                        relation=relation, error=str(exc),
                    )
        applied = []
        for view in targets:
            delta = deltas.get(view.name)
            if delta is None:
                if view.name not in need_recompute:
                    need_recompute[view.name] = "fault"
                continue
            try:
                with guarded():
                    committed = self._commit_delta(view, relation, delta)
            except ReproError as exc:
                need_recompute[view.name] = "fault"
                self._journal(
                    "cdc.apply.fault", view=view.name, relation=relation,
                    error=str(exc),
                )
                continue
            if not committed:
                need_recompute[view.name] = SUM_OVERFLOW
                continue
            applied.append(view)
        return applied

    def _commit_delta(self, view: Any, relation: str, delta: ViewDelta) -> bool:
        """Atomically swap the view to its stored rows with ``delta``
        applied (:func:`~repro.warehouse.maintenance.shadow_table`);
        ``False``, leaving the view as it was, on a SUM overflow."""
        warehouse = self.warehouse
        database = warehouse.database
        stored = database.table(view.name)
        shadow = shadow_table(
            view.plan, stored, delta.insert_rows, delta.delete_rows
        )
        if shadow is None:
            return False
        if shadow is not stored:
            database.register(view.name, shadow)
            warehouse.engine.build_cache.invalidate(view.name)
        warehouse._committed_cards[view.name] = shadow.cardinality
        self._journal(
            "cdc.apply", view=view.name, relation=relation,
            inserted=len(delta.insert_rows), deleted=len(delta.delete_rows),
            rows_after=shadow.cardinality,
        )
        if obs.enabled():
            obs.metrics().counter(
                "cdc.deltas_applied", view=view.name
            ).inc()
        return True

    # -------------------------------------------------------------- status
    def _journal(self, kind: str, **attributes: Any) -> None:
        if obs.enabled():
            obs.journal_event(
                kind, tick=self.scheduler.clock.now, **attributes
            )

    def to_dict(self) -> Dict[str, Any]:
        return {
            "policy": self.policy.to_dict(),
            "changes": self.changes.to_dict(),
            "graph": self.graph.to_dict(),
            "synced": dict(sorted(self._synced.items())),
            "coalesced_total": self.coalesced_total,
            "drains": self.drains,
        }
