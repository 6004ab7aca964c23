"""Warehouse simulations: the multi-period cost replay and the lifecycle.

The paper's future work asks for "a good analytical model [to] simulate
various environments with different view mixes".  This module is that
simulator: it drives a loaded :class:`DataWarehouse` through N
maintenance periods, issuing each query ``fq`` times per period and
applying ``fu`` update batches per base relation, and measures the real
block I/O of both sides.  Comparing simulated totals across view mixes
validates the analytical ``C_total`` objective end to end
(`benchmarks/bench_simulation.py`).

Fractional frequencies (the example's ``fq(Q2) = 0.5``) are honoured by
carry-over accumulation: Q2 runs once every second period.

:func:`simulate_lifecycle` is the seeded end-to-end check of view
maintenance: design, load, then rounds of base inserts and deletes,
served queries and view maintenance, either deferred to the
:class:`~repro.resilience.scheduler.RefreshScheduler` (``"defer"``) or
streamed through the CDC drain loop (``"stream"``), optionally under a
seeded storage :class:`~repro.resilience.faults.FaultPolicy`.  Both
modes run the same two checks: every served answer is fresh,
stale-but-consistent or degraded, and at the end every view equals a
recompute with no partial write.  The result carries a content digest,
so a seed reproduces its run bit for bit.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Mapping, Optional

from repro.errors import WarehouseError
from repro.storage.table import items_order, row_items
from repro.warehouse.maintenance import INCREMENTAL, RECOMPUTE
from repro.warehouse.warehouse import DataWarehouse
from repro.workload.spec import Workload

if TYPE_CHECKING:
    from repro.cdc.policy import StreamingPolicy

RowFactory = Callable[[str, random.Random], Mapping[str, Any]]


@dataclass(frozen=True)
class SimulationConfig:
    """Knobs for a simulation run."""

    periods: int = 5
    seed: int = 0
    update_batch_size: int = 10
    maintenance_policy: str = RECOMPUTE

    def __post_init__(self) -> None:
        if self.periods < 1:
            raise WarehouseError("periods must be >= 1")
        if self.update_batch_size < 1:
            raise WarehouseError("update_batch_size must be >= 1")
        if self.maintenance_policy not in (RECOMPUTE, INCREMENTAL):
            raise WarehouseError(
                f"unsupported maintenance policy {self.maintenance_policy!r}"
            )


@dataclass
class SimulationReport:
    """Measured block I/O of one simulated horizon."""

    periods: int
    query_io: int = 0
    maintenance_io: int = 0
    query_executions: Dict[str, int] = field(default_factory=dict)
    update_batches: Dict[str, int] = field(default_factory=dict)

    @property
    def total_io(self) -> int:
        return self.query_io + self.maintenance_io

    @property
    def per_period_io(self) -> float:
        return self.total_io / self.periods


def default_row_factory(warehouse: DataWarehouse) -> RowFactory:
    """Synthesizes rows matching a relation's schema and, for integer
    columns that look like keys of another loaded relation, drawing
    values from that relation's observed key range so joins stay
    meaningful."""
    import datetime

    from repro.catalog.datatypes import DataType

    def factory(relation: str, rng: random.Random) -> Mapping[str, Any]:
        schema = warehouse.catalog.schema(relation)
        row: Dict[str, Any] = {}
        for attribute in schema:
            name = attribute.short_name
            if attribute.datatype is DataType.INTEGER:
                row[name] = rng.randrange(
                    max(_key_range(warehouse, relation, name), 1)
                )
            elif attribute.datatype is DataType.STRING:
                row[name] = f"sim{rng.randrange(100)}"
            elif attribute.datatype is DataType.FLOAT:
                row[name] = rng.random() * 100
            elif attribute.datatype is DataType.DATE:
                row[name] = datetime.date(1996, 1, 1) + datetime.timedelta(
                    days=rng.randrange(366)
                )
            else:
                row[name] = bool(rng.randrange(2))
        return row

    return factory


def _key_range(warehouse: DataWarehouse, relation: str, column: str) -> int:
    """A plausible value range for an integer column: the loaded
    cardinality of the relation the column appears to reference, else
    200 (the example's quantity range)."""
    for name in warehouse.database.table_names:
        if name == relation or name.startswith("mv_"):
            continue
        schema = warehouse.catalog.schema(name) if name in warehouse.catalog else None
        if schema is None:
            continue
        if column in schema:
            return max(warehouse.database.table(name).cardinality, 1)
    if relation in warehouse.catalog and column in warehouse.catalog.schema(relation):
        return max(warehouse.database.table(relation).cardinality, 200)
    return 200


class WarehouseSimulator:
    """Drives a loaded, materialized warehouse through update periods."""

    def __init__(
        self,
        warehouse: DataWarehouse,
        config: SimulationConfig = SimulationConfig(),
        row_factory: Optional[RowFactory] = None,
    ):
        self.warehouse = warehouse
        self.config = config
        self.row_factory = row_factory or default_row_factory(warehouse)

    def run(self) -> SimulationReport:
        """Simulate ``config.periods`` maintenance periods."""
        warehouse = self.warehouse
        rng = random.Random(self.config.seed)
        report = SimulationReport(periods=self.config.periods)
        workload = warehouse.workload

        query_credit: Dict[str, float] = {q.name: 0.0 for q in workload.queries}
        update_credit: Dict[str, float] = {
            name: 0.0 for name in workload.catalog.relation_names
        }

        for _ in range(self.config.periods):
            # Query side: each query runs ⌊accumulated fq⌋ times.
            for spec in workload.queries:
                query_credit[spec.name] += spec.frequency
                while query_credit[spec.name] >= 1.0:
                    query_credit[spec.name] -= 1.0
                    _, io = warehouse.execute(spec.name, use_views=True)
                    report.query_io += io.total
                    report.query_executions[spec.name] = (
                        report.query_executions.get(spec.name, 0) + 1
                    )
            # Update side: each relation receives ⌊accumulated fu⌋ batches.
            for relation in workload.catalog.relation_names:
                if relation not in warehouse.database:
                    continue
                update_credit[relation] += workload.update_frequency(relation)
                while update_credit[relation] >= 1.0:
                    update_credit[relation] -= 1.0
                    batch = [
                        self.row_factory(relation, rng)
                        for _ in range(self.config.update_batch_size)
                    ]
                    before = warehouse.database.io.snapshot()
                    warehouse.apply_update(
                        relation, batch, policy=self.config.maintenance_policy
                    )
                    report.maintenance_io += warehouse.database.io.since(
                        before
                    ).total
                    report.update_batches[relation] = (
                        report.update_batches.get(relation, 0) + 1
                    )
        return report


def simulate(
    warehouse: DataWarehouse,
    config: SimulationConfig = SimulationConfig(),
    row_factory: Optional[RowFactory] = None,
) -> SimulationReport:
    """Convenience wrapper around :class:`WarehouseSimulator`."""
    return WarehouseSimulator(warehouse, config, row_factory).run()


def row_multiset(rows) -> List[tuple]:
    """Rows as a sorted list of sorted ``(column, value)`` tuples.

    Two tables hold the same rows, in any order and counting
    duplicates, exactly when their multisets are equal.  NULLs sort
    first (:func:`~repro.storage.table.items_order`).
    """
    return sorted(map(row_items, rows), key=items_order)


@dataclass
class LifecycleResult:
    """Summary of one seeded :func:`simulate_lifecycle` run.

    ``staleness_samples`` hold the worst per-view lag after each
    round's writes: change records when streaming, update batches when
    deferred.  The drain and change-log counters stay 0 when deferred.
    The refresh counters cover every scheduler refresh of the run, so
    ``refreshes_succeeded`` equals the sum of ``final_epochs``.
    ``digest`` hashes the final view contents and the change-log
    counters.
    """

    workload: str
    maintenance: str
    failure_rate: float
    seed: int
    rounds: int
    inserts: int = 0
    deletes: int = 0
    records_appended: int = 0
    records_dropped: int = 0
    drains: int = 0
    backpressure_drains: int = 0
    coalesced: int = 0
    views_updated: int = 0
    views_recomputed: int = 0
    views_failed: int = 0
    refreshes_attempted: int = 0
    refreshes_succeeded: int = 0
    refreshes_failed: int = 0
    refreshes_skipped: int = 0
    retries: int = 0
    staleness_max: int = 0
    staleness_samples: List[int] = field(default_factory=list)
    queries_run: int = 0
    queries_fresh: int = 0
    queries_stale: int = 0
    queries_degraded: int = 0
    served_violations: int = 0
    view_violations: int = 0
    partial_writes: int = 0
    faults_injected: Dict[str, float] = field(default_factory=dict)
    converged: bool = False
    final_epochs: Dict[str, int] = field(default_factory=dict)
    final_ticks: float = 0.0
    digest: str = ""

    @property
    def ok(self) -> bool:
        """Converged, every answer and view consistent, no partial swap."""
        return (
            self.converged
            and self.served_violations == 0
            and self.view_violations == 0
            and self.partial_writes == 0
        )

    def to_dict(self) -> Dict[str, object]:
        return {
            "workload": self.workload,
            "maintenance": self.maintenance,
            "failure_rate": self.failure_rate,
            "seed": self.seed,
            "rounds": self.rounds,
            "changes": {
                "appended": self.records_appended,
                "dropped": self.records_dropped,
                "inserts": self.inserts,
                "deletes": self.deletes,
            },
            "drains": {
                "total": self.drains,
                "backpressure": self.backpressure_drains,
                "coalesced": self.coalesced,
                "views_updated": self.views_updated,
                "views_recomputed": self.views_recomputed,
                "views_failed": self.views_failed,
            },
            "refreshes": {
                "attempted": self.refreshes_attempted,
                "succeeded": self.refreshes_succeeded,
                "failed": self.refreshes_failed,
                "skipped": self.refreshes_skipped,
                "retries": self.retries,
            },
            "staleness": {
                "max": self.staleness_max,
                "samples": list(self.staleness_samples),
            },
            "queries": {
                "run": self.queries_run,
                "fresh": self.queries_fresh,
                "stale": self.queries_stale,
                "degraded": self.queries_degraded,
                "violations": self.served_violations,
            },
            "view_violations": self.view_violations,
            "partial_writes": self.partial_writes,
            "faults_injected": dict(self.faults_injected),
            "converged": self.converged,
            "final_epochs": dict(self.final_epochs),
            "final_ticks": self.final_ticks,
            "digest": self.digest,
            "ok": self.ok,
        }


def simulate_lifecycle(
    maintenance: str = "defer",
    failure_rate: float = 0.0,
    seed: int = 0,
    rounds: int = 3,
    scale: float = 0.02,
    streaming_policy: Optional["StreamingPolicy"] = None,
    workload: Optional[Workload] = None,
    rows: Optional[Mapping[str, List[Mapping[str, Any]]]] = None,
) -> LifecycleResult:
    """Run the seeded maintenance lifecycle and check its contracts.

    Designs and materializes the views over ``rows`` (default: the
    paper workload's rows at ``scale``).  Each round then inserts a
    slice of rows into each of the two most frequently updated
    relations, deletes one of those rows (the change log must cancel
    the pair) and one loaded row, serves every query, and maintains the
    views: a streaming drain when ``maintenance="stream"``, then
    scheduler passes until every view is fresh.  ``failure_rate > 0``
    attaches a seeded storage fault policy that fails maintenance I/O
    only, so refreshes retry, breakers open and answers degrade, while
    queries are still answered.  ``streaming_policy`` (a
    :class:`~repro.cdc.policy.StreamingPolicy`) bounds lag, batches and
    retention when streaming.
    """
    from repro.cdc.policy import DEFAULT_STREAMING_POLICY
    from repro.mvpp.config import DesignConfig
    from repro.resilience.config import ResilienceConfig
    from repro.resilience.faults import FaultPolicy
    from repro.workload import paper_workload
    from repro.workload.datagen import paper_rows

    if maintenance not in ("defer", "stream"):
        raise WarehouseError(
            f"maintenance must be 'defer' or 'stream': {maintenance!r}"
        )
    if not 0.0 <= failure_rate <= 1.0:
        raise WarehouseError(f"failure_rate must be in [0, 1]: {failure_rate}")
    if rounds < 1:
        raise WarehouseError(f"rounds must be >= 1: {rounds}")
    if scale <= 0:
        raise WarehouseError(f"scale must be > 0: {scale}")
    if workload is None:
        workload = paper_workload()
    if rows is None:
        rows = paper_rows(scale=scale, seed=seed)
    policy = None
    if maintenance == "stream":
        policy = streaming_policy or DEFAULT_STREAMING_POLICY

    warehouse = DataWarehouse.from_workload(workload)
    warehouse.design(DesignConfig(seed=seed, streaming=policy))
    for relation, relation_rows in rows.items():
        warehouse.load(relation, relation_rows)
    warehouse.materialize()

    injector = None
    if failure_rate > 0:
        injector = warehouse.attach_faults(
            FaultPolicy(storage_failure_rate=failure_rate, seed=seed)
        )
    scheduler = warehouse.scheduler(ResilienceConfig(seed=seed), injector)
    streaming = (
        warehouse.enable_streaming(policy) if policy is not None else None
    )

    result = LifecycleResult(
        workload=workload.name,
        maintenance=maintenance,
        failure_rate=failure_rate,
        seed=seed,
        rounds=rounds,
    )
    reports: List[Any] = []  # every DrainReport, in order

    def staleness() -> Dict[str, int]:
        if streaming is not None:
            return streaming.staleness()
        return {
            view.name: warehouse.staleness(view)
            for view in warehouse.views
            if view.name in warehouse.database
        }

    def counted_refresh(view, refresh=scheduler.refresh_view):
        outcome = refresh(view)
        result.refreshes_attempted += outcome.attempts
        if outcome.status == "refreshed":
            result.refreshes_succeeded += 1
            result.retries += outcome.attempts - 1
        elif outcome.status == "failed":
            result.refreshes_failed += 1
            result.retries += outcome.attempts - 1
        else:
            result.refreshes_skipped += 1
        return outcome

    # Count every refresh the scheduler runs: each pass of
    # refresh_until_converged and each batch fallback of a drain
    # (scheduler.degrade), including drains inside writes and serves.
    scheduler.refresh_view = counted_refresh

    def maintain() -> None:
        if streaming is not None:
            reports.append(streaming.drain())
        scheduler.refresh_until_converged()

    # The two hottest relations by update frequency carry the writes.
    hot = sorted(
        rows, key=lambda name: (-workload.update_frequency(name), name)
    )[:2]
    deletable = {name: list(rows[name]) for name in hot}

    for round_index in range(rounds):
        for relation in hot:
            pool = rows[relation]
            width = max(1, len(pool) // 50)
            start = (round_index * width) % len(pool)
            delta = [
                dict(pool[(start + k) % len(pool)]) for k in range(width)
            ]
            drains_before = streaming.drains if streaming is not None else 0
            warehouse.apply_update(relation, delta, policy=maintenance)
            result.inserts += len(delta)
            # Insert-then-delete of the same row within a round: the
            # coalescer must cancel the pair exactly.
            warehouse.apply_delete(relation, [delta[0]], policy=maintenance)
            result.deletes += 1
            if deletable[relation]:
                victim = deletable[relation].pop(0)
                warehouse.apply_delete(relation, [victim], policy=maintenance)
                result.deletes += 1
            if streaming is not None:
                result.backpressure_drains += streaming.drains - drains_before

        lags = staleness()
        if lags:
            sample = max(lags.values())
            result.staleness_samples.append(sample)
            result.staleness_max = max(result.staleness_max, sample)

        # Failure window: views may lag or fail to refresh, but every
        # answer must be fresh, stale-but-consistent or degraded.
        for spec in workload.queries:
            served = warehouse.serve(
                spec.name,
                max_staleness=(
                    policy.max_lag_records if policy is not None else None
                ),
            )
            result.queries_run += 1
            if served.degraded:
                result.queries_degraded += 1
            elif served.max_staleness > 0:
                result.queries_stale += 1
            else:
                result.queries_fresh += 1
            if not _consistent(warehouse, spec.name, served):
                result.served_violations += 1

        maintain()

    # Final catch-up so the view check compares head against head.
    maintain()

    if streaming is not None:
        result.drains = streaming.drains
        result.coalesced = streaming.coalesced_total
        result.records_appended = streaming.changes.head_seq
        result.records_dropped = streaming.changes.dropped_total()
        result.views_updated = len(
            {name for r in reports for name in r.views_updated}
        )
        result.views_recomputed = len(
            {name for r in reports for name in r.views_recomputed}
        )
        result.views_failed = len(reports[-1].views_failed)
    if injector is not None:
        result.faults_injected = injector.stats()
    result.final_epochs = {
        view.name: scheduler.epoch(view.name) for view in warehouse.views
    }
    result.final_ticks = scheduler.clock.now

    digest = hashlib.sha256()
    for view in warehouse.views:
        stored = warehouse.database.table(view.name)
        recomputed = warehouse.engine.execute(view.plan).rows()
        if row_multiset(stored.rows()) != row_multiset(recomputed):
            result.view_violations += 1
        committed = warehouse.committed_cardinality(view.name)
        if committed is not None and committed != stored.cardinality:
            result.partial_writes += 1
        digest.update(view.name.encode())
        digest.update(repr(row_multiset(stored.rows())).encode())
    result.converged = not warehouse.stale_views() and (
        streaming is None
        or (reports[-1].converged and streaming.max_lag() == 0)
    )
    digest.update(
        repr(
            (
                result.records_appended,
                result.coalesced,
                result.drains,
                sorted(staleness().items()),
            )
        ).encode()
    )
    result.digest = digest.hexdigest()[:12]
    return result


def _consistent(warehouse: DataWarehouse, query_name: str, served) -> bool:
    """A served answer must be fresh, stale-but-consistent or degraded.

    Fresh and degraded answers must equal the view-free answer over the
    current base data.  A stale answer may differ from it, but every
    view it read must be a complete committed snapshot: the maintainer
    only swaps complete shadow tables, so each view's stored
    cardinality must match the one recorded at its last swap.
    """
    if served.degraded or served.max_staleness == 0 or not served.views_used:
        fresh, _ = warehouse.execute(query_name, use_views=False)
        return row_multiset(served.table.rows()) == row_multiset(fresh.rows())
    for name in served.views_used:
        if name not in warehouse.database:
            return False
        recorded = warehouse.committed_cardinality(name)
        if recorded is not None and (
            warehouse.database.table(name).cardinality != recorded
        ):
            return False
    return True
