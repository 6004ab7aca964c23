"""View maintenance: full recomputation and incremental (delta) refresh.

The paper assumes *recompute* maintenance ("re-computing is used whenever
an update of involved base relation occurs", Section 2) — that is the
default policy.  Incremental maintenance for insert-only deltas on SPJ
views is provided as the extension the paper's future-work section points
at, and is ablated in ``benchmarks/bench_ablation_maintenance.py``:
cheaper refresh shifts the weight formula's ``Cm`` term and can flip
materialization decisions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Optional

from repro import obs
from repro.algebra.operators import Aggregate, Operator, Project, Relation
from repro.errors import DeltaSchemaError, WarehouseError
from repro.executor.engine import Database, ExecutionEngine
from repro.executor.physical import charge_materialize
from repro.storage.block import IOSnapshot
from repro.storage.table import Table
from repro.warehouse.view import MaterializedView

RECOMPUTE = "recompute"
INCREMENTAL = "incremental"


def validate_delta_rows(
    schema, rows: Iterable[Mapping[str, object]], relation: str
) -> List[Mapping[str, object]]:
    """Check delta rows against the base relation's schema up front.

    Every attribute must be present (by qualified or short name) and no
    extra columns are allowed — a misspelt column would otherwise either
    vanish silently during normalization or blow up deep inside the
    overlay executor.  Raises :class:`~repro.errors.DeltaSchemaError`
    naming the offending row and columns; returns the rows as a list so
    one-shot iterables survive validation.
    """
    names = {attribute.name for attribute in schema}
    shorts = {attribute.short_name for attribute in schema}
    out: List[Mapping[str, object]] = []
    for index, row in enumerate(rows):
        unknown = [
            key for key in row if key not in names and key not in shorts
        ]
        missing = [
            attribute.name
            for attribute in schema
            if attribute.name not in row and attribute.short_name not in row
        ]
        if unknown or missing:
            raise DeltaSchemaError(
                relation, tuple(unknown), tuple(missing), index
            )
        out.append(row)
    return out


def _record_refresh(
    span, report: "RefreshReport", view: Optional[MaterializedView] = None
) -> None:
    """Attach a refresh outcome to its span and the per-policy metrics."""
    span.set(
        io_reads=report.io.reads,
        io_writes=report.io.writes,
        rows_after=report.rows_after,
    )
    if obs.enabled():
        registry = obs.metrics()
        registry.counter(
            "maintenance.refreshes", policy=report.policy
        ).inc()
        registry.histogram(
            "maintenance.io", policy=report.policy
        ).observe(report.io.total)
        if view is not None and view.estimated_maintenance is not None:
            # Calibrate the design's Cm annotation against the refresh
            # the executor actually performed (blocks of I/O).
            obs.calibration().record(
                "maintenance",
                view.name,
                report.policy,
                view.estimated_maintenance,
                float(report.io.total),
            )


@dataclass(frozen=True)
class RefreshReport:
    """Outcome of refreshing one view."""

    view: str
    policy: str
    io: IOSnapshot
    rows_after: int


class ViewMaintainer:
    """Maintains the stored contents of materialized views."""

    def __init__(self, database: Database, engine: Optional[ExecutionEngine] = None):
        self.database = database
        self.engine = engine or ExecutionEngine(database)

    # -------------------------------------------------------------- recompute
    def materialize(self, view: MaterializedView) -> RefreshReport:
        """(Re)compute ``view`` from base relations and store it."""
        with obs.span(
            "maintenance.refresh", view=view.name, policy=RECOMPUTE
        ) as span:
            before = self.database.io.snapshot()
            result = self.engine.execute(view.plan)
            stored = Table(result.schema, result.blocking_factor, io=self.database.io)
            stored.insert_many(result.rows(), count_io=False)
            charge_materialize(stored)
            self.database.register(view.name, stored)
            report = RefreshReport(
                view=view.name,
                policy=RECOMPUTE,
                io=self.database.io.since(before),
                rows_after=stored.cardinality,
            )
            _record_refresh(span, report, view)
        return report

    # ------------------------------------------------------------ incremental
    def incremental_refresh(
        self,
        view: MaterializedView,
        relation: str,
        delta_rows: Iterable[Mapping[str, object]],
    ) -> RefreshReport:
        """Apply an insert-only delta of ``relation`` to ``view``.

        For an SPJ view, the new tuples are exactly the view's plan
        evaluated with ``relation`` replaced by the delta — the classic
        counting-free insert rule.  Aggregate views fall back to
        recomputation, as do *self-join* views: substituting the delta
        for every occurrence of ``relation`` would evaluate ``δR ⋈ δR``
        instead of ``δR ⋈ R  ∪  R_old ⋈ δR``, silently dropping rows.
        Views with a duplicate-eliminating projection insert only delta
        tuples not already stored, preserving set semantics.

        The refresh is atomic: deltas are applied to a shadow copy that
        replaces the stored table only once fully built, so concurrent
        readers never observe a partially-refreshed view.  The shadow
        shares the stored rows, which were validated when written
        (:meth:`Table.copy`); only the delta's rows are validated, so
        the cost scales with the delta rather than the view.
        """
        if view.name not in self.database:
            raise WarehouseError(
                f"view {view.name!r} has not been materialized yet"
            )
        if not view.depends_on(relation):
            stored = self.database.table(view.name)
            return RefreshReport(
                view=view.name,
                policy=INCREMENTAL,
                io=IOSnapshot(0, 0),
                rows_after=stored.cardinality,
            )
        if any(isinstance(node, Aggregate) for node in view.plan.walk()):
            return self.materialize(view)
        references = sum(
            1
            for node in view.plan.walk()
            if isinstance(node, Relation) and node.name == relation
        )
        if references > 1:
            return self.materialize(view)
        distinct_plan = any(
            isinstance(node, Project) and node.distinct
            for node in view.plan.walk()
        )

        with obs.span(
            "maintenance.refresh", view=view.name, policy=INCREMENTAL,
            relation=relation,
        ) as span:
            before = self.database.io.snapshot()
            delta_table = self._delta_table(relation, delta_rows)
            overlay = _OverlayDatabase(self.database, {relation: delta_table})
            delta_engine = ExecutionEngine(
                overlay,
                self.engine.join_method,
                engine=self.engine.engine,
                batch_size=self.engine.batch_size,
            )
            delta_result = delta_engine.execute(view.plan)

            stored = self.database.table(view.name)
            new_rows = delta_result.rows()
            if distinct_plan:
                names = stored.schema.attribute_names
                existing = {
                    tuple(row[n] for n in names) for row in stored.rows()
                }
                new_rows = [
                    row
                    for row in new_rows
                    if tuple(row[n] for n in names) not in existing
                ]
            shadow = stored.copy()
            added = shadow.insert_many(new_rows, count_io=True)
            self.database.register(view.name, shadow)
            span.set(rows_added=added)
            report = RefreshReport(
                view=view.name,
                policy=INCREMENTAL,
                io=self.database.io.since(before),
                rows_after=shadow.cardinality,
            )
            _record_refresh(span, report, view)
        return report

    def _delta_table(
        self, relation: str, delta_rows: Iterable[Mapping[str, object]]
    ) -> Table:
        base = self.database.table(relation)
        delta = Table(base.schema, base.blocking_factor, io=self.database.io)
        for row in validate_delta_rows(base.schema, delta_rows, relation):
            delta.insert(row)
        return delta


class _OverlayDatabase(Database):
    """A database view where selected tables are substituted.

    Used to evaluate a view plan "as if" a base relation contained only
    the delta rows, while every other relation reads through to the real
    database (sharing its I/O counter).
    """

    def __init__(self, base: Database, overrides: Dict[str, Table]):
        super().__init__()
        self.io = base.io  # share accounting with the real database
        # Forward the injector: the vectorized engine keys build-side
        # caching (and FaultyTable wrapping) off this attribute, so a
        # delta evaluation must fail exactly like a direct one would.
        self.fault_injector = base.fault_injector
        self._base = base
        self._overrides = overrides

    def table(self, name: str) -> Table:
        if name in self._overrides:
            return self._overrides[name]
        return self._base.table(name)

    def __contains__(self, name: str) -> bool:
        return name in self._overrides or name in self._base


#: Public alias: the sharded serving path substitutes shard-union tables
#: through the same overlay mechanism incremental maintenance uses.
OverlayDatabase = _OverlayDatabase
