"""View maintenance: full recomputation and delta rules.

The paper assumes *recompute* maintenance ("re-computing is used whenever
an update of involved base relation occurs", Section 2) — that is the
default policy.  Incremental maintenance is provided as the extension
the paper's future-work section points at, and is ablated in
``benchmarks/bench_ablation_maintenance.py``: cheaper refresh shifts the
weight formula's ``Cm`` term and can flip materialization decisions.

Both incremental paths — batch :meth:`ViewMaintainer.incremental_refresh`
and streaming :class:`repro.cdc.streaming.StreamingMaintainer` — apply
one set of delta rules: :func:`fallback_reason` classifies an edge,
:func:`delta_table` builds the delta and :func:`shadow_table` the new
stored table.

Rules, for a batch δR of inserted or deleted rows of relation ``R``:

* **linear** — every node is a Select, a Join or a non-DISTINCT
  Project (:func:`is_linear`) and ``R`` occurs once:
  ``δV = plan[R := δR]``; inserted rows are appended and deleted rows
  removed (bag semantics);
* **insert-only DISTINCT** — a DISTINCT Project at the root of a linear
  body: inserted rows not already stored are appended;
* **insert-only aggregate** — the root is the plan's only Aggregate,
  its body is linear and every spec is COUNT, MIN, MAX or a SUM over an
  INTEGER attribute: one partial aggregate per touched group, merged
  into the stored groups (:func:`merge_groups`);
* anything else recomputes, under the reason :func:`fallback_reason`
  names.  So does a delete that reaches an insert-only edge
  (``delete``): the store keeps no per-row or per-group counts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro import obs
from repro.algebra.operators import (
    Aggregate,
    AggregateFunction,
    Join,
    Operator,
    Project,
    Relation,
    Select,
)
from repro.catalog.datatypes import DataType
from repro.errors import DeltaSchemaError, WarehouseError
from repro.executor.engine import Database, ExecutionEngine
from repro.executor.physical import charge_materialize
from repro.storage.block import IOSnapshot
from repro.storage.table import Table
from repro.warehouse.view import MaterializedView

RECOMPUTE = "recompute"
INCREMENTAL = "incremental"

#: Why a view recomputed instead of taking a delta: the ``reason`` label
#: of ``maintenance.recompute_fallbacks``, of a recompute-mode
#: :class:`~repro.cdc.propagation.EdgeRule` and of ``cdc.degraded``.
SELF_JOIN = "self-join"
NON_LINEAR = "non-linear"
NESTED_AGGREGATE = "nested-aggregate"
AGGREGATE_SHAPE = "aggregate-shape"
AVG = "avg"
FLOAT_SUM = "float-sum"
SUM_OVERFLOW = "sum-overflow"
DELETE = "delete"

#: Every integer of smaller magnitude is an exact float, so SUMs below
#: it add exactly; one reaching it is recomputed (``SUM_OVERFLOW``).
EXACT_SUM_LIMIT = 2.0 ** 53


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
        #: Set while :meth:`materialize` runs as an incremental refresh's
        #: fallback, so its span names the reason.
        self._fallback_reason: Optional[str] = None

    # -------------------------------------------------------------- recompute
    def materialize(self, view: MaterializedView) -> RefreshReport:
        """(Re)compute ``view`` from base relations and store it."""
        with obs.span(
            "maintenance.refresh", view=view.name, policy=RECOMPUTE
        ) as span:
            if self._fallback_reason is not None:
                span.set(fallback_reason=self._fallback_reason)
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

    def _fall_back(self, view: MaterializedView, reason: str) -> RefreshReport:
        """Recompute ``view`` because its delta rule does not apply."""
        if obs.enabled():
            obs.metrics().counter(
                "maintenance.recompute_fallbacks", reason=reason
            ).inc()
        self._fallback_reason = reason
        try:
            return self.materialize(view)
        finally:
            self._fallback_reason = None

    # ------------------------------------------------------------ incremental
    def incremental_refresh(
        self,
        view: MaterializedView,
        relation: str,
        delta_rows: Iterable[Mapping[str, object]],
        *,
        delta: Optional[Table] = None,
    ) -> RefreshReport:
        """Apply an insert delta of ``relation`` to ``view``.

        The view's plan is evaluated with ``relation`` replaced by the
        delta, and :func:`shadow_table` applies the result: appended
        for a linear view, deduplicated for a root DISTINCT, merged
        group by group for a self-maintainable aggregate (see the
        module docstring).

        Every other shape recomputes (:meth:`materialize`), counted as
        ``maintenance.recompute_fallbacks{reason}`` and named by the
        span's ``fallback_reason``:

        * ``self-join`` — ``relation`` occurs more than once:
          substituting the delta for every occurrence would evaluate
          ``δR ⋈ δR`` instead of ``δR ⋈ R  ∪  R_old ⋈ δR``;
        * ``non-linear`` — no Aggregate, and a Sort, a Limit or a
          DISTINCT below the root: the new rows' place in the order, a
          limit's cut and a nested duplicate elimination all depend on
          the rows already there;
        * ``nested-aggregate`` — more than one Aggregate;
        * ``aggregate-shape`` — the Aggregate is not the root, or its
          body holds a DISTINCT projection, a sort or a limit;
        * ``avg`` — an AVG spec: a stored mean cannot absorb new
          values without the group's own sum and count;
        * ``float-sum`` — a SUM over a non-INTEGER attribute, whose
          float additions would not reproduce a recompute bit for bit;
        * ``sum-overflow`` — a merged SUM would reach 2^53, beyond
          which float addition is no longer exact.  The delta has
          been evaluated by then; its I/O stays on the counter.

        The refresh is atomic: the delta is applied to a shadow that
        replaces the stored table only once fully built, so concurrent
        readers never observe a partially-refreshed view.  A grouped
        aggregate view whose delta touches no group is left as it is.

        ``delta`` is :func:`delta_table` of ``delta_rows`` when the
        caller already built it: one update's delta is built once and
        shared, read-only, by every affected view
        (:meth:`DataWarehouse.apply_update`).
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
        reason = fallback_reason(view.plan, relation)
        if reason is not None:
            return self._fall_back(view, reason)

        with obs.span(
            "maintenance.refresh", view=view.name, policy=INCREMENTAL,
            relation=relation,
        ) as span:
            before = self.database.io.snapshot()
            if delta is None:
                delta = delta_table(self.database, relation, delta_rows)
            overlay = OverlayDatabase(self.database, {relation: delta})
            delta_result = self.engine.over(overlay).execute(view.plan)
            stored = self.database.table(view.name)
            shadow = shadow_table(view.plan, stored, delta_result.rows())
            if shadow is not None:
                if shadow is not stored:
                    self.database.register(view.name, shadow)
                span.set(rows_added=shadow.cardinality - stored.cardinality)
                report = RefreshReport(
                    view=view.name,
                    policy=INCREMENTAL,
                    io=self.database.io.since(before),
                    rows_after=shadow.cardinality,
                )
                _record_refresh(span, report, view)
                return report
            span.set(fallback_reason=SUM_OVERFLOW)
        return self._fall_back(view, SUM_OVERFLOW)


def delta_table(
    database: Database, relation: str, rows: Iterable[Mapping[str, object]]
) -> Table:
    """The delta of ``relation`` as a table: the base relation's schema,
    blocking factor and I/O counter, rows checked by
    :func:`validate_delta_rows` and normalized once, no I/O charged.
    Built once and shared, read-only, by every view it reaches."""
    base = database.table(relation)
    delta = Table(base.schema, base.blocking_factor, io=database.io)
    for row in validate_delta_rows(base.schema, rows, relation):
        delta.insert(row)
    return delta


def shadow_table(
    plan: Operator,
    stored: Table,
    inserts: Sequence[Mapping[str, object]],
    deletes: Sequence[Mapping[str, object]] = (),
) -> Optional[Table]:
    """The view's new contents: ``stored`` with an evaluated delta applied.

    ``inserts`` / ``deletes`` are ``plan`` evaluated over one relation's
    inserted / deleted rows, for an edge :func:`fallback_reason` accepts.
    A linear view starts from :meth:`Table.copy`, so only the delta's
    rows are validated, removes the deleted rows and appends the
    inserted ones; a root DISTINCT appends only rows not stored yet.  An
    aggregate view's groups are merged (:func:`merge_groups`), charging
    a read of the view and a write of the shadow; an empty grouped delta
    returns ``stored`` itself.  ``None`` means a merged SUM would reach
    :data:`EXACT_SUM_LIMIT`.  An :func:`insert_only` plan takes no
    deletes.
    """
    if deletes and insert_only(plan):
        raise WarehouseError(
            "an insert-only view cannot absorb deletes; recompute it"
        )
    if isinstance(plan, Aggregate):
        if not inserts:
            return stored  # only a grouped aggregate can yield no rows
        merged = merge_groups(
            plan, stored.schema.attribute_names, list(stored.scan()), inserts
        )
        if merged is None:
            return None
        shadow = Table(stored.schema, stored.blocking_factor, io=stored.io)
        # Untouched groups keep their validated row dicts (as in
        # Table.copy); only merged and new groups are validated.
        shadow._rows = [
            shadow._normalize(row) if fresh else row for row, fresh in merged
        ]
        charge_materialize(shadow)
        return shadow
    shadow = stored.copy()
    if deletes:
        shadow.delete_many(deletes, count_io=True)
    if isinstance(plan, Project) and plan.distinct:
        names = shadow.schema.attribute_names
        seen = {tuple(row[n] for n in names) for row in shadow.rows()}
        unique = []
        for row in inserts:
            key = tuple(row[n] for n in names)
            if key not in seen:
                seen.add(key)
                unique.append(row)
        inserts = unique
    shadow.insert_many(inserts, count_io=True)
    return shadow


def is_linear(node: Operator) -> bool:
    """Whether ``node`` passes a delta through unchanged in kind:
    a Select, a Join or a non-DISTINCT Project."""
    return isinstance(node, (Select, Join)) or (
        isinstance(node, Project) and not node.distinct
    )


def insert_only(plan: Operator) -> bool:
    """Whether ``plan``'s delta rule takes inserts only: its root is an
    Aggregate or a DISTINCT Project."""
    return isinstance(plan, Aggregate) or (
        isinstance(plan, Project) and plan.distinct
    )


def _linear_tree(node: Operator) -> bool:
    """Whether every node of ``node``'s tree is a leaf or :func:`is_linear`."""
    return isinstance(node, Relation) or (
        is_linear(node) and all(_linear_tree(child) for child in node.children)
    )


def fallback_reason(plan: Operator, relation: str) -> Optional[str]:
    """Why a delta of ``relation`` must recompute ``plan``, if it must.

    The one classifier of both incremental paths; ``None`` means a rule
    of the module docstring applies, and the reasons are listed at
    :meth:`ViewMaintainer.incremental_refresh`.  The SUM overflow guard
    depends on the data and is checked while merging.
    """
    nodes = list(plan.walk())
    references = sum(
        1 for node in nodes if isinstance(node, Relation) and node.name == relation
    )
    if references > 1:
        return SELF_JOIN
    aggregates = [node for node in nodes if isinstance(node, Aggregate)]
    if not aggregates:
        body = plan.child if insert_only(plan) else plan
        return None if _linear_tree(body) else NON_LINEAR
    if len(aggregates) > 1:
        return NESTED_AGGREGATE
    if plan is not aggregates[0] or not _linear_tree(plan.child):
        return AGGREGATE_SHAPE
    for spec in plan.aggregates:
        if spec.function is AggregateFunction.AVG:
            return AVG
        if spec.function is AggregateFunction.SUM and (
            plan.child.schema.attribute(spec.attribute).datatype
            is not DataType.INTEGER
        ):
            return FLOAT_SUM
    return None


class _InexactSum(Exception):
    """A merged SUM reached :data:`EXACT_SUM_LIMIT`."""


def _combine(function: AggregateFunction, old, new):
    """One spec's stored value merged with its delta partial."""
    if old is None:
        return new  # NULL is every function's identity
    if new is None:
        return old
    if function is AggregateFunction.MIN:
        return min(old, new)
    if function is AggregateFunction.MAX:
        return max(old, new)
    total = old + new  # COUNT, or a SUM of INTEGER values (a float)
    if function is AggregateFunction.SUM and max(
        abs(old), abs(new), abs(total)
    ) >= EXACT_SUM_LIMIT:
        raise _InexactSum
    return total


def merge_groups(
    aggregate: Aggregate,
    names: Sequence[str],
    stored_rows: Sequence[Dict[str, object]],
    delta_rows: Sequence[Mapping[str, object]],
) -> Optional[List[Tuple[Mapping[str, object], bool]]]:
    """Merge per-group partial aggregates into the stored groups.

    ``names`` is the view schema's attribute names: the group-by keys,
    then one per spec.  COUNT and SUM add, MIN and MAX keep the
    extreme, NULL is the identity; a delta group not stored is appended.
    Returns ``(row, fresh)`` pairs in stored order then new groups in
    delta order, ``fresh`` marking rows built here (the rest are the
    stored dicts themselves), or ``None`` when a SUM would reach
    :data:`EXACT_SUM_LIMIT`.  The result equals a recompute as a
    multiset, not in row order.
    """
    width = len(aggregate.group_by)
    key_names = names[:width]
    specs = list(zip(names[width:], (s.function for s in aggregate.aggregates)))
    merged: List[Tuple[Mapping[str, object], bool]] = [
        (row, False) for row in stored_rows
    ]
    position = {
        tuple(row[n] for n in key_names): index
        for index, row in enumerate(stored_rows)
    }
    try:
        for row in delta_rows:
            key = tuple(row[n] for n in key_names)
            index = position.get(key)
            if index is None:
                position[key] = len(merged)
                merged.append((row, True))
                continue
            old = merged[index][0]
            new = dict(old)
            for name, function in specs:
                new[name] = _combine(function, old[name], row[name])
            merged[index] = (new, True)
    except _InexactSum:
        return None
    return merged


class OverlayDatabase(Database):
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

    def version(self, name: str) -> Optional[int]:
        """The base version of a table read through; ``None`` if substituted.

        A build over a substituted table (a delta, a rewound relation, a
        shared cdc delta) is therefore never cached, while builds over
        the rest share the base engine's :class:`BuildSideCache`.
        """
        if name in self._overrides:
            return None
        return self._base.version(name)

    def __contains__(self, name: str) -> bool:
        return name in self._overrides or name in self._base
