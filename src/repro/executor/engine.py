"""Plan execution over a database of in-memory tables.

The :class:`ExecutionEngine` runs logical operator trees through one of
two execution engines sharing a single semantics:

* ``vectorized`` (the default) — :class:`~repro.executor.physical.PhysicalPlanner`
  lowers the logical plan to a physical operator tree, then drives it
  columnar batch-at-a-time over
  :class:`~repro.storage.columnar.ColumnView` chunks.  The tree is kept
  in the engine's :class:`~repro.executor.physical.PlanCache` and run
  again, with its scans bound to the executing database's tables, on
  every later execute of the same plan object.  Hash-join build sides
  are reused across refreshes through the engine's
  :class:`~repro.executor.physical.BuildSideCache`.
* ``reference`` — the original row-at-a-time operators (the private
  ``repro.executor._rowwise`` module), kept as the behavioural oracle
  the equivalence suite checks the vectorized engine against.

Both engines produce bit-identical rows and charge identical block I/O
to the same counters, so a query's measured I/O is directly comparable
with the cost model's prediction regardless of engine.  The join
implementation (nested-loop, per the paper, or hash / sort-merge /
index-nested-loop) is selected per engine instance.
"""

from __future__ import annotations

from typing import Dict, Iterable, Mapping, Optional, Tuple

from repro import obs
from repro.algebra.operators import (
    Aggregate,
    Join,
    Limit,
    Operator,
    Project,
    Relation,
    Select,
    Sort,
)
from repro.errors import ExecutionError
from repro.storage.block import IOCounter, IOSnapshot
from repro.storage.table import DEFAULT_BLOCKING_FACTOR, Table
from repro.executor.physical import (
    HASH,
    INDEX_NESTED_LOOP,
    NESTED_LOOP,
    SORT_MERGE,
    BuildSideCache,
    ExecutionContext,
    PhysicalOperator,
    PhysicalPlanner,
    PlanCache,
    materialize,
    table_from_columns,
    unbind,
    verify_logical,
    verify_physical,
)
from repro.executor.batch import DEFAULT_BATCH_SIZE

#: Execution engines.
VECTORIZED = "vectorized"
REFERENCE = "reference"

JOIN_METHODS = (NESTED_LOOP, HASH, INDEX_NESTED_LOOP, SORT_MERGE)
ENGINES = (VECTORIZED, REFERENCE)


class Database:
    """A named collection of tables sharing one I/O counter.

    When a :class:`repro.resilience.faults.FaultInjector` is attached
    (``fault_injector``), :meth:`table` hands out fault-injecting
    proxies sharing the stored rows, so seeded storage failures fire at
    the same boundary real I/O errors would.

    Every registration or drop bumps the relation's *version*
    (:meth:`version`) — the freshness epoch build-side and cost caches
    key their validity on.
    """

    def __init__(self) -> None:
        self.io = IOCounter()
        self._tables: Dict[str, Table] = {}
        self._versions: Dict[str, int] = {}
        self.fault_injector = None
        #: Optional :class:`repro.cdc.changelog.ChangeLogSet` capturing
        #: writes on registered base relations; :meth:`register` notifies
        #: it so hooks survive table replacement (a reload registers a
        #: brand-new Table object).
        self.change_capture = None

    def register(self, name: str, table: Table) -> Table:
        """Register ``table`` under ``name``, adopting the shared counter."""
        table.io = self.io
        self._tables[name] = table
        self._versions[name] = self._versions.get(name, 0) + 1
        if self.change_capture is not None:
            self.change_capture.on_register(name, table)
        return table

    def table(self, name: str) -> Table:
        try:
            table = self._tables[name]
        except KeyError:
            raise ExecutionError(f"no table named {name!r} is loaded") from None
        if self.fault_injector is not None:
            from repro.resilience.faults import FaultyTable

            return FaultyTable(table, name, self.fault_injector)
        return table

    def drop(self, name: str) -> None:
        if self._tables.pop(name, None) is not None:
            self._versions[name] = self._versions.get(name, 0) + 1

    def version(self, name: str) -> int:
        """Monotonic registration epoch for ``name`` (0 = never seen)."""
        return self._versions.get(name, 0)

    def __contains__(self, name: str) -> bool:
        return name in self._tables

    @property
    def table_names(self) -> Tuple[str, ...]:
        return tuple(self._tables)


class ExecutionEngine:
    """Executes logical plans against a :class:`Database`."""

    def __init__(
        self,
        database: Database,
        join_method: str = NESTED_LOOP,
        engine: str = VECTORIZED,
        batch_size: int = DEFAULT_BATCH_SIZE,
        lint: bool = False,
    ):
        if join_method not in JOIN_METHODS:
            raise ExecutionError(f"unknown join method {join_method!r}")
        if engine not in ENGINES:
            raise ExecutionError(f"unknown execution engine {engine!r}")
        if batch_size < 1:
            raise ExecutionError(f"batch size must be >= 1: {batch_size}")
        self.database = database
        self.join_method = join_method
        self.engine = engine
        self.batch_size = batch_size
        #: When set (``DesignConfig.lint``), every lowering runs the plan
        #: verifier and error-severity findings raise ``LintError``.
        self.lint = lint
        self.build_cache = BuildSideCache()
        self.plan_cache = PlanCache()

    def over(self, database: Database) -> "ExecutionEngine":
        """An engine with this one's settings reading ``database``.

        Delta and shard-union evaluations run on an overlay of this
        engine's database.  The returned engine shares this one's
        :class:`BuildSideCache`: the overlay reports no version for the
        tables it substitutes, so only builds over relations it passes
        through are stored or reused.  It shares the :class:`PlanCache`
        too: a cached tree binds its scans to whichever database runs
        it, and a delta table has its base relation's schema and
        blocking factor, so a view plan lowers once for its
        recomputes and its delta evaluations alike.
        """
        engine = ExecutionEngine(
            database,
            self.join_method,
            engine=self.engine,
            batch_size=self.batch_size,
        )
        engine.build_cache = self.build_cache
        engine.plan_cache = self.plan_cache
        return engine

    # ------------------------------------------------------------ public API
    def execute(self, plan: Operator, *, engine: Optional[str] = None) -> Table:
        """Run ``plan`` and return its result table (I/O is accumulated).

        ``engine`` overrides the engine chosen at construction for this
        one call — the hook the equivalence suite and ``--engine`` CLI
        flag use.
        """
        if self._resolve_engine(engine) == REFERENCE:
            if self.lint:
                # The reference path never lowers, so it verifies the
                # logical plan directly (P001-P007; P008 is a lowering
                # property and does not apply).
                from repro.lint.plans import verify_plan

                report = verify_plan(plan, name=plan.schema.name)
                report.publish()
                report.raise_on_errors()
            return self._reference_execute(plan)
        return self._vectorized_execute(plan)

    def run(
        self, plan: Operator, *, engine: Optional[str] = None
    ) -> Tuple[Table, IOSnapshot]:
        """Execute ``plan`` and return (result, I/O consumed by this run)."""
        with obs.span(
            "execution.query", join_method=self.join_method
        ) as span:
            before = self.database.io.snapshot()
            result = self.execute(plan, engine=engine)
            io = self.database.io.since(before)
            span.set(
                blocks_read=io.reads,
                blocks_written=io.writes,
                rows=result.cardinality,
            )
            if obs.enabled():
                registry = obs.metrics()
                registry.counter("executor.blocks_read").inc(io.reads)
                registry.counter("executor.blocks_written").inc(io.writes)
                registry.histogram("executor.query_io").observe(io.total)
        return result, io

    def explain(self, plan: Operator, *, engine: Optional[str] = None) -> str:
        """The plan as the chosen engine would run it.

        The vectorized engine shows the *physical* operator tree
        (lowered without requiring tables to be loaded); the reference
        engine shows the logical tree it walks directly.  Plan-verifier
        findings (rules P001-P008) are appended as ``plan diagnostics``
        lines — explain reports problems instead of raising on them.
        """
        from repro.lint.plans import verify_lowering, verify_plan

        if self._resolve_engine(engine) == REFERENCE:
            text = plan.describe()
            report = verify_plan(plan, name=plan.schema.name)
        else:
            root = self.physical_plan(plan, require_tables=False, lint=False)
            text = root.describe()
            report = verify_lowering(plan, root, name=plan.schema.name)
        if report.diagnostics:
            lines = [d.render() for d in report.sorted()]
            text += "\nplan diagnostics:\n" + "\n".join(
                f"  {line}" for line in lines
            )
        return text

    def physical_plan(
        self,
        plan: Operator,
        require_tables: bool = True,
        lint: Optional[bool] = None,
    ) -> PhysicalOperator:
        """Lower ``plan`` to this engine's physical operator tree.

        Always a fresh lowering, bound to the database's tables; the
        execute path goes through the engine's :class:`PlanCache`
        instead.  ``lint`` overrides the engine-level flag for this one
        lowering (``explain`` lowers with linting off and reports findings
        instead of raising).
        """
        planner = PhysicalPlanner(
            self.database,
            self.join_method,
            require_tables=require_tables,
            lint=self.lint if lint is None else lint,
        )
        return planner.lower(plan)

    def _resolve_engine(self, engine: Optional[str]) -> str:
        if engine is None:
            return self.engine
        if engine not in ENGINES:
            raise ExecutionError(f"unknown execution engine {engine!r}")
        return engine

    # ------------------------------------------------------------ vectorized
    def _vectorized_execute(self, plan: Operator) -> Table:
        recording = obs.enabled()
        if isinstance(plan, Relation):
            table = self.database.table(plan.name)
            self._check_schema(plan, table)
            self._record_root(plan, table.cardinality, 0.0, recording)
            return table
        before = self.database.io.snapshot() if recording else None
        root, scans, outcome = self.plan_cache.lookup(plan, self.database)
        if root is None:
            root = self.physical_plan(plan)
            scans = self.plan_cache.store(plan, root)
        if recording:
            obs.metrics().counter(
                "executor.plan_cache", outcome=outcome
            ).inc()
        try:
            if outcome == "hit" and self.lint:
                # A cached tree is verified on every execute, as its
                # lowering would have been.
                verify_logical(plan)
                verify_physical(plan, root)
            ctx = ExecutionContext(
                io=self.database.io,
                batch_size=self.batch_size,
                cache=(
                    self.build_cache
                    if self.database.fault_injector is None
                    else None
                ),
                database=self.database,
                record=recording,
            )
            columns, length = materialize(root, ctx)
        finally:
            unbind(scans)
        result = table_from_columns(
            root.schema, root.blocking_factor, columns, length, self.database.io
        )
        if before is not None:
            self._record_root(
                plan,
                result.cardinality,
                float(self.database.io.since(before).total),
                recording,
            )
        return result

    @staticmethod
    def _record_root(
        plan: Operator, rows: int, io_total: float, recording: bool
    ) -> None:
        if not recording:
            return
        registry = obs.metrics()
        operator = type(plan).__name__.lower()
        registry.counter("executor.rows_produced", operator=operator).inc(rows)
        registry.histogram("executor.operator_io", operator=operator).observe(
            io_total
        )

    # ------------------------------------------------------------- reference
    def _reference_execute(self, plan: Operator) -> Table:
        """The row-at-a-time oracle path (per-node obs, like always)."""
        if not obs.enabled():
            return self._reference_node(plan)
        before = self.database.io.snapshot()
        result = self._reference_node(plan)
        registry = obs.metrics()
        operator = type(plan).__name__.lower()
        registry.counter(
            "executor.rows_produced", operator=operator
        ).inc(result.cardinality)
        # Inclusive per-operator block I/O (children included) — the
        # measured side of the calibration layer's operator breakdown.
        registry.histogram("executor.operator_io", operator=operator).observe(
            float(self.database.io.since(before).total)
        )
        return result

    def _reference_node(self, plan: Operator) -> Table:
        from repro.executor._rowwise import (
            _aggregate_table,
            _limit_table,
            _linear_select,
            _project_table,
            _sort_table,
        )

        if isinstance(plan, Relation):
            table = self.database.table(plan.name)
            self._check_schema(plan, table)
            return table
        if isinstance(plan, Select):
            return _linear_select(
                self._reference_execute(plan.child), plan.predicate
            )
        if isinstance(plan, Project):
            return _project_table(
                self._reference_execute(plan.child),
                plan.attributes,
                plan.distinct,
            )
        if isinstance(plan, Join):
            return self._reference_join(plan)
        if isinstance(plan, Aggregate):
            return _aggregate_table(
                self._reference_execute(plan.child),
                plan.group_by,
                plan.aggregates,
                plan.schema,
            )
        if isinstance(plan, Sort):
            return _sort_table(self._reference_execute(plan.child), plan.keys)
        if isinstance(plan, Limit):
            return _limit_table(self._reference_execute(plan.child), plan.count)
        raise ExecutionError(f"cannot execute operator {type(plan).__name__}")

    def _reference_join(self, plan: Join) -> Table:
        from repro.executor._rowwise import (
            _hash_join,
            _index_join,
            _nested_loop_join,
            _sort_merge_join,
        )

        outer = self._reference_execute(plan.left)
        inner = self._reference_execute(plan.right)
        if self.join_method == NESTED_LOOP:
            return _nested_loop_join(outer, inner, plan.condition)
        equi, residual = self._split_condition(plan)
        if not equi:
            return _nested_loop_join(outer, inner, plan.condition)
        if self.join_method == SORT_MERGE:
            return _sort_merge_join(outer, inner, equi, residual)
        if self.join_method == INDEX_NESTED_LOOP and isinstance(
            plan.right, Relation
        ):
            # Probe an index on the stored inner relation — the paper's
            # "establish a proper index on it afterwards" for
            # materialized views (Section 3.2).  Multi-key conditions
            # probe on the first key and filter the rest.
            from repro.algebra import predicates as P
            from repro.algebra.expressions import column, compare

            first, rest = equi[0], equi[1:]
            leftover = P.conjunction(
                [residual]
                + [compare(column(a), "=", column(b)) for a, b in rest]
            )
            return _index_join(outer, inner, first, leftover)
        return _hash_join(outer, inner, equi, residual)

    @staticmethod
    def _split_condition(plan: Join):
        from repro.executor.physical import split_join_condition

        return split_join_condition(plan)

    @staticmethod
    def _check_schema(plan: Relation, table: Table) -> None:
        expected = set(plan.schema.attribute_names)
        actual = set(table.schema.attribute_names)
        if not expected <= actual:
            raise ExecutionError(
                f"table {plan.name!r} is missing attributes "
                f"{sorted(expected - actual)}"
            )


def load_database(
    tables: Mapping[str, Iterable[Mapping[str, object]]],
    catalog,
    blocking_factors: Optional[Mapping[str, float]] = None,
) -> Database:
    """Build a :class:`Database` from raw rows.

    ``tables`` maps relation names to row iterables with *short* column
    names; schemas come from ``catalog`` and are qualified so plans can
    reference ``Relation.attr`` columns.
    """
    database = Database()
    for name, rows in tables.items():
        schema = catalog.schema(name).qualify()
        factor = DEFAULT_BLOCKING_FACTOR
        if blocking_factors and name in blocking_factors:
            factor = blocking_factors[name]
        table = Table(schema, factor)
        for row in rows:
            table.insert(row)
        database.register(name, table)
    return database
