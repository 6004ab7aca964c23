"""The end-to-end data warehouse facade.

Typical lifecycle::

    wh = DataWarehouse(catalog, statistics)
    wh.add_query("Q1", "SELECT ...", frequency=10)
    wh.set_update_frequency("Order", 1.0)

    design = wh.design()          # run the paper's full pipeline
    wh.load("Order", rows)        # load base data
    wh.materialize()              # compute & store the chosen views
    table, io = wh.execute("Q1")  # answered through materialized views
    wh.apply_update("Order", new_rows, policy="incremental")

``design()`` runs Figure 4 (generate candidate MVPPs) and Figure 9
(select vertices to materialize) and installs the chosen views;
``execute()`` rewrites the query's MVPP plan over the stored views, so
the measured block I/O realizes the design's predicted query cost.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Optional, Tuple

from repro import obs
from repro.algebra.operators import Operator
from repro.catalog.schema import Catalog
from repro.catalog.statistics import StatisticsCatalog
from repro.errors import WarehouseError
from repro.executor.engine import (
    ExecutionEngine,
    Database,
    NESTED_LOOP,
    VECTORIZED,
)
from repro.mvpp.config import DEFAULT_DESIGN_CONFIG, DesignConfig
from repro.mvpp.cost import (
    CostBreakdown,
    CostCache,
    MVPPCostCalculator,
    PER_PERIOD,
)
from repro.mvpp.generation import DesignResult, design as run_design
from repro.optimizer.cardinality import CardinalityEstimator
from repro.optimizer.cost_model import CostModel, DEFAULT_COST_MODEL
from repro.optimizer.heuristics import optimize_query
from repro.sql.translator import parse_query
from repro.storage.block import IOSnapshot
from repro.storage.table import Table
from repro.warehouse.maintenance import (
    INCREMENTAL,
    RECOMPUTE,
    RefreshReport,
    ViewMaintainer,
    delta_table,
)
from repro.warehouse.rewriter import rewrite_with_views
from repro.warehouse.view import MaterializedView
from repro.workload.spec import QuerySpec, Workload


from dataclasses import dataclass, field

#: serve() rewrites kept per warehouse; the oldest goes first.
REWRITE_CACHE_ENTRIES = 64


@dataclass(frozen=True)
class ServedResult:
    """A query answer annotated with its freshness provenance.

    ``staleness`` maps each materialized view the answer read to its
    version lag (0 = fresh; ``n`` = the view misses ``n`` base-relation
    update batches).  ``degraded`` is True when at least one installed
    view was excluded from the rewrite because its circuit breaker is
    open — the answer fell back (partly or fully) to base relations.

    On a sharded warehouse, ``partitions_read`` maps each partitioned
    relation (or shard-stored view) the plan touched to the shard ids it
    actually read, and ``partitions_pruned`` counts the shards partition
    pruning skipped.
    """

    query: str
    table: Table
    io: IOSnapshot
    views_used: Tuple[str, ...]
    staleness: Mapping[str, int]
    degraded: bool
    partitions_read: Mapping[str, Tuple[int, ...]] = field(default_factory=dict)
    partitions_pruned: int = 0

    @property
    def max_staleness(self) -> int:
        """The worst version lag among the views this answer read."""
        return max(self.staleness.values(), default=0)

    @property
    def is_fresh(self) -> bool:
        return self.max_staleness == 0 and not self.degraded


@dataclass(frozen=True)
class QueryProfile:
    """Estimated-vs-measured report for one query execution."""

    query: str
    used_views: bool
    estimated_cost: Optional[float]
    measured_io: int
    estimated_rows: Optional[int]
    measured_rows: int

    @property
    def cost_error(self) -> Optional[float]:
        """``estimated / measured`` (None when either side is unknown)."""
        if self.estimated_cost is None or self.measured_io <= 0:
            return None
        return self.estimated_cost / self.measured_io


class DataWarehouse:
    """A data warehouse with MVPP-designed materialized views."""

    def __init__(
        self,
        catalog: Catalog,
        statistics: StatisticsCatalog,
        cost_model: CostModel = DEFAULT_COST_MODEL,
        maintenance_trigger: str = PER_PERIOD,
        join_method: str = NESTED_LOOP,
        engine: str = VECTORIZED,
    ):
        self.catalog = catalog
        self.statistics = statistics
        self.cost_model = cost_model
        self.maintenance_trigger = maintenance_trigger
        self.estimator = CardinalityEstimator(statistics)
        self.database = Database()
        self.engine = ExecutionEngine(self.database, join_method, engine=engine)
        self.maintainer = ViewMaintainer(self.database, self.engine)
        self._queries: List[QuerySpec] = []
        self._update_frequencies: Dict[str, float] = {}
        # Shared subtree-cost memo, reused across design()/redesign()
        # runs; invalidated whenever statistics change (sync_statistics).
        self.cost_cache = CostCache()
        self._design: Optional[DesignResult] = None
        self._views: List[MaterializedView] = []
        # View rewrites of serve(), query_plan() and explain(), per (query
        # root, available views) by identity; dropped whenever the
        # installed views change.
        self.rewrite_cache: Dict[Tuple[int, ...], tuple] = {}
        # Freshness tracking: base-relation versions bump on every load
        # or update; each view records the versions it was built from.
        self._base_versions: Dict[str, int] = {}
        self._view_versions: Dict[str, Dict[str, int]] = {}
        # Resilience: optional fault injector + refresh scheduler, and
        # the row count each view held at its last committed swap (the
        # never-partial contract's witness).
        self.fault_injector = None
        self._scheduler = None
        self._resilience_config = None
        self._committed_cards: Dict[str, int] = {}
        # Adaptive: lazily-built controller; when present, the query and
        # update paths report every event to its workload monitor.
        self._controller = None
        # Horizontal sharding: a ShardManager once enable_sharding() ran.
        self.sharding = None
        # Streaming: a StreamingMaintainer once enable_streaming() ran;
        # the policy remembered from the design's config block.
        self.streaming = None
        self._streaming_policy = None

    # --------------------------------------------------------------- queries
    def add_query(self, name: str, sql: str, frequency: float) -> QuerySpec:
        """Register a warehouse query with its access frequency ``fq``."""
        if any(q.name == name for q in self._queries):
            raise WarehouseError(f"query {name!r} already registered")
        parse_query(sql, self.catalog)  # fail fast on bad SQL / names
        spec = QuerySpec(name, sql, frequency)
        self._queries.append(spec)
        self._design = None  # designs are invalidated by workload changes
        return spec

    def set_update_frequency(self, relation: str, frequency: float) -> None:
        """Register a base relation's update frequency ``fu``."""
        if relation not in self.catalog:
            raise WarehouseError(f"unknown relation {relation!r}")
        if frequency < 0:
            raise WarehouseError(f"update frequency must be >= 0: {frequency}")
        self._update_frequencies[relation] = frequency
        self._design = None

    def set_query_frequency(self, name: str, frequency: float) -> None:
        """Change a registered query's access frequency ``fq``.

        Invalidates the current design (like every workload change); the
        adaptive controller uses this to write observed frequencies back
        before installing an accepted redesign.
        """
        if frequency < 0:
            raise WarehouseError(f"query frequency must be >= 0: {frequency}")
        for index, spec in enumerate(self._queries):
            if spec.name == name:
                self._queries[index] = QuerySpec(spec.name, spec.sql, frequency)
                self._design = None
                return
        raise WarehouseError(f"unknown query {name!r}")

    @property
    def workload(self) -> Workload:
        return Workload(
            name="warehouse",
            catalog=self.catalog,
            statistics=self.statistics,
            queries=tuple(self._queries),
            update_frequencies=dict(self._update_frequencies),
        )

    @classmethod
    def from_workload(cls, workload: Workload, **kwargs) -> "DataWarehouse":
        """Build a warehouse pre-loaded with a workload's queries."""
        warehouse = cls(workload.catalog, workload.statistics, **kwargs)
        for spec in workload.queries:
            warehouse.add_query(spec.name, spec.sql, spec.frequency)
        for relation, frequency in workload.update_frequencies.items():
            warehouse.set_update_frequency(relation, frequency)
        return warehouse

    # ---------------------------------------------------------------- design
    def design(self, config: Optional[DesignConfig] = None) -> DesignResult:
        """Run the full MVPP pipeline and install the chosen views.

        Takes the same :class:`~repro.mvpp.config.DesignConfig` as
        :func:`repro.design`; a config without an explicit
        ``maintenance_trigger`` inherits the warehouse's.
        """
        if not self._queries:
            raise WarehouseError("register at least one query before designing")
        config = config or DEFAULT_DESIGN_CONFIG
        if config.maintenance_trigger is None:
            config = config.replace(maintenance_trigger=self.maintenance_trigger)
        if config.resilience is not None:
            # Remember as the default policy for scheduler() / serve().
            self._resilience_config = config.resilience
            self._scheduler = None
        if config.streaming is not None:
            # Remembered as the default policy for enable_streaming().
            self._streaming_policy = config.streaming
        if config.engine is not None:
            self.engine.engine = config.engine
        # Plan verification follows the design-time lint gate: a linted
        # design keeps verifying every lowering the warehouse performs.
        self.engine.lint = bool(config.lint)
        result = run_design(
            self.workload,
            config,
            estimator=self.estimator,
            cost_model=self.cost_model,
            cache=self.cost_cache if config.cache else None,
        )
        self._design = result
        self._views = [self._view_from_vertex(vertex) for vertex in result.materialized]
        self.rewrite_cache.clear()
        if self.streaming is not None:
            # The propagation graph is compiled per installed design.
            self.streaming.recompile()
        # A fresh design invalidates freshness records: views must be
        # (re)materialized before they count as fresh.  redesign()
        # restores the records of views it keeps.
        self._view_versions.clear()
        # Register the views' estimated sizes so rewritten plans (reading
        # mv_* relations) remain estimable, e.g. by explain().
        for vertex in result.materialized:
            if vertex.stats is not None:
                self.statistics.set_relation(
                    f"mv_{vertex.name}",
                    vertex.stats.cardinality,
                    vertex.stats.blocks,
                )
        return result

    @staticmethod
    def _view_from_vertex(vertex) -> MaterializedView:
        """Build an installed view carrying the design's cost annotations."""
        return MaterializedView(
            name=f"mv_{vertex.name}",
            plan=vertex.operator,
            estimated_maintenance=float(vertex.maintenance_cost) or None,
            estimated_blocks=(
                float(vertex.stats.blocks) if vertex.stats is not None else None
            ),
        )

    @property
    def design_result(self) -> DesignResult:
        if self._design is None:
            raise WarehouseError("no design yet; call design() first")
        return self._design

    @property
    def views(self) -> Tuple[MaterializedView, ...]:
        return tuple(self._views)

    def install_views(self, views: Iterable[MaterializedView]) -> None:
        """Override the installed view set (e.g. to simulate a what-if
        view mix).  Call :meth:`materialize` afterwards to store them.
        The design result (if any) keeps providing the query plans."""
        self._views = list(views)
        self.rewrite_cache.clear()
        self._view_versions.clear()

    def estimated_costs(self) -> CostBreakdown:
        """The design's predicted per-period cost breakdown."""
        return self.design_result.breakdown

    # -------------------------------------------------------------- sharding
    def enable_sharding(
        self,
        schemes,
        sites: Tuple[str, ...] = (),
        replication: int = 1,
        topology=None,
    ) -> "ShardManager":
        """Partition base relations horizontally per ``schemes``.

        ``schemes`` is an iterable of
        :class:`~repro.distributed.partition.PartitionScheme`; each is
        recorded in the statistics catalog (so cost calculators see the
        same shard map the storage layer routes by) and any
        already-loaded relation is split immediately.  ``sites`` and
        ``replication`` optionally place the shards round-robin with
        read replicas on a
        :class:`~repro.distributed.sites.Topology`.
        """
        from repro.distributed.sharding import ShardCatalog
        from repro.warehouse.sharding import ShardManager

        scheme_list = list(schemes)
        for scheme in scheme_list:
            if scheme.relation not in self.catalog:
                raise WarehouseError(
                    f"cannot partition unknown relation {scheme.relation!r}"
                )
        catalog = ShardCatalog.build(
            scheme_list, topology=topology, sites=tuple(sites),
            replication=replication,
        )
        for scheme in scheme_list:
            self.statistics.set_partition_scheme(scheme)
        self.sharding = ShardManager(self, catalog)
        for scheme in scheme_list:
            if scheme.relation in self.database:
                self.sharding.partition_relation(scheme.relation)
        return self.sharding

    def refresh_partitions(self) -> List["RefreshOutcome"]:
        """Partition-wise refresh of every co-partitioned view's stale
        shards, through the resilient scheduler (per-partition breakers
        and freshness epochs)."""
        if self.sharding is None:
            raise WarehouseError("call enable_sharding() first")
        outcomes: List["RefreshOutcome"] = []
        scheduler = self.scheduler()
        for view in sorted(
            self.sharding.shardable_views(), key=lambda v: v.name
        ):
            outcomes.extend(scheduler.refresh_partitions(view))
        return outcomes

    # ------------------------------------------------------------------ data
    def load(
        self,
        relation: str,
        rows: Iterable[Mapping[str, object]],
        blocking_factor: Optional[float] = None,
    ) -> Table:
        """Load base data (short or qualified column names accepted)."""
        if relation not in self.catalog:
            raise WarehouseError(f"unknown relation {relation!r}")
        schema = self.catalog.schema(relation).qualify()
        if blocking_factor is None:
            if self.statistics.has_relation(relation):
                blocking_factor = self.statistics.relation(relation).blocking_factor
            else:
                blocking_factor = 10.0
        table = Table(schema, blocking_factor)
        for row in rows:
            table.insert(row)
        self._base_versions[relation] = self._base_versions.get(relation, 0) + 1
        registered = self.database.register(relation, table)
        if self.sharding is not None:
            self.sharding.on_load(relation)
        return registered

    def sync_statistics(self) -> None:
        """Overwrite registered relation statistics with loaded actuals.

        Invalidates the shared cost cache: every memoized subtree cost
        was computed against the superseded statistics.
        """
        for name in self.database.table_names:
            table = self.database.table(name)
            if name in self.catalog:
                self.statistics.set_relation(name, table.cardinality, table.num_blocks)
        self.estimator = CardinalityEstimator(self.statistics)
        self.cost_cache.invalidate()

    def materialize(self) -> List[RefreshReport]:
        """Compute and store every designed view."""
        reports = []
        for view in self.views:
            reports.append(self.maintainer.materialize(view))
            self._mark_fresh(view)
        return reports

    # ------------------------------------------------------------- freshness
    def _mark_fresh(self, view: MaterializedView) -> None:
        self._view_versions[view.name] = {
            relation: self._base_versions.get(relation, 0)
            for relation in view.base_relations
        }
        if view.name in self.database:
            self._committed_cards[view.name] = self.database.table(
                view.name
            ).cardinality
        if self.streaming is not None:
            # A committed recompute reflects the head of the change logs.
            self.streaming.note_refresh(view.name)

    def _view_available(self, view: MaterializedView) -> bool:
        """Whether serving can read this view — as a whole stored table
        or (sharded mode) as a complete set of shard tables."""
        if view.name in self.database:
            return True
        return self.sharding is not None and (
            self.sharding.view_shards_available(view)
        )

    def _view_is_fresh(self, view: MaterializedView) -> bool:
        if view.name in self.database:
            return self.is_fresh(view)
        if self.sharding is not None and (
            self.sharding.view_shards_available(view)
        ):
            return not self.sharding.stale_shards(view)
        return False

    def _view_staleness(self, view: MaterializedView) -> int:
        if self.streaming is not None:
            # Streaming warehouses answer staleness in LSN lag: change
            # records the view has not absorbed (see docs/streaming.md).
            return self.streaming.lag_records(view.name)
        if view.name in self._view_versions:
            return self.staleness(view)
        if self.sharding is not None and (
            self.sharding.view_shards_available(view)
        ):
            return self.sharding.view_staleness(view)
        return 0

    def is_fresh(self, view: MaterializedView) -> bool:
        """Whether a view reflects the current base-relation contents."""
        recorded = self._view_versions.get(view.name)
        if recorded is None:
            return False  # never materialized
        return all(
            self._base_versions.get(relation, 0) == version
            for relation, version in recorded.items()
        )

    def stale_views(self) -> List[MaterializedView]:
        """Views whose stored contents lag behind their base relations."""
        return [view for view in self.views if not self.is_fresh(view)]

    def staleness(self, view: MaterializedView) -> int:
        """Version lag: base-update batches the view has not absorbed."""
        recorded = self._view_versions.get(view.name)
        if recorded is None:
            return 0  # never materialized — it cannot serve queries anyway
        return sum(
            max(0, self._base_versions.get(relation, 0) - version)
            for relation, version in sorted(recorded.items())
        )

    def committed_cardinality(self, view_name: str) -> Optional[int]:
        """Rows the view held at its last committed (atomic) swap."""
        return self._committed_cards.get(view_name)

    # ------------------------------------------------------------- resilience
    def attach_faults(self, policy) -> "FaultInjector":
        """Install seeded fault injection on this warehouse's storage.

        ``policy`` is a :class:`repro.resilience.faults.FaultPolicy`;
        the returned :class:`~repro.resilience.faults.FaultInjector` is
        shared with any scheduler created afterwards.  Call
        :meth:`detach_faults` to go back to failure-free storage.
        """
        from repro.resilience.faults import FaultInjector, FaultPolicy

        if not isinstance(policy, FaultPolicy):
            raise WarehouseError(f"not a FaultPolicy: {policy!r}")
        injector = FaultInjector(policy)
        self.fault_injector = injector
        self.database.fault_injector = injector
        # Build-side reuse is disabled while faults are injected (a
        # cache hit would skip the build's seeded fault draws).
        self.engine.build_cache.invalidate()
        self._scheduler = None  # rebuilt with the new injector on demand
        return injector

    def detach_faults(self) -> None:
        """Remove fault injection (storage becomes failure-free again)."""
        self.fault_injector = None
        self.database.fault_injector = None
        self._scheduler = None

    def scheduler(self, config=None, injector=None) -> "RefreshScheduler":
        """The warehouse's :class:`~repro.resilience.scheduler.RefreshScheduler`.

        Created lazily from ``config`` (default: the design's
        ``DesignConfig.resilience`` block, else all defaults) and the
        attached fault injector; passing either argument rebuilds it.
        """
        from repro.resilience.config import ResilienceConfig
        from repro.resilience.scheduler import RefreshScheduler

        if config is not None or injector is not None or self._scheduler is None:
            resolved = config or self._resilience_config or ResilienceConfig()
            self._scheduler = RefreshScheduler(
                self,
                resolved,
                injector if injector is not None else self.fault_injector,
            )
        return self._scheduler

    def refresh_resilient(self) -> List["RefreshOutcome"]:
        """One scheduler pass over every view (retry/backoff/breaker)."""
        return self.scheduler().refresh_all()

    # -------------------------------------------------------------- streaming
    def enable_streaming(self, policy=None) -> "StreamingMaintainer":
        """Turn on CDC-driven streaming maintenance for this warehouse.

        Installs change capture on every base relation the current views
        depend on and compiles the delta propagation graph (recompiled
        automatically on ``design()`` / ``install_design()``).  ``policy``
        is a :class:`repro.cdc.StreamingPolicy`; when omitted, the
        design's ``DesignConfig.streaming`` block applies, else the
        defaults.  Returns the
        :class:`~repro.cdc.streaming.StreamingMaintainer`; calling again
        with a policy rebuilds it (watermarks reset — views resync at
        their next refresh or drain).
        """
        from repro.cdc import DEFAULT_STREAMING_POLICY, StreamingPolicy
        from repro.cdc.streaming import StreamingMaintainer

        if policy is None and self.streaming is not None:
            return self.streaming
        resolved = policy or self._streaming_policy or DEFAULT_STREAMING_POLICY
        if not isinstance(resolved, StreamingPolicy):
            raise WarehouseError(f"not a StreamingPolicy: {resolved!r}")
        if self.streaming is not None:
            self.streaming.changes.detach()
        self.streaming = StreamingMaintainer(self, resolved)
        return self.streaming

    def disable_streaming(self) -> None:
        """Remove change capture and drop the streaming maintainer."""
        if self.streaming is not None:
            self.streaming.changes.detach()
            self.streaming = None

    def drain_changes(self) -> "DrainReport":
        """Force a catch-up drain of every pending change record."""
        if self.streaming is None:
            raise WarehouseError(
                "streaming is not enabled; call enable_streaming() first"
            )
        return self.streaming.drain()

    # --------------------------------------------------------------- adaptive
    def controller(self, policy=None, config=None) -> "AdaptiveController":
        """The warehouse's :class:`~repro.adaptive.controller.AdaptiveController`.

        Created lazily (requires a design); passing ``policy`` (an
        :class:`~repro.adaptive.policy.AdaptivePolicy`) or ``config``
        rebuilds it.  While a controller is attached, :meth:`execute`,
        :meth:`serve` and :meth:`apply_update` report every event to its
        workload monitor, advancing the shared logical clock by the
        measured block I/O.
        """
        from repro.adaptive.controller import AdaptiveController

        if policy is not None or config is not None or self._controller is None:
            self._controller = AdaptiveController(
                self, policy=policy, config=config
            )
        return self._controller

    def adapt(self) -> "AdaptationDecision":
        """Run one adaptive decision: observe → detect → redesign → migrate.

        Returns the :class:`~repro.adaptive.controller.AdaptationDecision`
        (also appended to ``controller().history``); never raises on a
        failed migration — the previous design keeps serving.
        """
        return self.controller().evaluate()

    def _note_query(self, name: str, io_blocks: int) -> None:
        if self._controller is not None:
            self._controller.note_query(name, max(1.0, float(io_blocks)))

    def _note_update(self, relation: str, io_blocks: int) -> None:
        if self._controller is not None:
            self._controller.note_update(relation, max(1.0, float(io_blocks)))

    def _breaker_allows(self, view_name: str) -> bool:
        """Whether the query path may read this view (breaker not open)."""
        if self._scheduler is None:
            return True
        return self._scheduler.allows(view_name)

    # --------------------------------------------------------------- queries
    def query_plan(
        self, name: str, *, use_views: bool = True, freshness: str = "any"
    ):
        """The (possibly view-rewritten) executable plan for a query.

        ``freshness`` controls how stale views are treated:

        * ``"any"`` — use every materialized view (default; caller
          accepts possibly-stale answers between refreshes);
        * ``"fresh"`` — rewrite only over up-to-date views; stale lineage
          falls back to base data;
        * ``"refresh"`` — refresh stale views first, then use them all.
        """
        spec = next((q for q in self._queries if q.name == name), None)
        if spec is None:
            raise WarehouseError(f"unknown query {name!r}")
        if freshness not in ("any", "fresh", "refresh"):
            raise WarehouseError(f"unknown freshness policy {freshness!r}")
        if self._design is not None:
            plan = self.design_result.mvpp.query_root(name).operator
        else:
            plan = optimize_query(
                parse_query(spec.sql, self.catalog), self.estimator, self.cost_model
            )
        if not use_views or not self._views:
            return plan
        views = list(self._views)
        if freshness == "refresh":
            for view in self.stale_views():
                if view.name in self.database:
                    self.maintainer.materialize(view)
                    self._mark_fresh(view)
        elif freshness == "fresh":
            views = [v for v in views if self.is_fresh(v)]
        views = [v for v in views if v.name in self.database]
        # Graceful degradation: a view whose circuit breaker is open is
        # treated as unavailable — the rewrite falls back to base data.
        views = [v for v in views if self._breaker_allows(v.name)]
        rewritten, _ = self._rewrite(plan, views)
        return rewritten

    def execute(
        self,
        name: str,
        *,
        use_views: bool = True,
        freshness: str = "any",
    ) -> Tuple[Table, IOSnapshot]:
        """Answer a registered query; returns (result, measured block I/O)."""
        with obs.span(
            "execution.warehouse_query",
            query=name,
            use_views=use_views,
            freshness=freshness,
        ) as span:
            plan = self.query_plan(name, use_views=use_views, freshness=freshness)
            missing = [
                r for r in plan.base_relations()
                if r not in self.database
            ]
            if missing:
                raise WarehouseError(
                    f"load base data before executing: missing {sorted(missing)}"
                )
            result, io = self.engine.run(plan)
            span.set(measured_io=io.total, rows=result.cardinality)
            if obs.enabled():
                self._record_drift(name, plan, io.total)
        self._note_query(name, io.total)
        return result, io

    def serve(
        self,
        name: str,
        freshness: str = "any",
        prune: bool = True,
        max_staleness: Optional[int] = None,
    ) -> ServedResult:
        """Answer a query with explicit freshness provenance.

        The fault-tolerant face of :meth:`execute`: the result is
        annotated with which materialized views it read, how stale each
        one is (in base-update batches), and whether the answer was
        *degraded* — i.e. some installed view was skipped because its
        circuit breaker is open, falling back to base relations.

        The staleness contract (see ``docs/resilience.md``): an answer
        is always internally consistent.  Views are refreshed into a
        shadow table and swapped atomically, so a served view is either
        its previous committed contents or its new committed contents —
        never a mix.

        On a sharded warehouse (:meth:`enable_sharding`), equality and
        range predicates on a partition key route the plan to only the
        relevant shards; ``prune=False`` forces the unpruned baseline.

        With streaming enabled (:meth:`enable_streaming`), ``staleness``
        values are LSN lags — pending change records each view has not
        absorbed — and ``max_staleness`` bounds them: when any
        materialized view lags more than that many records, a catch-up
        drain runs before the query executes.
        """
        spec = next((q for q in self._queries if q.name == name), None)
        if spec is None:
            raise WarehouseError(f"unknown query {name!r}")
        if freshness not in ("any", "fresh", "refresh"):
            raise WarehouseError(f"unknown freshness policy {freshness!r}")
        if max_staleness is not None:
            if self.streaming is None:
                raise WarehouseError(
                    "max_staleness requires enable_streaming() first"
                )
            if max_staleness < 0:
                raise WarehouseError(
                    f"max_staleness must be >= 0: {max_staleness}"
                )
            if self.streaming.max_lag() > max_staleness:
                self.streaming.drain()
        with obs.span(
            "execution.serve", query=name, freshness=freshness
        ) as span:
            if self._design is not None:
                plan = self.design_result.mvpp.query_root(name).operator
            else:
                plan = optimize_query(
                    parse_query(spec.sql, self.catalog),
                    self.estimator,
                    self.cost_model,
                )
            views = [v for v in self._views if self._view_available(v)]
            if freshness == "refresh":
                for view in self.stale_views():
                    if view.name in self.database:
                        self.maintainer.materialize(view)
                        self._mark_fresh(view)
                if self.sharding is not None:
                    for view in self.sharding.shardable_views():
                        if self.sharding.view_shards_available(view):
                            for shard in self.sharding.stale_shards(view):
                                self.maintainer.materialize(
                                    self.sharding.shard_view(view, shard)
                                )
                                self.sharding.record_fresh(view, shard)
            elif freshness == "fresh":
                views = [v for v in views if self._view_is_fresh(v)]
            available = [v for v in views if self._breaker_allows(v.name)]
            degraded = len(available) < len(views)
            rewritten, used = self._rewrite(plan, available)
            partitions_read: Mapping[str, Tuple[int, ...]] = {}
            partitions_pruned = 0
            overrides: Dict[str, Table] = {}
            if self.sharding is not None:
                overrides, partitions_read, partitions_pruned = (
                    self.sharding.bind(rewritten, prune=prune)
                )
            missing = [
                r for r in rewritten.base_relations()
                if r not in self.database and r not in overrides
            ]
            if missing:
                raise WarehouseError(
                    f"load base data before executing: missing {sorted(missing)}"
                )
            if overrides:
                result, io = self.sharding.run(rewritten, overrides)
            else:
                result, io = self.engine.run(rewritten)
            by_name = {v.name: v for v in self._views}
            used_names = sorted(dict.fromkeys(v.name for v in used))
            staleness = {
                view_name: self._view_staleness(by_name[view_name])
                for view_name in used_names
            }
            served = ServedResult(
                query=name,
                table=result,
                io=io,
                views_used=tuple(used_names),
                staleness=staleness,
                degraded=degraded,
                partitions_read=partitions_read,
                partitions_pruned=partitions_pruned,
            )
            span.set(
                measured_io=io.total,
                rows=result.cardinality,
                views_used=list(served.views_used),
                max_staleness=served.max_staleness,
                degraded=degraded,
            )
            if obs.enabled():
                registry = obs.metrics()
                registry.counter(
                    "resilience.queries_served",
                    freshness="fresh" if served.is_fresh else (
                        "degraded" if degraded else "stale"
                    ),
                ).inc()
                registry.histogram("resilience.staleness").observe(
                    float(served.max_staleness)
                )
                if degraded:
                    obs.journal_event(
                        "warehouse.serve.degraded",
                        query=name,
                        excluded=sorted(
                            v.name for v in views if v not in available
                        ),
                    )
        self._note_query(name, io.total)
        return served

    def _rewrite(
        self, plan, views: List[MaterializedView]
    ) -> Tuple[Operator, List[MaterializedView]]:
        """``rewrite_with_views(plan, views)``, kept in ``rewrite_cache``.

        A rewrite depends only on the plan and the views, so a designed
        query root is rewritten once per set of available views and the
        same rewritten plan object is served again, which lets the
        engine's plan cache hit too.  The entry holds the plan and the
        views, so the ids in its key stay theirs.  Without a design the
        plan is optimized afresh on every call and is not cached.
        """
        if self._design is None:
            return rewrite_with_views(plan, views)
        key = (id(plan),) + tuple(map(id, views))
        entry = self.rewrite_cache.get(key)
        if entry is None:
            rewritten, used = rewrite_with_views(plan, views)
            while len(self.rewrite_cache) >= REWRITE_CACHE_ENTRIES:
                self.rewrite_cache.pop(next(iter(self.rewrite_cache)))
            entry = (plan, tuple(views), rewritten, tuple(used))
            self.rewrite_cache[key] = entry
        return entry[2], list(entry[3])

    def _record_drift(self, name: str, plan, measured_io: int) -> None:
        """Publish per-query estimated-vs-measured cost drift metrics."""
        from repro.optimizer.plans import AnnotatedPlan

        try:
            estimated = AnnotatedPlan(
                plan, self.estimator, self.cost_model
            ).total_cost
        except Exception:
            return  # stored views may lack statistics; drift is unknown
        registry = obs.metrics()
        registry.gauge("warehouse.estimated_cost", query=name).set(estimated)
        registry.gauge("warehouse.measured_io", query=name).set(measured_io)
        if measured_io > 0:
            registry.gauge("warehouse.cost_drift_ratio", query=name).set(
                estimated / measured_io
            )
        obs.calibration().record(
            "access",
            name,
            type(plan).__name__.lower(),
            estimated,
            float(measured_io),
        )

    def redesign(self, config: Optional[DesignConfig] = None) -> "MigrationPlan":
        """Re-run the design pipeline and migrate the installed views.

        Stored tables of views whose defining plans survive are kept
        as-is (their names included); obsolete view tables are dropped;
        only genuinely new views are materialized (whenever their base
        data is loaded).  Returns the executed migration plan, annotated
        with its one-off cost (see
        :func:`~repro.warehouse.evolution.cost_migration`).

        Accepts the same :class:`~repro.mvpp.config.DesignConfig` as
        :meth:`design`.
        """
        if not self._queries:
            raise WarehouseError("register at least one query before designing")
        config = config or DEFAULT_DESIGN_CONFIG
        if config.maintenance_trigger is None:
            config = config.replace(maintenance_trigger=self.maintenance_trigger)
        if config.resilience is not None:
            self._resilience_config = config.resilience
            self._scheduler = None
        if config.engine is not None:
            self.engine.engine = config.engine
        self.engine.lint = bool(config.lint)
        result = run_design(
            self.workload,
            config,
            estimator=self.estimator,
            cost_model=self.cost_model,
            cache=self.cost_cache if config.cache else None,
        )
        return self.install_design(result)

    def install_design(
        self, result: DesignResult, scheduler: Optional["RefreshScheduler"] = None
    ) -> "MigrationPlan":
        """Migrate the installed view set to an already-computed design.

        The staged path behind :meth:`redesign` and the adaptive
        controller: genuinely new views are built *before* the serving
        set changes (queries keep answering from the old views while the
        new tables fill), then the design, view set, freshness records,
        dropped tables and registered statistics are swapped in one
        step.  When ``scheduler`` is given, each new view is built
        through its retry/backoff/breaker machinery; a view that fails
        to build aborts the whole migration — built tables are torn down
        and the old design keeps serving — and raises
        :class:`WarehouseError`.

        Views are materialized whenever their base data is loaded; with
        no data loaded the new views are installed unmaterialized
        (exactly like :meth:`design` + a later :meth:`materialize`).
        """
        from repro.warehouse.evolution import cost_migration, plan_migration

        installed = list(self._views)
        old_versions = dict(self._view_versions)
        new_views = [
            self._view_from_vertex(vertex) for vertex in result.materialized
        ]
        migration = plan_migration(installed, new_views)
        migration = cost_migration(
            migration,
            access_costs={
                vertex.operator.signature: vertex.access_cost
                for vertex in result.materialized
            },
            stored_blocks={
                view.name: float(self.database.table(view.name).num_blocks)
                for view in migration.drop
                if view.name in self.database
            },
        )
        data_loaded = all(
            relation in self.database
            for view in migration.create
            for relation in view.base_relations
        )
        built: List[MaterializedView] = []
        if migration.create and data_loaded:
            for view in migration.create:
                if scheduler is not None:
                    outcome = scheduler.refresh_view(view)
                    if not outcome.ok:
                        for done in built:
                            self.database.drop(done.name)
                            self._view_versions.pop(done.name, None)
                            self.engine.build_cache.invalidate(done.name)
                        self._view_versions.pop(view.name, None)
                        raise WarehouseError(
                            f"migration aborted: view {view.name!r} failed "
                            f"to build ({outcome.error or outcome.status}); "
                            f"the previous design keeps serving"
                        )
                else:
                    self.maintainer.materialize(view)
                built.append(view)
        # Atomic swap: from here on queries see the new design.
        self._design = result
        self._views = list(migration.keep) + list(migration.create)
        self.rewrite_cache.clear()
        self._view_versions.clear()
        for view in migration.keep:
            if view.name in old_versions:
                self._view_versions[view.name] = old_versions[view.name]
        for view in built:
            self._mark_fresh(view)
        for view in migration.drop:
            self.database.drop(view.name)
            self._committed_cards.pop(view.name, None)
            self.engine.build_cache.invalidate(view.name)
        # Register the new views' estimated sizes so rewritten plans
        # (reading mv_* relations) remain estimable, e.g. by explain().
        for vertex in result.materialized:
            if vertex.stats is not None:
                self.statistics.set_relation(
                    f"mv_{vertex.name}",
                    vertex.stats.cardinality,
                    vertex.stats.blocks,
                )
        if self.streaming is not None:
            # New view set, new propagation graph (and change capture
            # for any base relations the new views introduce).
            self.streaming.recompile()
        return migration

    def explain(
        self, name: str, *, use_views: bool = True, freshness: str = "any"
    ) -> str:
        """EXPLAIN-style report: the executable plan with estimated
        per-node cardinalities and block-access costs, plus which
        materialized views the rewrite uses."""
        from repro.optimizer.plans import AnnotatedPlan

        spec = next((q for q in self._queries if q.name == name), None)
        if spec is None:
            raise WarehouseError(f"unknown query {name!r}")
        plan = self.query_plan(name, use_views=use_views, freshness=freshness)
        used: List[MaterializedView] = []
        if use_views and self._views:
            base_plan = self.query_plan(name, use_views=False)
            _, used = self._rewrite(base_plan, list(self._views))
        lines = [f"EXPLAIN {name}: {spec.sql}"]
        if used:
            lines.append(
                "materialized views used: "
                + ", ".join(sorted({v.name for v in used}))  # lint: ignore[C102] — names are strings, totally ordered
            )
        else:
            lines.append("materialized views used: (none)")
        # Estimate over the rewritten plan; stored views may not have
        # registered statistics, so fall back to the structural plan.
        try:
            from repro.algebra.operators import Relation

            annotated = AnnotatedPlan(plan, self.estimator, self.cost_model)
            lines.append(annotated.describe())
            cost = annotated.total_cost
            if isinstance(plan, Relation):
                # A query answered by scanning one stored view: the cost
                # is the scan itself, not the (free) leaf access.
                cost = self.cost_model.scan_cost(annotated.output_stats)
            lines.append(f"estimated cost: {cost:,.0f} block accesses")
        except Exception:
            lines.append(plan.describe())
        return "\n".join(lines)

    def profile(
        self, name: str, *, use_views: bool = True
    ) -> "QueryProfile":
        """Run a query and report estimated-vs-measured cost and rows.

        The estimation error quantifies how well the Table-1-style statistics describe
        the loaded data — large deviations suggest running
        :meth:`sync_statistics` (or re-designing).
        """
        from repro.optimizer.plans import AnnotatedPlan

        plan = self.query_plan(name, use_views=use_views)
        estimated_cost: Optional[float] = None
        estimated_rows: Optional[int] = None
        try:
            annotated = AnnotatedPlan(plan, self.estimator, self.cost_model)
            estimated_cost = annotated.total_cost
            estimated_rows = annotated.output_stats.cardinality
        except Exception:
            pass
        result, io = self.execute(name, use_views=use_views)
        return QueryProfile(
            query=name,
            used_views=use_views,
            estimated_cost=estimated_cost,
            measured_io=io.total,
            estimated_rows=estimated_rows,
            measured_rows=result.cardinality,
        )

    # ------------------------------------------------------------ maintenance
    def refresh(self) -> List[RefreshReport]:
        """Recompute every materialized view (the paper's policy)."""
        reports = []
        for view in self.views:
            reports.append(self.maintainer.materialize(view))
            self._mark_fresh(view)
        return reports

    def apply_update(
        self,
        relation: str,
        rows: Iterable[Mapping[str, object]],
        policy: str = RECOMPUTE,
    ) -> List[RefreshReport]:
        """Insert rows into a base relation and maintain affected views.

        With ``policy="defer"`` no view is touched: affected views become
        stale (see :meth:`stale_views`) until the next refresh or a
        ``freshness="refresh"`` query.

        With ``policy="stream"`` (requires :meth:`enable_streaming`) the
        rows are captured in the relation's change log and views are
        maintained by the streaming drain loop — immediately only if the
        backpressure bound trips, otherwise at the next
        :meth:`drain_changes` / bounded-staleness serve.
        """
        from repro.warehouse.maintenance import validate_delta_rows

        if relation not in self.database:
            raise WarehouseError(f"relation {relation!r} has no loaded data")
        if policy not in (RECOMPUTE, INCREMENTAL, "defer", "stream"):
            raise WarehouseError(f"unknown maintenance policy {policy!r}")
        if policy == "stream" and self.streaming is None:
            raise WarehouseError(
                "policy='stream' requires enable_streaming() first"
            )
        with obs.span(
            "maintenance.update", relation=relation, policy=policy
        ) as span:
            io_before = self.database.io.snapshot()
            rows = validate_delta_rows(
                self.database.table(relation).schema, rows, relation
            )
            span.set(delta_rows=len(rows))
            self.database.table(relation).insert_many(rows)
            self._base_versions[relation] = self._base_versions.get(relation, 0) + 1
            self.engine.build_cache.invalidate(relation)
            if self.sharding is not None:
                affected = self.sharding.on_update(relation, rows)
                span.set(shards_affected=list(affected))
            reports: List[RefreshReport] = []
            if policy == "stream":
                self.streaming.on_ingest()
                self._note_update(
                    relation, self.database.io.since(io_before).total
                )
                return reports
            if policy == "defer":
                self._note_update(
                    relation, self.database.io.since(io_before).total
                )
                return reports
            delta = None  # built once, shared by every affected view
            for view in self.views:
                if not view.depends_on(relation):
                    continue
                if view.name not in self.database:
                    continue  # not materialized yet; materialize() builds it
                if policy == INCREMENTAL:
                    if delta is None:
                        delta = delta_table(self.database, relation, rows)
                    reports.append(
                        self.maintainer.incremental_refresh(
                            view, relation, rows, delta=delta
                        )
                    )
                else:
                    reports.append(self.maintainer.materialize(view))
                self._mark_fresh(view)
                self.engine.build_cache.invalidate(view.name)
            span.set(views_refreshed=len(reports))
            self._note_update(relation, self.database.io.since(io_before).total)
        return reports

    def apply_delete(
        self,
        relation: str,
        rows: Iterable[Mapping[str, object]],
        policy: str = "stream",
    ) -> List[RefreshReport]:
        """Remove rows from a base relation and maintain affected views.

        Rows are matched by value (one stored occurrence removed per
        given row, bag semantics).  ``policy`` is ``"stream"`` (capture
        the deletes in the change log; default), ``"recompute"`` (batch
        recompute every affected view now) or ``"defer"``.
        """
        from repro.warehouse.maintenance import validate_delta_rows

        if relation not in self.database:
            raise WarehouseError(f"relation {relation!r} has no loaded data")
        if policy not in (RECOMPUTE, "defer", "stream"):
            raise WarehouseError(f"unknown delete policy {policy!r}")
        if policy == "stream" and self.streaming is None:
            raise WarehouseError(
                "policy='stream' requires enable_streaming() first"
            )
        if self.sharding is not None:
            raise WarehouseError(
                "apply_delete is not supported on a sharded warehouse"
            )
        with obs.span(
            "maintenance.delete", relation=relation, policy=policy
        ) as span:
            io_before = self.database.io.snapshot()
            rows = validate_delta_rows(
                self.database.table(relation).schema, rows, relation
            )
            removed = self.database.table(relation).delete_many(rows)
            span.set(delta_rows=len(rows), removed=len(removed))
            self._base_versions[relation] = self._base_versions.get(relation, 0) + 1
            self.engine.build_cache.invalidate(relation)
            reports: List[RefreshReport] = []
            if policy == "stream":
                self.streaming.on_ingest()
            elif policy == RECOMPUTE:
                for view in self.views:
                    if not view.depends_on(relation):
                        continue
                    if view.name not in self.database:
                        continue
                    reports.append(self.maintainer.materialize(view))
                    self._mark_fresh(view)
                    self.engine.build_cache.invalidate(view.name)
            span.set(views_refreshed=len(reports))
            self._note_update(relation, self.database.io.since(io_before).total)
        return reports
