"""Horizontal sharding of the warehouse's stored relations and views.

The :class:`ShardManager` keeps, alongside every partitioned base
relation ``R``, one stored table per shard (``R#0`` … ``R#n-1``) split
by the relation's :class:`~repro.distributed.partition.PartitionScheme`.
Three capabilities build on that shard map:

* **partition-pruned serving** — :meth:`bind` runs
  :func:`repro.warehouse.rewriter.prune_shards` over a (possibly
  view-rewritten) plan and substitutes each prunable relation with a
  :class:`ShardUnionTable` over only its surviving shards, so the
  executor's measured block I/O shrinks with the pruning;
* **co-partitioned views** — a view whose lineage contains exactly one
  partitioned base (referenced once, through SPJ operators only) can be
  stored shard-wise: ``mv_X#s`` is the view's plan with ``R`` replaced
  by ``R#s``.  The union over shards is row-identical to the whole view
  because SPJ plans are linear in each input;
* **partition-wise freshness** — per-shard versions let the refresh
  scheduler rebuild only the partitions an update batch touched.

Every routed shard read asks the
:class:`~repro.distributed.sharding.ShardCatalog` which site serves it
(deterministic replica round-robin), and pruning outcomes are exported
through the ``distributed.partitions_pruned`` counter.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Optional, Tuple

from repro import obs
from repro.algebra.operators import (
    Join,
    Operator,
    Project,
    Relation,
    Select,
)
from repro.distributed.partition import PartitionScheme, shard_table_name
from repro.distributed.sharding import ShardCatalog
from repro.errors import WarehouseError
from repro.storage.block import IOSnapshot
from repro.storage.table import Table
from repro.warehouse.maintenance import OverlayDatabase
from repro.warehouse.rewriter import prune_shards
from repro.warehouse.view import MaterializedView

__all__ = ["ShardManager", "ShardUnionTable", "shard_plan"]

#: Operators a view plan may contain for its shards to union losslessly.
#: (Aggregate/Limit/Sort/distinct-Project all mix rows *across* input
#: partitions, so per-shard evaluation would change the result.)
_LINEAR_NODES = (Join, Relation, Select, Project)


class ShardUnionTable(Table):
    """The concatenation of several shard tables, for one plan execution.

    Scanning it charges the *sum of the shards' block counts* — reading
    k physical shards costs k partial scans, not one scan of an ideally
    repacked table — so pruned and unpruned runs are comparable on the
    same accounting basis.
    """

    def __init__(
        self,
        schema,
        blocking_factor: float,
        shard_tables: Iterable[Table],
        io=None,
    ):
        super().__init__(schema, blocking_factor, io=io)
        blocks = 0
        for shard_table in shard_tables:
            blocks += shard_table.num_blocks
            # Shard rows were validated under this same schema when
            # stored, so they are appended as they are.
            self._rows.extend(shard_table.rows())
        self._union_blocks = blocks

    @property
    def num_blocks(self) -> int:
        return self._union_blocks


def shard_plan(plan: Operator, relation: str, shard: int) -> Operator:
    """``plan`` with every ``Relation(relation)`` leaf redirected to its
    shard table.  The shard table carries the base relation's qualified
    schema (renamed only), so predicates above keep resolving."""
    name = shard_table_name(relation, shard)

    def descend(node: Operator) -> Operator:
        if isinstance(node, Relation):
            if node.name != relation:
                return node
            return Relation(name, node.schema.rename(name))
        children = tuple(descend(child) for child in node.children)
        if all(new is old for new, old in zip(children, node.children)):
            return node
        return node.with_children(children)

    return descend(plan)


class ShardManager:
    """Shard-level storage, routing, freshness, and pruned execution."""

    def __init__(self, warehouse, catalog: ShardCatalog):
        self.warehouse = warehouse
        self.catalog = catalog
        # (relation, shard) -> monotonically increasing data version.
        self._shard_versions: Dict[Tuple[str, int], int] = {}
        # shard-view name (mv_X#3) -> dependency versions at last build.
        self._view_versions: Dict[str, Dict[str, int]] = {}

    # ------------------------------------------------------------- base data
    @property
    def schemes(self) -> Dict[str, PartitionScheme]:
        return {
            relation: self.catalog.require_scheme(relation)
            for relation in self.catalog.relations
        }

    def shard_version(self, relation: str, shard: int) -> int:
        return self._shard_versions.get((relation, shard), 0)

    def partition_relation(self, relation: str) -> Tuple[int, ...]:
        """(Re)split a loaded relation into its shard tables.

        Registers one table per shard (empty shards included, so routing
        never misses) and bumps every shard's version.  Returns the
        shard ids.
        """
        scheme = self.catalog.require_scheme(relation)
        database = self.warehouse.database
        if relation not in database:
            raise WarehouseError(
                f"load relation {relation!r} before partitioning it"
            )
        base = database.table(relation)
        split = scheme.split_rows(base.rows())
        for shard in scheme.all_shards:
            name = scheme.shard_table(shard)
            table = Table(base.schema, base.blocking_factor)
            table.insert_many(split[shard], count_io=False)
            database.register(name, table)
            self._shard_versions[(relation, shard)] = (
                self.shard_version(relation, shard) + 1
            )
        return scheme.all_shards

    def on_load(self, relation: str) -> None:
        """Hook run by :meth:`DataWarehouse.load` after registration."""
        if relation in self.catalog:
            self.partition_relation(relation)

    def on_update(
        self, relation: str, rows: List[Mapping[str, object]]
    ) -> Tuple[int, ...]:
        """Route an insert batch to its shards; returns the affected ones.

        Only the shards the batch actually lands on get new rows and a
        version bump — the refresh scheduler later rebuilds exactly
        those partitions.  Shard writes are not charged as I/O: the
        shard tables mirror the base table, whose insert the update path
        already accounted.
        """
        scheme = self.catalog.scheme(relation)
        if scheme is None:
            return ()
        database = self.warehouse.database
        split = scheme.split_rows(rows)
        affected = []
        for shard in scheme.all_shards:
            if not split[shard]:
                continue
            name = scheme.shard_table(shard)
            if name not in database:
                continue  # never partitioned; nothing mirrors the base
            database.table(name).insert_many(split[shard], count_io=False)
            self._shard_versions[(relation, shard)] = (
                self.shard_version(relation, shard) + 1
            )
            affected.append(shard)
        return tuple(affected)

    # ---------------------------------------------------- co-partitioned views
    def copartition_base(self, view: MaterializedView) -> Optional[str]:
        """The partitioned base this view can shard along, if any.

        Eligibility: the plan is pure SPJ (no Aggregate/Limit/Sort, no
        duplicate-eliminating projection), exactly one lineage relation
        is partitioned, and it appears exactly once — the conditions
        under which per-shard evaluation unions to the whole view.
        """
        partitioned = sorted(
            name for name in view.base_relations if name in self.catalog
        )
        if len(partitioned) != 1:
            return None
        base = partitioned[0]
        references = 0
        for node in view.plan.walk():
            if not isinstance(node, _LINEAR_NODES):
                return None
            if isinstance(node, Project) and node.distinct:
                return None
            if isinstance(node, Relation) and node.name == base:
                references += 1
        if references != 1:
            return None
        return base

    def shardable_views(self) -> List[MaterializedView]:
        """Installed views eligible for partition-wise storage/refresh."""
        return [
            view
            for view in self.warehouse.views
            if self.copartition_base(view) is not None
        ]

    def shard_view(self, view: MaterializedView, shard: int) -> MaterializedView:
        """The per-shard definition ``mv_X#s`` of a co-partitioned view."""
        base = self.copartition_base(view)
        if base is None:
            raise WarehouseError(
                f"view {view.name!r} is not co-partitioned with any "
                f"sharded relation"
            )
        scheme = self.catalog.require_scheme(base)
        if not 0 <= shard < scheme.shards:
            raise WarehouseError(
                f"shard {shard} out of range for view {view.name!r}"
            )
        return MaterializedView(
            name=shard_table_name(view.name, shard),
            plan=shard_plan(view.plan, base, shard),
            estimated_maintenance=(
                view.estimated_maintenance / scheme.shards
                if view.estimated_maintenance is not None
                else None
            ),
            estimated_blocks=(
                view.estimated_blocks / scheme.shards
                if view.estimated_blocks is not None
                else None
            ),
        )

    def _dependency_versions(
        self, view: MaterializedView, shard: int
    ) -> Dict[str, int]:
        """Version vector one shard of a view was (or would be) built at."""
        base = self.copartition_base(view)
        versions: Dict[str, int] = {}
        for relation in sorted(view.base_relations):
            if relation == base:
                versions[shard_table_name(relation, shard)] = (
                    self.shard_version(relation, shard)
                )
            else:
                versions[relation] = self.warehouse._base_versions.get(
                    relation, 0
                )
        return versions

    def record_fresh(self, view: MaterializedView, shard: int) -> None:
        name = shard_table_name(view.name, shard)
        self._view_versions[name] = self._dependency_versions(view, shard)

    def shard_is_fresh(self, view: MaterializedView, shard: int) -> bool:
        name = shard_table_name(view.name, shard)
        recorded = self._view_versions.get(name)
        if recorded is None:
            return False
        return recorded == self._dependency_versions(view, shard)

    def stale_shards(self, view: MaterializedView) -> Tuple[int, ...]:
        """Shards of a co-partitioned view lagging their dependencies."""
        base = self.copartition_base(view)
        if base is None:
            return ()
        scheme = self.catalog.require_scheme(base)
        return tuple(
            shard
            for shard in scheme.all_shards
            if not self.shard_is_fresh(view, shard)
        )

    def view_staleness(self, view: MaterializedView) -> int:
        """Shard-granular staleness: how many partitions lag their deps."""
        return len(self.stale_shards(view))

    def view_shards_available(self, view: MaterializedView) -> bool:
        """Whether every shard table of this view is materialized."""
        base = self.copartition_base(view)
        if base is None:
            return False
        scheme = self.catalog.require_scheme(base)
        database = self.warehouse.database
        return all(
            shard_table_name(view.name, shard) in database
            for shard in scheme.all_shards
        )

    # ------------------------------------------------------------- pruned serve
    def _prunable_schemes(self, plan: Operator) -> Dict[str, PartitionScheme]:
        """Schemes for every prunable leaf of ``plan`` — partitioned base
        relations plus shard-materialized co-partitioned views (whose
        derived scheme mirrors the base's, provided the key column
        survives into the view's schema)."""
        schemes: Dict[str, PartitionScheme] = dict(self.schemes)
        by_name = {v.name: v for v in self.warehouse.views}
        for leaf in plan.walk():
            if not isinstance(leaf, Relation) or leaf.name not in by_name:
                continue
            view = by_name[leaf.name]
            base = self.copartition_base(view)
            if base is None or not self.view_shards_available(view):
                continue
            base_scheme = self.catalog.require_scheme(base)
            try:
                resolved = view.schema.attribute(base_scheme.key)
            except Exception:
                continue  # partition key projected away: view not prunable
            schemes[view.name] = PartitionScheme(
                relation=view.name,
                key=resolved.name,
                shards=base_scheme.shards,
                kind=base_scheme.kind,
                bounds=base_scheme.bounds,
            )
        return schemes

    def bind(
        self, plan: Operator, prune: bool = True
    ) -> Tuple[Dict[str, Table], Dict[str, Tuple[int, ...]], int]:
        """Prepare a (possibly pruned) sharded execution of ``plan``.

        Returns ``(overrides, partitions_read, pruned)``: tables to
        substitute (a :class:`ShardUnionTable` per overlaid relation),
        the surviving shard ids per prunable relation, and the total
        number of shards pruned away.  A relation is overlaid when
        pruning strictly shrank its shard set, or when it has *only*
        shard tables (a partition-wise-refreshed view with no whole
        table).  Each routed shard read goes through the catalog
        (deterministic replica round-robin, counted as
        ``distributed.replica_reads{site}``); ``prune=False`` keeps
        every shard, for measuring the unpruned baseline.
        """
        schemes = self._prunable_schemes(plan)
        if prune:
            surviving = prune_shards(plan, schemes)
        else:
            surviving = {
                node.name: schemes[node.name].all_shards
                for node in plan.walk()
                if isinstance(node, Relation) and node.name in schemes
            }
        database = self.warehouse.database
        overrides: Dict[str, Table] = {}
        pruned = 0
        for name, shards in sorted(surviving.items()):
            scheme = schemes[name]
            shards = tuple(sorted(shards))
            pruned += scheme.shards - len(shards)
            in_db = name in database
            if in_db and len(shards) >= scheme.shards:
                continue  # nothing pruned: the whole table is cheaper
            if any(
                shard_table_name(name, s) not in database for s in shards
            ):
                continue  # shards not stored; fall back to the whole table
            route = name in self.catalog
            shard_tables = []
            for shard in shards:
                if route:
                    self.catalog.route_read(name, shard)
                shard_tables.append(
                    database.table(shard_table_name(name, shard))
                )
            if in_db:
                template = database.table(name)
            else:
                # A shard-only relation: borrow any stored shard's shape
                # (all shards share it), so even an everything-pruned
                # read yields a well-typed empty table.
                template = database.table(
                    shard_table_name(name, scheme.all_shards[0])
                )
            overrides[name] = ShardUnionTable(
                template.schema, template.blocking_factor, shard_tables
            )
        # Shard-only views that no scheme covers (partition key projected
        # away) still need their union substituted — there is no whole
        # table to fall back to.
        by_name = {v.name: v for v in self.warehouse.views}
        surviving = dict(surviving)
        for node in plan.walk():
            if not isinstance(node, Relation):
                continue
            name = node.name
            if name in overrides or name in database or name in surviving:
                continue
            view = by_name.get(name)
            if view is None or not self.view_shards_available(view):
                continue
            scheme = self.catalog.require_scheme(self.copartition_base(view))
            shard_tables = [
                database.table(shard_table_name(name, shard))
                for shard in scheme.all_shards
            ]
            overrides[name] = ShardUnionTable(
                shard_tables[0].schema,
                shard_tables[0].blocking_factor,
                shard_tables,
            )
            surviving[name] = scheme.all_shards
        if obs.enabled() and pruned:
            obs.metrics().counter("distributed.partitions_pruned").inc(pruned)
        partitions_read = {
            name: tuple(sorted(shards))
            for name, shards in sorted(surviving.items())
        }
        return overrides, partitions_read, pruned

    def run(
        self, plan: Operator, overrides: Dict[str, Table]
    ) -> Tuple[Table, IOSnapshot]:
        """Execute ``plan`` with shard-union substitutions in place."""
        overlay = OverlayDatabase(self.warehouse.database, overrides)
        before = self.warehouse.database.io.snapshot()
        result = self.warehouse.engine.over(overlay).execute(plan)
        return result, self.warehouse.database.io.since(before)

    # ----------------------------------------------------------------- summary
    def describe(self) -> Mapping[str, object]:
        """JSON-safe snapshot: schemes, placement, per-shard versions."""
        out = dict(self.catalog.describe())
        for relation, entry in out.items():
            scheme = self.catalog.require_scheme(relation)
            entry["versions"] = {
                str(shard): self.shard_version(relation, shard)
                for shard in scheme.all_shards
            }
        return out
