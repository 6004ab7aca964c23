"""End-to-end sharding simulation: pruning, replicas, partition refresh.

The sharded counterpart of
:func:`repro.warehouse.simulation.simulate_lifecycle`: build a
warehouse, partition its base relations horizontally, and verify the
two contracts the partition layer makes —

* **pruning is sound and pays** — every query served through the pruned
  path returns rows identical to the unpruned baseline, and queries with
  a selective predicate on a partition key read *strictly fewer* blocks;
* **refresh is partition-wise** — after an update batch, only the shards
  the batch actually landed on are stale on co-partitioned views, and a
  refresh touches exactly those.

Everything is seeded and runs on the logical tick clock, so two
invocations with the same arguments produce the same result document.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.algebra import predicates as P
from repro.algebra.expressions import ColumnRef, Comparison, Literal
from repro.algebra.operators import Relation
from repro.distributed.partition import (
    HASH,
    RANGE,
    PartitionScheme,
    range_bounds,
)
from repro.errors import DistributedError
from repro.mvpp.config import DesignConfig
from repro.sql.translator import parse_query
from repro.warehouse.simulation import row_multiset
from repro.workload.spec import Workload

__all__ = ["ShardingSimulationResult", "choose_schemes", "simulate_sharding"]


def _json_safe(value: Any) -> Any:
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    if isinstance(value, Mapping):
        return {str(k): _json_safe(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_safe(v) for v in value]
    return str(value)


@dataclass(frozen=True)
class ShardingSimulationResult:
    """Outcome of one :func:`simulate_sharding` run."""

    workload: str
    seed: int
    shards: int
    replication: int
    schemes: Tuple[Mapping[str, Any], ...]
    queries: Tuple[Mapping[str, Any], ...]
    rows_identical: bool
    pruning_wins: bool
    selective_queries: int
    refresh_affected_only: bool
    refreshed_shards: Tuple[str, ...]
    stale_after_update: Mapping[str, Tuple[int, ...]] = field(
        default_factory=dict
    )
    replica_reads: Mapping[str, int] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        """Every contract held: sound pruning that pays and
        partition-wise refresh."""
        return (
            self.rows_identical
            and self.pruning_wins
            and self.selective_queries > 0
            and self.refresh_affected_only
        )

    def to_dict(self) -> Dict[str, Any]:
        return _json_safe(
            {
                "workload": self.workload,
                "seed": self.seed,
                "shards": self.shards,
                "replication": self.replication,
                "schemes": list(self.schemes),
                "queries": list(self.queries),
                "rows_identical": self.rows_identical,
                "pruning_wins": self.pruning_wins,
                "selective_queries": self.selective_queries,
                "refresh": {
                    "affected_only": self.refresh_affected_only,
                    "refreshed_shards": list(self.refreshed_shards),
                    "stale_after_update": dict(self.stale_after_update),
                },
                "replica_reads": dict(self.replica_reads),
                "ok": self.ok,
            }
        )


# ---------------------------------------------------------------------------
# Scheme selection
# ---------------------------------------------------------------------------

def choose_schemes(
    workload: Workload,
    rows: Mapping[str, Sequence[Mapping[str, Any]]],
    shards: int,
) -> List[PartitionScheme]:
    """Derive partition schemes from the workload's own predicates.

    For each relation, the partition key is the column its queries
    compare against literals most often — the column pruning can act on.
    Numeric keys get RANGE schemes (bounds from the loaded values, so
    inequalities prune too); everything else hashes.  Relations never
    constrained by a literal predicate stay unpartitioned: sharding them
    could only add routing overhead, never pruning.
    """
    counts: Dict[Tuple[str, str], int] = {}
    for spec in workload.queries:
        plan = parse_query(spec.sql, workload.catalog)
        leaves = [n for n in plan.walk() if isinstance(n, Relation)]
        for node in plan.walk():
            predicate = getattr(node, "predicate", None)
            if predicate is None:
                predicate = getattr(node, "condition", None)
            if predicate is None:
                continue
            for conjunct in P.conjuncts(predicate):
                if not isinstance(conjunct, Comparison):
                    continue
                if not isinstance(conjunct.left, ColumnRef):
                    continue
                if not isinstance(conjunct.right, Literal):
                    continue
                for leaf in leaves:
                    try:
                        resolved = leaf.schema.attribute(conjunct.left.name)
                    except Exception:
                        continue
                    key = (leaf.name, resolved.name)
                    counts[key] = counts.get(key, 0) + 1

    best: Dict[str, Tuple[int, str]] = {}
    for (relation, column), count in counts.items():
        values = [
            _key_value(row, column) for row in rows.get(relation, ())
        ]
        numeric = bool(values) and all(
            isinstance(v, (int, float)) and not isinstance(v, bool)
            for v in values
        )
        # Prefer more-often-constrained keys; break ties toward RANGE-able
        # (numeric) keys, then alphabetically for determinism.
        rank = (count, 1 if numeric else 0, column)
        if relation not in best or rank > (
            best[relation][0],
            1 if _is_numeric(rows, relation, best[relation][1]) else 0,
            best[relation][1],
        ):
            best[relation] = (count, column)

    schemes: List[PartitionScheme] = []
    for relation in sorted(best):
        column = best[relation][1]
        values = [_key_value(row, column) for row in rows.get(relation, ())]
        if values and _is_numeric(rows, relation, column):
            try:
                bounds = range_bounds(values, shards)
                schemes.append(
                    PartitionScheme(
                        relation=relation,
                        key=column,
                        shards=shards,
                        kind=RANGE,
                        bounds=bounds,
                    )
                )
                continue
            except DistributedError:
                pass  # too few distinct values: fall back to hash
        schemes.append(
            PartitionScheme(
                relation=relation, key=column, shards=shards, kind=HASH
            )
        )
    if not schemes:
        raise DistributedError(
            f"workload {workload.name!r} has no literal predicates to "
            "partition on"
        )
    return schemes


def _key_value(row: Mapping[str, Any], column: str) -> Any:
    if column in row:
        return row[column]
    short = column.split(".")[-1]
    return row.get(short)


def _is_numeric(
    rows: Mapping[str, Sequence[Mapping[str, Any]]],
    relation: str,
    column: str,
) -> bool:
    values = [_key_value(row, column) for row in rows.get(relation, ())]
    return bool(values) and all(
        isinstance(v, (int, float)) and not isinstance(v, bool)
        for v in values
    )


# ---------------------------------------------------------------------------
# Simulation
# ---------------------------------------------------------------------------

def _build_warehouse(
    workload: Workload,
    rows: Mapping[str, Sequence[Mapping[str, Any]]],
    schemes: Sequence[PartitionScheme],
    seed: int,
    sites: Tuple[str, ...],
    replication: int,
):
    from repro.warehouse import DataWarehouse

    warehouse = DataWarehouse.from_workload(workload)
    warehouse.design(DesignConfig(seed=seed))
    for relation, relation_rows in rows.items():
        warehouse.load(relation, relation_rows)
    warehouse.enable_sharding(
        schemes, sites=sites, replication=replication
    )
    return warehouse


def _update_batch(
    rows: Mapping[str, Sequence[Mapping[str, Any]]],
    schemes: Sequence[PartitionScheme],
) -> Tuple[str, List[Mapping[str, Any]]]:
    """A deterministic delta that lands on a strict subset of shards.

    Takes the partitioned relation with the most rows and re-inserts the
    rows of its first non-empty shard bucket (capped), so the affected
    shard set is known in advance and smaller than the full shard map.
    """
    target_scheme = max(
        schemes, key=lambda s: (len(rows.get(s.relation, ())), s.relation)
    )
    relation = target_scheme.relation
    buckets = target_scheme.split_rows(rows.get(relation, ()))
    for shard in target_scheme.all_shards:
        if buckets[shard]:
            return relation, list(buckets[shard][:5])
    raise DistributedError(f"no rows to update in {relation!r}")


def simulate_sharding(
    shards: int = 8,
    replication: int = 2,
    seed: int = 0,
    workload: Optional[Workload] = None,
    rows: Optional[Mapping[str, Sequence[Mapping[str, Any]]]] = None,
    scale: float = 0.02,
) -> ShardingSimulationResult:
    """Run the sharded-warehouse lifecycle and check its contracts.

    Serves every workload query through the pruned and unpruned paths
    (rows must match; selective queries must read strictly fewer
    blocks), applies a shard-local update batch (only co-partitioned
    shards may go stale), and refreshes partition-wise (exactly the
    stale shards must be refreshed).
    """
    from repro import obs
    from repro.workload import paper_rows, paper_workload

    if workload is None:
        workload = paper_workload()
    if rows is None:
        rows = paper_rows(scale=scale, seed=seed)
    schemes = choose_schemes(workload, rows, shards)
    sites = tuple(f"site{i}" for i in range(max(2, replication)))

    warehouse = _build_warehouse(
        workload, rows, schemes, seed, sites, replication
    )

    # ------------------------------------------------------- serve: pruning
    query_reports: List[Mapping[str, Any]] = []
    rows_identical = True
    pruning_wins = True
    selective = 0
    for spec in workload.queries:
        pruned = warehouse.serve(spec.name, prune=True)
        unpruned = warehouse.serve(spec.name, prune=False)
        identical = row_multiset(pruned.table.rows()) == row_multiset(
            unpruned.table.rows()
        )
        rows_identical &= identical
        is_selective = pruned.partitions_pruned > 0
        if is_selective:
            selective += 1
            pruning_wins &= pruned.io.total < unpruned.io.total
        query_reports.append(
            {
                "query": spec.name,
                "rows": pruned.table.cardinality,
                "io_pruned": pruned.io.total,
                "io_unpruned": unpruned.io.total,
                "partitions_read": {
                    name: list(read)
                    for name, read in pruned.partitions_read.items()
                },
                "partitions_pruned": pruned.partitions_pruned,
                "rows_identical": identical,
            }
        )

    # --------------------------------------------- update: affected shards
    relation, delta = _update_batch(rows, schemes)
    scheme = next(s for s in schemes if s.relation == relation)
    affected = sorted(
        dict.fromkeys(
            scheme.shard_of(scheme.key_value(row)) for row in delta
        )
    )

    warehouse.refresh_partitions()  # baseline: all fresh
    warehouse.apply_update(relation, delta, policy="defer")
    stale_after_update = {
        view.name: tuple(warehouse.sharding.stale_shards(view))
        for view in warehouse.sharding.shardable_views()
    }
    outcomes = warehouse.refresh_partitions()
    refreshed_names = tuple(
        sorted(o.view for o in outcomes if o.status == "refreshed")
    )
    # Co-partitioned views may only have shards from the update's
    # landing set stale, and the refresh must touch exactly those.
    expected = tuple(
        sorted(
            f"{view_name}#{shard}"
            for view_name, stale_shards in stale_after_update.items()
            for shard in stale_shards
        )
    )
    refresh_affected_only = refreshed_names == expected and all(
        set(stale_shards) <= set(affected)
        for stale_shards in stale_after_update.values()
    )

    replica_reads: Dict[str, int] = {}
    if obs.enabled():
        for metric in obs.metrics().snapshot().get("counters", ()):
            if metric.get("name") == "distributed.replica_reads":
                site = metric.get("labels", {}).get("site", "?")
                replica_reads[site] = replica_reads.get(site, 0) + int(
                    metric.get("value", 0)
                )

    return ShardingSimulationResult(
        workload=workload.name,
        seed=seed,
        shards=shards,
        replication=replication,
        schemes=tuple(
            {
                "relation": s.relation,
                "key": s.key,
                "kind": s.kind,
                "shards": s.shards,
            }
            for s in schemes
        ),
        queries=tuple(query_reports),
        rows_identical=rows_identical,
        pruning_wins=pruning_wins,
        selective_queries=selective,
        refresh_affected_only=refresh_affected_only,
        refreshed_shards=refreshed_names,
        stale_after_update=stale_after_update,
        replica_reads=replica_reads,
    )
