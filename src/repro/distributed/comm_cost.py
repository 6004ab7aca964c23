"""Site-aware MVPP costing.

Extends the centralized :class:`~repro.mvpp.cost.MVPPCostCalculator` with
the data-transfer term the paper calls for in distributed warehouses:
computing anything at the warehouse from a *virtual* (non-materialized)
lineage requires shipping the involved base relations' blocks from their
member-database sites; refreshing a materialized view does the same, once
per refresh trigger.  Materialized views live at the warehouse site, so
reading them incurs no communication — with or without synced statistics
(a stats-less stored view is priced as a warehouse-local recompute, the
same proxy the centralized calculator uses).

With a :class:`~repro.distributed.sharding.ShardCatalog` the model
becomes partition-aware:

* **access** — a partitioned base relation ships per shard, each from
  its own primary site, weighted by the catalog's per-shard query
  weight (the probability a query execution needs the shard; pass an
  explicit surviving-shard map for a concrete pruned query);
* **refresh** — a view co-partitioned with one partitioned base pays
  per *affected* partition: each shard contributes its update-weight
  share of the trigger times (its fraction of the view recompute plus
  shipping that one shard and the whole of every other lineage
  relation).  With a single partition this degenerates exactly to the
  whole-object formula, and with zero transfer costs to the centralized
  calculator.
"""

from __future__ import annotations

from typing import FrozenSet, Mapping, Optional, Sequence

from repro.distributed.sharding import LOCAL_SITE, ShardCatalog
from repro.distributed.sites import Topology
from repro.errors import DistributedError
from repro.mvpp.cost import MVPPCostCalculator, PER_PERIOD
from repro.mvpp.graph import MVPP, Vertex

#: Surviving shards per relation, as produced by
#: :func:`repro.warehouse.rewriter.prune_shards`.
PrunedShards = Mapping[str, Sequence[int]]


class DistributedCostCalculator(MVPPCostCalculator):
    """MVPP cost model with inter-site block-transfer charges."""

    def __init__(
        self,
        mvpp: MVPP,
        topology: Topology,
        placement: Mapping[str, str],
        warehouse_site: str,
        maintenance_trigger: str = PER_PERIOD,
        sharding: Optional[ShardCatalog] = None,
    ):
        super().__init__(mvpp, maintenance_trigger)
        if warehouse_site not in topology:
            raise DistributedError(f"unknown warehouse site {warehouse_site!r}")
        for relation, site in placement.items():
            if site not in topology:
                raise DistributedError(
                    f"relation {relation!r} placed at unknown site {site!r}"
                )
        missing = [
            leaf.name for leaf in mvpp.leaves if leaf.name not in placement
        ]
        if missing:
            raise DistributedError(
                f"no site assigned for base relations: {sorted(missing)}"
            )
        if sharding is not None:
            for relation in sharding.relations:
                scheme = sharding.require_scheme(relation)
                for shard in scheme.all_shards:
                    for site in sharding.sites_for(relation, shard):
                        if site != LOCAL_SITE and site not in topology:
                            raise DistributedError(
                                f"shard {relation!r}#{shard} placed at "
                                f"unknown site {site!r}"
                            )
        self.topology = topology
        self.placement = dict(placement)
        self.warehouse_site = warehouse_site
        self.sharding = sharding

    # ------------------------------------------------------------- transfers
    def _shard_site(self, relation: str, shard: int) -> str:
        """Where one shard's primary copy lives (placement fallback)."""
        assert self.sharding is not None
        primary = self.sharding.primary(relation, shard)
        if primary in self.topology:
            return primary
        return self.placement[relation]

    def _shard_transfer_cost(self, leaf: Vertex, shard: int) -> float:
        """Shipping one shard of a partitioned base to the warehouse."""
        if leaf.stats is None:
            return 0.0
        assert self.sharding is not None
        blocks = leaf.stats.blocks * self.sharding.shard_fraction(
            leaf.name, shard
        )
        return self.topology.transfer_cost(
            self._shard_site(leaf.name, shard), self.warehouse_site, blocks
        )

    def leaf_transfer_cost(
        self, leaf: Vertex, surviving: Optional[Sequence[int]] = None
    ) -> float:
        """Cost of shipping one copy of a base relation to the warehouse.

        For a partitioned relation this sums per shard: over the
        ``surviving`` shards when given (a concrete pruned query), else
        over every shard weighted by the catalog's per-shard query
        weight (the design-time expectation).
        """
        scheme = (
            self.sharding.scheme(leaf.name)
            if self.sharding is not None
            else None
        )
        if scheme is None:
            if leaf.stats is None:
                return 0.0
            return self.topology.transfer_cost(
                self.placement[leaf.name], self.warehouse_site,
                leaf.stats.blocks,
            )
        if surviving is not None:
            return sum(
                self._shard_transfer_cost(leaf, shard)
                for shard in sorted(surviving)
            )
        return sum(
            self.sharding.query_weight(leaf.name, shard)
            * self._shard_transfer_cost(leaf, shard)
            for shard in scheme.all_shards
        )

    def lineage_transfer_cost(
        self, vertex: Vertex, pruned: Optional[PrunedShards] = None
    ) -> float:
        """Transfer cost of every base relation feeding ``vertex``.

        ``pruned`` maps relation names to their surviving shard ids
        (absent relations ship in full) — access cost becomes the sum
        over partitions surviving pruning.
        """
        total = 0.0
        for leaf in sorted(
            self.base_relations_of(vertex), key=lambda v: v.name
        ):
            surviving = None if pruned is None else pruned.get(leaf.name)
            total += self.leaf_transfer_cost(leaf, surviving)
        return total

    def _maintenance_transfer_cost(self, leaf: Vertex) -> float:
        """Shipping a whole lineage relation for one refresh (unweighted)."""
        scheme = (
            self.sharding.scheme(leaf.name)
            if self.sharding is not None
            else None
        )
        if scheme is None:
            if leaf.stats is None:
                return 0.0
            return self.topology.transfer_cost(
                self.placement[leaf.name], self.warehouse_site,
                leaf.stats.blocks,
            )
        return sum(
            self._shard_transfer_cost(leaf, shard)
            for shard in scheme.all_shards
        )

    # --------------------------------------------------- overridden costing
    def _leaf_access_cost(self, vertex: Vertex) -> float:
        """Reading a base relation ships it from its member site(s)."""
        return self.leaf_transfer_cost(vertex)

    def _copartition_base(
        self, leaves: Sequence[Vertex]
    ) -> Optional[Vertex]:
        """The partitioned base a view's refresh fans out over.

        A view is refreshed partition-wise along exactly one partitioned
        lineage relation; with several partitioned bases the name-least
        one is chosen (deterministic, matching the storage layer's
        co-partitioning rule of requiring a single partitioned base).
        """
        if self.sharding is None:
            return None
        partitioned = sorted(
            (leaf for leaf in leaves if leaf.name in self.sharding),
            key=lambda v: v.name,
        )
        return partitioned[0] if partitioned else None

    def _per_refresh_cost(self, vertex: Vertex) -> float:
        """Refresh cost per trigger unit, partition-aware.

        Without sharding (or with no partitioned lineage): recompute the
        view and ship its whole lineage.  With a co-partition base ``b``:
        ``Σ_s w_u(b,s) · (Cm·fraction(b,s) + T(b,s) + Σ_{l≠b} T(l))`` —
        only the partition named by an update batch refreshes, so each
        shard contributes its update-weight share of recomputing its
        fraction of the view plus shipping that one shard (and the whole
        of every other lineage relation it joins against).
        """
        leaves = sorted(
            self.base_relations_of(vertex), key=lambda v: v.name
        )
        base = self._copartition_base(leaves)
        if base is None:
            return vertex.maintenance_cost + sum(
                self._maintenance_transfer_cost(leaf) for leaf in leaves
            )
        scheme = self.sharding.require_scheme(base.name)
        others = sum(
            self._maintenance_transfer_cost(leaf)
            for leaf in leaves
            if leaf.name != base.name
        )
        total = 0.0
        for shard in scheme.all_shards:
            weight = self.sharding.update_weight(base.name, shard)
            fraction = self.sharding.shard_fraction(base.name, shard)
            total += weight * (
                vertex.maintenance_cost * fraction
                + self._shard_transfer_cost(base, shard)
                + others
            )
        return total

    def maintenance_cost(self, materialized: FrozenSet[int]) -> float:
        total = 0.0
        for vertex_id in sorted(materialized):  # id order: deterministic float sum
            vertex = self.mvpp.vertex(vertex_id)
            if vertex.is_leaf:
                continue
            total += self.refresh_trigger(vertex) * self._per_refresh_cost(
                vertex
            )
        return total

    def weight(self, vertex: Vertex) -> float:
        if vertex.is_leaf:
            return 0.0
        distributed_ca = vertex.access_cost + self.lineage_transfer_cost(vertex)
        saving = sum(
            q.frequency for q in self.queries_using(vertex)
        ) * distributed_ca
        return saving - self.refresh_trigger(vertex) * self._per_refresh_cost(
            vertex
        )

    def incremental_saving(
        self, vertex: Vertex, materialized: FrozenSet[int]
    ) -> float:
        if vertex.is_leaf:
            return 0.0
        distributed_ca = vertex.access_cost + self.lineage_transfer_cost(vertex)
        already_saved = sum(
            self.mvpp.vertex(i).access_cost
            + self.lineage_transfer_cost(self.mvpp.vertex(i))
            for i in sorted(self.descendants(vertex) & materialized)
        )
        effective = distributed_ca - already_saved
        saving = sum(
            q.frequency for q in self.queries_using(vertex)
        ) * effective
        return saving - self.refresh_trigger(vertex) * self._per_refresh_cost(
            vertex
        )
