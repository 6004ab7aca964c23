"""The shard/replica catalog: schemes, per-shard placement, routing.

One :class:`ShardCatalog` holds, per partitioned relation:

* its :class:`~repro.distributed.partition.PartitionScheme`;
* per-shard placement — a primary site plus read replicas;
* per-shard frequency weights refining the paper's fq/fu to partition
  granularity: ``update_weight`` is the fraction of the relation's
  update mass landing on a shard (defaults uniform, sums to 1), and
  ``query_weight`` is the probability a query execution needs the shard
  (defaults 1.0 — without pruning every query reads every shard);
* per-shard data fractions used to apportion block counts.

Read routing is deterministic: :meth:`route_read` round-robins over the
sorted ``(primary, *replicas)`` site list with a per-shard cursor, so a
fixed request sequence always lands on the same sites.  Every routed
read increments the ``distributed.replica_reads{site}`` counter.
"""

from __future__ import annotations

from typing import Dict, Iterable, Mapping, Optional, Sequence, Tuple

from repro import obs
from repro.distributed.partition import PartitionScheme
from repro.distributed.sites import Topology
from repro.errors import DistributedError

__all__ = ["LOCAL_SITE", "ShardCatalog"]

#: Placement reported for shards that were never assigned a site (a
#: single-machine warehouse still has a well-defined shard map).
LOCAL_SITE = "local"


class ShardCatalog:
    """Registry of partition schemes, shard placement, and shard weights."""

    def __init__(self, topology: Optional[Topology] = None):
        self.topology = topology
        self._schemes: Dict[str, PartitionScheme] = {}
        # (relation, shard) -> (primary, replicas...)
        self._sites: Dict[Tuple[str, int], Tuple[str, ...]] = {}
        # Deterministic round-robin cursors for replica routing.
        self._cursors: Dict[Tuple[str, int], int] = {}

    # ----------------------------------------------------------------- schemes
    def add_scheme(self, scheme: PartitionScheme) -> PartitionScheme:
        if scheme.relation in self._schemes:
            raise DistributedError(
                f"relation {scheme.relation!r} is already partitioned"
            )
        self._schemes[scheme.relation] = scheme
        return scheme

    def scheme(self, relation: str) -> Optional[PartitionScheme]:
        return self._schemes.get(relation)

    def require_scheme(self, relation: str) -> PartitionScheme:
        scheme = self._schemes.get(relation)
        if scheme is None:
            raise DistributedError(f"relation {relation!r} is not partitioned")
        return scheme

    def __contains__(self, relation: str) -> bool:
        return relation in self._schemes

    @property
    def relations(self) -> Tuple[str, ...]:
        """Partitioned relation names, sorted for deterministic iteration."""
        return tuple(sorted(self._schemes))

    # --------------------------------------------------------------- placement
    def place_shard(
        self,
        relation: str,
        shard: int,
        primary: str,
        replicas: Sequence[str] = (),
    ) -> None:
        """Assign one shard a primary site plus read replicas."""
        scheme = self.require_scheme(relation)
        if not 0 <= shard < scheme.shards:
            raise DistributedError(
                f"shard {shard} out of range for {relation!r}"
            )
        sites = (primary, *replicas)
        if len(set(sites)) != len(sites):
            raise DistributedError(
                f"duplicate sites in placement of {relation!r}#{shard}: "
                f"{sorted(sites)}"
            )
        if self.topology is not None:
            for site in sites:
                if site not in self.topology:
                    raise DistributedError(
                        f"shard {relation!r}#{shard} placed at unknown "
                        f"site {site!r}"
                    )
        self._sites[(relation, shard)] = sites

    def assign_shards_round_robin(
        self, relation: str, sites: Sequence[str], replication: int = 1
    ) -> None:
        """Spread a relation's shards across ``sites`` round-robin.

        ``replication`` counts total copies per shard (1 = primary only);
        replicas are the next sites in rotation after the primary.
        """
        scheme = self.require_scheme(relation)
        if not sites:
            raise DistributedError("need at least one site")
        if len(set(sites)) != len(sites):
            raise DistributedError(f"duplicate sites: {sorted(sites)}")
        if not 1 <= replication <= len(sites):
            raise DistributedError(
                f"replication {replication} needs between 1 and "
                f"{len(sites)} distinct sites"
            )
        for shard in scheme.all_shards:
            copies = tuple(
                sites[(shard + offset) % len(sites)]
                for offset in range(replication)
            )
            self.place_shard(relation, shard, copies[0], copies[1:])

    def sites_for(self, relation: str, shard: int) -> Tuple[str, ...]:
        """``(primary, replicas...)`` of a shard (``("local",)`` if unplaced)."""
        self.require_scheme(relation)
        return self._sites.get((relation, shard), (LOCAL_SITE,))

    def primary(self, relation: str, shard: int) -> str:
        return self.sites_for(relation, shard)[0]

    def route_read(self, relation: str, shard: int) -> str:
        """Pick the site serving the next read of this shard.

        Deterministic round-robin over the sorted site list (primary and
        replicas are equally readable); each call advances the shard's
        cursor and increments ``distributed.replica_reads{site}``.
        """
        sites = sorted(self.sites_for(relation, shard))
        cursor = self._cursors.get((relation, shard), 0)
        self._cursors[(relation, shard)] = cursor + 1
        site = sites[cursor % len(sites)]
        if obs.enabled():
            obs.metrics().counter(
                "distributed.replica_reads", site=site
            ).inc()
        return site

    # ----------------------------------------------------------------- weights
    def query_weight(self, relation: str, shard: int) -> float:
        """P(a query execution touches this shard): 1.0, as without pruning."""
        self.require_scheme(relation)
        return 1.0

    def update_weight(self, relation: str, shard: int) -> float:
        """Fraction of the relation's fu landing on this shard: uniform."""
        return 1.0 / self.require_scheme(relation).shards

    def shard_fraction(self, relation: str, shard: int) -> float:
        """Fraction of the relation's rows/blocks held by this shard: uniform."""
        return 1.0 / self.require_scheme(relation).shards

    # ------------------------------------------------------------------ bulk
    @classmethod
    def build(
        cls,
        schemes: Iterable[PartitionScheme],
        topology: Optional[Topology] = None,
        sites: Sequence[str] = (),
        replication: int = 1,
    ) -> "ShardCatalog":
        """Catalog with every scheme added and (optionally) placed."""
        catalog = cls(topology)
        for scheme in schemes:
            catalog.add_scheme(scheme)
        if sites:
            for relation in catalog.relations:
                catalog.assign_shards_round_robin(
                    relation, sites, replication
                )
        return catalog

    def describe(self) -> Mapping[str, object]:
        """A JSON-safe snapshot of schemes and placement."""
        out: Dict[str, object] = {}
        for relation in self.relations:
            scheme = self._schemes[relation]
            out[relation] = {
                "key": scheme.key,
                "kind": scheme.kind,
                "shards": scheme.shards,
                "bounds": list(scheme.bounds),
                "placement": {
                    str(shard): list(self.sites_for(relation, shard))
                    for shard in scheme.all_shards
                },
            }
        return out
