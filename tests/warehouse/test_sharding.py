"""Sharded warehouse tests: pruned serving, partition-wise refresh.

The contracts under test (see ``docs/distributed.md``):

* pruning is invisible in results — pruned serving returns rows
  identical to the unpruned baseline for every query and seed;
* pruning pays — queries with a selective predicate on a partition key
  read strictly fewer blocks at 8 shards;
* refresh is partition-wise — an update batch leaves only the shards it
  landed on stale on co-partitioned views, and refresh touches exactly
  those;
* partition-wise refresh is exact — after an update, the union of a
  co-partitioned view's shard tables equals the view's plan recomputed
  on the REFERENCE engine over the updated base tables.
"""

import datetime

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.distributed.partition import (
    RANGE,
    PartitionScheme,
    range_bounds,
    shard_table_name,
)
from repro.executor.engine import REFERENCE, ExecutionEngine
from repro.mvpp.config import DesignConfig
from repro.warehouse import DataWarehouse
from repro.workload import paper_rows, paper_workload

SHARDS = 8


def build_sharded(seed=0, scale=0.01, shards=SHARDS, materialize=False):
    workload = paper_workload()
    rows = paper_rows(scale=scale, seed=seed)
    warehouse = DataWarehouse.from_workload(workload)
    warehouse.design(DesignConfig(seed=seed))
    for relation, relation_rows in rows.items():
        warehouse.load(relation, relation_rows)
    schemes = [
        PartitionScheme(
            relation="Division", key="Division.city", shards=shards
        ),
        PartitionScheme(
            relation="Order",
            key="Order.quantity",
            shards=shards,
            kind=RANGE,
            bounds=range_bounds(
                [r["quantity"] for r in rows["Order"]], shards
            ),
        ),
    ]
    warehouse.enable_sharding(schemes, sites=("s0", "s1"), replication=2)
    if materialize:
        warehouse.materialize()
    return warehouse, workload, rows


def canonical(table):
    return sorted(tuple(sorted(row.items())) for row in table.rows())


@pytest.fixture(scope="module")
def sharded():
    return build_sharded()


class TestPrunedServing:
    def test_rows_identical_for_every_query(self, sharded):
        warehouse, workload, _ = sharded
        for spec in workload.queries:
            pruned = warehouse.serve(spec.name, prune=True)
            unpruned = warehouse.serve(spec.name, prune=False)
            assert canonical(pruned.table) == canonical(unpruned.table)

    def test_selective_queries_read_strictly_fewer_blocks(self, sharded):
        """Acceptance criterion: at 8 shards, partition-key-selective
        queries must win strictly on measured block I/O."""
        warehouse, workload, _ = sharded
        selective = 0
        for spec in workload.queries:
            pruned = warehouse.serve(spec.name, prune=True)
            unpruned = warehouse.serve(spec.name, prune=False)
            if pruned.partitions_pruned > 0:
                selective += 1
                assert pruned.io.total < unpruned.io.total, spec.name
        # Q1/Q2/Q3 hit Division.city = 'LA'; Q4 hits quantity > 100.
        assert selective >= 2

    def test_equality_on_hash_key_routes_to_one_shard(self, sharded):
        warehouse, _, _ = sharded
        served = warehouse.serve("Q1", prune=True)
        assert len(served.partitions_read.get("Division", ())) == 1
        assert served.partitions_pruned >= SHARDS - 1

    def test_range_predicate_prunes_range_scheme(self, sharded):
        warehouse, _, _ = sharded
        served = warehouse.serve("Q4", prune=True)
        read = served.partitions_read.get("Order", ())
        assert 0 < len(read) < SHARDS

    def test_unpruned_baseline_reads_every_shard(self, sharded):
        warehouse, _, _ = sharded
        served = warehouse.serve("Q4", prune=False)
        assert len(served.partitions_read.get("Order", ())) == SHARDS
        assert served.partitions_pruned == 0

    def test_materialized_views_still_answer(self):
        """Whole-object views shadow the shard path: serving stays
        correct when the rewriter answers from a stored view."""
        warehouse, workload, _ = build_sharded(materialize=True)
        for spec in workload.queries:
            pruned = warehouse.serve(spec.name, prune=True)
            unpruned = warehouse.serve(spec.name, prune=False)
            assert canonical(pruned.table) == canonical(unpruned.table)

    @given(seed=st.integers(min_value=0, max_value=10_000))
    @settings(
        max_examples=5,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_pruned_serving_is_row_identical_property(self, seed):
        """The issue's hypothesis property: for any data seed, pruned
        serving is row-identical to unpruned serving."""
        warehouse, workload, _ = build_sharded(seed=seed, scale=0.005)
        for spec in workload.queries:
            pruned = warehouse.serve(spec.name, prune=True)
            unpruned = warehouse.serve(spec.name, prune=False)
            assert canonical(pruned.table) == canonical(unpruned.table)


class TestShardStorage:
    def test_shards_partition_the_base_rows(self, sharded):
        warehouse, _, rows = sharded
        scattered = []
        for shard in range(SHARDS):
            name = shard_table_name("Order", shard)
            assert name in warehouse.database
            scattered.extend(warehouse.database.table(name).rows())
        base = warehouse.database.table("Order")
        assert sorted(map(str, scattered)) == sorted(
            map(str, base.rows())
        )

    def test_update_routes_to_owning_shards_only(self):
        warehouse, _, rows = build_sharded()
        scheme = warehouse.sharding.schemes["Order"]
        delta = [
            {
                "Pid": 0,
                "Cid": 0,
                "quantity": 1,
                "date": datetime.date(1996, 3, 1),
            }
        ]
        target = scheme.shard_of(1)
        before = {
            shard: warehouse.sharding.shard_version("Order", shard)
            for shard in scheme.all_shards
        }
        warehouse.apply_update("Order", delta, policy="defer")
        for shard in scheme.all_shards:
            version = warehouse.sharding.shard_version("Order", shard)
            if shard == target:
                assert version == before[shard] + 1
            else:
                assert version == before[shard]

    def test_replica_routing_is_deterministic(self, sharded):
        warehouse, _, _ = sharded
        catalog = warehouse.sharding.catalog
        first = [catalog.route_read("Order", 0) for _ in range(4)]
        sites = sorted(catalog.sites_for("Order", 0))
        assert len(sites) == 2  # replication=2
        # Round-robin over the sorted site list, from wherever the
        # cursor currently stands.
        start = sites.index(first[0])
        expected = [
            sites[(start + offset) % len(sites)] for offset in range(4)
        ]
        assert first == expected


class TestPartitionRefresh:
    def _delta(self, scheme):
        row = {
            "Pid": 0,
            "Cid": 0,
            "quantity": 7,
            "date": datetime.date(1996, 5, 5),
        }
        return [row], scheme.shard_of(7)

    def test_refresh_touches_only_affected_partitions(self):
        warehouse, _, _ = build_sharded()
        warehouse.refresh_partitions()  # baseline: everything fresh
        manager = warehouse.sharding
        delta, target = self._delta(manager.schemes["Order"])
        warehouse.apply_update("Order", delta, policy="defer")
        order_views = [
            v
            for v in manager.shardable_views()
            if manager.copartition_base(v) == "Order"
        ]
        assert order_views, "design should co-partition an Order view"
        for view in order_views:
            assert manager.stale_shards(view) == (target,)
        outcomes = warehouse.refresh_partitions()
        refreshed = sorted(o.view for o in outcomes)
        assert refreshed == sorted(
            f"{view.name}#{target}" for view in order_views
        )

    @pytest.mark.parametrize("shards", [2, 4])
    def test_shard_union_matches_reference_recompute(self, shards):
        warehouse, _, rows = build_sharded(shards=shards)
        warehouse.refresh_partitions()
        manager = warehouse.sharding
        # Re-inserted existing orders join real customers, so the update
        # changes view contents on several shards.
        warehouse.apply_update(
            "Order", [dict(row) for row in rows["Order"][:20]], policy="defer"
        )
        assert any(manager.stale_shards(v) for v in manager.shardable_views())
        warehouse.refresh_partitions()
        oracle = ExecutionEngine(warehouse.database, engine=REFERENCE)
        views = manager.shardable_views()
        assert views
        for view in views:
            scheme = manager.schemes[manager.copartition_base(view)]
            union = sorted(
                row
                for shard in scheme.all_shards
                for row in canonical(
                    warehouse.database.table(shard_table_name(view.name, shard))
                )
            )
            assert union == canonical(oracle.execute(view.plan)), view.name

    def test_serve_refresh_policy_rebuilds_stale_shards(self):
        warehouse, workload, _ = build_sharded()
        warehouse.refresh_partitions()
        manager = warehouse.sharding
        delta, target = self._delta(manager.schemes["Order"])
        warehouse.apply_update("Order", delta, policy="defer")
        warehouse.serve("Q4", freshness="refresh")
        for view in manager.shardable_views():
            if manager.copartition_base(view) == "Order":
                assert manager.stale_shards(view) == ()
