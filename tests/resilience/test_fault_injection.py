"""Serving under injected faults: stale snapshots, degradation, recovery.

Queries served during failure windows never observe a partially
refreshed view: they are fresh, stale-but-consistent, or degraded to
base relations.  The seeded deferred run converges under a 30% failure
rate and changes with its seed; the full contract over maintenance ×
failure rate × seed is tested in ``tests/warehouse/test_lifecycle.py``.
"""

import datetime

import pytest

from repro.resilience import (
    FaultPolicy,
    OPEN,
    ResilienceConfig,
    RetryPolicy,
)
from repro.warehouse import DataWarehouse, ServedResult
from repro.warehouse.simulation import simulate_lifecycle
from repro.workload import paper_rows, paper_workload


@pytest.fixture(scope="module")
def thirty_percent_run():
    return simulate_lifecycle(failure_rate=0.3, seed=7, rounds=3)


class TestConvergence:
    def test_converges_under_thirty_percent_failure_rate(
        self, thirty_percent_run
    ):
        result = thirty_percent_run
        assert result.maintenance == "defer"
        assert result.converged
        assert result.ok
        assert result.refreshes_failed == 0 or result.refreshes_succeeded > 0
        # Every view that went stale was refreshed back to fresh; views
        # not touched by the update keep epoch 0 (never needed a refresh).
        assert any(epoch > 0 for epoch in result.final_epochs.values())
        assert result.refreshes_succeeded >= result.rounds


class TestDeterminism:
    def test_different_seed_changes_trajectory(self, thirty_percent_run):
        other = simulate_lifecycle(failure_rate=0.3, seed=8, rounds=3)
        assert other.to_dict() != thirty_percent_run.to_dict()


def make_warehouse(seed=7):
    warehouse = DataWarehouse.from_workload(paper_workload())
    warehouse.design()
    for relation, rows in paper_rows(scale=0.02, seed=seed).items():
        warehouse.load(relation, rows)
    warehouse.materialize()
    return warehouse


ORDER_DELTA = [
    {"Pid": 1, "Cid": 2, "quantity": 5, "date": datetime.date(1996, 7, 7)}
]


class TestServingUnderFailure:
    def test_stale_views_serve_previous_committed_snapshot(self):
        warehouse = make_warehouse()
        before = {
            name: warehouse.committed_cardinality(name)
            for name in (v.name for v in warehouse.views)
        }
        warehouse.apply_update("Order", ORDER_DELTA, policy="defer")

        for spec in paper_workload().queries:
            served = warehouse.serve(spec.name)
            assert isinstance(served, ServedResult)
            assert not served.degraded
            for name in served.views_used:
                # Never partial: a stale view still holds exactly the
                # rows of its last committed swap.
                assert (
                    warehouse.database.table(name).cardinality == before[name]
                )
            if served.max_staleness > 0:
                assert not served.is_fresh
                assert any(
                    lag > 0 for lag in served.staleness.values()
                )

    def test_freshness_fresh_filters_stale_views(self):
        warehouse = make_warehouse()
        warehouse.apply_update("Order", ORDER_DELTA, policy="defer")
        stale_names = {v.name for v in warehouse.stale_views()}
        for spec in paper_workload().queries:
            served = warehouse.serve(spec.name, freshness="fresh")
            assert served.max_staleness == 0
            assert not set(served.views_used) & stale_names

    def test_open_breaker_degrades_to_base_relations(self):
        warehouse = make_warehouse()
        warehouse.apply_update("Order", ORDER_DELTA, policy="defer")
        warehouse.attach_faults(FaultPolicy(storage_failure_rate=1.0, seed=0))
        scheduler = warehouse.scheduler(
            ResilienceConfig(retry=RetryPolicy(max_attempts=2), seed=0)
        )
        # Hammer the stale views until every breaker opens.
        opened = set()
        for _ in range(scheduler.config.breaker.failure_threshold):
            for outcome in scheduler.refresh_all():
                if scheduler.breaker_state(outcome.view) == OPEN:
                    opened.add(outcome.view)
        assert opened

        # Foreground faults are off (scope=maintenance), so serving works;
        # queries that would have used an opened view now degrade.
        degraded = []
        for spec in paper_workload().queries:
            served = warehouse.serve(spec.name)
            assert not set(served.views_used) & opened
            if served.degraded:
                degraded.append(spec.name)
                fresh, _ = warehouse.execute(spec.name, use_views=False)
                assert sorted(
                    tuple(sorted(r.items())) for r in served.table.rows()
                ) == sorted(
                    tuple(sorted(r.items())) for r in fresh.rows()
                )
        assert degraded, "no query degraded despite open breakers"

    def test_failed_refresh_leaves_served_contents_untouched(self):
        warehouse = make_warehouse()
        warehouse.apply_update("Order", ORDER_DELTA, policy="defer")
        stale = warehouse.stale_views()
        snapshots = {
            view.name: sorted(
                tuple(sorted(r.items()))
                for r in warehouse.database.table(view.name).rows()
            )
            for view in stale
        }
        warehouse.attach_faults(FaultPolicy(storage_failure_rate=1.0, seed=3))
        scheduler = warehouse.scheduler(
            ResilienceConfig(retry=RetryPolicy(max_attempts=3), seed=3)
        )
        for view in stale:
            assert not scheduler.refresh_view(view).ok
            stored = sorted(
                tuple(sorted(r.items()))
                for r in warehouse.database.table(view.name).rows()
            )
            assert stored == snapshots[view.name], "partial refresh leaked"

    def test_recovery_after_faults_detached(self):
        warehouse = make_warehouse()
        warehouse.apply_update("Order", ORDER_DELTA, policy="defer")
        warehouse.attach_faults(FaultPolicy(storage_failure_rate=1.0, seed=0))
        scheduler = warehouse.scheduler(
            ResilienceConfig(retry=RetryPolicy(max_attempts=2), seed=0)
        )
        assert any(not o.ok for o in scheduler.refresh_all())
        warehouse.detach_faults()
        scheduler.injector = None
        scheduler.clock.advance(scheduler.config.breaker.reset_ticks)
        outcomes = scheduler.refresh_until_converged()
        assert all(o.ok for o in outcomes)
        assert not warehouse.stale_views()
        for spec in paper_workload().queries:
            assert warehouse.serve(spec.name).is_fresh
