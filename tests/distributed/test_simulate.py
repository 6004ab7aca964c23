"""Tests for workload-derived partition schemes and the sharding sim."""

import pytest

from repro.distributed.partition import HASH, RANGE
from repro.distributed.simulate import choose_schemes, simulate_sharding
from repro.errors import DistributedError
from repro.workload import paper_rows, paper_workload


class TestChooseSchemes:
    def test_paper_workload_keys_follow_predicates(self):
        """Division is constrained on city (Q1-Q3), Order on quantity
        (Q4); numeric keys get RANGE bounds from the loaded values."""
        workload = paper_workload()
        rows = paper_rows(scale=0.01, seed=0)
        schemes = {
            s.relation: s for s in choose_schemes(workload, rows, 4)
        }
        assert schemes["Division"].key == "Division.city"
        assert schemes["Division"].kind == HASH
        assert schemes["Order"].key == "Order.quantity"
        assert schemes["Order"].kind == RANGE
        assert len(schemes["Order"].bounds) == 3

    def test_without_rows_falls_back_to_hash(self):
        workload = paper_workload()
        schemes = choose_schemes(workload, {}, 4)
        assert schemes
        assert all(s.kind == HASH for s in schemes)

    def test_deterministic(self):
        workload = paper_workload()
        rows = paper_rows(scale=0.01, seed=0)
        first = choose_schemes(workload, rows, 4)
        second = choose_schemes(workload, rows, 4)
        assert [(s.relation, s.key, s.kind, s.bounds) for s in first] == [
            (s.relation, s.key, s.kind, s.bounds) for s in second
        ]


class TestSimulateSharding:
    def test_contracts_hold_end_to_end(self):
        result = simulate_sharding(shards=2, seed=3, scale=0.01)
        assert result.ok
        assert result.rows_identical
        assert result.pruning_wins
        assert result.refresh_affected_only
        document = result.to_dict()
        assert document["ok"] is True
        assert document["shards"] == 2
