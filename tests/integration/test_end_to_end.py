"""Integration tests: the full pipeline from SQL to measured block I/O.

The strongest correctness check in the repository: for both the paper
workload and random synthetic workloads, every query answered *through
the designed materialized views* returns exactly the same rows as the
same query executed directly against base data, and the designed views
reduce total measured query I/O.
"""

import pytest

from repro.executor.engine import load_database
from repro.mvpp import DesignConfig
from repro.warehouse import DataWarehouse
from repro.workload import (
    GeneratorConfig,
    generate_workload,
    paper_rows,
    paper_workload,
    synthetic_rows,
)


def row_key(table):
    return sorted(tuple(sorted(r.items())) for r in table.rows())


class TestPaperWorkloadEndToEnd:
    @pytest.fixture(scope="class")
    def warehouse(self):
        wh = DataWarehouse.from_workload(paper_workload())
        wh.design()
        for relation, rows in paper_rows(scale=0.05, seed=42).items():
            wh.load(relation, rows)
        wh.materialize()
        return wh

    def test_every_query_correct_through_views(self, warehouse):
        for name in ("Q1", "Q2", "Q3", "Q4"):
            with_views, _ = warehouse.execute(name, use_views=True)
            without, _ = warehouse.execute(name, use_views=False)
            assert row_key(with_views) == row_key(without), name

    def test_q1_matches_handwritten_reference(self, warehouse):
        result, _ = warehouse.execute("Q1")
        division = warehouse.database.table("Division")
        product = warehouse.database.table("Product")
        la = {
            r["Division.Did"]
            for r in division.rows()
            if r["Division.city"] == "LA"
        }
        expected = sorted(
            r["Product.name"] for r in product.rows() if r["Product.Did"] in la
        )
        assert sorted(r["Product.name"] for r in result.rows()) == expected

    def test_design_reduces_weighted_io(self, warehouse):
        workload = paper_workload()
        weighted_views = weighted_plain = 0.0
        for spec in workload.queries:
            _, io_views = warehouse.execute(spec.name, use_views=True)
            _, io_plain = warehouse.execute(spec.name, use_views=False)
            weighted_views += spec.frequency * io_views.total
            weighted_plain += spec.frequency * io_plain.total
        assert weighted_views < weighted_plain


class TestSyntheticWorkloadsEndToEnd:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_views_preserve_results(self, seed):
        generated = generate_workload(
            GeneratorConfig(
                num_relations=4,
                num_queries=3,
                max_query_relations=3,
                min_cardinality=2_000,
                max_cardinality=20_000,
                seed=seed,
            )
        )
        warehouse = DataWarehouse.from_workload(generated.workload)
        warehouse.design(DesignConfig(rotations=1))
        for relation, rows in synthetic_rows(generated, scale=0.02, seed=seed).items():
            warehouse.load(relation, rows)
        warehouse.materialize()
        for spec in generated.workload.queries:
            with_views, _ = warehouse.execute(spec.name, use_views=True)
            without, _ = warehouse.execute(spec.name, use_views=False)
            assert row_key(with_views) == row_key(without), (seed, spec.name)

    def test_hash_join_engine_agrees(self):
        generated = generate_workload(
            GeneratorConfig(num_relations=4, num_queries=3, seed=9)
        )
        from repro.executor.engine import HASH

        nested = DataWarehouse.from_workload(generated.workload)
        hashed = DataWarehouse.from_workload(generated.workload, join_method=HASH)
        data = synthetic_rows(generated, scale=0.02, seed=9)
        for wh in (nested, hashed):
            wh.design(DesignConfig(rotations=1))
            for relation, rows in data.items():
                wh.load(relation, rows)
            wh.materialize()
        for spec in generated.workload.queries:
            a, _ = nested.execute(spec.name)
            b, _ = hashed.execute(spec.name)
            assert row_key(a) == row_key(b), spec.name


class TestDesignPipelineStability:
    def test_design_is_deterministic(self):
        workload = paper_workload()
        a = DataWarehouse.from_workload(workload).design()
        b = DataWarehouse.from_workload(paper_workload()).design()
        assert a.materialized_names == b.materialized_names
        assert a.total_cost == pytest.approx(b.total_cost)

    def test_statistics_resync_changes_estimates_not_results(self):
        wh = DataWarehouse.from_workload(paper_workload())
        wh.design()
        data = paper_rows(scale=0.02, seed=13)
        for relation, rows in data.items():
            wh.load(relation, rows)
        wh.materialize()
        before, _ = wh.execute("Q2")
        wh.sync_statistics()
        after, _ = wh.execute("Q2")
        assert row_key(before) == row_key(after)
