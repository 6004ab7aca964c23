"""Unit tests for the star-schema workload generator."""

import pytest

from repro.errors import WorkloadError
from repro.sql.translator import parse_query
from repro.workload.star_schema import StarConfig, star_workload


class TestStarWorkload:
    @pytest.fixture(scope="class")
    def workload(self):
        return star_workload(StarConfig(num_dimensions=3, num_queries=5, seed=4))

    def test_schema_shape(self, workload):
        assert "Fact" in workload.catalog
        assert {"Dim1", "Dim2", "Dim3"} <= set(workload.catalog.relation_names)
        fact = workload.catalog.schema("Fact")
        assert "Dim2_fk" in fact

    def test_queries_parse(self, workload):
        for spec in workload.queries:
            plan = parse_query(spec.sql, workload.catalog)
            assert "Fact" in plan.base_relations()

    def test_fact_updates_hotter_than_dims(self, workload):
        assert workload.update_frequency("Fact") > workload.update_frequency("Dim1")

    def test_aggregate_queries_when_enabled(self):
        workload = star_workload(
            StarConfig(num_queries=12, include_aggregates=True, seed=11)
        )
        assert any("GROUP BY" in q.sql for q in workload.queries)
        for spec in workload.queries:
            parse_query(spec.sql, workload.catalog)  # must all translate

    def test_deterministic(self):
        a = star_workload(StarConfig(seed=5))
        b = star_workload(StarConfig(seed=5))
        assert [q.sql for q in a.queries] == [q.sql for q in b.queries]

    def test_validation(self):
        with pytest.raises(WorkloadError):
            StarConfig(num_dimensions=0)

    def test_designable(self):
        """A star workload flows through the full design pipeline."""
        from repro.mvpp import DesignConfig
        from repro.mvpp.generation import design

        workload = star_workload(StarConfig(num_dimensions=2, num_queries=3, seed=6))
        result = design(workload, DesignConfig(rotations=1))
        assert result.breakdown.total > 0
