"""Unit tests for paper-style reporting."""

import pytest

from repro.analysis.report import (
    format_blocks,
    mvpp_cost_table,
    relation_table,
    render_table,
    strategy_table,
)
from repro.mvpp import strategies
from repro.mvpp.cost import MVPPCostCalculator


class TestFormatBlocks:
    @pytest.mark.parametrize(
        "value,expected",
        [
            (37_577_000, "37.577m"),
            (35_370, "35.37k"),
            (95_671_000, "95.671m"),
            (250, "250"),
            (2_500_000_000, "2.500g"),
        ],
    )
    def test_paper_style(self, value, expected):
        assert format_blocks(value) == expected


class TestRenderTable:
    def test_alignment_and_rule(self):
        text = render_table(["A", "Blong"], [["x", "y"], ["xx", "yy"]])
        lines = text.splitlines()
        assert lines[0].startswith("A")
        assert set(lines[1]) <= {"-", " "}
        assert len(lines) == 4

    def test_title(self):
        text = render_table(["A"], [["1"]], title="T2")
        assert text.splitlines()[0] == "T2"


class TestStrategyTable:
    def test_best_row_marked(self, paper_mvpp):
        calc = MVPPCostCalculator(paper_mvpp)
        rows = [
            strategies.materialize_nothing(paper_mvpp, calc),
            strategies.heuristic(paper_mvpp, calc),
        ]
        text = strategy_table(rows)
        assert "*" in text
        assert "all-virtual" in text

    def test_empty_set_rendered(self, paper_mvpp):
        calc = MVPPCostCalculator(paper_mvpp)
        text = strategy_table([strategies.materialize_nothing(paper_mvpp, calc)])
        assert "(none)" in text


class TestRelationTable:
    def test_lists_table1(self, workload):
        text = relation_table(workload)
        assert "Product" in text
        assert "30,000 records" in text
        assert "fu=1" in text


class TestMVPPCostTable:
    def test_lists_every_vertex(self, paper_mvpp):
        text = mvpp_cost_table(paper_mvpp)
        for vertex in paper_mvpp:
            assert vertex.name in text
        assert "Ca" in text and "Cm" in text


class TestDesignReport:
    def test_sections_present(self, workload):
        from repro.analysis.report import design_report
        from repro.mvpp import DesignConfig, design

        result = design(workload, DesignConfig(rotations=1))
        text = design_report(result)
        assert "Chosen views" in text
        assert "Against the extremes" in text
        assert "Drop-one sensitivity" in text
        for name in result.materialized_names:
            assert name in text

    def test_design_row_is_best(self, workload):
        from repro.analysis.report import design_report
        from repro.mvpp import DesignConfig, design

        result = design(workload, DesignConfig(rotations=1))
        text = design_report(result)
        # The strategy table marks the cheapest row; it must be ours.
        marked = [l for l in text.splitlines() if l.rstrip().endswith("*")]
        assert any("this design" in l for l in marked)
