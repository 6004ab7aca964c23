"""The unified DesignConfig API: validation, registry, call shapes, protocol.

Exercises the four entry points that accept a config —
``repro.design()``, ``DataWarehouse.design()``, ``redesign()`` and the
CLI — plus the removed pre-DesignConfig call shapes, which now raise
``TypeError``, the strategy registry, and the CostedResult protocol
shared by StrategyResult and DesignResult.
"""

import importlib

import pytest

import repro
from repro import DesignConfig, DesignResult, StrategyResult, design
from repro.errors import MVPPError
from repro.mvpp import (
    CostedResult,
    MVPPCostCalculator,
    get_strategy,
    register_strategy,
    strategies,
    strategy_names,
)
from repro.warehouse import DataWarehouse
from repro.workload import paper_workload


class TestDesignConfig:
    def test_defaults(self):
        config = DesignConfig()
        assert config.strategy == "heuristic"
        assert config.rotations is None
        assert config.workers == 1
        assert config.executor == "auto"
        assert config.cache is True
        assert not config.parallel

    def test_frozen(self):
        with pytest.raises(AttributeError):
            DesignConfig().workers = 4

    def test_replace_revalidates(self):
        config = DesignConfig().replace(workers=4)
        assert config.workers == 4 and config.parallel
        with pytest.raises(MVPPError):
            config.replace(workers=-1)

    @pytest.mark.parametrize(
        "bad",
        [
            {"strategy": ""},
            {"rotations": 0},
            {"workers": -1},
            {"executor": "fibers"},
            {"maintenance_trigger": "sometimes"},
        ],
    )
    def test_validation(self, bad):
        with pytest.raises(MVPPError):
            DesignConfig(**bad)

    def test_trigger_resolution(self):
        assert DesignConfig().resolved_trigger() == "per-period"
        assert (
            DesignConfig(maintenance_trigger="per-base").resolved_trigger()
            == "per-base"
        )

    def test_workers_zero_means_auto(self):
        config = DesignConfig(workers=0)
        assert config.parallel  # auto-sized pools are parallel


class TestStrategyRegistry:
    def test_known_names(self):
        names = strategy_names()
        for expected in ("heuristic", "figure9", "greedy", "exhaustive",
                         "annealing", "genetic", "all-virtual"):
            assert expected in names

    def test_unknown_strategy_raises_with_listing(self):
        with pytest.raises(MVPPError, match="heuristic"):
            get_strategy("nope")

    def test_unknown_strategy_fails_design(self):
        with pytest.raises(MVPPError):
            design(paper_workload(), DesignConfig(strategy="nope", rotations=1))

    def test_register_and_use_custom_strategy(self, workload):
        @register_strategy("test-nothing")
        def _nothing(mvpp, calculator, config):
            return []

        try:
            result = design(
                workload, DesignConfig(strategy="test-nothing", rotations=1)
            )
            assert result.views == ()
            assert result.maintenance_cost == 0.0
        finally:
            strategies._REGISTRY.pop("test-nothing", None)


class TestResultProtocol:
    def test_design_result_is_costed(self, workload):
        result = design(workload, DesignConfig(rotations=1))
        assert isinstance(result, DesignResult)
        assert isinstance(result, CostedResult)
        assert result.total_cost == result.query_cost + result.maintenance_cost
        assert result.views == result.materialized_names

    def test_strategy_result_is_costed(self, paper_mvpp, paper_calculator):
        row = strategies.heuristic(paper_mvpp, paper_calculator)
        assert isinstance(row, StrategyResult)
        assert isinstance(row, CostedResult)
        assert row.views == row.materialized

    def test_top_level_reexports(self):
        for name in (
            "DesignConfig",
            "DesignResult",
            "StrategyResult",
            "CostCache",
            "CostedResult",
            "strategy_names",
        ):
            assert hasattr(repro, name)


#: Each pre-DesignConfig call shape, now a TypeError.  Arguments:
#: the paper workload, its estimator, and a designed warehouse over it.
REMOVED_SHAPES = {
    "design-rotations-kwarg": lambda w, est, wh: design(w, rotations=1),
    "design-positional-estimator": lambda w, est, wh: design(w, est),
    "warehouse-design-rotations": lambda w, est, wh: wh.design(rotations=2),
    "warehouse-redesign-rotations": lambda w, est, wh: wh.redesign(rotations=2),
    "execute-positional-bool": lambda w, est, wh: wh.execute("Q1", True),
    "explain-positional-bool": lambda w, est, wh: wh.explain("Q1", True),
    "profile-positional-bool": lambda w, est, wh: wh.profile("Q1", False),
    "query-plan-positional-bool": lambda w, est, wh: wh.query_plan("Q1", False),
}


class TestLegacyCallShapes:
    """The pre-DesignConfig call shapes are gone; the CLI builds a config."""

    @pytest.mark.parametrize("shape", sorted(REMOVED_SHAPES))
    def test_removed_shape_raises_type_error(self, shape, workload, estimator):
        warehouse = DataWarehouse.from_workload(paper_workload())
        warehouse.design(DesignConfig(rotations=1))
        with pytest.raises(TypeError):
            REMOVED_SHAPES[shape](workload, estimator, warehouse)

    def test_operator_shim_module_is_gone(self):
        with pytest.raises(ModuleNotFoundError):
            importlib.import_module("repro.executor.iterators")

    def test_cli_flags_build_config(self):
        from repro.cli import build_parser, design_config

        args = build_parser().parse_args(
            ["design", "--workers", "4", "--parallel", "thread",
             "--no-cost-cache", "--strategy", "greedy"]
        )
        config = design_config(args)
        assert config == DesignConfig(
            strategy="greedy", workers=4, executor="thread", cache=False,
            engine="vectorized",
        )


class TestPositionalBoolShims:
    def test_execute_rejects_excess_positionals(self):
        warehouse = DataWarehouse.from_workload(paper_workload())
        with pytest.raises(TypeError):
            warehouse.execute("Q1", True, "any", "extra")
