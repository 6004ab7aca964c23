"""Named materialization strategies — the rows of the paper's Table 2.

Table 2 compares five strategies on the running example:

* keep only base relations (everything virtual),
* materialize selected intermediate sets (``{tmp2, tmp4, tmp6}``,
  ``{tmp2, tmp6}``, ``{tmp2, tmp4}``),
* materialize every query result.

This module provides those strategies generically (plus the Figure-9
heuristic, greedy, and exhaustive baselines), a string-keyed *strategy
registry* (the names :class:`~repro.mvpp.config.DesignConfig.strategy`
accepts), and a comparison harness that produces Table-2-style rows for
any MVPP.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.errors import MVPPError
from repro.mvpp.config import DesignConfig
from repro.mvpp.cost import CostBreakdown, MVPPCostCalculator
from repro.mvpp.exhaustive import exhaustive_optimal, greedy_forward
from repro.mvpp.graph import MVPP, Vertex, VertexKind
from repro.mvpp.materialization import select_views


@dataclass(frozen=True)
class StrategyResult:
    """One Table-2 row: strategy name, chosen views, cost breakdown.

    Implements the :class:`~repro.mvpp.config.CostedResult` protocol, so
    rows are interchangeable with full
    :class:`~repro.mvpp.generation.DesignResult` objects in reports.
    """

    name: str
    materialized: Tuple[str, ...]
    breakdown: CostBreakdown

    @property
    def query_cost(self) -> float:
        return self.breakdown.query_processing

    @property
    def maintenance_cost(self) -> float:
        return self.breakdown.maintenance

    @property
    def total_cost(self) -> float:
        return self.breakdown.total

    @property
    def views(self) -> Tuple[str, ...]:
        """Protocol alias for the materialized vertex names."""
        return self.materialized


# ---------------------------------------------------------------------------
# the strategy registry — the names DesignConfig.strategy accepts
# ---------------------------------------------------------------------------
#: A selection strategy: (annotated MVPP, calculator, config) -> vertices.
SelectionStrategy = Callable[
    [MVPP, MVPPCostCalculator, DesignConfig], List[Vertex]
]

_REGISTRY: Dict[str, SelectionStrategy] = {}


def register_strategy(
    name: str,
) -> Callable[[SelectionStrategy], SelectionStrategy]:
    """Register a selection strategy under ``name`` (decorator).

    Registered names become valid ``DesignConfig.strategy`` values and
    CLI ``--strategy`` choices.  Re-registering a name overrides it
    (last registration wins), so applications can swap in their own
    selectors.
    """

    def decorator(fn: SelectionStrategy) -> SelectionStrategy:
        _REGISTRY[name] = fn
        return fn

    return decorator


def get_strategy(name: str) -> SelectionStrategy:
    """Look up a registered strategy; raises with the known names."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise MVPPError(
            f"unknown selection strategy {name!r}; "
            f"registered: {', '.join(strategy_names())}"
        ) from None


def strategy_names() -> Tuple[str, ...]:
    """Registered strategy names, in registration order."""
    return tuple(_REGISTRY)


@register_strategy("heuristic")
def _strategy_heuristic(
    mvpp: MVPP, calculator: MVPPCostCalculator, config: DesignConfig
) -> List[Vertex]:
    """Figure-9 weight-greedy selection with the refinement post-pass
    (what ``design()`` has always run)."""
    return select_views(mvpp, calculator, refine=True).materialized


@register_strategy("figure9")
def _strategy_figure9(
    mvpp: MVPP, calculator: MVPPCostCalculator, config: DesignConfig
) -> List[Vertex]:
    """The paper-faithful Figure-9 selection, no refinement."""
    return select_views(mvpp, calculator, refine=False).materialized


@register_strategy("greedy")
def _strategy_greedy(
    mvpp: MVPP, calculator: MVPPCostCalculator, config: DesignConfig
) -> List[Vertex]:
    chosen, _ = greedy_forward(mvpp, calculator)
    return chosen


@register_strategy("exhaustive")
def _strategy_exhaustive(
    mvpp: MVPP, calculator: MVPPCostCalculator, config: DesignConfig
) -> List[Vertex]:
    chosen, _ = exhaustive_optimal(mvpp, calculator)
    return chosen


@register_strategy("annealing")
def _strategy_annealing(
    mvpp: MVPP, calculator: MVPPCostCalculator, config: DesignConfig
) -> List[Vertex]:
    from repro.mvpp.annealing import AnnealingConfig, simulated_annealing

    chosen, _ = simulated_annealing(
        mvpp, calculator, config=AnnealingConfig.from_design(config)
    )
    return chosen


@register_strategy("genetic")
def _strategy_genetic(
    mvpp: MVPP, calculator: MVPPCostCalculator, config: DesignConfig
) -> List[Vertex]:
    from repro.mvpp.genetic import GeneticConfig, genetic_search

    chosen, _ = genetic_search(
        mvpp, calculator, config=GeneticConfig.from_design(config)
    )
    return chosen


@register_strategy("all-virtual")
def _strategy_all_virtual(
    mvpp: MVPP, calculator: MVPPCostCalculator, config: DesignConfig
) -> List[Vertex]:
    return []


@register_strategy("materialize-queries")
def _strategy_materialize_queries(
    mvpp: MVPP, calculator: MVPPCostCalculator, config: DesignConfig
) -> List[Vertex]:
    results = [mvpp.children_of(root)[0] for root in mvpp.roots]
    return list({v.vertex_id: v for v in results}.values())


@register_strategy("materialize-everything")
def _strategy_materialize_everything(
    mvpp: MVPP, calculator: MVPPCostCalculator, config: DesignConfig
) -> List[Vertex]:
    return mvpp.operations


def evaluate(
    mvpp: MVPP,
    calculator: MVPPCostCalculator,
    name: str,
    vertices: Iterable[Vertex],
) -> StrategyResult:
    """Cost a specific set of vertices as a named strategy."""
    vertex_list = list(vertices)
    return StrategyResult(
        name=name,
        materialized=tuple(v.name for v in vertex_list),
        breakdown=calculator.breakdown(vertex_list),
    )


def materialize_nothing(
    mvpp: MVPP, calculator: MVPPCostCalculator
) -> StrategyResult:
    """All views virtual — Table 2's 'base relations only' row."""
    return evaluate(mvpp, calculator, "all-virtual", ())


def materialize_all_queries(
    mvpp: MVPP, calculator: MVPPCostCalculator
) -> StrategyResult:
    """Materialize every query's result relation — Table 2's last row."""
    results = [mvpp.children_of(root)[0] for root in mvpp.roots]
    unique = {v.vertex_id: v for v in results}
    return evaluate(
        mvpp, calculator, "materialize-queries", unique.values()
    )


def materialize_everything(
    mvpp: MVPP, calculator: MVPPCostCalculator
) -> StrategyResult:
    """Materialize every non-leaf vertex (upper bound on maintenance)."""
    return evaluate(mvpp, calculator, "materialize-everything", mvpp.operations)


def heuristic(mvpp: MVPP, calculator: MVPPCostCalculator) -> StrategyResult:
    """The paper's Figure-9 weight-greedy selection."""
    result = select_views(mvpp, calculator)
    return evaluate(mvpp, calculator, "heuristic (Fig.9)", result.materialized)


def greedy(mvpp: MVPP, calculator: MVPPCostCalculator) -> StrategyResult:
    """Forward-greedy baseline."""
    chosen, _ = greedy_forward(mvpp, calculator)
    return evaluate(mvpp, calculator, "greedy-forward", chosen)


def exhaustive(
    mvpp: MVPP, calculator: MVPPCostCalculator, max_candidates: int = 18
) -> StrategyResult:
    """The 2^n optimum (small MVPPs only)."""
    chosen, _ = exhaustive_optimal(mvpp, calculator, max_candidates=max_candidates)
    return evaluate(mvpp, calculator, "exhaustive-optimal", chosen)


def annealing(
    mvpp: MVPP, calculator: MVPPCostCalculator, seed: int = 0
) -> StrategyResult:
    """Seeded simulated-annealing baseline."""
    from repro.mvpp.annealing import AnnealingConfig, simulated_annealing

    chosen, _ = simulated_annealing(
        mvpp, calculator, config=AnnealingConfig(seed=seed)
    )
    return evaluate(mvpp, calculator, "simulated-annealing", chosen)


def custom(
    mvpp: MVPP,
    calculator: MVPPCostCalculator,
    name: str,
    vertex_names: Sequence[str],
) -> StrategyResult:
    """Cost an explicit set of vertices given by their MVPP names."""
    vertices = [mvpp.vertex_by_name(n) for n in vertex_names]
    for vertex in vertices:
        if vertex.kind is VertexKind.QUERY:
            raise MVPPError(
                f"materialize the query's result vertex, not the root {vertex.name!r}"
            )
    return evaluate(mvpp, calculator, name, vertices)


def compare(
    mvpp: MVPP,
    calculator: MVPPCostCalculator,
    extra: Optional[Dict[str, Sequence[str]]] = None,
    include_exhaustive: bool = False,
) -> List[StrategyResult]:
    """Run the standard strategy suite (plus ``extra`` named vertex sets)."""
    rows = [
        materialize_nothing(mvpp, calculator),
        materialize_all_queries(mvpp, calculator),
        materialize_everything(mvpp, calculator),
        heuristic(mvpp, calculator),
        greedy(mvpp, calculator),
    ]
    if include_exhaustive:
        rows.append(exhaustive(mvpp, calculator))
    for name, vertex_names in (extra or {}).items():
        rows.append(custom(mvpp, calculator, name, vertex_names))
    return rows
