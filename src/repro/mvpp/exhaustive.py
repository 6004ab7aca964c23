"""Exhaustive and greedy baselines for the view-selection problem.

The paper notes that the exact problem requires trying ``2^n`` vertex
combinations (Section 4.3).  :func:`exhaustive_optimal` does exactly that
(for small MVPPs) and serves as the optimality yardstick in the scaling
benchmark; :func:`greedy_forward` is the classic add-best-view-until-no-
improvement heuristic used as an additional baseline.
"""

from __future__ import annotations

from itertools import combinations
from typing import FrozenSet, List, Optional, Sequence, Tuple

from repro.errors import MVPPError
from repro.mvpp.cost import CostBreakdown, MVPPCostCalculator
from repro.mvpp.graph import MVPP, Vertex

#: Hard cap on exhaustive candidates: 2^18 designs is ~260k evaluations.
MAX_EXHAUSTIVE_CANDIDATES = 18


def exhaustive_optimal(
    mvpp: MVPP,
    calculator: Optional[MVPPCostCalculator] = None,
    candidates: Optional[Sequence[Vertex]] = None,
    max_candidates: int = MAX_EXHAUSTIVE_CANDIDATES,
    space_budget: Optional[float] = None,
) -> Tuple[List[Vertex], CostBreakdown]:
    """The true optimum over every subset of candidate vertices.

    Candidates default to all operation vertices.  Raises
    :class:`MVPPError` when there are more than ``max_candidates`` of
    them — use :func:`greedy_forward` or the Figure-9 heuristic instead.
    ``space_budget`` (blocks) restricts the search to subsets whose
    stored size fits.
    """
    calculator = calculator or MVPPCostCalculator(mvpp)
    pool = list(candidates) if candidates is not None else mvpp.operations
    if len(pool) > max_candidates:
        raise MVPPError(
            f"{len(pool)} candidates exceed the exhaustive-search cap of "
            f"{max_candidates}; use the heuristic for MVPPs this large"
        )
    best_set: List[Vertex] = []
    best = calculator.breakdown(())
    for size in range(1, len(pool) + 1):
        for subset in combinations(pool, size):
            if space_budget is not None and _blocks(subset) > space_budget:
                continue
            breakdown = calculator.breakdown(subset)
            if breakdown.total < best.total:
                best = breakdown
                best_set = list(subset)
    return best_set, best


def _blocks(vertices: Sequence[Vertex]) -> float:
    return sum(
        float(v.stats.blocks) for v in vertices if v.stats is not None
    )


def greedy_forward(
    mvpp: MVPP,
    calculator: Optional[MVPPCostCalculator] = None,
    candidates: Optional[Sequence[Vertex]] = None,
    space_budget: Optional[float] = None,
) -> Tuple[List[Vertex], CostBreakdown]:
    """Add the single most cost-reducing vertex until nothing improves.

    ``O(n²)`` total-cost evaluations; serves as a strong baseline for the
    Figure-9 heuristic in the scaling benchmark.  ``space_budget``
    (blocks) caps the total size of the chosen views.
    """
    calculator = calculator or MVPPCostCalculator(mvpp)
    pool = list(candidates) if candidates is not None else mvpp.operations
    chosen: List[Vertex] = []
    current = calculator.breakdown(())
    remaining = list(pool)
    used_blocks = 0.0
    while remaining:
        best_vertex: Optional[Vertex] = None
        best_breakdown = current
        for vertex in remaining:
            blocks = float(vertex.stats.blocks) if vertex.stats else 0.0
            if space_budget is not None and used_blocks + blocks > space_budget:
                continue
            breakdown = calculator.breakdown(chosen + [vertex])
            if breakdown.total < best_breakdown.total:
                best_breakdown = breakdown
                best_vertex = vertex
        if best_vertex is None:
            break
        chosen.append(best_vertex)
        remaining.remove(best_vertex)
        used_blocks += float(best_vertex.stats.blocks) if best_vertex.stats else 0.0
        current = best_breakdown
    return chosen, current
