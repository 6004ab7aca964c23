"""Selecting the vertices to materialize (paper Figure 9).

Greedy weight-ordered selection with branch pruning:

1. list every operation vertex with positive weight
   ``w(v) = Σ_{q∈Ov} fq(q)·Ca(v) − (refresh trigger)·Cm(v)``,
   in descending weight order;
2. pop the head ``v`` and evaluate its *incremental* saving ``Cs``
   (the access saving net of savings already captured by materialized
   descendants, minus maintenance);
3. ``Cs > 0`` → materialize ``v``; otherwise prune ``v``'s whole branch
   (its ancestors and descendants still listed — materializing them can
   only be worse, by the paper's argument in Section 4.3);
4. finally drop any selected vertex whose immediate destinations are all
   materialized (step 9) — it would never be read.

The full decision trace is recorded so the Figure-9 benchmark can print
the same run the paper walks through (accept tmp4-like node, reject the
query-result node, prune its branch, accept tmp2, skip tmp1).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Deque, FrozenSet, List, Optional, Set, Tuple

from repro import obs
from repro.mvpp.cost import MVPPCostCalculator, PER_PERIOD
from repro.mvpp.graph import MVPP, Vertex


@dataclass(frozen=True)
class SelectionStep:
    """One decision of the Figure-9 loop (for tracing/benchmarks)."""

    vertex: str
    weight: float
    saving: Optional[float]  # Cs; None when skipped without evaluation
    decision: str  # "materialize" | "reject" | "pruned"
    pruned: Tuple[str, ...] = ()


@dataclass
class MaterializationResult:
    """Chosen vertices plus the decision trace."""

    materialized: List[Vertex]
    trace: List[SelectionStep] = field(default_factory=list)

    @property
    def names(self) -> Tuple[str, ...]:
        return tuple(v.name for v in self.materialized)


def _record_step(span, step: SelectionStep) -> None:
    """Emit one Figure-9 decision as a span event + decision counter.

    Uses the same field names as the JSON trace serializer
    (:func:`repro.obs.export.selection_step_to_dict`), so the span
    events and ``repro trace --format json`` stay field-compatible.
    """
    from repro.obs.export import selection_step_to_dict

    span.event("decision", **selection_step_to_dict(step))
    obs.metrics().counter(
        "selection.decisions", decision=step.decision
    ).inc()


def select_views(
    mvpp: MVPP,
    calculator: Optional[MVPPCostCalculator] = None,
    refine: bool = False,
    space_budget: Optional[float] = None,
) -> MaterializationResult:
    """Run the paper's Figure-9 heuristic on an annotated MVPP.

    With ``refine=True`` a post-pass (an extension beyond the paper)
    drops any selected vertex whose removal lowers the *true* total cost.
    The paper's ``Cs`` formula counts the full recompute cost ``Ca(v)``
    as the per-access saving but ignores that reading the stored view
    still costs ``B(v)`` blocks; when ``B(v)`` is close to ``Ca(v)`` the
    faithful heuristic can select a marginally harmful view.  The refined
    variant is what :func:`repro.mvpp.generation.design` uses.

    ``space_budget`` (in blocks) caps the total stored size of the chosen
    views — the classic space-constrained variant of the problem.  A
    vertex that no longer fits is skipped (decision ``"skip-budget"``)
    without pruning its branch: a smaller relative may still fit.
    """
    calculator = calculator or MVPPCostCalculator(mvpp, PER_PERIOD)
    if space_budget is not None and space_budget < 0:
        raise ValueError(f"space budget must be >= 0: {space_budget}")

    with obs.span(
        "selection.figure9", mvpp=mvpp.name, refine=refine
    ) as span:
        emit = obs.enabled()
        trace: List[SelectionStep] = []

        def record(step: SelectionStep) -> None:
            trace.append(step)
            if emit:
                _record_step(span, step)

        # Step 2: candidates with positive weight, descending weight order.
        weighted = [
            (calculator.weight(vertex), vertex) for vertex in mvpp.operations
        ]
        queue: Deque[Tuple[float, Vertex]] = deque(
            sorted(
                ((w, v) for w, v in weighted if w > 0),
                key=lambda item: (-item[0], item[1].vertex_id),
            )
        )
        span.set(candidates=len(queue))

        selected: Set[int] = set()
        used_blocks = 0.0

        while queue:
            weight, vertex = queue.popleft()
            blocks = float(vertex.stats.blocks) if vertex.stats is not None else 0.0
            if space_budget is not None and used_blocks + blocks > space_budget:
                record(SelectionStep(vertex.name, weight, None, "skip-budget"))
                continue
            saving = calculator.incremental_saving(vertex, frozenset(selected))
            if saving > 0:
                used_blocks += blocks
                selected.add(vertex.vertex_id)
                record(
                    SelectionStep(vertex.name, weight, saving, "materialize")
                )
                continue
            # Step 7: prune the rest of this branch — vertices related to v
            # by ancestry can only do worse once v itself is not worth it.
            # u is an ancestor of v exactly when v is a descendant of u.
            below = calculator.descendants(vertex)
            descendants = calculator.descendants
            pruned = []
            kept: Deque[Tuple[float, Vertex]] = deque()
            for item in queue:
                other = item[1]
                if (
                    other.vertex_id in below
                    or vertex.vertex_id in descendants(other)
                ):
                    pruned.append(other.name)
                else:
                    kept.append(item)
            queue = kept
            record(
                SelectionStep(vertex.name, weight, saving, "reject", tuple(pruned))
            )

        # Step 9: drop vertices entirely shadowed by materialized parents.
        final: List[Vertex] = []
        for vertex_id in sorted(selected):
            vertex = mvpp.vertex(vertex_id)
            parents = mvpp.parents_of(vertex)
            if parents and all(p.vertex_id in selected for p in parents):
                record(
                    SelectionStep(
                        vertex.name,
                        calculator.weight(vertex),
                        None,
                        "pruned",
                        (vertex.name,),
                    )
                )
                continue
            final.append(vertex)

        if refine:
            with obs.span("selection.refine", mvpp=mvpp.name):
                before = len(trace)
                final = _drop_net_losses(final, calculator, trace)
                if emit:
                    for step in trace[before:]:
                        _record_step(span, step)
        span.set(materialized=[v.name for v in final])
    return MaterializationResult(materialized=final, trace=trace)


def _drop_net_losses(
    chosen: List[Vertex],
    calculator: MVPPCostCalculator,
    trace: List[SelectionStep],
) -> List[Vertex]:
    """Iteratively remove vertices whose removal lowers the true total.

    Each candidate is probed with
    :meth:`MVPPCostCalculator.removal_delta` — an exact incremental
    re-cost of only the query roots reading through the candidate —
    rather than a full :meth:`~MVPPCostCalculator.breakdown` of the
    remaining design, which recomputed every root per probe.
    """
    current = list(chosen)
    improved = True
    while improved and current:
        improved = False
        with_ids = frozenset(v.vertex_id for v in current)
        for vertex in sorted(current, key=lambda v: v.access_cost):
            without_ids = with_ids - {vertex.vertex_id}
            if calculator.removal_delta(vertex, with_ids, without_ids) < 0:
                current = [
                    v for v in current if v.vertex_id != vertex.vertex_id
                ]
                improved = True
                trace.append(
                    SelectionStep(
                        vertex.name,
                        calculator.weight(vertex),
                        None,
                        "pruned",
                        (vertex.name,),
                    )
                )
                break
    return current
