"""Generating multiple MVPPs (paper Figure 4) and picking the best design.

Pipeline per the paper:

1. optimize each query individually (step 1);
2. pull selections/projections up, leaving join skeletons (step 2);
3. order plans by ``fq(q) · Ca(optimal plan)`` descending (step 3);
4. merge plans into an MVPP in that order, reusing existing join
   patterns; rotate the list so each plan seeds once — ``k`` queries
   yield ``k`` MVPPs (step 4);
5. push the *disjunction* of the sharing queries' select conditions and
   the *union* of their projection attributes (plus join attributes) down
   to each base relation (steps 5/6), re-applying non-subsumed residual
   conditions above the shared skeletons.

``design()`` runs the whole paper pipeline: generate the MVPP candidates,
run the Figure-9 materialized-view selection on each, and return the
cheapest design.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

from repro import obs
from repro.algebra import predicates as P
from repro.algebra.expressions import Expression
from repro.algebra.operators import (
    Operator,
    Relation,
    project_if,
    select_if,
)
from repro.algebra.rewrite import PulledPlan, pull_up
from repro.algebra.tree import leaves as tree_leaves
from repro.errors import MVPPError
from repro.mvpp.config import DEFAULT_DESIGN_CONFIG, DesignConfig
from repro.mvpp.cost import PER_PERIOD, CostBreakdown, CostCache, MVPPCostCalculator
from repro.mvpp.graph import MVPP, Vertex
from repro.parallel.executor import SerialExecutor, resolve_executor
from repro.mvpp.merge import merge_skeletons, skeleton_join_conjuncts
from repro.optimizer.cardinality import CardinalityEstimator
from repro.optimizer.cost_model import CostModel, DEFAULT_COST_MODEL
from repro.optimizer.heuristics import optimize_query
from repro.optimizer.plans import AnnotatedPlan
from repro.sql.translator import parse_query
from repro.workload.spec import QuerySpec, Workload


@dataclass
class QueryPlanInfo:
    """A query with its individually-optimal plan, normalized for merging."""

    spec: QuerySpec
    plan: Operator
    pulled: PulledPlan
    access_cost: float  # Ca of the optimal plan

    @property
    def rank(self) -> float:
        """The paper's ordering key ``fq(op) · Ca(op)``."""
        return self.spec.frequency * self.access_cost


def prepare_queries(
    workload: Workload,
    estimator: Optional[CardinalityEstimator] = None,
    cost_model: CostModel = DEFAULT_COST_MODEL,
) -> List[QueryPlanInfo]:
    """Steps 1–2: optimal plan + pulled normal form for every query."""
    estimator = estimator or CardinalityEstimator(workload.statistics)
    infos = []
    with obs.span("generation.prepare", queries=len(workload.queries)):
        for spec in workload.queries:
            with obs.span("generation.optimize", query=spec.name) as span:
                raw = parse_query(spec.sql, workload.catalog)
                plan = optimize_query(raw, estimator, cost_model)
                annotated = AnnotatedPlan(plan, estimator, cost_model)
                span.set(access_cost=annotated.total_cost)
                infos.append(
                    QueryPlanInfo(
                        spec=spec,
                        plan=plan,
                        pulled=pull_up(plan),
                        access_cost=annotated.total_cost,
                    )
                )
    return infos


def build_mvpp(
    ordered_infos: Sequence[QueryPlanInfo],
    workload: Workload,
    estimator: Optional[CardinalityEstimator] = None,
    cost_model: CostModel = DEFAULT_COST_MODEL,
    name: str = "mvpp",
    push_down: bool = True,
    maintenance_write: bool = False,
) -> MVPP:
    """Steps 4–6 for one merge order: merge skeletons, push down, intern.

    ``push_down=False`` yields the paper's *Figure 7* form (selections
    above the shared joins); the default yields the optimized *Figure 8*
    form with leaf-level disjunctive selections and unioned projections.
    """
    estimator = estimator or CardinalityEstimator(workload.statistics)
    with obs.span(
        "generation.merge", mvpp=name, queries=len(ordered_infos)
    ) as span:
        merged = merge_skeletons(
            [(info.spec.name, info.pulled.skeleton) for info in ordered_infos]
        )

        plans: Dict[str, Operator] = {}
        if push_down:
            stems = _leaf_stems(ordered_infos, merged)
            for info in ordered_infos:
                plans[info.spec.name] = _assemble_pushed(info, merged, stems)
        else:
            for info in ordered_infos:
                body = select_if(merged[info.spec.name], info.pulled.selection)
                if info.pulled.aggregate is not None:
                    body = info.pulled.aggregate.with_children((body,))
                plans[info.spec.name] = info.pulled.decorate(
                    project_if(body, info.pulled.projection)
                )

        mvpp = MVPP(name=name)
        for spec in workload.queries:  # stable vertex naming across rotations
            if spec.name in plans:
                mvpp.add_query(spec.name, plans[spec.name], spec.frequency)
        for leaf in mvpp.leaves:
            leaf.frequency = workload.update_frequency(leaf.name)
        mvpp.annotate(estimator, cost_model, maintenance_write=maintenance_write)
        mvpp.assign_names()
        span.set(vertices=len(mvpp))
    return mvpp


def _build_rotation(payload: Tuple[Any, ...]) -> MVPP:
    """Build one rotation's MVPP (module-level so process pools can run it)."""
    order, workload, estimator, cost_model, name, push_down = payload
    return build_mvpp(
        order, workload, estimator, cost_model, name=name, push_down=push_down
    )


def generate_mvpps(
    workload: Workload,
    estimator: Optional[CardinalityEstimator] = None,
    cost_model: CostModel = DEFAULT_COST_MODEL,
    rotations: Optional[int] = None,
    push_down: bool = True,
    config: Optional[DesignConfig] = None,
) -> List[MVPP]:
    """The full Figure-4 algorithm: one MVPP per rotation of the plan list.

    With a ``config``, its ``rotations``/``push_down`` take over (unless
    the explicit keyword arguments were given) and its
    ``workers``/``executor`` fan the per-rotation merges out in
    parallel.  The candidate list is identical for every backend: tasks
    are dispatched and collected in rotation order.
    """
    if config is not None:
        rotations = rotations if rotations is not None else config.rotations
        push_down = push_down and config.push_down
    executor = (
        resolve_executor(config.executor, config.workers)
        if config is not None
        else SerialExecutor()
    )
    estimator = estimator or CardinalityEstimator(workload.statistics)
    with obs.span("generation.mvpps", workload=workload.name) as span:
        infos = prepare_queries(workload, estimator, cost_model)
        infos.sort(key=lambda info: -info.rank)
        k = len(infos)
        if k == 0:
            raise MVPPError("workload has no queries")
        count = k if rotations is None else max(1, min(rotations, k))
        span.set(rotations=count, workers=executor.workers)
        obs.metrics().counter("generation.candidates").inc(count)
        payloads = [
            (
                infos[rotation:] + infos[:rotation],
                workload,
                estimator,
                cost_model,
                f"{workload.name}-mvpp{rotation + 1}",
                push_down,
            )
            for rotation in range(count)
        ]
        mvpps = executor.map(_build_rotation, payloads)
    return mvpps


# ---------------------------------------------------------------------------
# steps 5/6: leaf-level push-down
# ---------------------------------------------------------------------------
def _leaf_conjuncts(
    info: QueryPlanInfo,
) -> Tuple[Dict[str, List[Expression]], List[Expression]]:
    """Split a query's selection conjuncts per leaf; rest are residual-only."""
    per_leaf: Dict[str, List[Expression]] = {}
    residual_only: List[Expression] = []
    leaf_columns = {
        leaf.name: set(leaf.schema.attribute_names)
        for leaf in tree_leaves(info.pulled.skeleton)
    }
    for conjunct in P.conjuncts(info.pulled.selection):
        owner = next(
            (
                name
                for name, columns in leaf_columns.items()
                if conjunct.columns() <= columns
            ),
            None,
        )
        if owner is None:
            residual_only.append(conjunct)
        else:
            per_leaf.setdefault(owner, []).append(conjunct)
    return per_leaf, residual_only


def _needed_from_leaf(info: QueryPlanInfo, leaf: Relation) -> Set[str]:
    """Attributes of ``leaf`` this query needs anywhere above it."""
    needed: Set[str] = set()
    leaf_columns = set(leaf.schema.attribute_names)
    if info.pulled.aggregate is not None:
        needed |= set(info.pulled.aggregate.group_by)
        needed |= {
            s.attribute
            for s in info.pulled.aggregate.aggregates
            if s.attribute is not None
        }
    else:
        needed |= set(info.pulled.projection)
    if info.pulled.selection is not None:
        needed |= info.pulled.selection.columns()
    for predicate in skeleton_join_conjuncts(info.pulled.skeleton):
        needed |= predicate.columns()
    return needed & leaf_columns


def _leaf_stems(
    infos: Sequence[QueryPlanInfo], merged: Dict[str, Operator]
) -> Dict[str, Operator]:
    """Figure 4 steps 5/6: the σ/π stem placed over each base relation.

    Selection: the disjunction over sharing queries of each query's
    conjunction of conditions on that relation (TRUE when any sharing
    query filters nothing).  Projection: the union of attributes any
    sharing query needs, plus join attributes (collected inside
    :func:`_needed_from_leaf`).
    """
    leaf_nodes: Dict[str, Relation] = {}
    for skeleton in merged.values():
        for leaf in tree_leaves(skeleton):
            leaf_nodes[leaf.name] = leaf

    stems: Dict[str, Operator] = {}
    for leaf_name, leaf in leaf_nodes.items():
        terms: List[Optional[Expression]] = []
        union_attrs: Set[str] = set()
        for info in infos:
            if leaf_name not in {l.name for l in tree_leaves(merged[info.spec.name])}:
                continue
            per_leaf, _ = _leaf_conjuncts(info)
            mine = per_leaf.get(leaf_name, [])
            terms.append(P.conjunction(mine) if mine else None)
            union_attrs |= _needed_from_leaf(info, leaf)
        condition = P.disjunction(terms) if terms else None
        stem: Operator = select_if(leaf, condition)
        if union_attrs:
            ordered = [
                a for a in leaf.schema.attribute_names if a in union_attrs
            ]
            stem = project_if(stem, ordered)
        stems[leaf_name] = stem
    return stems


def _assemble_pushed(
    info: QueryPlanInfo, merged: Dict[str, Operator], stems: Dict[str, Operator]
) -> Operator:
    """Rebuild one query over the stemmed leaves and re-apply residuals."""
    skeleton = _replace_leaves(merged[info.spec.name], stems, {})

    per_leaf, residual_only = _leaf_conjuncts(info)
    residuals: List[Expression] = list(residual_only)
    for leaf_name, conjs in per_leaf.items():
        stem = stems[leaf_name]
        pushed = _stem_condition(stem)
        for conjunct in conjs:
            if not P.implies(pushed, conjunct):
                residuals.append(conjunct)

    body = select_if(skeleton, P.conjunction(residuals))
    if info.pulled.aggregate is not None:
        body = info.pulled.aggregate.with_children((body,))
    return info.pulled.decorate(project_if(body, info.pulled.projection))


def _replace_leaves(
    node: Operator, stems: Dict[str, Operator], memo: Dict[str, Operator]
) -> Operator:
    cached = memo.get(node.signature)
    if cached is not None:
        return cached
    if isinstance(node, Relation):
        out = stems.get(node.name, node)
    else:
        out = node.with_children(
            tuple(_replace_leaves(child, stems, memo) for child in node.children)
        )
    memo[node.signature] = out
    return out


def _stem_condition(stem: Operator) -> Optional[Expression]:
    """The selection condition a stem applies (if any)."""
    from repro.algebra.operators import Select

    for node in stem.walk():
        if isinstance(node, Select):
            return node.predicate
    return None


# ---------------------------------------------------------------------------
# end-to-end design
# ---------------------------------------------------------------------------
@dataclass
class DesignResult:
    """Output of the full paper pipeline for one workload.

    Implements the :class:`~repro.mvpp.config.CostedResult` protocol
    (``query_cost`` / ``maintenance_cost`` / ``total_cost`` / ``views``),
    making it interchangeable with Table-2
    :class:`~repro.mvpp.strategies.StrategyResult` rows.
    """

    mvpp: MVPP
    materialized: List[Vertex]
    breakdown: CostBreakdown
    calculator: MVPPCostCalculator
    candidates: List[MVPP]
    config: DesignConfig = field(default_factory=lambda: DEFAULT_DESIGN_CONFIG)
    cache_stats: Optional[Dict[str, float]] = None
    lint_report: Optional[Any] = None  # LintReport when config.lint=True

    @property
    def materialized_names(self) -> Tuple[str, ...]:
        return tuple(v.name for v in self.materialized)

    @property
    def views(self) -> Tuple[str, ...]:
        """Protocol alias for the materialized vertex names."""
        return self.materialized_names

    @property
    def query_cost(self) -> float:
        return self.breakdown.query_processing

    @property
    def maintenance_cost(self) -> float:
        return self.breakdown.maintenance

    @property
    def total_cost(self) -> float:
        return self.breakdown.total


def _evaluate_candidate(payload: Tuple[Any, ...]) -> Tuple[Tuple[str, ...], CostBreakdown]:
    """Select views on one candidate MVPP; returns (names, breakdown).

    Module-level so process pools can run it.  Names (not Vertex
    objects) cross the worker boundary — the parent re-resolves them on
    its own MVPP instances, keeping object identity intact.
    """
    from repro.mvpp import strategies as strategy_registry

    mvpp, trigger, config, cache = payload
    calculator = MVPPCostCalculator(mvpp, trigger, cache=cache)
    strategy = strategy_registry.get_strategy(config.strategy)
    chosen = strategy(mvpp, calculator, config)
    breakdown = calculator.breakdown(chosen)
    return tuple(v.name for v in chosen), breakdown


def design(
    workload: Workload,
    config: Optional[DesignConfig] = None,
    estimator: Optional[CardinalityEstimator] = None,
    cost_model: CostModel = DEFAULT_COST_MODEL,
    cache: Optional[CostCache] = None,
) -> DesignResult:
    """Generate candidate MVPPs, select views on each, keep the cheapest.

    The unified entry point: every knob lives on ``config`` (a
    :class:`~repro.mvpp.config.DesignConfig`); ``estimator`` /
    ``cost_model`` stay separate because they are live objects, not
    configuration values.

    ``config.workers > 1`` fans the per-candidate Figure-9 selection
    out on the configured executor; ``config.cache`` shares one
    :class:`~repro.mvpp.cost.CostCache` across candidates (pass
    ``cache`` to reuse a caller-owned instance, e.g. the warehouse's).
    Results are bit-identical across worker counts and backends: tasks
    are collected in candidate order and ties keep the earlier
    candidate, exactly like the serial loop.

    ``config.include_naive`` adds one more candidate beyond the paper's
    Figure-4 rotations: the MVPP obtained by interning each query's
    individually-optimal plan unchanged (no join-pattern merge, no
    disjunctive push-down).  When queries already share identical
    subplans, that naive MVPP keeps selections exact and can beat the
    merged ones, whose disjunctive stems widen shared intermediates —
    see ``benchmarks/bench_ablation_merge.py``.
    """
    from repro.mvpp.builder import build_from_workload

    if config is not None and not isinstance(config, DesignConfig):
        raise TypeError(
            f"design() config must be a DesignConfig, not {type(config).__name__}"
        )
    config = config or DEFAULT_DESIGN_CONFIG

    estimator = estimator or CardinalityEstimator(workload.statistics)
    trigger = config.resolved_trigger(PER_PERIOD)
    if cache is None and config.cache:
        cache = CostCache()
    elif not config.cache:
        cache = None
    hits_before = cache.hits if cache is not None else 0
    misses_before = cache.misses if cache is not None else 0

    with obs.span(
        "generation.design",
        workload=workload.name,
        strategy=config.strategy,
        workers=config.workers,
    ) as span:
        candidates = generate_mvpps(
            workload, estimator, cost_model, config=config
        )
        if config.include_naive:
            candidates = candidates + [
                build_from_workload(workload, estimator, cost_model)
            ]
        executor = resolve_executor(config.executor, config.workers)
        payloads = [
            (mvpp, trigger, config, cache) for mvpp in candidates
        ]
        evaluations = executor.map(_evaluate_candidate, payloads)

        best: Optional[DesignResult] = None
        for mvpp, (names, breakdown) in zip(candidates, evaluations):
            if best is not None and breakdown.total >= best.total_cost:
                continue
            calculator = MVPPCostCalculator(mvpp, trigger, cache=cache)
            best = DesignResult(
                mvpp=mvpp,
                materialized=[mvpp.vertex_by_name(n) for n in names],
                breakdown=breakdown,
                calculator=calculator,
                candidates=candidates,
                config=config,
            )
        assert best is not None  # generate_mvpps raises on empty workloads
        if config.lint:
            from repro.lint.semantic import lint_design

            report = lint_design(
                best.mvpp,
                best.materialized,
                calculator=best.calculator,
                workload=workload,
                policy=config.adaptive,
                streaming=config.streaming,
            )
            best.lint_report = report
            report.publish()
            span.set(lint_diagnostics=len(report.diagnostics))
            report.raise_on_errors()
        if cache is not None:
            cache.publish(hits_before, misses_before)
            best.cache_stats = cache.stats()
            span.set(
                cache_hits=cache.hits - hits_before,
                cache_misses=cache.misses - misses_before,
                cache_hit_ratio=cache.hit_ratio,
            )
        span.set(
            chosen=best.mvpp.name,
            materialized=list(best.materialized_names),
            total_cost=best.total_cost,
        )
    return best
