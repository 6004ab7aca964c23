"""Merging individual query plans into one MVPP (paper Figure 4, step 4.3).

Merging operates on *join skeletons* — plans whose selections and
projections have been pulled up (Figure 4 step 2), leaving only base
relation leaves and join nodes.  The invariant the paper's step 4.3
maintains is: *reuse the join patterns already present in the MVPP*.  For
each incoming plan we

1. partition its leaf set into subsets that are already joined in the
   MVPP (largest first — the "common ancestor" nodes of step 4.3.2) plus
   leftover single leaves;
2. join those pieces left-deep, following the incoming plan's own join
   predicates, starting from the piece containing the plan's first leaf.

A pooled node is only reused when its join predicates agree exactly with
the incoming query's predicates over the same leaves — reusing a node with
different conditions would change the query's meaning.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, AbstractSet, Dict, List, Optional, Sequence, Set

from repro import obs
from repro.algebra import predicates as P
from repro.algebra.expressions import Expression
from repro.algebra.operators import Join, Operator
from repro.algebra.tree import leaves as tree_leaves
from repro.errors import MVPPError

if TYPE_CHECKING:
    from repro.mvpp.generation import QueryPlanInfo


def skeleton_join_conjuncts(skeleton: Operator) -> List[Expression]:
    """All join-condition conjuncts attached to joins of a skeleton."""
    out: List[Expression] = []
    for node in skeleton.walk():
        if isinstance(node, Join) and node.condition is not None:
            out.extend(P.conjuncts(node.condition))
    return out


class _PooledJoin:
    """A pooled join node with the facts reuse checks read, taken once."""

    __slots__ = ("node", "leaves", "conjuncts", "columns")

    def __init__(self, node: Join):
        self.node = node
        self.leaves = node.base_relations()
        self.conjuncts = frozenset(
            p.signature for p in skeleton_join_conjuncts(node)
        )
        self.columns = frozenset(node.schema.attribute_names)


class SkeletonPool:
    """The join nodes currently present in an MVPP under construction."""

    def __init__(self) -> None:
        self._joins: List[_PooledJoin] = []  # creation order
        self._signatures: Set[str] = set()

    def add_tree(self, skeleton: Operator) -> None:
        """Register every join of ``skeleton`` as available for reuse."""
        for node in skeleton.walk():
            if node.signature not in self._signatures:
                self._signatures.add(node.signature)
                if isinstance(node, Join):
                    self._joins.append(_PooledJoin(node))

    def reusable_pieces(
        self, leaf_names: AbstractSet[str], predicates: Sequence[Expression]
    ) -> List[Operator]:
        """Greedy maximal cover of ``leaf_names`` by existing join nodes.

        Only nodes whose internal join predicates match the query's
        predicates over the covered leaves are candidates.  Larger nodes
        are preferred; earlier-created nodes break ties (the paper keeps
        the join pattern of the more expensive, earlier-merged plans).
        """
        query_columns = {p.signature: p.columns() for p in predicates}
        candidates = []
        for position, pooled in enumerate(self._joins):
            if not pooled.leaves <= leaf_names:
                continue
            if not self._conditions_match(pooled, query_columns):
                continue
            candidates.append((len(pooled.leaves), -position, pooled))
        candidates.sort(key=lambda item: (-item[0], -item[1]))

        chosen: List[Operator] = []
        covered: Set[str] = set()
        for _, _, pooled in candidates:
            if pooled.leaves & covered:
                continue
            chosen.append(pooled.node)
            covered |= pooled.leaves
        return chosen

    @staticmethod
    def _conditions_match(
        pooled: _PooledJoin, query_columns: Dict[str, AbstractSet[str]]
    ) -> bool:
        """Node reusable iff its predicates == query's predicates over its leaves.

        ``query_columns`` maps each query predicate's signature to the
        columns it reads.
        """
        if not pooled.conjuncts.issubset(query_columns):
            return False
        within = {
            signature
            for signature, columns in query_columns.items()
            if columns <= pooled.columns
        }
        return within == pooled.conjuncts


def merge_skeletons(ordered: Sequence["QueryPlanInfo"]) -> Dict[str, Operator]:
    """Merge query skeletons in the given order (Figure 4 steps 4.1–4.3).

    ``ordered`` holds the queries' :class:`~repro.mvpp.generation.QueryPlanInfo`,
    most expensive plan first (the caller applies the ``fq · Ca``
    ordering and the rotation).  Returns each query's merged skeleton by
    query name; shared structure is shared as identical subtree objects,
    so interning the results into an :class:`~repro.mvpp.graph.MVPP`
    produces the shared DAG.
    """
    pool = SkeletonPool()
    merged: Dict[str, Operator] = {}
    for index, info in enumerate(ordered):
        if index == 0:
            # step 4.1/4.2: the seed keeps its join order
            result = info.pulled.skeleton
        else:
            result = _merge_one(info, pool)
        merged[info.spec.name] = result
        pool.add_tree(result)
    return merged


def _merge_one(info: "QueryPlanInfo", pool: SkeletonPool) -> Operator:
    predicates = info.join_conjuncts
    pieces = pool.reusable_pieces(info.leaf_names, predicates)
    if obs.enabled():
        registry = obs.metrics()
        registry.counter("generation.reuse_hits").inc(len(pieces))
        registry.counter("generation.reuse_covered_leaves").inc(
            sum(len(tree_leaves(piece)) for piece in pieces)
        )
        if not pieces:
            registry.counter("generation.reuse_misses").inc()
    covered: Set[str] = set().union(*(piece.base_relations() for piece in pieces))
    for leaf in info.leaves:
        if leaf.name not in covered:
            pieces.append(leaf)

    if len(pieces) == 1:
        return pieces[0]
    return _join_pieces(pieces, predicates, first_leaf=info.leaves[0].name)


def _join_pieces(
    pieces: List[Operator], predicates: Sequence[Expression], first_leaf: str
) -> Operator:
    """Left-deep join of ``pieces`` along the query's join predicates."""
    remaining = list(pieces)
    pending = list(predicates)

    start = next(
        (p for p in remaining if first_leaf in p.base_relations()),
        remaining[0],
    )
    remaining.remove(start)
    current = start

    # Drop predicates already satisfied inside the pieces.
    def internal(piece: Operator) -> Set[str]:
        return {p.signature for p in skeleton_join_conjuncts(piece)}

    satisfied = internal(current)
    for piece in remaining:
        satisfied |= internal(piece)
    pending = [p for p in pending if p.signature not in satisfied]

    while remaining:
        chosen: Optional[Operator] = None
        for piece in remaining:
            if _connecting(pending, current, piece):
                chosen = piece
                break
        if chosen is None:
            chosen = remaining[0]  # cross join as a last resort
        remaining.remove(chosen)
        applicable = _connecting(pending, current, chosen)
        for predicate in applicable:
            pending.remove(predicate)
        current = Join(current, chosen, P.conjunction(applicable))
    if pending:
        raise MVPPError(
            f"join predicates left over after merging: "
            f"{[p.signature for p in pending]}"
        )
    return current


def _connecting(
    predicates: Sequence[Expression], left: Operator, right: Operator
) -> List[Expression]:
    left_cols = set(left.schema.attribute_names)
    right_cols = set(right.schema.attribute_names)
    out = []
    for predicate in predicates:
        columns = predicate.columns()
        if (
            columns & left_cols
            and columns & right_cols
            and columns <= (left_cols | right_cols)
        ):
            out.append(predicate)
    return out
