"""The delta propagation graph: base-relation changes → view deltas.

Compiled once per installed design from the view plans (the MVPP's
materialized vertices), this module generalizes the single-view delta
rules of :class:`repro.warehouse.maintenance.ViewMaintainer` into a
graph of per-edge propagation operators: one base-relation delta fans
out to every affected view in one pass, and subplans shared by several
views evaluate their delta **once** (materialized to a transient
``__cdc_shared_*`` table and substituted into each consumer).

Per-edge classification mirrors the batch maintainer's fallbacks
(:meth:`repro.warehouse.maintenance.ViewMaintainer.incremental_refresh`)
with one difference: the insert-only batch path merges
self-maintainable aggregates from their delta, while this graph, which
also carries deletes, still recomputes every aggregate view until the
two paths are one.

========================  =======================================
plan shape                rule
========================  =======================================
SPJ, relation once        linear delta: δV = plan[R := δR]
Aggregate anywhere        recompute (no counting state is kept)
relation referenced > 1   recompute (δR ⋈ δR would drop rows)
DISTINCT projection       insert deltas dedup against the store;
                          delete deltas force a recompute
========================  =======================================

Linearity is what makes sharing sound: for a subtree ``T`` whose path
from the changed relation ``R`` up to ``T``'s root consists only of
Select / non-distinct Project / Join nodes, ``δT = T[R := δR]`` in bag
semantics — side branches of those joins never contain ``R`` (single
occurrence) and are evaluated on fixed base state, so the same δT feeds
every view that contains ``T``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.algebra.operators import (
    Aggregate,
    Join,
    Operator,
    Project,
    Relation,
    Select,
)
from repro.errors import StreamingError
from repro.executor.engine import Database, ExecutionEngine
from repro.executor.physical import charge_materialize
from repro.storage.table import Table
from repro.warehouse.maintenance import OverlayDatabase
from repro.warehouse.view import MaterializedView

__all__ = [
    "MODE_DELTA",
    "MODE_RECOMPUTE",
    "EdgeRule",
    "SharedDelta",
    "PropagationGraph",
    "ViewDelta",
    "DeltaPropagator",
    "substitute_subtree",
]

MODE_DELTA = "delta"
MODE_RECOMPUTE = "recompute"

#: Name prefix for transient shared-delta tables (never registered in
#: the warehouse catalog; they live only inside one overlay).
SHARED_PREFIX = "__cdc_shared"


@dataclass(frozen=True)
class EdgeRule:
    """How a delta of ``relation`` reaches ``view``."""

    view: str
    relation: str
    mode: str  # MODE_DELTA or MODE_RECOMPUTE
    reason: str = ""  # "aggregate" | "self-join" when recompute
    distinct: bool = False  # DISTINCT view: dedup inserts, recompute deletes

    def to_dict(self) -> Dict[str, Any]:
        return {
            "view": self.view,
            "relation": self.relation,
            "mode": self.mode,
            "reason": self.reason,
            "distinct": self.distinct,
        }


@dataclass(frozen=True)
class SharedDelta:
    """A subplan whose delta is computed once and fed to several views."""

    name: str
    relation: str
    signature: str
    views: Tuple[str, ...]

    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "relation": self.relation,
            "signature": self.signature,
            "views": list(self.views),
        }


def _linear_chain(plan: Operator, relation: str) -> List[Operator]:
    """Ancestors of the single ``relation`` leaf that are linear in it.

    Returns the chain bottom-up (closest ancestor first), stopping at
    the first node that is not Select / Join / non-distinct Project.
    The leaf itself is excluded — substituting a bare ``Relation`` node
    shares nothing.
    """
    path: List[Operator] = []

    def descend(node: Operator) -> bool:
        if isinstance(node, Relation):
            return node.name == relation
        for child in node.children:
            if descend(child):
                path.append(node)
                return True
        return False

    if not descend(plan):
        return []
    chain: List[Operator] = []
    for node in path:  # already bottom-up: appended on unwind
        if isinstance(node, (Select, Join)) or (
            isinstance(node, Project) and not node.distinct
        ):
            chain.append(node)
        else:
            break
    return chain


def substitute_subtree(
    plan: Operator, signature: str, replacement: Operator
) -> Operator:
    """Replace every subtree with ``signature`` by ``replacement``.

    Rebuilds only the spine above a substitution; untouched subtrees are
    returned by identity.
    """
    if plan.signature == signature:
        return replacement
    if plan.is_leaf:
        return plan
    children = tuple(
        substitute_subtree(child, signature, replacement)
        for child in plan.children
    )
    if all(new is old for new, old in zip(children, plan.children)):
        return plan
    return plan.with_children(children)


class PropagationGraph:
    """Edge rules + shared subplans, compiled once per installed design."""

    def __init__(self, views: Sequence[MaterializedView]):
        self.views: Dict[str, MaterializedView] = {
            view.name: view for view in sorted(views, key=lambda v: v.name)
        }
        self._edges: Dict[Tuple[str, str], EdgeRule] = {}
        self._affected: Dict[str, Tuple[str, ...]] = {}
        self._shared: Dict[str, Tuple[SharedDelta, ...]] = {}
        self._shared_node: Dict[Tuple[str, str], Operator] = {}
        self._cut: Dict[Tuple[str, str], str] = {}
        self._compile()

    # ---------------------------------------------------------------- compile
    def _compile(self) -> None:
        by_relation: Dict[str, List[str]] = {}
        for name, view in self.views.items():
            has_aggregate = any(
                isinstance(node, Aggregate) for node in view.plan.walk()
            )
            distinct = any(
                isinstance(node, Project) and node.distinct
                for node in view.plan.walk()
            )
            for relation in sorted(view.base_relations):
                by_relation.setdefault(relation, []).append(name)
                references = sum(
                    1
                    for node in view.plan.walk()
                    if isinstance(node, Relation) and node.name == relation
                )
                if has_aggregate:
                    rule = EdgeRule(name, relation, MODE_RECOMPUTE, "aggregate")
                elif references > 1:
                    rule = EdgeRule(name, relation, MODE_RECOMPUTE, "self-join")
                else:
                    rule = EdgeRule(
                        name, relation, MODE_DELTA, distinct=distinct
                    )
                self._edges[(name, relation)] = rule
        self._affected = {
            relation: tuple(sorted(names))
            for relation, names in by_relation.items()
        }
        counter = 0
        for relation in sorted(self._affected):
            shared, counter = self._compile_shared(relation, counter)
            self._shared[relation] = shared

    def _compile_shared(
        self, relation: str, counter: int
    ) -> Tuple[Tuple[SharedDelta, ...], int]:
        # Which linear-chain signatures occur in which delta-mode views.
        chains: Dict[str, List[Operator]] = {}
        occurrences: Dict[str, List[str]] = {}
        for name in self._affected[relation]:
            rule = self._edges[(name, relation)]
            if rule.mode != MODE_DELTA:
                continue
            chain = _linear_chain(self.views[name].plan, relation)
            chains[name] = chain
            for node in chain:
                views_of = occurrences.setdefault(node.signature, [])
                if name not in views_of:
                    views_of.append(name)
        shared_sigs = {
            sig for sig, names in occurrences.items() if len(names) >= 2
        }
        # Each view's cut point: the *highest* shared node on its chain,
        # so the largest common subplan is evaluated once.
        groups: Dict[str, List[str]] = {}
        rep_node: Dict[str, Operator] = {}
        for name, chain in chains.items():
            cut: Optional[Operator] = None
            for node in chain:  # bottom-up; keep the last shared one
                if node.signature in shared_sigs:
                    cut = node
            if cut is None:
                continue
            groups.setdefault(cut.signature, []).append(name)
            rep_node.setdefault(cut.signature, cut)
        out: List[SharedDelta] = []
        for sig in sorted(groups):
            names = sorted(groups[sig])
            if len(names) < 2:
                continue  # cut points diverged; nothing shared after all
            shared = SharedDelta(
                name=f"{SHARED_PREFIX}_{counter}",
                relation=relation,
                signature=sig,
                views=tuple(names),
            )
            counter += 1
            out.append(shared)
            self._shared_node[(relation, sig)] = rep_node[sig]
            for view_name in names:
                self._cut[(view_name, relation)] = sig
        return tuple(out), counter

    # ----------------------------------------------------------------- lookup
    def rule(self, view: str, relation: str) -> Optional[EdgeRule]:
        return self._edges.get((view, relation))

    def affected_views(self, relation: str) -> Tuple[str, ...]:
        """Views depending on ``relation``, in (topological) name order."""
        return self._affected.get(relation, ())

    def shared_for(self, relation: str) -> Tuple[SharedDelta, ...]:
        return self._shared.get(relation, ())

    def shared_subplan(self, relation: str, signature: str) -> Operator:
        return self._shared_node[(relation, signature)]

    def cut_signature(self, view: str, relation: str) -> Optional[str]:
        return self._cut.get((view, relation))

    @property
    def relations(self) -> Tuple[str, ...]:
        return tuple(sorted(self._affected))

    def to_dict(self) -> Dict[str, Any]:
        return {
            "views": sorted(self.views),
            "edges": [
                self._edges[key].to_dict() for key in sorted(self._edges)
            ],
            "shared": [
                s.to_dict()
                for relation in sorted(self._shared)
                for s in self._shared[relation]
            ],
        }


@dataclass
class ViewDelta:
    """The net effect of one propagated batch on one view."""

    view: str
    insert_rows: List[Dict[str, Any]] = field(default_factory=list)
    delete_rows: List[Dict[str, Any]] = field(default_factory=list)
    shared_used: Tuple[str, ...] = ()

    @property
    def is_empty(self) -> bool:
        return not self.insert_rows and not self.delete_rows


class DeltaPropagator:
    """Evaluates one coalesced base-relation delta for a set of views.

    The caller supplies the *rewound* overlay tables for other relations
    (so the batch is evaluated against the base state at its position in
    the global change sequence — see
    :meth:`repro.cdc.streaming.StreamingMaintainer.drain`) and applies
    the returned :class:`ViewDelta` rows to the stored views itself.
    """

    def __init__(self, graph: PropagationGraph, database: Database,
                 engine: ExecutionEngine):
        self.graph = graph
        self.database = database
        self.engine = engine

    # ------------------------------------------------------------ evaluation
    def _delta_table(
        self, relation: str, rows: Sequence[Mapping[str, Any]]
    ) -> Table:
        base = self.database.table(relation)
        delta = Table(base.schema, base.blocking_factor, io=self.database.io)
        for row in rows:
            delta.insert(row)
        return delta

    def _evaluate(
        self, plan: Operator, overrides: Dict[str, Table]
    ) -> List[Dict[str, Any]]:
        overlay = OverlayDatabase(self.database, overrides)
        return self.engine.over(overlay).execute(plan).rows()

    def propagate(
        self,
        relation: str,
        inserts: Sequence[Mapping[str, Any]],
        deletes: Sequence[Mapping[str, Any]],
        view_names: Sequence[str],
        rewinds: Optional[Mapping[str, Table]] = None,
    ) -> Dict[str, ViewDelta]:
        """Compute per-view deltas for one batch of base changes.

        ``view_names`` must all have a :data:`MODE_DELTA` edge from
        ``relation``; recompute-mode views are the caller's business.
        Views named here share subplan deltas where the compiled graph
        found common linear subtrees.
        """
        rewinds = dict(rewinds or {})
        targets = [n for n in self.graph.affected_views(relation)
                   if n in set(view_names)]
        for name in targets:
            rule = self.graph.rule(name, relation)
            if rule is None or rule.mode != MODE_DELTA:
                raise StreamingError(
                    f"view {name!r} has no delta edge from {relation!r}"
                )
        deltas: Dict[str, ViewDelta] = {
            name: ViewDelta(name) for name in targets
        }
        if not targets or (not inserts and not deletes):
            return deltas

        delta_ins = self._delta_table(relation, inserts) if inserts else None
        delta_del = self._delta_table(relation, deletes) if deletes else None

        # Shared subplans active for this batch: groups with >= 2 of the
        # target views.  Their delta is evaluated once per direction and
        # materialized into a transient table the consumers scan.
        active: Dict[str, SharedDelta] = {}
        for shared in self.graph.shared_for(relation):
            group = [n for n in shared.views if n in deltas]
            if len(group) >= 2:
                active[shared.signature] = shared

        for direction, delta_table in (
            ("insert", delta_ins), ("delete", delta_del)
        ):
            if delta_table is None:
                continue
            base_overrides = dict(rewinds)
            base_overrides[relation] = delta_table
            shared_tables: Dict[str, Tuple[str, Table]] = {}
            for sig, shared in sorted(active.items()):
                subplan = self.graph.shared_subplan(relation, sig)
                rows = self._evaluate(subplan, base_overrides)
                table = Table(
                    subplan.schema,
                    self.database.table(relation).blocking_factor,
                    io=self.database.io,
                )
                table.insert_many(rows, count_io=False)
                charge_materialize(table)
                shared_tables[sig] = (shared.name, table)
            for name in targets:
                view = self.graph.views[name]
                rule = self.graph.rule(name, relation)
                if direction == "delete" and rule.distinct:
                    # DISTINCT deletes need counting state; the caller
                    # falls back to recompute (EdgeRule.distinct).
                    continue
                cut = self.graph.cut_signature(name, relation)
                if cut is not None and cut in shared_tables:
                    shared_name, table = shared_tables[cut]
                    node = self._find_node(view.plan, cut)
                    plan = substitute_subtree(
                        view.plan, cut, Relation(shared_name, node.schema)
                    )
                    overrides = dict(rewinds)
                    overrides[shared_name] = table
                    rows = self._evaluate(plan, overrides)
                    deltas[name].shared_used = tuple(
                        sorted(set(deltas[name].shared_used) | {shared_name})
                    )
                else:
                    rows = self._evaluate(view.plan, base_overrides)
                if direction == "insert":
                    deltas[name].insert_rows.extend(rows)
                else:
                    deltas[name].delete_rows.extend(rows)
        return deltas

    @staticmethod
    def _find_node(plan: Operator, signature: str) -> Operator:
        for node in plan.walk():
            if node.signature == signature:
                return node
        raise StreamingError(
            f"compiled shared subplan {signature!r} not found in plan"
        )
