"""The delta propagation graph: base-relation changes → view deltas.

Compiled once per installed design from the view plans (the MVPP's
materialized vertices), this module generalizes the single-view delta
rules of :class:`repro.warehouse.maintenance.ViewMaintainer` into a
graph of per-edge propagation operators: one base-relation delta fans
out to every affected view in one pass, and subplans shared by several
views evaluate their delta **once** (materialized to a transient
``__cdc_shared_*`` table and substituted into each consumer).

Each edge takes the batch maintainer's rule: :func:`repro.warehouse.
maintenance.fallback_reason` classifies it, and the caller applies the
evaluated delta with :func:`~repro.warehouse.maintenance.shadow_table`.

=============================  =======================================
edge into                      rule
=============================  =======================================
a linear plan                  delta: inserts and deletes alike
a root DISTINCT or aggregate   insert-only delta; a run that carries
over a linear body             deletes recomputes (``delete``)
anything else                  recompute, under ``fallback_reason``
=============================  =======================================

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

from repro.algebra.operators import Operator, Relation
from repro.errors import StreamingError
from repro.executor.engine import Database, ExecutionEngine
from repro.executor.physical import charge_materialize
from repro.storage.table import Table
from repro.warehouse.maintenance import (
    OverlayDatabase,
    delta_table,
    fallback_reason,
    insert_only,
    is_linear,
)
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
    reason: str = ""  # fallback_reason's label when recompute
    #: A delta edge into a root DISTINCT or aggregate view: a run that
    #: carries deletes recomputes it.
    insert_only: bool = False

    def to_dict(self) -> Dict[str, Any]:
        return {
            "view": self.view,
            "relation": self.relation,
            "mode": self.mode,
            "reason": self.reason,
            "insert_only": self.insert_only,
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
    the first node that is not :func:`is_linear`.
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
        if not is_linear(node):
            break
        chain.append(node)
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
        self._cut_plan: Dict[Tuple[str, str], Operator] = {}
        self._compile()

    # ---------------------------------------------------------------- compile
    def _compile(self) -> None:
        by_relation: Dict[str, List[str]] = {}
        for name, view in self.views.items():
            for relation in sorted(view.base_relations):
                by_relation.setdefault(relation, []).append(name)
                reason = fallback_reason(view.plan, relation)
                self._edges[(name, relation)] = EdgeRule(
                    name,
                    relation,
                    MODE_RECOMPUTE if reason else MODE_DELTA,
                    reason or "",
                    insert_only=reason is None and insert_only(view.plan),
                )
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
            scan = Relation(shared.name, rep_node[sig].schema)
            for view_name in names:
                self._cut[(view_name, relation)] = sig
                self._cut_plan[(view_name, relation)] = substitute_subtree(
                    self.views[view_name].plan, sig, scan
                )
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

    def cut_plan(self, view: str, relation: str) -> Operator:
        """The view's plan reading its shared delta table at the cut.

        Built once here, so every drain evaluates the same plan object
        and reuses the engine's cached lowering of it.
        """
        return self._cut_plan[(view, relation)]

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
        ``relation``, and an insert-only one only when ``deletes`` is
        empty; the other views are the caller's to recompute.
        Views named here share subplan deltas where the compiled graph
        found common linear subtrees.
        """
        rewinds = dict(rewinds or {})
        targets = [n for n in self.graph.affected_views(relation)
                   if n in set(view_names)]
        for name in targets:
            rule = self.graph.rule(name, relation)
            if rule is None or rule.mode != MODE_DELTA or (
                deletes and rule.insert_only
            ):
                raise StreamingError(
                    f"view {name!r} takes no delta of this batch from {relation!r}"
                )
        deltas: Dict[str, ViewDelta] = {
            name: ViewDelta(name) for name in targets
        }
        if not targets or (not inserts and not deletes):
            return deltas

        database = self.database
        delta_ins = delta_table(database, relation, inserts) if inserts else None
        delta_del = delta_table(database, relation, deletes) if deletes else None

        # Shared subplans active for this batch: groups with >= 2 of the
        # target views.  Their delta is evaluated once per direction and
        # materialized into a transient table the consumers scan.
        active: Dict[str, SharedDelta] = {}
        for shared in self.graph.shared_for(relation):
            group = [n for n in shared.views if n in deltas]
            if len(group) >= 2:
                active[shared.signature] = shared

        for direction, delta in (("insert", delta_ins), ("delete", delta_del)):
            if delta is None:
                continue
            base_overrides = dict(rewinds)
            base_overrides[relation] = delta
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
                cut = self.graph.cut_signature(name, relation)
                if cut is not None and cut in shared_tables:
                    shared_name, table = shared_tables[cut]
                    plan = self.graph.cut_plan(name, relation)
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
