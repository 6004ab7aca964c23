"""Cost functions over an MVPP for a chosen set of materialized vertices.

Implements the paper's Section 4.1 framework::

    C_queryprocessing = Σ_i fq(qi) · C(mv → ri)
    C_maintenance     = Σ_j fu(j)  · C(l  → mv_j)
    C_total           = C_queryprocessing + C_maintenance

``C(mv → r)`` — the cost of answering query ``r`` from the materialized
views — is evaluated by walking ``r``'s plan and *cutting off* every
materialized descendant: accessing a materialized vertex costs a scan of
its stored blocks instead of a recomputation.

Maintenance uses recompute semantics (the paper's assumption): each
materialized view is reconstructed from base relations whenever a base
relation it depends on is updated.  The trigger count is
``Σ_{b ∈ Iv} fu(b)`` by default (the paper's weight formula in
Section 4.3); ``per_period`` counts one refresh per period instead, which
is the accounting used in the paper's worked example and Table 2.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, Optional, Set, Tuple

from repro.errors import MVPPError
from repro.mvpp.graph import MVPP, Vertex, VertexKind

#: Maintenance trigger accounting modes.
PER_BASE = "per-base"  # Σ_{b∈Iv} fu(b) refreshes (Section 4.3 weight formula)
PER_PERIOD = "per-period"  # max over bases: one refresh per update period

#: Cache key: (subtree signature, materialized-descendant signatures).
CacheKey = Tuple[str, FrozenSet[str]]


class CostCache:
    """Memoized subtree access costs, shared across MVPP candidates.

    The access cost of a vertex is fully determined by (a) the canonical
    signature of its operator subtree and (b) which of that subtree's
    vertices are materialized — given a fixed statistics catalog and
    cost model.  Keying on ``(signature, frozenset(materialized subtree
    signatures))`` therefore lets *different* candidate MVPPs of the same
    design run share cost computations: the Figure-4 rotations produce
    heavily overlapping DAGs, and the Figure-9 / refinement loops
    re-cost the same subtrees under many materialization sets.

    Sharing contract: one cache per (statistics, cost model) pair.  The
    warehouse owns a persistent instance and calls :meth:`invalidate`
    whenever statistics change (``sync_statistics``); standalone
    ``design()`` runs create a fresh cache per run.
    """

    __slots__ = ("_data", "hits", "misses", "invalidations")

    def __init__(self) -> None:
        self._data: Dict[CacheKey, float] = {}
        self.hits = 0
        self.misses = 0
        self.invalidations = 0

    def lookup(self, key: CacheKey) -> Optional[float]:
        value = self._data.get(key)
        if value is None:
            self.misses += 1
        else:
            self.hits += 1
        return value

    def store(self, key: CacheKey, value: float) -> None:
        self._data[key] = value

    def invalidate(self) -> None:
        """Drop every entry (statistics or cost model changed)."""
        self._data.clear()
        self.invalidations += 1

    def __len__(self) -> int:
        return len(self._data)

    @property
    def hit_ratio(self) -> float:
        """Hits over lookups (0.0 before any lookup)."""
        lookups = self.hits + self.misses
        return self.hits / lookups if lookups else 0.0

    def stats(self) -> Dict[str, float]:
        """A JSON-safe snapshot: hits, misses, ratio, size."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "hit_ratio": self.hit_ratio,
            "size": len(self._data),
            "invalidations": self.invalidations,
        }

    def publish(self, hits_before: int = 0, misses_before: int = 0) -> None:
        """Export counter deltas to the :mod:`repro.obs` registry.

        Increments ``cost_cache.hits`` / ``cost_cache.misses`` by the
        activity since the given baseline and sets the
        ``cost_cache.size`` / ``cost_cache.hit_ratio`` gauges.
        """
        from repro import obs

        registry = obs.metrics()
        registry.counter("cost_cache.hits").inc(max(0, self.hits - hits_before))
        registry.counter("cost_cache.misses").inc(
            max(0, self.misses - misses_before)
        )
        registry.gauge("cost_cache.size").set(len(self._data))
        registry.gauge("cost_cache.hit_ratio").set(self.hit_ratio)
        if obs.enabled():
            obs.journal_event(
                "cost_cache.publish",
                hits=max(0, self.hits - hits_before),
                misses=max(0, self.misses - misses_before),
                size=len(self._data),
            )


@dataclass(frozen=True)
class CostBreakdown:
    """Query-processing, maintenance and total cost of a design."""

    query_processing: float
    maintenance: float

    @property
    def total(self) -> float:
        return self.query_processing + self.maintenance


class MVPPCostCalculator:
    """Evaluates designs (sets of materialized vertices) over one MVPP."""

    def __init__(
        self,
        mvpp: MVPP,
        maintenance_trigger: str = PER_PERIOD,
        cache: Optional[CostCache] = None,
    ):
        mvpp.require_annotation()
        if maintenance_trigger not in (PER_BASE, PER_PERIOD):
            raise MVPPError(
                f"unknown maintenance trigger mode: {maintenance_trigger!r}"
            )
        self.mvpp = mvpp
        self.maintenance_trigger = maintenance_trigger
        self.cache = cache
        # Reachability tables by vertex id, built in one pass and read by
        # every Figure-9 quantity: S*{v}, {v} ∪ S*{v} (the shared-cache
        # key's subtree), and Ov / Iv in vertex-id order.  They describe
        # the graph as it stands now; frequencies and costs are read live.
        self._descendants: Dict[int, FrozenSet[int]] = {}
        self._closures: Dict[int, FrozenSet[int]] = {}
        self._query_roots: Dict[int, Tuple[Vertex, ...]] = {}
        self._base_relations: Dict[int, Tuple[Vertex, ...]] = {}
        self._index_reachability()

    def _index_reachability(self) -> None:
        """Fill the reachability tables from one topological order.

        Children come before parents, so ``S*{v}`` and ``Iv`` are unions
        over the children already indexed; ``Ov`` is the union over the
        parents, walking the same order backwards.  A vertex with one
        child (or one parent) shares that neighbour's entries, and equal
        id sets share one tuple.
        """
        order = self.mvpp.topological_order()
        vertex_of = self.mvpp.vertex
        tuples: Dict[FrozenSet[int], Tuple[Vertex, ...]] = {}

        def in_id_order(ids: FrozenSet[int]) -> Tuple[Vertex, ...]:
            found = tuples.get(ids)
            if found is None:
                found = tuples[ids] = tuple(map(vertex_of, sorted(ids)))
            return found

        closures, bases = self._closures, self._base_relations
        base_ids: Dict[int, FrozenSet[int]] = {}
        for vertex in order:
            vertex_id = vertex.vertex_id
            children = vertex.children
            if len(children) == 1:
                (child,) = children
                below = closures[child]
                base_ids[vertex_id] = base_ids[child]
                bases[vertex_id] = bases[child]
            else:
                below = frozenset().union(*[closures[c] for c in children])
                if vertex.is_leaf:
                    ids = frozenset((vertex_id,))
                else:
                    ids = frozenset().union(*[base_ids[c] for c in children])
                base_ids[vertex_id] = ids
                bases[vertex_id] = in_id_order(ids)
            self._descendants[vertex_id] = below
            closures[vertex_id] = below | {vertex_id}

        roots = self._query_roots
        root_ids: Dict[int, FrozenSet[int]] = {}
        for vertex in reversed(order):
            vertex_id = vertex.vertex_id
            parents = vertex.parents
            if len(parents) == 1:
                (parent,) = parents
                root_ids[vertex_id] = root_ids[parent]
                roots[vertex_id] = roots[parent]
                continue
            if vertex.is_root:
                ids = frozenset((vertex_id,))
            else:
                ids = frozenset().union(*[root_ids[p] for p in parents])
            root_ids[vertex_id] = ids
            roots[vertex_id] = in_id_order(ids)

    # ---------------------------------------------------------- reachability
    # Each lookup falls back to the MVPP's own traversal for a vertex the
    # tables do not hold (one that is not part of this graph).
    def descendants(self, vertex: Vertex) -> FrozenSet[int]:
        """``S*{v}``: the ids of every vertex below ``v``."""
        try:
            return self._descendants[vertex.vertex_id]
        except KeyError:
            return frozenset(self.mvpp.descendants(vertex))

    def queries_using(self, vertex: Vertex) -> Tuple[Vertex, ...]:
        """``Ov``: the query roots above ``v`` (``v`` itself for a root),
        in vertex-id order."""
        try:
            return self._query_roots[vertex.vertex_id]
        except KeyError:
            return tuple(self.mvpp.queries_using(vertex))

    def base_relations_of(self, vertex: Vertex) -> Tuple[Vertex, ...]:
        """``Iv``: the base relations below ``v`` (``v`` itself for a
        leaf), in vertex-id order."""
        try:
            return self._base_relations[vertex.vertex_id]
        except KeyError:
            return tuple(self.mvpp.base_relations_of(vertex))

    # ------------------------------------------------------------------ cost
    def access_cost(self, vertex: Vertex, materialized: FrozenSet[int]) -> float:
        """Cost of producing ``R(v)`` given ``materialized`` vertices.

        If ``vertex`` itself is materialized this is the cost of scanning
        it; otherwise its operation cost plus the (recursive) cost of its
        inputs.  Memoized per call via an explicit cache.
        """
        cache: Dict[int, float] = {}
        return self._access(vertex, materialized, cache)

    def _access(
        self, vertex: Vertex, materialized: FrozenSet[int], cache: Dict[int, float]
    ) -> float:
        cached = cache.get(vertex.vertex_id)
        if cached is not None:
            return cached
        key: Optional[CacheKey] = None
        if self.cache is not None and not vertex.is_leaf:
            key = self._cache_key(vertex, materialized)
            shared = self.cache.lookup(key)
            if shared is not None:
                # Per-call memo owned by access_cost(), not caller state.
                cache[vertex.vertex_id] = shared  # lint: ignore[E203]
                return shared
        if vertex.vertex_id in materialized:
            cost = self._materialized_access_cost(vertex, materialized)
        elif vertex.is_leaf:
            cost = self._leaf_access_cost(vertex)
        else:
            cost = vertex.local_cost + sum(
                self._access(child, materialized, cache)
                for child in self.mvpp.children_of(vertex)
            )
        if key is not None:
            self.cache.store(key, cost)
        # Per-call memo owned by access_cost(), not caller state.
        cache[vertex.vertex_id] = cost  # lint: ignore[E203]
        return cost

    # Overridable costing rules shared with the distributed calculator
    # (repro.distributed.comm_cost): subclasses change *where* data lives,
    # never the traversal, so the two models stay structurally identical.
    def _materialized_access_cost(
        self, vertex: Vertex, materialized: FrozenSet[int]
    ) -> float:
        """Scanning a materialized vertex (stored at the warehouse).

        Without synced statistics the stored size is unknown, so the
        scan is priced as a warehouse-local recomputation — never with a
        transfer term, because the stored copy lives at the warehouse
        regardless of where its lineage does.
        """
        if vertex.stats is not None:
            return float(vertex.stats.blocks)
        return self._local_recompute_cost(vertex, materialized)

    def _leaf_access_cost(self, vertex: Vertex) -> float:
        """Reading a base relation (0 in the centralized model)."""
        return 0.0

    def _local_recompute_cost(
        self, vertex: Vertex, materialized: FrozenSet[int]
    ) -> float:
        """Recompute ``vertex`` entirely at the warehouse (no transfers).

        Materialized descendants with known sizes cut the recursion at a
        stored scan; stats-less ones recurse (their stored size is just
        as unknown from here); base relations cost 0 — this prices the
        local proxy for scanning an unknown-size stored view, so no
        communication term may enter.
        """
        if vertex.is_leaf:
            return 0.0
        total = vertex.local_cost
        for child in self.mvpp.children_of(vertex):
            if child.vertex_id in materialized and child.stats is not None:
                total += float(child.stats.blocks)
            else:
                total += self._local_recompute_cost(child, materialized)
        return total

    def _closure(self, vertex: Vertex) -> FrozenSet[int]:
        """``{v} ∪ S*{v}`` as ids."""
        try:
            return self._closures[vertex.vertex_id]
        except KeyError:
            return self.descendants(vertex) | {vertex.vertex_id}

    def _cache_key(
        self, vertex: Vertex, materialized: FrozenSet[int]
    ) -> CacheKey:
        """Canonical shared-cache key for ``vertex`` under a design.

        Only materialized vertices *inside* the subtree can influence
        its access cost, so the key narrows the materialized set to the
        subtree closure and canonicalizes ids to operator signatures —
        making the entry valid for any candidate MVPP that contains an
        identical subtree.
        """
        relevant = materialized & self._closure(vertex)
        return (
            vertex.signature,
            frozenset(self.mvpp.vertex(i).signature for i in relevant),
        )

    def query_processing_cost(self, materialized: FrozenSet[int]) -> float:
        """``Σ fq(qi) · C(mv → ri)`` over all query roots."""
        total = 0.0
        for root in self.mvpp.roots:
            total += root.frequency * self.access_cost(root, materialized)
        return total

    def maintenance_cost(self, materialized: FrozenSet[int]) -> float:
        """``Σ fu · Cm(v)`` over materialized vertices (recompute).

        Iterates in vertex-id order so the float sum is independent of
        the set's hash order (bit-identical across runs and backends).
        """
        total = 0.0
        for vertex_id in sorted(materialized):
            vertex = self.mvpp.vertex(vertex_id)
            if vertex.is_leaf:
                continue  # base relations carry no view-maintenance cost
            total += self.refresh_trigger(vertex) * vertex.maintenance_cost
        return total

    def refresh_trigger(self, vertex: Vertex) -> float:
        """How many refreshes per period ``vertex`` incurs if materialized."""
        bases = self.base_relations_of(vertex)
        if not bases:
            return 0.0
        if self.maintenance_trigger == PER_BASE:
            return sum(b.frequency for b in bases)
        return max(b.frequency for b in bases)

    def breakdown(self, materialized: Iterable[Vertex]) -> CostBreakdown:
        """Full cost breakdown for a set of vertices to materialize."""
        ids = frozenset(self._as_ids(materialized))
        return CostBreakdown(
            query_processing=self.query_processing_cost(ids),
            maintenance=self.maintenance_cost(ids),
        )

    def total_cost(self, materialized: Iterable[Vertex]) -> float:
        return self.breakdown(materialized).total

    def breakdown_with_frequencies(
        self,
        materialized: Iterable[Vertex],
        query_frequencies: Dict[str, float],
        update_frequencies: Dict[str, float],
    ) -> CostBreakdown:
        """Re-weigh a design under frequencies other than the annotated ones.

        Access costs ``Ca`` and maintenance costs ``Cm`` depend only on
        statistics and the materialized set, never on frequencies, so an
        installed design can be evaluated under a *live* frequency vector
        (e.g. the adaptive controller's estimate) without re-annotating
        the graph: query cost weighs each root by
        ``query_frequencies[name]`` (absent roots cost nothing) and the
        refresh trigger draws base-relation frequencies from
        ``update_frequencies`` (absent relations fall back to the
        annotated ``fu``).  Iteration is name/id ordered so the float
        sums stay bit-identical across runs.
        """
        ids = frozenset(self._as_ids(materialized))
        query = 0.0
        for root in self.mvpp.roots:
            frequency = query_frequencies.get(root.name, 0.0)
            if frequency:
                query += frequency * self.access_cost(root, ids)
        maintenance = 0.0
        for vertex_id in sorted(ids):
            vertex = self.mvpp.vertex(vertex_id)
            if vertex.is_leaf:
                continue
            bases = self.base_relations_of(vertex)
            if not bases:
                continue
            frequencies = [
                update_frequencies.get(base.name, base.frequency)
                for base in bases
            ]
            if self.maintenance_trigger == PER_BASE:
                trigger = sum(frequencies)
            else:
                trigger = max(frequencies)
            maintenance += trigger * vertex.maintenance_cost
        return CostBreakdown(query_processing=query, maintenance=maintenance)

    # ---------------------------------------------------------------- weight
    def weight(self, vertex: Vertex) -> float:
        """The paper's ``w(v)``: query saving minus maintenance cost.

        ``w(v) = Σ_{q ∈ Ov} fq(q)·Ca(v)  −  (refresh trigger)·Cm(v)``
        """
        if vertex.is_leaf:
            return 0.0
        saving = sum(
            q.frequency for q in self.queries_using(vertex)
        ) * vertex.access_cost
        return saving - self.refresh_trigger(vertex) * vertex.maintenance_cost

    def incremental_saving(
        self, vertex: Vertex, materialized: FrozenSet[int]
    ) -> float:
        """The paper's ``Cs`` (Figure 9, step 5).

        Query-side saving of materializing ``vertex`` given the vertices
        already in ``M``: the access saving ``Ca(v)`` is reduced by the
        savings already captured by materialized descendants of ``v``,
        then the maintenance cost of ``v`` is subtracted.
        """
        if vertex.is_leaf:
            return 0.0
        already_saved = sum(
            self.mvpp.vertex(i).access_cost
            for i in sorted(self.descendants(vertex) & materialized)
        )
        effective = vertex.access_cost - already_saved
        saving = sum(
            q.frequency for q in self.queries_using(vertex)
        ) * effective
        return saving - self.refresh_trigger(vertex) * vertex.maintenance_cost

    def removal_delta(
        self,
        vertex: Vertex,
        with_ids: FrozenSet[int],
        without_ids: FrozenSet[int],
    ) -> float:
        """Exact ``C_total(without) − C_total(with)`` for dropping ``vertex``.

        Only query roots that read through ``vertex`` can change their
        access cost, and the maintenance sum loses exactly ``vertex``'s
        own term — so the delta is computed by re-costing just those
        roots instead of the whole design (the refinement loop's
        per-candidate full :meth:`breakdown` was O(roots) per probe).
        Roots are visited in vertex-id order for bit-identical sums.
        """
        delta = 0.0
        for root in self.queries_using(vertex):
            delta += root.frequency * (
                self.access_cost(root, without_ids)
                - self.access_cost(root, with_ids)
            )
        delta -= self.refresh_trigger(vertex) * vertex.maintenance_cost
        return delta

    # ----------------------------------------------------------------- utils
    def _as_ids(self, vertices: Iterable[Vertex]) -> Set[int]:
        out: Set[int] = set()
        for vertex in vertices:
            if isinstance(vertex, Vertex):
                out.add(vertex.vertex_id)
            elif isinstance(vertex, int):
                out.add(vertex)
            else:
                raise MVPPError(f"not a vertex: {vertex!r}")
        return out
