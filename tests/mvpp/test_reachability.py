"""The cost calculator's reachability tables against the MVPP's own walks.

``MVPPCostCalculator`` indexes every vertex's descendants (``S*{v}``),
query roots above (``Ov``) and base relations below (``Iv``) once, and
every Figure-9 quantity reads those tables.  The graph traversals in
:class:`~repro.mvpp.graph.MVPP` stay the oracle: on every candidate MVPP
the tables must answer exactly as the walks do, and Figure 9 must make
the same decisions whichever of the two it reads.
"""

import pytest

from repro.algebra.operators import Relation
from repro.catalog.schema import RelationSchema
from repro.mvpp import generate_mvpps
from repro.mvpp.cost import MVPPCostCalculator
from repro.mvpp.graph import Vertex, VertexKind
from repro.mvpp.materialization import select_views
from repro.workload import paper_workload
from repro.workload.star_schema import StarConfig, star_workload


class WalkingCalculator(MVPPCostCalculator):
    """Answers every reachability question by walking the graph."""

    def descendants(self, vertex):
        return frozenset(self.mvpp.descendants(vertex))

    def queries_using(self, vertex):
        return tuple(self.mvpp.queries_using(vertex))

    def base_relations_of(self, vertex):
        return tuple(self.mvpp.base_relations_of(vertex))


def _star(num_queries, seed):
    return star_workload(
        StarConfig(num_queries=num_queries, include_aggregates=True, seed=seed)
    )


WORKLOADS = [("paper", paper_workload)] + [
    (f"star{k}-seed{seed}", lambda k=k, seed=seed: _star(k, seed))
    for k in (8, 16, 32)
    for seed in (0, 1, 2)
]


@pytest.fixture(scope="module", params=WORKLOADS, ids=[name for name, _ in WORKLOADS])
def candidates(request):
    _, build = request.param
    return generate_mvpps(build())


def test_tables_match_the_graph_walks(candidates):
    for mvpp in candidates:
        calculator = MVPPCostCalculator(mvpp)
        for vertex in mvpp:
            assert calculator.descendants(vertex) == mvpp.descendants(vertex)
            assert list(calculator.queries_using(vertex)) == mvpp.queries_using(
                vertex
            )
            assert list(
                calculator.base_relations_of(vertex)
            ) == mvpp.base_relations_of(vertex)
            assert calculator._closure(vertex) == (
                mvpp.descendants(vertex) | {vertex.vertex_id}
            )


def test_figure9_decides_alike_on_tables_and_walks(candidates):
    for mvpp in candidates:
        for refine in (False, True):
            indexed = select_views(mvpp, MVPPCostCalculator(mvpp), refine=refine)
            walked = select_views(mvpp, WalkingCalculator(mvpp), refine=refine)
            assert indexed.trace == walked.trace
            assert indexed.names == walked.names


def test_a_vertex_outside_the_graph_answers_like_the_walks(paper_mvpp):
    calculator = MVPPCostCalculator(paper_mvpp)
    stray = Vertex(
        vertex_id=len(paper_mvpp) + 999,
        name="stray",
        kind=VertexKind.OPERATION,
        operator=Relation("Stray", RelationSchema("Stray", [])),
        children=(),
    )
    assert calculator.descendants(stray) == frozenset()
    assert calculator.queries_using(stray) == ()
    assert calculator.base_relations_of(stray) == ()
    assert calculator.weight(stray) == 0.0
    assert calculator.incremental_saving(stray, frozenset()) == 0.0
