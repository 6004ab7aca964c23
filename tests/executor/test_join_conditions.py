"""Join conditions resolve against the joined row on every join method.

A join qualifies an unqualified input column whose short name the other
side shares: joining ``Aggregate(A, [A.g], COUNT(*) AS n)`` with
``B(B.g, B.n)`` stores the count as ``A.n``.  A condition naming
``A.n`` must find it under every join method and on both engines, as
the index-nested-loop join's leftover filter always did.  When both
inputs carry the unqualified ``n``, each joined column takes its own
side's value.
"""

from collections import Counter

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.algebra.expressions import column, compare, literal
from repro.algebra.operators import (
    Aggregate,
    AggregateFunction,
    AggregateSpec,
    Join,
    Relation,
)
from repro.algebra.predicates import conjunction
from repro.catalog.datatypes import DataType
from repro.catalog.schema import Attribute, RelationSchema
from repro.executor.engine import (
    ENGINES,
    INDEX_NESTED_LOOP,
    JOIN_METHODS,
    Database,
    ExecutionEngine,
)
from repro.storage.table import Table

A = RelationSchema("A", [Attribute("A.g", DataType.INTEGER)])
B = RelationSchema(
    "B",
    [Attribute("B.g", DataType.INTEGER), Attribute("B.n", DataType.INTEGER)],
)
COUNTED = Aggregate(
    Relation("A", A), ["A.g"], [AggregateSpec(AggregateFunction.COUNT, None, "n")]
)


def plan(*residual):
    condition = conjunction([compare("A.g", "=", column("B.g")), *residual])
    return Join(COUNTED, Relation("B", B), condition)


def load(a_rows, b_rows):
    database = Database()
    for name, schema, rows in (("A", A, a_rows), ("B", B, b_rows)):
        table = Table(schema, blocking_factor=2)
        table.insert_many(rows, count_io=False)
        database.register(name, table)
    return database


def run(database, join_plan, method, engine):
    result = ExecutionEngine(database, method, engine=engine).execute(join_plan)
    return [tuple(row.items()) for row in result.rows()]


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("method", JOIN_METHODS)
def test_a_residual_on_a_qualified_alias(method, engine):
    join_plan = plan(compare("A.n", "<", literal(5)))
    assert "A.n" in join_plan.schema.attribute_names
    a_rows = [{"A.g": 1}, {"A.g": 2}]
    b_rows = [{"B.g": 1, "B.n": 7}, {"B.g": 2, "B.n": 8}]
    rows = run(load(a_rows, b_rows), join_plan, method, engine)
    assert rows == run(load(a_rows, b_rows), join_plan, INDEX_NESTED_LOOP, engine)
    assert rows == [
        (("A.g", 1), ("A.n", 1), ("B.g", 1), ("B.n", 7)),
        (("A.g", 2), ("A.n", 1), ("B.g", 2), ("B.n", 8)),
    ]


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("method", JOIN_METHODS)
def test_both_inputs_keep_their_own_unqualified_column(method, engine):
    # Both inputs carry an unqualified ``n``: the join qualifies them as
    # ``A.n`` and ``B.n``, and each must keep its own side's count.
    b_counted = Aggregate(
        Relation("B", B), ["B.g"], [AggregateSpec(AggregateFunction.COUNT, None, "n")]
    )
    join_plan = Join(COUNTED, b_counted, compare("A.g", "=", column("B.g")))
    assert join_plan.schema.attribute_names == ("A.g", "A.n", "B.g", "B.n")
    a_rows = [{"A.g": 1}, {"A.g": 1}, {"A.g": 1}, {"A.g": 2}]
    b_rows = [{"B.g": 1, "B.n": 0}, {"B.g": 2, "B.n": 0}, {"B.g": 2, "B.n": 0}]
    rows = run(load(a_rows, b_rows), join_plan, method, engine)
    assert sorted(rows) == [
        (("A.g", 1), ("A.n", 3), ("B.g", 1), ("B.n", 1)),
        (("A.g", 2), ("A.n", 1), ("B.g", 2), ("B.n", 2)),
    ]


KEYS = st.one_of(st.none(), st.integers(0, 3))
RESIDUALS = st.sampled_from(
    [
        (compare("A.n", "<", column("B.n")),),
        (compare("A.n", ">=", literal(2)),),
        (compare("B.n", "=", column("A.n")), compare("A.n", "<", literal(3))),
    ]
)


@settings(
    max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
@given(
    st.lists(st.fixed_dictionaries({"A.g": KEYS}), max_size=8),
    st.lists(st.fixed_dictionaries({"B.g": KEYS, "B.n": KEYS}), max_size=8),
    RESIDUALS,
)
def test_every_method_answers_like_the_index_nested_loop_join(
    a_rows, b_rows, residual
):
    # Sort-merge emits in key order, the others outer-major: compare
    # the rows as multisets.
    join_plan = plan(*residual)
    database = load(a_rows, b_rows)
    expected = Counter(run(database, join_plan, INDEX_NESTED_LOOP, "reference"))
    for method in JOIN_METHODS:
        for engine in ENGINES:
            rows = run(database, join_plan, method, engine)
            assert Counter(rows) == expected, (method, engine)
