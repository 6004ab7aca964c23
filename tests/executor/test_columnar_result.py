"""Executor results that keep their columns, and the aggregate gather.

A table built by ``table_from_columns`` holds the executor's columns and
builds its row dicts once, on the first read or write that needs them.
It must be indistinguishable from a table built eagerly from the same
rows: same rows and order, same ``(reads, writes)`` for every operation,
before and after the first build.

``_evaluate_aggregate`` gathers each group with one ``itemgetter`` call;
the per-position loop it replaced is kept below as the oracle.
"""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.algebra import operators as L
from repro.catalog.datatypes import DataType
from repro.catalog.schema import Attribute, RelationSchema
from repro.executor.engine import HASH, REFERENCE, ExecutionEngine
from repro.executor.physical import _evaluate_aggregate, table_from_columns
from repro.storage.block import IOCounter
from repro.storage.table import table_from_rows
from repro.warehouse import DataWarehouse
from repro.warehouse.simulation import row_multiset
from repro.workload.datagen import star_rows
from repro.workload.star_schema import StarConfig, star_workload

SETTINGS = settings(
    max_examples=300,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

F = L.AggregateFunction


def reference_aggregate(spec, positions, columns_by_name):
    """The per-position ``_evaluate_aggregate`` the gather replaced."""
    if spec.function is F.COUNT:
        if spec.attribute is None:
            return len(positions)
        if not positions:
            return 0
        col = columns_by_name[spec.attribute]
        return sum(1 for p in positions if col[p] is not None)
    if not positions:
        return None
    col = columns_by_name[spec.attribute]
    values = [col[p] for p in positions if col[p] is not None]
    if not values:
        return None
    if spec.function is F.SUM:
        return float(sum(values))
    if spec.function is F.AVG:
        return float(sum(values)) / len(values)
    if spec.function is F.MIN:
        return min(values)
    return max(values)


VALUES = {
    DataType.INTEGER: st.integers(-(10**12), 10**12),
    DataType.FLOAT: st.floats(allow_nan=False, allow_infinity=False, width=64),
    DataType.STRING: st.text(alphabet="abc", max_size=3),
}
#: SUM and AVG of a string column are not valid plans.
FUNCTIONS = {
    DataType.INTEGER: list(F),
    DataType.FLOAT: list(F),
    DataType.STRING: [F.COUNT, F.MIN, F.MAX],
}


@st.composite
def aggregate_cases(draw):
    datatype = draw(st.sampled_from(sorted(VALUES, key=lambda t: t.value)))
    column = draw(
        st.lists(st.one_of(st.none(), VALUES[datatype]), max_size=40)
    )
    length = len(column)
    groups = [[], list(range(length))]
    groups.append(
        [draw(st.integers(0, length - 1))] if length else []
    )
    # A random partition into groups of any size, positions ascending.
    labels = draw(st.lists(st.integers(0, 4), min_size=length, max_size=length))
    for label in range(5):
        groups.append([p for p in range(length) if labels[p] == label])
    function = draw(st.sampled_from(FUNCTIONS[datatype]))
    star = function is F.COUNT and draw(st.booleans())
    spec = L.AggregateSpec(function, None if star else "R.a", "out")
    return spec, groups, {"R.a": column}


@SETTINGS
@given(aggregate_cases())
def test_gather_matches_the_per_position_oracle(case):
    spec, groups, columns_by_name = case
    for positions in groups:
        expected = reference_aggregate(spec, positions, columns_by_name)
        actual = _evaluate_aggregate(spec, positions, columns_by_name)
        assert type(actual) is type(expected), (spec.signature, positions)
        assert actual == expected, (spec.signature, positions)
        if spec.function in (F.SUM, F.AVG) and expected is not None:
            assert type(actual) is float


def test_a_group_of_only_nulls():
    columns_by_name = {"R.a": [None, 3, None]}
    for function in F:
        spec = L.AggregateSpec(function, "R.a", "out")
        for positions in ([0], [0, 2]):
            assert _evaluate_aggregate(
                spec, positions, columns_by_name
            ) == reference_aggregate(spec, positions, columns_by_name)


# ------------------------------------------------------------ lazy table
SCHEMA = RelationSchema(
    "R",
    [
        Attribute("R.k", DataType.INTEGER),
        Attribute("R.v", DataType.STRING),
        Attribute("R.x", DataType.FLOAT),
    ],
)
ROWS = [
    {"R.k": k % 4, "R.v": None if k % 5 == 0 else "v%d" % (k % 3), "R.x": k / 2}
    for k in range(23)
]
BLOCKING_FACTOR = 4


class CountingColumn(list):
    """A column that counts how often it is iterated (one per build)."""

    def __init__(self, values):
        super().__init__(values)
        self.iterations = 0

    def __iter__(self):
        self.iterations += 1
        return super().__iter__()


def lazy_table():
    columns = [
        CountingColumn(row[name] for row in ROWS)
        for name in SCHEMA.attribute_names
    ]
    table = table_from_columns(
        SCHEMA, BLOCKING_FACTOR, columns, len(ROWS), IOCounter()
    )
    return table, columns


def eager_table():
    return table_from_rows(SCHEMA, ROWS, BLOCKING_FACTOR, io=IOCounter())


def io_of(table):
    return table.io.reads, table.io.writes


def test_sizes_do_not_build_rows():
    table, columns = lazy_table()
    eager = eager_table()
    assert table.cardinality == eager.cardinality == len(ROWS)
    assert len(table) == len(eager)
    assert table.num_blocks == eager.num_blocks
    assert "rows=23" in repr(table)
    assert [column.iterations for column in columns] == [0, 0, 0]


def test_rows_are_built_once():
    table, columns = lazy_table()
    assert table.rows() == ROWS
    assert list(table.scan()) == ROWS
    assert table.copy().rows() == ROWS
    assert table.column_view().column("R.k") == [row["R.k"] for row in ROWS]
    table.insert_many([ROWS[0]])
    assert table.cardinality == len(ROWS) + 1
    assert [column.iterations for column in columns] == [1, 1, 1]


def _rows(table):
    return table.rows(), io_of(table)


def _scan(table):
    return list(table.scan()), io_of(table)


def _copy(table):
    out = table.copy()
    out.insert_many([ROWS[1]])  # the copy's rows are its own
    return out.rows(), table.rows(), io_of(table)


def _insert_many(table):
    added = table.insert_many([ROWS[2], {"k": 9, "v": "w", "x": 1}])
    return added, table.rows(), io_of(table)


def _delete_many(table):
    unmatched = {"k": 99, "v": None, "x": 0.0}
    removed = table.delete_many([ROWS[3], ROWS[3], ROWS[7], unmatched])
    return removed, table.rows(), io_of(table), table.cardinality


def _clear(table):
    table.clear()
    return table.rows(), table.cardinality, table.num_blocks, io_of(table)


def _column_view(table):
    view = table.column_view()
    return [view.column(name) for name in SCHEMA.attribute_names], io_of(table)


@pytest.mark.parametrize(
    "operation",
    [_rows, _scan, _copy, _insert_many, _delete_many, _clear, _column_view],
    ids=lambda f: f.__name__.lstrip("_"),
)
@pytest.mark.parametrize("built", [False, True], ids=["before-build", "after-build"])
def test_lazy_table_behaves_like_an_eager_one(operation, built):
    table, columns = lazy_table()
    eager = eager_table()
    if built:
        table.rows()
        eager.rows()
    assert operation(table) == operation(eager)
    assert [column.iterations for column in columns] == [1, 1, 1]


def test_no_columns_give_no_rows():
    table = table_from_columns(
        RelationSchema("E", []), BLOCKING_FACTOR, [], 5, IOCounter()
    )
    assert table.cardinality == 0
    assert table.rows() == []


# ------------------------------------------------------------ served star
STAR = StarConfig(num_queries=16, include_aggregates=True, seed=0)


@pytest.fixture(scope="module")
def star_warehouse():
    warehouse = DataWarehouse.from_workload(
        star_workload(STAR), engine="vectorized", join_method=HASH
    )
    warehouse.design()
    for relation, rows in sorted(star_rows(STAR, 0.005, 0).items()):
        warehouse.load(relation, rows)
    warehouse.materialize()
    return warehouse


def test_served_star_answers_match_the_reference_engine(star_warehouse):
    oracle = ExecutionEngine(star_warehouse.database, HASH, engine=REFERENCE)
    names = [spec.name for spec in star_workload(STAR).queries]
    assert len(names) == 16
    for name in names:
        served = star_warehouse.serve(name)
        assert not served.degraded, name
        expected = oracle.execute(
            star_warehouse.query_plan(name, use_views=False)
        )
        assert served.table.cardinality == expected.cardinality, name
        assert row_multiset(served.table.rows()) == row_multiset(
            expected.rows()
        ), name
