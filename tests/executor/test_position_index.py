"""Position indexes on stored tables against the scan path and REFERENCE.

A stored table's :class:`~repro.storage.columnar.ColumnView` caches a
value -> positions index per column.  The vectorized ``Filter`` reads a
leading ``column = literal`` conjunct from it, and ``HashAggregate``
reads a single-column GROUP BY from it, whenever their child is a
``Scan``.  Random NULL-bearing tables of INTEGER, FLOAT (NaN included),
BOOLEAN and STRING columns, compared against literals of every one of
those types (``1 == 1.0 == True`` across columns), pin that:

* the selection is exactly the rows whose predicate ``is True``, and a
  later conjunct raises ``TypeError`` exactly where the row engine does;
* a grouped aggregate equals REFERENCE in row order and values;
* block I/O equals the REFERENCE engine's linear scan;
* a warm index never serves rows that ``insert_many``, ``delete_many``,
  ``clear`` or an insert through a fault-injecting proxy changed.
"""

from hypothesis import HealthCheck, given, settings, strategies as st

from repro import obs
from repro.algebra.expressions import And, Literal, compare, literal
from repro.algebra.operators import (
    Aggregate,
    AggregateFunction,
    AggregateSpec,
    Relation,
    Select,
)
from repro.algebra.predicates import conjunction
from repro.catalog.datatypes import DataType
from repro.catalog.schema import Attribute, RelationSchema
from repro.executor.batch import leading_equality
from repro.executor.engine import REFERENCE, VECTORIZED, Database, ExecutionEngine
from repro.executor.physical import (
    ExecutionContext,
    Filter,
    Scan,
    execute_operator,
    materialize,
)
from repro.resilience.faults import FaultInjector, FaultPolicy
from repro.storage.columnar import hash_groups
from repro.storage.table import Table

SETTINGS = settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

NAN = float("nan")
SCHEMA = RelationSchema(
    "T",
    [
        Attribute("T.k", DataType.INTEGER),
        Attribute("T.i", DataType.INTEGER),
        Attribute("T.f", DataType.FLOAT),
        Attribute("T.b", DataType.BOOLEAN),
        Attribute("T.s", DataType.STRING),
    ],
)
COLUMNS = ("T.i", "T.f", "T.b", "T.s")
OPS = ("=", "!=", "<", "<=", ">", ">=")

_VALUES = {
    "T.i": st.integers(0, 3),
    # INTEGER values coerce to FLOAT; NaN equals nothing, itself included.
    "T.f": st.sampled_from([0.0, 1.0, 2.5, NAN, 1, 2]),
    "T.b": st.booleans(),
    "T.s": st.sampled_from(["a", "b", "1"]),
}


def _nullable(values):
    return st.one_of(st.none(), values, values)


VALUES = st.fixed_dictionaries(
    {name: _nullable(_VALUES[name]) for name in COLUMNS}
)
ROWS = st.lists(VALUES, max_size=14)
#: Literals of every column type, NULL and NaN (which skip the index).
LITERALS = st.sampled_from([0, 1, 2, 1.0, 2.5, NAN, True, False, "a", "1", None]).map(
    lambda value: Literal(value, DataType.INTEGER if value is None else None)
)
#: Later conjuncts; an ordering comparison across types raises TypeError.
LATER = st.builds(
    compare,
    st.sampled_from(COLUMNS),
    st.sampled_from(OPS),
    st.sampled_from([1, 2.5, True, "a"]).map(literal),
)


def _lead(predicate):
    """The conjunct a selection runs first (``And`` sorts its children)."""
    return predicate.children[0] if isinstance(predicate, And) else predicate


def _leads_with_equality(predicate):
    lead = _lead(predicate)
    return lead.op == "=" and isinstance(lead.right, Literal)


PREDICATES = st.builds(
    lambda name, value, rest: conjunction([compare(name, "=", value), *rest]),
    st.sampled_from(COLUMNS),
    LITERALS,
    st.lists(LATER, max_size=2),
).filter(_leads_with_equality)


def _keyed(rows):
    """Rows with ``T.k`` = their insertion position."""
    return [{"T.k": k, **row} for k, row in enumerate(rows)]


def _outcome(thunk):
    """The value ``thunk`` returns, or the type of error it raises."""
    try:
        return thunk()
    except TypeError:
        return TypeError


def _database(rows, faults=False):
    database = Database()
    table = Table(SCHEMA, blocking_factor=3)
    table.insert_many(rows, count_io=False)
    database.register("T", table)
    if faults:
        database.fault_injector = FaultInjector(FaultPolicy(seed=0))
    return database


def _run(database, plan, mode):
    """``(rows as repr, block I/O)`` of ``plan``, or ``TypeError``."""
    before = database.io.snapshot()
    engine = ExecutionEngine(database, engine=mode)
    result = _outcome(lambda: repr(engine.execute(plan).rows()))
    io = database.io.since(before)
    return result, (io.reads, io.writes)


def _aggregate(name):
    relation = Relation("T", SCHEMA)
    return Aggregate(
        relation,
        group_by=(name,),
        aggregates=(
            AggregateSpec(AggregateFunction.COUNT, None, "n"),
            AggregateSpec(AggregateFunction.SUM, "T.i", "total"),
            AggregateSpec(AggregateFunction.MIN, "T.s", "low"),
        ),
    )


def _plans(predicate, name):
    return (Select(Relation("T", SCHEMA), predicate), _aggregate(name))


def _assert_matches_reference(database, plans):
    for plan in plans:
        assert _run(database, plan, VECTORIZED) == _run(database, plan, REFERENCE)


@SETTINGS
@given(PREDICATES, ROWS)
def test_filter_selection_is_the_rows_evaluating_true(predicate, values):
    rows = _keyed(values)
    table = Table(SCHEMA, blocking_factor=3)
    table.insert_many(rows, count_io=False)
    expected = _outcome(
        lambda: [k for k, row in enumerate(rows) if predicate.evaluate(row) is True]
    )
    op = Filter(Scan("T", table=table), predicate)
    got = _outcome(
        lambda: [row["T.k"] for row in execute_operator(op, io=table.io).rows()]
    )
    assert got == expected
    lead = leading_equality(predicate, SCHEMA.attribute_names)
    if lead is not None:
        view = table.column_view()
        assert view.has_index(lead[0])
        # The cached index is never handed out to be mutated.
        assert view.positions(lead[0]) == hash_groups(view.column(lead[0]))


@SETTINGS
@given(PREDICATES, ROWS, st.booleans())
def test_engines_agree_on_rows_and_io(predicate, values, faults):
    name = _lead(predicate).left.name
    database = _database(_keyed(values), faults)
    _assert_matches_reference(database, _plans(predicate, name))


@SETTINGS
@given(PREDICATES, ROWS, ROWS, st.data())
def test_a_warm_index_follows_every_write(predicate, values, more, data):
    """Each write invalidates the index the previous read left warm."""
    name = _lead(predicate).left.name
    rows = _keyed(values)
    database = _database(rows)
    plans = _plans(predicate, name)
    stored = database.table("T")

    def check():
        _assert_matches_reference(database, plans)
        assert stored.column_view().has_index(name)  # warm for the next write

    check()
    stored.insert_many(_keyed(more), count_io=False)
    check()
    if rows:
        victims = data.draw(st.lists(st.sampled_from(rows), max_size=3))
        stored.delete_many(victims)
        check()
    database.fault_injector = FaultInjector(FaultPolicy(seed=0))
    database.table("T").insert(
        {"T.k": -1, **data.draw(VALUES)}
    )  # through a FaultyTable, which shares the stored table's view
    database.fault_injector = None
    check()
    stored.clear()
    check()


class TestIndexUse:
    SCHEMA = RelationSchema(
        "A",
        [Attribute("A.g", DataType.INTEGER), Attribute("A.v", DataType.INTEGER)],
    )
    ROWS = [{"A.g": g, "A.v": v} for g, v in [(1, 0), (2, 1), (None, 2), (1, 3)]]

    def _table(self):
        table = Table(self.SCHEMA, blocking_factor=2)
        table.insert_many(self.ROWS, count_io=False)
        return table

    def test_filter_merges_null_positions_as_unknown(self):
        table = self._table()
        predicate = conjunction(
            [compare("A.g", "=", literal(1)), compare("A.v", ">=", literal(0))]
        )
        result = execute_operator(Filter(Scan("A", table=table), predicate), table.io)
        assert [row["A.v"] for row in result.rows()] == [0, 3]
        assert table.column_view().positions("A.g") == {1: [0, 3], 2: [1], None: [2]}

    def test_null_and_nan_literals_skip_the_index(self):
        names = self.SCHEMA.attribute_names
        null = Literal(None, DataType.INTEGER)
        assert leading_equality(compare("A.g", "=", null), names) is None
        assert leading_equality(compare("A.g", "=", literal(NAN)), names) is None
        assert leading_equality(compare("A.g", "<", literal(1)), names) is None
        assert leading_equality(compare("A.g", "=", literal(1)), names) == ("A.g", 1)

    def test_lookups_are_counted_only_when_recording(self):
        table = self._table()
        op = Filter(Scan("A", table=table), compare("A.g", "=", literal(1)))
        obs.enable(reset=True)
        try:
            counter = obs.metrics().counter(
                "executor.index_lookups", operator="filter"
            )
            materialize(op, ExecutionContext(io=table.io))
            assert counter.value == 0
            materialize(op, ExecutionContext(io=table.io, record=True))
            assert counter.value == 1
        finally:
            obs.disable()
