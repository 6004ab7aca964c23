"""The index-nested-loop probe on both engines, over small random tables.

The vectorized join probes the stored inner table's position index
(``ColumnView.positions``); the REFERENCE engine probes a plain dict it
builds itself.  Random NULL-bearing tables (an INTEGER outer key
against a FLOAT inner key, so ``1 = 1.0`` matches and ``2.5`` matches
nothing) and random blocking factors pin, comparing rows and
``(reads, writes)`` of the two engines:

* rows equal the nested-loop join's, in its outer-major order, so a
  NULL outer key and a NULL inner value match nothing;
* a warm second run charges no index build, ``B(inner)`` less;
* a write to the inner between runs charges the build once more;
* an inner column already indexed by an equality ``Filter`` or a
  single-column GROUP BY still charges the build once;
* a fault-injecting proxy draws a read fault on the build and on each
  probe, in the same sequence on both engines.
"""

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.algebra.expressions import column, compare, literal
from repro.algebra.operators import (
    Aggregate,
    AggregateFunction,
    AggregateSpec,
    Join,
    Relation,
    Select,
)
from repro.algebra.predicates import conjunction
from repro.catalog.datatypes import DataType
from repro.catalog.schema import Attribute, RelationSchema
from repro.errors import StorageFault
from repro.executor.engine import (
    INDEX_NESTED_LOOP,
    NESTED_LOOP,
    REFERENCE,
    VECTORIZED,
    Database,
    ExecutionEngine,
)
from repro.resilience.faults import SCOPE_ALL, FaultInjector, FaultPolicy
from repro.storage.table import Table

SETTINGS = settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

OUTER = RelationSchema(
    "A", [Attribute("A.k", DataType.INTEGER), Attribute("A.x", DataType.INTEGER)]
)
INNER = RelationSchema(
    "B", [Attribute("B.k", DataType.FLOAT), Attribute("B.y", DataType.INTEGER)]
)
SMALL = st.one_of(st.none(), st.integers(0, 2))
KEYS = st.one_of(st.none(), st.integers(0, 3))
OUTER_ROWS = st.lists(
    st.fixed_dictionaries({"A.k": KEYS, "A.x": SMALL}), max_size=10
)
INNER_ROW = st.fixed_dictionaries(
    {
        "B.k": st.one_of(KEYS, st.sampled_from([1.0, 2.5])),
        "B.y": SMALL,
    }
)
INNER_ROWS = st.lists(INNER_ROW, max_size=10)
BLOCKING_FACTORS = st.sampled_from([1, 2, 3])

KEY = compare("B.k", "=", column("A.k"))
#: One key pair; a second pair the join filters on; a residual.
CONDITIONS = st.sampled_from(
    [
        KEY,
        conjunction([KEY, compare("B.y", "=", column("A.x"))]),
        conjunction([KEY, compare("A.x", "<", column("B.y"))]),
    ]
)


def load(outer, inner, bf):
    database = Database()
    for name, schema, rows in (("A", OUTER, outer), ("B", INNER, inner)):
        table = Table(schema, blocking_factor=bf)
        table.insert_many(rows, count_io=False)
        database.register(name, table)
    return database


def join(condition):
    return Join(Relation("A", OUTER), Relation("B", INNER), condition)


def run(database, plan, mode, method=INDEX_NESTED_LOOP):
    """``(rows in order, (reads, writes))`` of one run, or the fault."""
    engine = ExecutionEngine(database, method, engine=mode)
    before = database.io.snapshot()
    try:
        result = engine.execute(plan)
        rows = [tuple(row.values()) for row in result.rows()]
    except StorageFault:
        rows = StorageFault
    io = database.io.since(before)
    return rows, (io.reads, io.writes)


def on_both_engines(outer, inner, bf, scenario):
    """``scenario(database, mode)`` on a fresh database per engine;
    asserts the engines agree and returns the shared outcome."""
    outcomes = {
        mode: scenario(load(outer, inner, bf), mode) for mode in (VECTORIZED, REFERENCE)
    }
    assert outcomes[VECTORIZED] == outcomes[REFERENCE]
    return outcomes[REFERENCE]


@SETTINGS
@given(OUTER_ROWS, INNER_ROWS, BLOCKING_FACTORS, CONDITIONS)
def test_rows_are_the_nested_loop_join(outer, inner, bf, condition):
    plan = join(condition)
    rows, _ = on_both_engines(outer, inner, bf, lambda db, mode: run(db, plan, mode))
    expected, _ = run(load(outer, inner, bf), plan, REFERENCE, NESTED_LOOP)
    assert rows == expected
    assert all(row[0] is not None and row[2] is not None for row in rows)


@SETTINGS
@given(OUTER_ROWS, INNER_ROWS, BLOCKING_FACTORS, CONDITIONS)
def test_a_warm_run_charges_no_build(outer, inner, bf, condition):
    plan = join(condition)

    def scenario(database, mode):
        return run(database, plan, mode), run(database, plan, mode)

    (cold_rows, cold), (warm_rows, warm) = on_both_engines(outer, inner, bf, scenario)
    assert warm_rows == cold_rows
    inner_blocks = load(outer, inner, bf).table("B").num_blocks
    assert cold[0] - warm[0] == inner_blocks
    assert cold[1] == warm[1] == 0


WRITES = st.sampled_from(["insert", "insert_many", "delete_many", "proxy", "clear"])


@SETTINGS
@given(OUTER_ROWS, INNER_ROWS, BLOCKING_FACTORS, WRITES, INNER_ROWS, st.data())
def test_a_write_to_the_inner_charges_the_build_again(
    outer, inner, bf, write, more, data
):
    plan = join(KEY)
    victims = data.draw(st.lists(st.sampled_from(inner), max_size=3)) if inner else []
    data_row = data.draw(INNER_ROW)

    def scenario(database, mode):
        stored = database.table("B")
        first = run(database, plan, mode)
        if write == "insert":
            stored.insert(data_row)
        elif write == "insert_many":
            stored.insert_many(more, count_io=False)
        elif write == "delete_many":
            stored.delete_many(victims, count_io=False)
        elif write == "proxy":  # a FaultyTable shares the stored table's view
            database.fault_injector = FaultInjector(FaultPolicy(seed=0))
            database.table("B").insert(data_row)
            database.fault_injector = None
        else:
            stored.clear()
        rebuilt = run(database, plan, mode)
        return first, rebuilt, run(database, plan, mode), stored.num_blocks

    _, (rows, rebuilt), (warm_rows, warm), blocks = on_both_engines(
        outer, inner, bf, scenario
    )
    assert warm_rows == rows
    wrote = {"insert_many": bool(more), "delete_many": bool(victims)}.get(write, True)
    assert rebuilt[0] - warm[0] == (blocks if wrote else 0)


@SETTINGS
@given(
    OUTER_ROWS,
    INNER_ROWS,
    BLOCKING_FACTORS,
    st.sampled_from(["filter", "group-by"]),
    st.integers(0, 3),
)
def test_an_index_built_by_a_filter_or_group_by_still_charges(
    outer, inner, bf, reader, value
):
    plan = join(KEY)
    if reader == "filter":
        first = Select(Relation("B", INNER), compare("B.k", "=", literal(value)))
    else:
        count = AggregateSpec(AggregateFunction.COUNT, None, "n")
        first = Aggregate(Relation("B", INNER), ["B.k"], [count])

    def scenario(database, mode):
        run(database, first, mode)
        if mode == VECTORIZED:
            assert database.table("B").column_view().has_index("B.k")
        return run(database, plan, mode), run(database, plan, mode)

    (rows, after_reader), (_, warm) = on_both_engines(outer, inner, bf, scenario)
    cold_rows, cold = run(load(outer, inner, bf), plan, REFERENCE)
    assert (rows, after_reader) == (cold_rows, cold)
    assert after_reader[0] - warm[0] == load(outer, inner, bf).table("B").num_blocks


@SETTINGS
@given(
    OUTER_ROWS,
    INNER_ROWS,
    BLOCKING_FACTORS,
    st.sampled_from([0.0, 0.1, 0.3]),
    st.integers(0, 1000),
)
def test_a_fault_proxy_draws_on_the_build_and_each_probe(outer, inner, bf, rate, seed):
    plan = join(KEY)

    def scenario(database, mode):
        injector = FaultInjector(
            FaultPolicy(storage_failure_rate=rate, scope=SCOPE_ALL, seed=seed)
        )
        draws = []
        draw = injector.maybe_fail_storage

        def recorded(relation, operation):
            draws.append((relation, operation))
            draw(relation, operation)

        injector.maybe_fail_storage = recorded
        database.fault_injector = injector
        runs = [run(database, plan, mode) for _ in range(2)]
        return runs, draws

    runs, draws = on_both_engines(outer, inner, bf, scenario)
    if rate == 0.0:
        probes = [("B", "read")] * sum(row["A.k"] is not None for row in outer)
        assert draws == (
            [("B", "read"), ("A", "scan")] + probes + [("A", "scan")] + probes
        )
        assert runs[0][0] == runs[1][0] != StorageFault
