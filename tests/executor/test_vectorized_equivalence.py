"""Property tests: the vectorized engine is bit-identical to the reference.

The vectorized columnar executor must reproduce the row-at-a-time
reference engine *exactly* — the same rows in the same order and the
same block-I/O charges — for every operator, every join method, and
every batch size (including degenerate ``batch_size=1``).  Random
SPJ(+aggregate/sort/limit/distinct) plans over random tiny tables pin
the property — single and two-pair equi-joins, a FLOAT key joined to an
INTEGER one, NULL join keys on both sides, selections of one to three
conjuncts (column-literal and column-column comparisons under all six
operators, INTEGER columns against FLOAT literals, OR and NOT) over
NULL-bearing columns, one- and two-attribute GROUP BY; the paper's Table-2 workload and the maintenance paths
(DISTINCT views, self-join fallback) pin the end-to-end story.
"""

import random
import warnings
from collections import Counter

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.algebra.expressions import Not, column, compare, literal
from repro.algebra.operators import (
    Aggregate,
    AggregateFunction,
    AggregateSpec,
    Join,
    Limit,
    Project,
    Relation,
    Select,
    Sort,
)
from repro.algebra.predicates import conjunction, disjunction
from repro.catalog.datatypes import DataType
from repro.catalog.schema import Attribute, RelationSchema
from repro.errors import ExecutionError
from repro.executor.engine import (
    ENGINES,
    HASH,
    INDEX_NESTED_LOOP,
    NESTED_LOOP,
    REFERENCE,
    SORT_MERGE,
    VECTORIZED,
    Database,
    ExecutionEngine,
)
from repro.executor.physical import BuildSideCache, PhysicalPlanner
from repro.storage.table import Table

SETTINGS = settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

BATCH_SIZES = (1, 7, 1024)

SCHEMAS = {
    "A": RelationSchema(
        "A",
        [
            Attribute("A.id", DataType.INTEGER),
            Attribute("A.v", DataType.INTEGER),
        ],
    ),
    "B": RelationSchema(
        "B",
        [
            Attribute("B.id", DataType.INTEGER),
            Attribute("B.a_fk", DataType.INTEGER),
            Attribute("B.w", DataType.INTEGER),
            Attribute("B.a_fl", DataType.FLOAT),
        ],
    ),
}

#: Equi-join conditions of the generated plans: one key pair, a FLOAT
#: key against an INTEGER one (``1 = 1.0``), and two key pairs.
JOIN_CONDITIONS = (
    ("B.a_fk", "A.id"),
    ("B.a_fl", "A.id"),
    ("B.a_fk", "A.id", "B.w", "A.v"),
)


def _maybe_null(rng, value):
    return None if rng.random() < 0.15 else value


def make_data(seed):
    """Tiny random tables; NULL keys can appear on both join sides."""
    rng = random.Random(seed)
    n_a, n_b = rng.randint(1, 8), rng.randint(1, 12)
    a_rows = [
        {"A.id": i, "A.v": rng.choice([None, *range(5)])} for i in range(n_a)
    ]
    if rng.random() < 0.5:
        a_rows.append({"A.id": None, "A.v": rng.choice([None, *range(5)])})
    rows = {
        "A": a_rows,
        "B": [
            {
                "B.id": i,
                "B.a_fk": _maybe_null(rng, rng.randrange(n_a)),
                "B.w": rng.randint(0, 5),
                "B.a_fl": _maybe_null(rng, float(rng.randrange(n_a))),
            }
            for i in range(n_b)
        ],
    }
    return rows


def _join_condition(keys):
    return conjunction(
        [
            compare(inner, "=", column(outer))
            for inner, outer in zip(keys[::2], keys[1::2])
        ]
    )


OPS = (">", "<", "=", "!=", ">=", "<=")
#: Columns a selection reads; all but ``B.w`` hold NULLs in ``make_data``.
SELECT_COLUMNS = ("A.id", "A.v", "B.a_fk", "B.w", "B.a_fl")
INTEGER_COLUMNS = ("A.id", "A.v", "B.a_fk", "B.w")


def _comparison(rng):
    """``column op literal`` or ``column op column``; some INTEGER
    columns meet a FLOAT literal (``2 = 2.0``, ``2 < 2.5``)."""
    op = rng.choice(OPS)
    kind = rng.random()
    if kind < 0.5:
        return compare(
            rng.choice(SELECT_COLUMNS), op, literal(rng.randint(0, 5))
        )
    if kind < 0.75:
        return compare(
            rng.choice(INTEGER_COLUMNS), op, literal(rng.choice([1.0, 2.5, 3.0]))
        )
    left, right = rng.sample(SELECT_COLUMNS, 2)
    return compare(left, op, column(right))


def _conjunct(rng):
    """One AND-factor of a generated selection: mostly a comparison,
    sometimes an OR of two or a NOT of one."""
    kind = rng.random()
    if kind < 0.7:
        return _comparison(rng)
    if kind < 0.85:
        return disjunction([_comparison(rng), _comparison(rng)])
    return Not(_comparison(rng))


def make_plan(seed, allow_limit=True):
    """A random plan exercising every operator the engines support."""
    rng = random.Random(seed)
    plan = Relation("A", SCHEMAS["A"])
    plan = Join(
        plan,
        Relation("B", SCHEMAS["B"]),
        _join_condition(rng.choice(JOIN_CONDITIONS)),
    )
    if rng.random() < 0.7:
        plan = Select(
            plan,
            conjunction([_conjunct(rng) for _ in range(rng.randint(1, 3))]),
        )
    shape = rng.random()
    if shape < 0.3:
        plan = Aggregate(
            plan,
            rng.choice([["A.v"], ["A.v", "B.w"]]),
            [
                AggregateSpec(AggregateFunction.COUNT, None, "n"),
                AggregateSpec(AggregateFunction.SUM, "B.w", "s"),
                AggregateSpec(AggregateFunction.MIN, "B.w", "lo"),
                AggregateSpec(AggregateFunction.AVG, "B.w", "m"),
            ],
        )
    elif shape < 0.6:
        plan = Project(plan, ["A.v", "B.w"], distinct=rng.random() < 0.5)
    if rng.random() < 0.4:
        plan = Sort(plan, [(plan.schema.attribute_names[0], rng.random() < 0.5)])
    if allow_limit and rng.random() < 0.3:
        plan = Limit(plan, rng.randint(1, 6))
    return plan


def load(rows):
    database = Database()
    for name, table_rows in rows.items():
        table = Table(SCHEMAS[name], blocking_factor=3)
        for row in table_rows:
            table.insert(row)
        database.register(name, table)
    return database


def run(plan, rows, method, mode, batch_size=1024):
    """(ordered row tuples, (reads, writes)) for one engine configuration."""
    database = load(rows)
    engine = ExecutionEngine(
        database, method, engine=mode, batch_size=batch_size
    )
    database.io.reset()
    result = engine.execute(plan)
    ordered = [
        tuple(row[name] for name in result.schema.attribute_names)
        for row in result.rows()
    ]
    return ordered, (database.io.reads, database.io.writes)


@SETTINGS
@given(st.integers(0, 10_000), st.integers(0, 10_000))
def test_vectorized_matches_reference_rows_and_io(plan_seed, data_seed):
    plan = make_plan(plan_seed)
    rows = make_data(data_seed)
    for method in (NESTED_LOOP, HASH, INDEX_NESTED_LOOP, SORT_MERGE):
        expected_rows, expected_io = run(plan, rows, method, REFERENCE)
        got_rows, got_io = run(plan, rows, method, VECTORIZED)
        assert got_rows == expected_rows, method
        assert got_io == expected_io, method


@SETTINGS
@given(st.integers(0, 10_000), st.integers(0, 10_000))
def test_every_join_method_returns_the_same_rows(plan_seed, data_seed):
    """Join methods may order rows differently, never change the bag.

    LIMIT is left out: which rows it keeps depends on the order.
    """
    plan = make_plan(plan_seed, allow_limit=False)
    rows = make_data(data_seed)
    bags = {
        (method, mode): Counter(run(plan, rows, method, mode)[0])
        for method in (NESTED_LOOP, HASH, INDEX_NESTED_LOOP, SORT_MERGE)
        for mode in ENGINES
    }
    expected = bags[(NESTED_LOOP, REFERENCE)]
    for key, bag in bags.items():
        assert bag == expected, key


class TestNullJoinKeys:
    """A NULL equi-key never matches, whatever the join method or engine."""

    ROWS = {
        "A": [{"A.id": None, "A.v": 1}, {"A.id": 1, "A.v": 2}],
        "B": [
            {"B.id": 0, "B.a_fk": None, "B.w": 3, "B.a_fl": None},
            {"B.id": 1, "B.a_fk": 1, "B.w": 4, "B.a_fl": 1.0},
        ],
    }

    @pytest.mark.parametrize("keys", JOIN_CONDITIONS[:2])
    @pytest.mark.parametrize("mode", ENGINES)
    @pytest.mark.parametrize(
        "method", (NESTED_LOOP, HASH, INDEX_NESTED_LOOP, SORT_MERGE)
    )
    def test_null_keys_drop(self, method, mode, keys):
        plan = Join(
            Relation("A", SCHEMAS["A"]),
            Relation("B", SCHEMAS["B"]),
            _join_condition(keys),
        )
        rows, _ = run(plan, self.ROWS, method, mode)
        assert rows == [(1, 2, 1, 1, 4, 1.0)]

    @pytest.mark.parametrize("mode", ENGINES)
    def test_two_pair_keys_with_a_null_drop(self, mode):
        rows = {
            "A": [
                {"A.id": 1, "A.v": None},
                {"A.id": None, "A.v": 4},
                {"A.id": 1, "A.v": 4},
            ],
            "B": [
                {"B.id": 0, "B.a_fk": 1, "B.w": 4, "B.a_fl": 1.0},
                {"B.id": 1, "B.a_fk": None, "B.w": 4, "B.a_fl": None},
            ],
        }
        plan = Join(
            Relation("A", SCHEMAS["A"]),
            Relation("B", SCHEMAS["B"]),
            _join_condition(JOIN_CONDITIONS[2]),
        )
        for method in (NESTED_LOOP, HASH, INDEX_NESTED_LOOP, SORT_MERGE):
            got, _ = run(plan, rows, method, mode)
            assert got == [(1, 4, 0, 1, 4, 1.0)], method


@SETTINGS
@given(st.integers(0, 10_000), st.integers(0, 10_000))
def test_batch_size_never_changes_results(plan_seed, data_seed):
    plan = make_plan(plan_seed)
    rows = make_data(data_seed)
    baseline = run(plan, rows, NESTED_LOOP, REFERENCE)
    for batch_size in BATCH_SIZES:
        assert run(
            plan, rows, NESTED_LOOP, VECTORIZED, batch_size
        ) == baseline, batch_size


class TestPaperWorkload:
    """Table-2 workload: both engines answer every query identically."""

    @pytest.fixture(scope="class")
    def warehouses(self, workload):
        from repro.mvpp.config import DesignConfig
        from repro.warehouse import DataWarehouse
        from repro.workload.datagen import paper_rows

        rows = paper_rows(scale=0.05, seed=7)
        built = {}
        for mode in ENGINES:
            warehouse = DataWarehouse.from_workload(workload, engine=mode)
            warehouse.design(DesignConfig(seed=0))
            for relation, relation_rows in rows.items():
                warehouse.load(relation, relation_rows)
            warehouse.materialize()
            built[mode] = warehouse
        return built

    def test_queries_bit_identical(self, warehouses, workload):
        for spec in workload.queries:
            results = {}
            for mode, warehouse in warehouses.items():
                table, io = warehouse.execute(spec.name)
                ordered = [
                    tuple(row[n] for n in table.schema.attribute_names)
                    for row in table.rows()
                ]
                results[mode] = (ordered, io.reads, io.writes)
            assert results[VECTORIZED] == results[REFERENCE], spec.name

    def test_refresh_bit_identical(self, warehouses, workload):
        import datetime

        delta = [
            {"Pid": 1, "Cid": 2, "quantity": 11,
             "date": datetime.date(1996, 6, 6)},
        ]
        outcomes = {}
        for mode, warehouse in warehouses.items():
            before = warehouse.database.io.snapshot()
            warehouse.apply_update("Order", delta, policy="incremental")
            io = warehouse.database.io.since(before)
            stored = {
                view.name: sorted(
                    tuple(sorted(r.items()))
                    for r in warehouse.database.table(view.name).rows()
                )
                for view in warehouse.views
                if view.name in warehouse.database
            }
            outcomes[mode] = (stored, io.reads, io.writes)
        assert outcomes[VECTORIZED] == outcomes[REFERENCE]


class TestMaintenancePaths:
    """DISTINCT and self-join incremental paths under both engines."""

    @staticmethod
    def _database(workload, scale=0.02):
        from repro.executor.engine import load_database
        from repro.workload.datagen import paper_rows

        return load_database(paper_rows(scale=scale, seed=5), workload.catalog)

    @staticmethod
    def _stored(database, name):
        return sorted(
            tuple(sorted(r.items())) for r in database.table(name).rows()
        )

    @pytest.mark.parametrize("mode", ENGINES)
    def test_distinct_view_refresh(self, workload, estimator, mode):
        import datetime

        from repro.optimizer.heuristics import optimize_query
        from repro.sql.translator import parse_query
        from repro.warehouse.maintenance import ViewMaintainer
        from repro.warehouse.view import MaterializedView

        database = self._database(workload)
        plan = optimize_query(
            parse_query(
                "SELECT DISTINCT Customer.city FROM Order, Customer "
                "WHERE Order.Cid = Customer.Cid",
                workload.catalog,
            ),
            estimator,
        )
        view = MaterializedView(name="mv_cities", plan=plan)
        maintainer = ViewMaintainer(
            database, ExecutionEngine(database, engine=mode)
        )
        maintainer.materialize(view)
        delta = [
            {"Pid": 9, "Cid": 1, "quantity": 2,
             "date": datetime.date(1996, 2, 2)},
        ]
        database.table("Order").insert_many(delta)
        maintainer.incremental_refresh(view, "Order", delta)
        oracle = ExecutionEngine(database, engine=REFERENCE).execute(plan)
        assert self._stored(database, "mv_cities") == sorted(
            tuple(sorted(r.items())) for r in oracle.rows()
        )

    @pytest.mark.parametrize("mode", ENGINES)
    def test_self_join_view_falls_back(self, workload, mode):
        import datetime

        from repro.warehouse.maintenance import RECOMPUTE, ViewMaintainer
        from repro.warehouse.view import MaterializedView

        database = self._database(workload)
        schema = workload.catalog.schema("Order").qualify()
        order = Relation("Order", schema)
        plan = Join(
            Project(order, ["Order.Pid"]),
            Project(order, ["Order.Cid"]),
            None,
        )
        view = MaterializedView(name="mv_self", plan=plan)
        maintainer = ViewMaintainer(
            database, ExecutionEngine(database, engine=mode)
        )
        maintainer.materialize(view)
        delta = [
            {"Pid": 4, "Cid": 2, "quantity": 3,
             "date": datetime.date(1996, 1, 1)},
        ]
        database.table("Order").insert_many(delta)
        report = maintainer.incremental_refresh(view, "Order", delta)
        assert report.policy == RECOMPUTE
        oracle = ExecutionEngine(database, engine=REFERENCE).execute(plan)
        assert self._stored(database, "mv_self") == sorted(
            tuple(sorted(r.items())) for r in oracle.rows()
        )


class TestEngineSelector:
    def test_unknown_engine_rejected(self):
        with pytest.raises(ExecutionError):
            ExecutionEngine(Database(), engine="volcano")

    def test_bad_batch_size_rejected(self):
        with pytest.raises(ExecutionError):
            ExecutionEngine(Database(), batch_size=0)

    def test_per_call_override(self):
        rows = make_data(3)
        plan = make_plan(3)
        database = load(rows)
        engine = ExecutionEngine(database)  # vectorized default
        via_override = engine.execute(plan, engine=REFERENCE)
        via_default = engine.execute(plan)
        assert [r for r in via_override.rows()] == [
            r for r in via_default.rows()
        ]

    def test_design_config_validates_engine(self):
        from repro.errors import MVPPError
        from repro.mvpp.config import DesignConfig

        with pytest.raises(MVPPError):
            DesignConfig(engine="volcano")
        assert DesignConfig(engine=REFERENCE).engine == REFERENCE

    def test_explain_shows_physical_tree(self):
        rows = make_data(1)
        engine = ExecutionEngine(load(rows))
        plan = make_plan(1)
        text = engine.explain(plan)
        assert "Scan[" in text
        assert engine.explain(plan, engine=REFERENCE) == plan.describe()

    def test_planner_rejects_unbound_without_schema(self):
        planner = PhysicalPlanner(database=None, require_tables=True)
        with pytest.raises(ExecutionError):
            planner.lower(Relation("A", SCHEMAS["A"]))


class TestBuildSideCache:
    @staticmethod
    def _join_plan():
        return Join(
            Relation("A", SCHEMAS["A"]),
            Relation("B", SCHEMAS["B"]),
            compare("B.a_fk", "=", column("A.id")),
        )

    def test_hit_replays_identical_io_and_rows(self):
        rows = make_data(11)
        plan = self._join_plan()
        database = load(rows)
        engine = ExecutionEngine(database, HASH)
        database.io.reset()
        first = engine.execute(plan)
        cold = (database.io.reads, database.io.writes)
        database.io.reset()
        second = engine.execute(plan)
        warm = (database.io.reads, database.io.writes)
        assert engine.build_cache.hits == 1
        assert warm == cold  # replayed charges keep accounting identical
        assert list(second.rows()) == list(first.rows())

    def test_update_invalidates(self):
        rows = make_data(11)
        plan = self._join_plan()
        database = load(rows)
        engine = ExecutionEngine(database, HASH)
        engine.execute(plan)
        database.table("B").insert(
            {"B.id": 99, "B.a_fk": 0, "B.w": 1, "B.a_fl": 0.0}
        )
        result = engine.execute(plan)  # validity check misses, rebuilds
        assert engine.build_cache.hits == 0
        assert any(row["B.id"] == 99 for row in result.rows())

    def test_register_bumps_version(self):
        rows = make_data(11)
        plan = self._join_plan()
        database = load(rows)
        engine = ExecutionEngine(database, HASH)
        engine.execute(plan)
        replacement = Table(SCHEMAS["B"], blocking_factor=3)
        database.register("B", replacement)
        result = engine.execute(plan)
        assert engine.build_cache.hits == 0
        assert list(result.rows()) == []

    def test_named_invalidation(self):
        cache = BuildSideCache()
        token = ("hash-build", "sig", ("B.a_fk",))
        cache.store(token, (("B", 0, 3),), [[1]], 1, {}, 1, 0, ("B",))
        cache.invalidate("A")
        assert len(cache) == 1
        cache.invalidate("B")
        assert len(cache) == 0

    def test_fifo_eviction(self):
        cache = BuildSideCache(max_entries=2)
        for i in range(3):
            cache.store(
                ("hash-build", f"sig{i}", ()), (), [], 0, {}, 0, 0, ("B",)
            )
        assert len(cache) == 2
        assert cache.lookup(("hash-build", "sig0", ()), ()) is None


class TestColumnView:
    def _table(self):
        table = Table(SCHEMAS["A"], blocking_factor=3)
        table.insert_many(
            [{"A.id": i, "A.v": i * 2} for i in range(4)], count_io=False
        )
        return table

    def test_columns_match_rows(self):
        table = self._table()
        view = table.column_view()
        assert view.column("A.id") == [0, 1, 2, 3]
        assert view.column("A.v") == [0, 2, 4, 6]

    def test_insert_invalidates(self):
        table = self._table()
        view = table.column_view()
        assert view.column("A.id") == [0, 1, 2, 3]
        table.insert({"A.id": 9, "A.v": 9})
        assert view.column("A.id") == [0, 1, 2, 3, 9]

    def test_clear_invalidates(self):
        table = self._table()
        view = table.column_view()
        view.column("A.id")
        table.clear()
        assert view.column("A.id") == []

    def test_column_read_charges_no_io(self):
        table = self._table()
        before = table.io.snapshot()
        table.column_view().column("A.v")
        assert table.io.since(before).total == 0
