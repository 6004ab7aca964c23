"""Unit tests for recompute and incremental view maintenance."""

from collections import Counter

import pytest

from repro import obs
from repro.algebra.expressions import column, compare, literal
from repro.algebra.operators import (
    Aggregate,
    AggregateFunction,
    AggregateSpec,
    Join,
    Project,
    Relation,
    Select,
    Sort,
)
from repro.catalog.datatypes import DataType
from repro.catalog.schema import Attribute, RelationSchema
from repro.errors import WarehouseError
from repro.executor.engine import HASH, Database, ExecutionEngine, load_database
from repro.sql.translator import parse_query
from repro.optimizer.heuristics import optimize_query
from repro.storage.table import Table
from repro.warehouse import maintenance as M
from repro.warehouse.maintenance import INCREMENTAL, RECOMPUTE, ViewMaintainer
from repro.warehouse.view import MaterializedView
from repro.workload.datagen import paper_rows


@pytest.fixture()
def database(workload):
    return load_database(paper_rows(scale=0.02, seed=5), workload.catalog)


@pytest.fixture()
def view(workload, estimator):
    plan = optimize_query(
        parse_query(
            "SELECT Customer.city, date FROM Order, Customer "
            "WHERE Order.Cid = Customer.Cid",
            workload.catalog,
        ),
        estimator,
    )
    return MaterializedView(name="mv_oc", plan=plan)


def brute_force_rows(database, view):
    from repro.executor.engine import ExecutionEngine

    return sorted(
        tuple(sorted(r.items()))
        for r in ExecutionEngine(database).execute(view.plan).rows()
    )


class TestMaterialize:
    def test_contents_match_plan(self, database, view):
        maintainer = ViewMaintainer(database)
        report = maintainer.materialize(view)
        assert report.policy == RECOMPUTE
        stored = database.table("mv_oc")
        assert stored.cardinality == report.rows_after
        assert sorted(
            tuple(sorted(r.items())) for r in stored.rows()
        ) == brute_force_rows(database, view)

    def test_io_charged_including_write(self, database, view):
        maintainer = ViewMaintainer(database)
        report = maintainer.materialize(view)
        assert report.io.reads > 0
        assert report.io.writes >= database.table("mv_oc").num_blocks


class TestIncremental:
    def test_delta_insert_matches_recompute(self, database, view):
        import datetime

        maintainer = ViewMaintainer(database)
        maintainer.materialize(view)

        delta = [
            {"Pid": 1, "Cid": 5, "quantity": 42, "date": datetime.date(1996, 9, 9)},
            {"Pid": 2, "Cid": 6, "quantity": 7, "date": datetime.date(1996, 3, 3)},
        ]
        database.table("Order").insert_many(delta)
        report = maintainer.incremental_refresh(view, "Order", delta)
        assert report.policy == INCREMENTAL

        incremental_rows = sorted(
            tuple(sorted(r.items())) for r in database.table("mv_oc").rows()
        )
        assert incremental_rows == brute_force_rows(database, view)

    def test_incremental_cheaper_than_recompute(self, database, view):
        import datetime

        maintainer = ViewMaintainer(database)
        maintainer.materialize(view)
        delta = [
            {"Pid": 3, "Cid": 1, "quantity": 9, "date": datetime.date(1996, 5, 5)}
        ]
        database.table("Order").insert_many(delta)
        incremental = maintainer.incremental_refresh(view, "Order", delta)
        recompute = maintainer.materialize(view)
        assert incremental.io.total < recompute.io.total

    def test_unrelated_relation_is_noop(self, database, view):
        maintainer = ViewMaintainer(database)
        maintainer.materialize(view)
        report = maintainer.incremental_refresh(view, "Part", [])
        assert report.io.total == 0

    def test_requires_materialization_first(self, database, view):
        maintainer = ViewMaintainer(database)
        with pytest.raises(WarehouseError):
            maintainer.incremental_refresh(view, "Order", [])

    def test_self_join_views_fall_back_to_recompute(self, database, workload):
        """Regression: the overlay substitutes the delta for *every*
        occurrence of the updated relation, so a self-join view would be
        maintained as ``δR ⋈ δR`` instead of ``δR ⋈ R ∪ R_old ⋈ δR`` —
        silently dropping almost all new rows.  Multiple references must
        fall back to recomputation."""
        import datetime

        from repro.algebra.operators import Join, Project, Relation

        schema = workload.catalog.schema("Order").qualify()
        order = Relation("Order", schema)
        plan = Join(
            Project(order, ["Order.Pid"]),
            Project(order, ["Order.Cid"]),
            None,
        )
        view = MaterializedView(name="mv_self", plan=plan)
        maintainer = ViewMaintainer(database)
        maintainer.materialize(view)

        delta = [
            {"Pid": 4, "Cid": 2, "quantity": 3, "date": datetime.date(1996, 1, 1)}
        ]
        database.table("Order").insert_many(delta)
        report = maintainer.incremental_refresh(view, "Order", delta)

        assert report.policy == RECOMPUTE  # fell back — delta rule is unsound
        stored = sorted(
            tuple(sorted(r.items())) for r in database.table("mv_self").rows()
        )
        assert stored == brute_force_rows(database, view)

    def test_distinct_projection_does_not_accrue_duplicates(
        self, database, workload, estimator
    ):
        """A duplicate-eliminating projection view must stay a set: a
        delta row projecting onto an already-stored tuple is dropped."""
        plan = optimize_query(
            parse_query(
                "SELECT DISTINCT Customer.city FROM Customer",
                workload.catalog,
            ),
            estimator,
        )
        view = MaterializedView(name="mv_cities", plan=plan)
        maintainer = ViewMaintainer(database)
        maintainer.materialize(view)
        cities_before = {r["Customer.city"] for r in database.table("mv_cities").rows()}
        existing_city = sorted(cities_before)[0]

        delta = [
            {"Cid": 20_001, "name": "A", "city": existing_city},
            {"Cid": 20_002, "name": "B", "city": "Neverwhere"},
        ]
        database.table("Customer").insert_many(delta)
        report = maintainer.incremental_refresh(view, "Customer", delta)

        assert report.policy == INCREMENTAL
        stored = [r["Customer.city"] for r in database.table("mv_cities").rows()]
        assert len(stored) == len(set(stored)), "duplicates accrued"
        assert set(stored) == cities_before | {"Neverwhere"}
        assert sorted(
            tuple(sorted(r.items())) for r in database.table("mv_cities").rows()
        ) == brute_force_rows(database, view)

    def test_incremental_refresh_swaps_atomically(self, database, view):
        """The delta is applied to a shadow copy that replaces the stored
        table only once complete — a reader holding the old table never
        observes rows appearing mid-refresh."""
        import datetime

        maintainer = ViewMaintainer(database)
        maintainer.materialize(view)
        old_table = database.table("mv_oc")
        rows_before = list(old_table.rows())

        delta = [
            {"Pid": 1, "Cid": 2, "quantity": 5, "date": datetime.date(1996, 7, 7)}
        ]
        database.table("Order").insert_many(delta)
        maintainer.incremental_refresh(view, "Order", delta)

        new_table = database.table("mv_oc")
        assert new_table is not old_table
        assert old_table.rows() == rows_before  # old snapshot untouched
        assert new_table.cardinality > old_table.cardinality

    def test_aggregate_views_are_maintained_from_the_delta(
        self, database, workload, estimator
    ):
        plan = optimize_query(
            parse_query(
                "SELECT Customer.city, COUNT(*) AS n FROM Customer GROUP BY Customer.city",
                workload.catalog,
            ),
            estimator,
        )
        view = MaterializedView(name="mv_agg", plan=plan)
        maintainer = ViewMaintainer(database)
        maintainer.materialize(view)
        delta = [
            {"Cid": 10_001, "name": "X", "city": "LA"},
            {"Cid": 10_002, "name": "Y", "city": "Nowhere"},
        ]
        database.table("Customer").insert_many(delta)
        report = maintainer.incremental_refresh(view, "Customer", delta)
        assert report.policy == INCREMENTAL
        stored = sorted(
            tuple(sorted(r.items())) for r in database.table("mv_agg").rows()
        )
        assert stored == brute_force_rows(database, view)
        assert report.rows_after == len(stored)


class TestIncrementalCost:
    def test_stored_rows_are_not_revalidated(self, database, view, monkeypatch):
        """Regression: the shadow copy shares the view's validated rows,
        so a one-row delta normalizes a handful of rows, not the view."""
        import datetime

        from repro.storage.table import Table

        maintainer = ViewMaintainer(database)
        maintainer.materialize(view)
        cardinality = database.table("mv_oc").cardinality
        assert cardinality >= 200
        delta = [
            {"Pid": 1, "Cid": 3, "quantity": 2, "date": datetime.date(1996, 4, 4)}
        ]
        database.table("Order").insert_many(delta)

        calls = []
        normalize = Table._normalize

        def counting(self, row):
            calls.append(1)
            return normalize(self, row)

        monkeypatch.setattr(Table, "_normalize", counting)
        report = maintainer.incremental_refresh(view, "Order", delta)

        assert report.policy == INCREMENTAL
        assert report.rows_after == cardinality + 1
        assert len(calls) < cardinality

    def test_read_fault_on_view_keeps_old_table(self, database, view):
        import datetime

        from repro.errors import StorageFault
        from repro.resilience import SCOPE_ALL, FaultInjector, FaultPolicy

        maintainer = ViewMaintainer(database)
        maintainer.materialize(view)
        old_table = database.table("mv_oc")
        rows_before = old_table.rows()
        delta = [
            {"Pid": 2, "Cid": 4, "quantity": 6, "date": datetime.date(1996, 8, 8)}
        ]
        database.table("Order").insert_many(delta)

        database.fault_injector = FaultInjector(
            FaultPolicy(relation_rates=(("mv_oc", 1.0),), scope=SCOPE_ALL, seed=0)
        )
        with pytest.raises(StorageFault):
            maintainer.incremental_refresh(view, "Order", delta)
        database.fault_injector = None

        assert database.table("mv_oc") is old_table
        assert old_table.rows() == rows_before


# ------------------------------------------------------ aggregate views
FACT = RelationSchema(
    "F",
    [
        Attribute("F.k", DataType.INTEGER),
        Attribute("F.v", DataType.INTEGER),
        Attribute("F.x", DataType.FLOAT),
    ],
)
DIM = RelationSchema(
    "D",
    [Attribute("D.k", DataType.INTEGER), Attribute("D.g", DataType.STRING)],
)
FACT_ROWS = [
    {"F.k": k % 4, "F.v": None if k % 5 == 0 else k, "F.x": k / 2}
    for k in range(12)
]
DIM_ROWS = [{"D.k": k, "D.g": f"g{k % 2}"} for k in range(4)]


def _spec(function, attribute=None, alias=None):
    return AggregateSpec(function, attribute, alias)


def _star(*specs, group_by=("D.g",)):
    """``γ[group_by; specs](F ⋈ D)``: the shape of the star views."""
    join = Join(
        Relation("F", FACT),
        Relation("D", DIM),
        compare("F.k", "=", column("D.k")),
    )
    return Aggregate(join, list(group_by), list(specs))


def _star_database():
    database = Database()
    for name, schema, rows in (("F", FACT, FACT_ROWS), ("D", DIM, DIM_ROWS)):
        table = Table(schema, blocking_factor=3)
        table.insert_many(rows, count_io=False)
        database.register(name, table)
    return database


def _multiset(table):
    return Counter(tuple(sorted(r.items())) for r in table.rows())


def _refresh(database, plan, relation, delta):
    view = MaterializedView(name="mv", plan=plan)
    maintainer = ViewMaintainer(database)
    maintainer.materialize(view)
    database.table(relation).insert_many(delta)
    report = maintainer.incremental_refresh(view, relation, delta)
    expected = _multiset(ExecutionEngine(database).execute(plan))
    assert _multiset(database.table("mv")) == expected
    return report


SUM_V = _spec(AggregateFunction.SUM, "F.v", "total")
COUNT_ALL = _spec(AggregateFunction.COUNT, None, "n")


class TestAggregateMaintenance:
    @pytest.mark.parametrize("group_by", [("D.g",), ("D.g", "F.k"), ()])
    def test_every_self_maintainable_spec_merges(self, group_by):
        plan = _star(
            SUM_V,
            COUNT_ALL,
            _spec(AggregateFunction.COUNT, "F.v", "nv"),
            _spec(AggregateFunction.MIN, "F.v", "lo"),
            _spec(AggregateFunction.MAX, "F.x", "hi"),
            group_by=group_by,
        )
        database = _star_database()
        delta = [
            {"F.k": 1, "F.v": 100, "F.x": -3.0},
            {"F.k": 0, "F.v": None, "F.x": 99.5},
            {"F.k": 2, "F.v": -7, "F.x": 0.25},
        ]
        report = _refresh(database, plan, "F", delta)
        assert report.policy == INCREMENTAL

    def test_new_groups_are_appended(self):
        database = _star_database()
        view = MaterializedView(name="mv", plan=_star(SUM_V, COUNT_ALL))
        maintainer = ViewMaintainer(database)
        maintainer.materialize(view)
        before = database.table("mv").rows()
        delta = [{"D.k": 0, "D.g": "fresh"}]
        database.table("D").insert_many(delta)
        report = maintainer.incremental_refresh(view, "D", delta)
        assert report.policy == INCREMENTAL
        rows = database.table("mv").rows()
        assert rows[: len(before)] == before  # stored groups keep their dicts
        assert rows[len(before):] == [
            {"D.g": "fresh", "total": 12.0, "n": 3}
        ]

    def test_null_sums_stay_null_until_a_value_arrives(self):
        database = _star_database()
        database.table("F").insert_many([{"F.k": 9, "F.v": None, "F.x": 0.0}])
        view = MaterializedView(
            name="mv",
            plan=Aggregate(Relation("F", FACT), ["F.k"], [SUM_V, COUNT_ALL]),
        )
        maintainer = ViewMaintainer(database)
        maintainer.materialize(view)
        for value, expected in ((None, None), (5, 5.0)):
            delta = [{"F.k": 9, "F.v": value, "F.x": 1.0}]
            database.table("F").insert_many(delta)
            report = maintainer.incremental_refresh(view, "F", delta)
            assert report.policy == INCREMENTAL
            groups = {r["F.k"]: r for r in database.table("mv").rows()}
            assert groups[9]["total"] == expected
        recomputed = ExecutionEngine(database).execute(view.plan)
        assert _multiset(database.table("mv")) == _multiset(recomputed)

    def test_join_with_no_match_leaves_the_table_object(self):
        database = _star_database()
        view = MaterializedView(name="mv", plan=_star(SUM_V, COUNT_ALL))
        maintainer = ViewMaintainer(database)
        maintainer.materialize(view)
        stored = database.table("mv")
        rows = stored.rows()
        delta = [{"D.k": 99, "D.g": "g0"}]  # no fact row references it
        database.table("D").insert_many(delta)
        report = maintainer.incremental_refresh(view, "D", delta)
        assert report.policy == INCREMENTAL
        assert database.table("mv") is stored
        assert stored.rows() == rows
        assert report.io.writes == 0

    def test_a_delta_never_reuses_a_cached_build(self):
        """The delta for D has D's version and cardinality; were it
        cacheable, evaluating it would hit the build over stored D."""
        database = _star_database()
        view = MaterializedView(name="mv", plan=_star(SUM_V, COUNT_ALL))
        engine = ExecutionEngine(database, HASH)
        maintainer = ViewMaintainer(database, engine)
        maintainer.materialize(view)
        assert engine.build_cache.stats()["entries"] == 1
        delta = [{"D.k": k, "D.g": "new"} for k in range(len(DIM_ROWS))]
        database.table("D").insert_many(delta)
        report = maintainer.incremental_refresh(view, "D", delta)
        assert report.policy == INCREMENTAL
        expected = ExecutionEngine(database).execute(view.plan)
        assert _multiset(database.table("mv")) == _multiset(expected)

    def test_io_is_delta_plus_view_read_and_write(self):
        database = _star_database()
        view = MaterializedView(name="mv", plan=_star(SUM_V, COUNT_ALL))
        maintainer = ViewMaintainer(database)
        maintainer.materialize(view)
        old_blocks = database.table("mv").num_blocks
        delta = [{"F.k": 1, "F.v": 5, "F.x": 1.0}]
        database.table("F").insert_many(delta)

        overlay_table = Table(FACT, blocking_factor=3)
        overlay_table.insert_many(delta, count_io=False)
        probe = M.OverlayDatabase(database, {"F": overlay_table})
        before = database.io.snapshot()
        ExecutionEngine(probe).execute(view.plan)
        evaluation = database.io.since(before)

        report = maintainer.incremental_refresh(view, "F", delta)
        new_blocks = database.table("mv").num_blocks
        assert report.io.reads == evaluation.reads + old_blocks
        assert report.io.writes == evaluation.writes + new_blocks


def _counted_refresh(database, plan, relation, delta):
    """Refresh with obs on; return (report, fallback counters, spans)."""
    obs.enable(reset=True)
    try:
        report = _refresh(database, plan, relation, delta)
        counters = obs.snapshot()["metrics"]["counters"]
        spans = obs.tracer().find("maintenance.refresh")
    finally:
        obs.disable()
    fallbacks = {
        key: value
        for key, value in counters.items()
        if key.startswith("maintenance.recompute_fallbacks")
    }
    return report, fallbacks, spans


def _self_join_aggregate():
    left = Project(Relation("F", FACT), ["F.k", "F.v"])
    right = Project(Relation("F", FACT), ["F.x"])
    return Aggregate(Join(left, right, None), ["F.k"], [COUNT_ALL])


FALLBACKS = {
    M.SELF_JOIN: (_self_join_aggregate, "F"),
    M.NESTED_AGGREGATE: (
        lambda: Aggregate(
            _star(SUM_V, COUNT_ALL), [], [_spec(AggregateFunction.MAX, "n", "m")]
        ),
        "F",
    ),
    M.AGGREGATE_SHAPE: (
        lambda: Select(
            _star(SUM_V, COUNT_ALL), compare("n", ">", literal(1))
        ),
        "F",
    ),
    M.AVG: (lambda: _star(_spec(AggregateFunction.AVG, "F.v", "mean")), "F"),
    M.FLOAT_SUM: (lambda: _star(_spec(AggregateFunction.SUM, "F.x", "sx")), "F"),
}


class TestAggregateFallbacks:
    @pytest.mark.parametrize("reason", sorted(FALLBACKS))
    def test_shape_fallback_is_counted(self, reason):
        make_plan, relation = FALLBACKS[reason]
        delta = [{"F.k": 1, "F.v": 5, "F.x": 1.0}]
        report, fallbacks, spans = _counted_refresh(
            _star_database(), make_plan(), relation, delta
        )
        assert report.policy == RECOMPUTE
        assert fallbacks == {
            f"maintenance.recompute_fallbacks{{reason={reason}}}": 1.0
        }
        assert [s.attributes.get("fallback_reason") for s in spans] == [
            None,
            reason,
        ]

    def test_distinct_or_sorted_bodies_are_the_wrong_shape(self):
        distinct = Aggregate(
            Project(Relation("F", FACT), ["F.k"], distinct=True), ["F.k"], [COUNT_ALL]
        )
        ordered = Aggregate(
            Sort(Relation("F", FACT), [("F.k", True)]), ["F.k"], [COUNT_ALL]
        )
        for plan in (distinct, ordered):
            assert M.fallback_reason(plan, "F") == M.AGGREGATE_SHAPE

    def test_sum_reaching_two_to_the_53_recomputes(self):
        database = _star_database()
        big = 2**53 - 8
        database.table("F").insert_many([{"F.k": 3, "F.v": big, "F.x": 0.0}])
        delta = [{"F.k": 3, "F.v": 9, "F.x": 0.0}]
        report, fallbacks, spans = _counted_refresh(
            database, _star(SUM_V, group_by=("F.k",)), "F", delta
        )
        assert report.policy == RECOMPUTE
        assert fallbacks == {
            "maintenance.recompute_fallbacks{reason=sum-overflow}": 1.0
        }
        reasons = [s.attributes.get("fallback_reason") for s in spans]
        assert reasons == [None, M.SUM_OVERFLOW, M.SUM_OVERFLOW]

    def test_sum_below_the_limit_merges(self):
        database = _star_database()
        database.table("F").insert_many(
            [{"F.k": 3, "F.v": 2**53 - 100, "F.x": 0.0}]
        )
        report = _refresh(
            database,
            _star(SUM_V, group_by=("F.k",)),
            "F",
            [{"F.k": 3, "F.v": 50, "F.x": 0.0}],
        )
        assert report.policy == INCREMENTAL
