"""The batch incremental-maintenance correctness property.

Random insert batches run through ``apply_update(policy="incremental")``
on a small star warehouse whose views include self-maintainable
aggregates (merged from the delta), an AVG view (recomputed) and SPJ
joins.  After every batch each view must equal a REFERENCE-engine
recompute of its plan as a multiset — under both engines and under
hash and nested-loop joins.  Delta evaluations share the warehouse
engine's build-side cache, so each refresh must also charge exactly the
I/O it charges when the cache is cleared before every batch.
"""

from collections import Counter
from functools import lru_cache

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
from repro.executor.engine import (
    ENGINES,
    HASH,
    NESTED_LOOP,
    REFERENCE,
    ExecutionEngine,
)
from repro.warehouse import DataWarehouse
from repro.warehouse.view import MaterializedView
from repro.workload.datagen import star_rows
from repro.workload.star_schema import StarConfig, star_workload

SETTINGS = settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

#: Six queries, half of them aggregates; seed 1 designs four aggregate
#: views next to two SPJ joins.
STAR = StarConfig(num_queries=6, include_aggregates=True, seed=1)
#: 5 rows per dimension; the first 60 of its 200 fact rows are loaded.
SCALE = 0.001
DIMENSION_ROWS = 5
FACT_LOADED = 60
JOIN_METHODS = (HASH, NESTED_LOOP)


def _extra_views(workload):
    """Aggregate shapes the design does not produce on its own."""
    schema = workload.catalog.schema
    fact = Relation("Fact", schema("Fact").qualify())
    dim = Relation("Dim1", schema("Dim1").qualify())
    joined = Join(fact, dim, compare("Fact.Dim1_fk", "=", column("Dim1.id")))

    def spec(function, attribute, alias):
        return AggregateSpec(function, attribute, alias)

    return [
        MaterializedView(
            name="mv_extremes",
            plan=Aggregate(
                joined,
                ["Dim1.level"],
                [
                    spec(AggregateFunction.MIN, "Fact.measure", "lo"),
                    spec(AggregateFunction.MAX, "Fact.qty", "hi"),
                    spec(AggregateFunction.COUNT, "Fact.measure", "nm"),
                    spec(AggregateFunction.MAX, "Dim1.attr", "top"),
                ],
            ),
        ),
        MaterializedView(
            name="mv_global",
            plan=Aggregate(
                Select(fact, compare("Fact.qty", ">", literal(50))),
                [],
                [
                    spec(AggregateFunction.COUNT, None, "n"),
                    spec(AggregateFunction.SUM, "Fact.measure", "total"),
                ],
            ),
        ),
        MaterializedView(
            name="mv_mean",
            plan=Aggregate(
                joined,
                ["Dim1.attr"],
                [spec(AggregateFunction.AVG, "Fact.qty", "mean")],
            ),
        ),
    ]


@lru_cache(maxsize=1)
def _views():
    warehouse = DataWarehouse.from_workload(star_workload(STAR))
    warehouse.design()
    return tuple(warehouse.views) + tuple(_extra_views(warehouse.workload))


def _build(engine, join_method):
    warehouse = DataWarehouse.from_workload(
        star_workload(STAR), engine=engine, join_method=join_method
    )
    warehouse.install_views(_views())
    data = star_rows(STAR, SCALE, seed=3)
    data["Fact"] = data["Fact"][:FACT_LOADED]
    for relation, rows in sorted(data.items()):
        warehouse.load(relation, rows)
    warehouse.materialize()
    return warehouse


def _fact_row(values):
    fk1, fk2, fk3, fk4, measure, qty = values
    return {
        "id": 1000,
        "Dim1_fk": fk1,
        "Dim2_fk": fk2,
        "Dim3_fk": fk3,
        "Dim4_fk": fk4,
        "measure": measure,
        "qty": qty,
    }


# Keys run one past the loaded dimension ids, so some rows join nothing.
KEY = st.integers(0, DIMENSION_ROWS)
FACT_ROWS = st.tuples(
    KEY, KEY, KEY, KEY,
    st.one_of(st.none(), st.integers(-50, 10_000)),
    st.integers(1, 100),
).map(_fact_row)
DIM_ROWS = st.fixed_dictionaries(
    {
        "id": KEY,
        "attr": st.sampled_from(["a0", "a1", "zz"]),
        "level": st.integers(0, 9),
    }
)
BATCH = st.one_of(
    st.tuples(st.just("Fact"), st.lists(FACT_ROWS, min_size=1, max_size=4)),
    st.tuples(
        st.sampled_from(["Dim1", "Dim2", "Dim3", "Dim4"]),
        st.lists(DIM_ROWS, min_size=1, max_size=3),
    ),
)


def _multiset(table):
    return Counter(tuple(sorted(row.items())) for row in table.rows())


def _contents(warehouse):
    return {
        view.name: _multiset(warehouse.database.table(view.name))
        for view in warehouse.views
    }


def _check_views(warehouse):
    """Stored contents against the REFERENCE engine (hash joins keep the
    row-at-a-time oracle affordable); returns them."""
    oracle = ExecutionEngine(warehouse.database, HASH, engine=REFERENCE)
    contents = _contents(warehouse)
    for view in warehouse.views:
        assert contents[view.name] == _multiset(oracle.execute(view.plan)), (
            f"{view.name} diverged from a REFERENCE recompute"
        )
    return contents


@SETTINGS
@given(batches=st.lists(BATCH, min_size=1, max_size=5))
def test_incremental_refresh_equals_recompute(batches):
    for engine in ENGINES:
        for join_method in JOIN_METHODS:
            shared = _build(engine, join_method)
            cleared = _build(engine, join_method)
            for relation, rows in batches:
                cleared.engine.build_cache.invalidate()
                before = shared.database.io.snapshot()
                baseline_before = cleared.database.io.snapshot()
                reports = shared.apply_update(relation, rows, policy="incremental")
                baseline = cleared.apply_update(
                    relation, rows, policy="incremental"
                )
                assert [(r.view, r.policy, r.io) for r in reports] == [
                    (r.view, r.policy, r.io) for r in baseline
                ]
                assert shared.database.io.since(before) == (
                    cleared.database.io.since(baseline_before)
                )
                assert _check_views(shared) == _contents(cleared)


def test_the_views_cover_every_maintenance_rule():
    """The property exercises merged, appended and recomputed views."""
    warehouse = _build(ENGINES[0], HASH)
    delta = [_fact_row((0, 0, 0, 0, 7, 60)), _fact_row((5, 5, 5, 5, 1, 1))]
    reports = warehouse.apply_update("Fact", delta, policy="incremental")
    policies = {report.view: report.policy for report in reports}
    aggregates = [
        view.name for view in warehouse.views if isinstance(view.plan, Aggregate)
    ]
    assert len(aggregates) >= 5
    assert policies["mv_mean"] == "recompute"
    assert all(
        policies[name] == "incremental" for name in aggregates if name != "mv_mean"
    )
    assert any(
        not isinstance(view.plan, Aggregate) for view in warehouse.views
    )
