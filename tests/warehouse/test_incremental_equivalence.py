"""The incremental-maintenance correctness property, batch and streamed.

Both paths apply one set of delta rules (``repro.warehouse.maintenance``)
on a small star warehouse whose views include self-maintainable
aggregates (merged from the delta), an AVG view (recomputed), SPJ joins,
and a Sort, a Limit and a DISTINCT below the root (recomputed: none is
linear).  Each view must equal a REFERENCE-engine recompute of its plan
— as a multiset, and row for row under a Sort — under both engines:

* batch — random insert batches through
  ``apply_update(policy="incremental")``, checked after every batch
  under hash and nested-loop joins.  Delta evaluations share the
  warehouse engine's build-side cache, so each refresh must also charge
  exactly the I/O it charges when the cache is cleared before every
  batch;
* streamed — random inserts, deletes and drains through
  ``policy="stream"``, checked after the final drain.
"""

from collections import Counter
from functools import lru_cache

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.algebra.expressions import column, compare, literal
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
from repro.cdc import StreamingPolicy
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
    """Aggregate, DISTINCT and non-linear shapes the design does not
    produce."""
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
            name="mv_pairs",
            plan=Project(joined, ["Dim1.level", "Fact.qty"], distinct=True),
        ),
        MaterializedView(
            name="mv_mean",
            plan=Aggregate(
                joined,
                ["Dim1.attr"],
                [spec(AggregateFunction.AVG, "Fact.qty", "mean")],
            ),
        ),
        *_non_linear_views(fact, dim),
    ]


def _non_linear_views(fact, dim):
    """Views whose delta depends on the rows already stored."""
    return [
        MaterializedView(name="mv_first", plan=Limit(fact, 5)),
        MaterializedView(name="mv_sorted", plan=Sort(fact, [("Fact.qty", True)])),
        MaterializedView(
            name="mv_levels",
            plan=Join(
                Project(dim, ["Dim1.level"], distinct=True),
                Project(fact, ["Fact.qty", "Fact.Dim1_fk"]),
            ),
        ),
    ]


NON_LINEAR = ("mv_first", "mv_levels", "mv_sorted")


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


def _rows(plan, table):
    """A table's rows: in order under a Sort, else as a multiset."""
    rows = [tuple(sorted(row.items())) for row in table.rows()]
    return rows if isinstance(plan, Sort) else Counter(rows)


def _contents(warehouse):
    return {
        view.name: _rows(view.plan, warehouse.database.table(view.name))
        for view in warehouse.views
    }


def _check_views(warehouse):
    """Stored contents against the REFERENCE engine (hash joins keep the
    row-at-a-time oracle affordable); returns them."""
    oracle = ExecutionEngine(warehouse.database, HASH, engine=REFERENCE)
    contents = _contents(warehouse)
    for view in warehouse.views:
        expected = _rows(view.plan, oracle.execute(view.plan))
        assert contents[view.name] == expected, (
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
        not isinstance(view.plan, Aggregate) and policies[view.name] == "incremental"
        for view in warehouse.views
    )
    assert all(policies[name] == "recompute" for name in NON_LINEAR)


@pytest.mark.parametrize("policy", ["incremental", "stream"])
def test_non_linear_views_are_recomputed(policy):
    """Re-inserting a stored Fact row: as a delta, the limit kept six
    rows, the sorted view appended the row out of order and the inner
    DISTINCT's dedup dropped a legitimate duplicate of ``mv_levels``."""
    warehouse = _build(ENGINES[0], HASH)
    if policy == "stream":
        warehouse.enable_streaming()
    row = dict(warehouse.database.table("Fact").rows()[0])
    warehouse.apply_update("Fact", [row], policy=policy)
    if policy == "stream":
        warehouse.drain_changes()
    contents = _check_views(warehouse)
    assert sum(contents["mv_first"].values()) == 5


#: A drain runs every few records, after every record, or under
#: backpressure (lag above two records).
STREAM_POLICIES = st.sampled_from(
    [
        StreamingPolicy(max_lag_records=10_000, coalesce_records=64),
        StreamingPolicy(max_lag_records=10_000, coalesce_records=1),
        StreamingPolicy(max_lag_records=2, coalesce_records=8),
    ]
)
STREAM_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("insert"), BATCH),
        st.tuples(
            st.just("delete"),
            st.tuples(
                st.sampled_from(["Fact", "Fact", "Dim1", "Dim2"]),
                st.integers(0, 10**6),
            ),
        ),
        st.tuples(st.just("drain"), st.none()),
    ),
    min_size=1,
    max_size=8,
)


def _stream(warehouse, ops):
    for action, argument in ops:
        if action == "drain":
            warehouse.drain_changes()
        elif action == "insert":
            relation, rows = argument
            warehouse.apply_update(relation, rows, policy="stream")
        else:
            relation, salt = argument
            table = warehouse.database.table(relation)
            if table.cardinality:
                victim = table.rows()[salt % table.cardinality]
                warehouse.apply_delete(relation, [victim], policy="stream")
    warehouse.drain_changes()
    assert warehouse.stale_views() == []


@SETTINGS
@given(ops=STREAM_OPS, policy=STREAM_POLICIES)
def test_streamed_maintenance_equals_recompute(ops, policy):
    results = []
    for engine in ENGINES:
        warehouse = _build(engine, HASH)
        warehouse.enable_streaming(policy)
        _stream(warehouse, ops)
        results.append(_check_views(warehouse))
    assert all(contents == results[0] for contents in results)


def test_streaming_merges_insert_only_runs_into_aggregates():
    """An insert-only run merges every self-maintainable aggregate and
    dedups into the root-DISTINCT view; a run carrying a delete
    recomputes those insert-only views, and linear views take it as a
    delta."""
    warehouse = _build(ENGINES[0], HASH)
    warehouse.enable_streaming(StreamingPolicy(max_lag_records=10_000))
    aggregates = {
        view.name for view in warehouse.views if isinstance(view.plan, Aggregate)
    }
    insert_only = (aggregates - {"mv_mean"}) | {"mv_pairs"}
    recomputed = {"mv_mean", *NON_LINEAR}
    linear = {
        view.name for view in warehouse.views if view.depends_on("Fact")
    } - insert_only - recomputed
    assert linear
    delta = [_fact_row((0, 0, 0, 0, 7, 60)), _fact_row((1, 1, 1, 1, 3, 2))]
    warehouse.apply_update("Fact", delta, policy="stream")
    report = warehouse.drain_changes()
    assert set(report.views_updated) == insert_only | linear
    assert set(report.views_recomputed) == recomputed
    _check_views(warehouse)

    warehouse.apply_delete("Fact", [delta[0]], policy="stream")
    report = warehouse.drain_changes()
    assert set(report.views_updated) == linear
    assert set(report.views_recomputed) == insert_only | recomputed
    _check_views(warehouse)
