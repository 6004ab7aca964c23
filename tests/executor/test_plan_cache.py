"""The engine's plan cache: a cached lowering runs like a fresh one.

``ExecutionEngine`` keeps one lowered physical tree per logical plan
object (``PlanCache``) and runs it again on the next execute, binding
each scan to the executing database's tables for the run only.  The
property below drives two identical databases through the same random
sequence of reads, inserts, deletes, view shadow swaps, overlay (delta)
evaluations and fault-injecting proxies: one engine keeps its plan
cache, the other lowers every plan afresh.  Rows, their order,
``(reads, writes)`` and the sequence of fault draws must be equal, on
every join method.

The units pin the rest of the contract: no table outlives its run in
the cache, the cache is bounded, a table whose schema object or
blocking factor changed re-lowers, two equal-signature plans never
share a tree, the warehouse's rewrite cache is dropped when the
installed views change, a lint-on engine verifies every execute, and a
cdc drain evaluates the same shared-delta plans every time.
"""

import gc
import weakref

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro import obs
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
from repro.algebra.predicates import conjunction
from repro.cdc import StreamingPolicy
from repro.catalog.datatypes import DataType
from repro.catalog.schema import Attribute, RelationSchema
from repro.errors import LintError, StorageFault
from repro.executor.engine import (
    HASH,
    JOIN_METHODS,
    REFERENCE,
    Database,
    ExecutionEngine,
)
from repro.executor.physical import PLAN_CACHE_ENTRIES, PlanCache
from repro.lint.diagnostics import LintReport
from repro.mvpp import DesignConfig, design as run_design
from repro.resilience.faults import SCOPE_ALL, FaultInjector, FaultPolicy
from repro.storage.table import Table
from repro.warehouse import DataWarehouse
from repro.warehouse.maintenance import OverlayDatabase, delta_table
from repro.workload import paper_rows, paper_workload
from repro.workload.datagen import star_rows
from repro.workload.star_schema import StarConfig, star_workload

SETTINGS = settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

INTEGER = DataType.INTEGER


def schema(name, *columns):
    return RelationSchema(
        name, [Attribute(f"{name}.{c}", INTEGER) for c in columns]
    )


A = schema("A", "k", "x")
B = schema("B", "k", "y")
V = schema("V", "k", "z")
#: Its ``N.n`` makes the join qualify an aggregate's alias ``n`` as ``A.n``.
N = schema("N", "k", "n")
COUNT = AggregateSpec(AggregateFunction.COUNT, None, "n")
SUM = AggregateSpec(AggregateFunction.SUM, "V.z", "s")


def rel(relation_schema):
    return Relation(relation_schema.name, relation_schema)


KEY = compare("A.k", "=", column("B.k"))
#: Fixed plan objects, so the caching engine hits on repeats.
PLANS = (
    Join(rel(A), rel(B), KEY),
    Join(rel(A), rel(B), conjunction([KEY, compare("A.x", "<", column("B.y"))])),
    Join(rel(B), rel(A), KEY),  # equal to PLANS[0]: sides swapped
    Aggregate(
        Join(rel(A), rel(V), compare("V.k", "=", column("A.k"))),
        ["A.k"], [COUNT, SUM],
    ),
    Project(
        Select(
            Join(Select(rel(A), compare("A.x", "=", literal(1))), rel(B), KEY),
            compare("B.y", ">=", literal(1)),
        ),
        ["A.k", "B.y"],
    ),
    Limit(Sort(rel(B), [("B.y", True), ("B.k", False)]), 3),
    # The residual names the aggregate's alias by its joined name.
    Join(
        Aggregate(rel(A), ["A.k"], [COUNT]),
        rel(N),
        conjunction([
            compare("A.k", "=", column("N.k")), compare("A.n", "<", literal(2)),
        ]),
    ),
)

SMALL = st.one_of(st.none(), st.integers(0, 3))


def rows_of(relation_schema, max_size=6):
    names = relation_schema.attribute_names
    return st.lists(
        st.fixed_dictionaries({name: SMALL for name in names}),
        max_size=max_size,
    )


RELATIONS = {"A": A, "B": B, "V": V, "N": N}
BLOCKING_FACTORS = st.sampled_from([1, 2, 3])

STEPS = st.one_of(
    st.tuples(st.just("run"), st.integers(0, len(PLANS) - 1)),
    st.tuples(st.just("delta"), st.integers(0, len(PLANS) - 1), rows_of(A)),
    st.tuples(
        st.just("insert"), st.sampled_from(sorted(RELATIONS)), st.data()
    ),
    st.tuples(
        st.just("delete"),
        st.sampled_from(sorted(RELATIONS)),
        st.lists(st.integers(0, 30), max_size=3),
    ),
    st.tuples(
        st.just("swap"), st.sampled_from(["same", "schema", "bf"]), rows_of(V)
    ),
    st.tuples(
        st.just("faults"),
        st.sampled_from([None, 0.0, 0.15]),
        st.integers(0, 1000),
    ),
)


class World:
    """One database and one engine; ``cached`` keeps the plan cache."""

    def __init__(self, method, contents, bf, cached):
        self.database = Database()
        self.tables = {}
        for name, rows in contents.items():
            table = Table(RELATIONS[name], blocking_factor=bf)
            table.insert_many(rows, count_io=False)
            self.tables[name] = self.database.register(name, table)
        self.engine = ExecutionEngine(self.database, method)
        self.cached = cached
        self.draws = []

    def _engine(self, database=None):
        if not self.cached:
            self.engine.plan_cache = PlanCache()
        if database is None:
            return self.engine
        return self.engine.over(database)

    def outcome(self, plan, database=None):
        """``(rows in order, (reads, writes))`` of one run, or the fault."""
        before = self.database.io.snapshot()
        try:
            result = self._engine(database).execute(plan)
            rows = [tuple(row.items()) for row in result.rows()]
        except StorageFault:
            rows = StorageFault
        io = self.database.io.since(before)
        return rows, (io.reads, io.writes)

    def step(self, step):
        kind = step[0]
        if kind == "run":
            return self.outcome(PLANS[step[1]])
        if kind == "delta":
            delta = delta_table(self.database, "A", step[2])
            overlay = OverlayDatabase(self.database, {"A": delta})
            return self.outcome(PLANS[step[1]], overlay)
        if kind == "insert":
            self.tables[step[1]].insert_many(step[2], count_io=False)
        elif kind == "delete":
            table = self.tables[step[1]]
            stored = table.rows()
            victims = [stored[i % len(stored)] for i in step[2]] if stored else []
            table.delete_many(victims, count_io=False)
        elif kind == "swap":
            mode, rows = step[1], step[2]
            old = self.tables["V"]
            new_schema = old.schema
            if mode == "schema":
                new_schema = schema("V", "k", "z")
            factor = old.blocking_factor + (1 if mode == "bf" else 0)
            shadow = Table(new_schema, blocking_factor=factor)
            shadow.insert_many(rows, count_io=False)
            self.tables["V"] = self.database.register("V", shadow)
        else:
            rate, seed = step[1], step[2]
            if rate is None:
                self.database.fault_injector = None
                return None
            injector = FaultInjector(
                FaultPolicy(storage_failure_rate=rate, scope=SCOPE_ALL, seed=seed)
            )
            draw = injector.maybe_fail_storage

            def recorded(relation, operation):
                self.draws.append((relation, operation))
                draw(relation, operation)

            injector.maybe_fail_storage = recorded
            self.database.fault_injector = injector
        return None


def bound_scans(engine):
    return [
        scan
        for _, _, scans in engine.plan_cache._entries.values()
        for scan in scans
        if scan.table is not None
    ]


@SETTINGS
@given(
    st.sampled_from(JOIN_METHODS),
    rows_of(A),
    rows_of(B),
    rows_of(V),
    rows_of(N),
    BLOCKING_FACTORS,
    st.lists(STEPS, min_size=1, max_size=14),
)
def test_a_cached_plan_runs_like_a_fresh_lowering(method, a, b, v, n, bf, steps):
    contents = {"A": a, "B": b, "V": v, "N": n}
    cached = World(method, contents, bf, cached=True)
    fresh = World(method, contents, bf, cached=False)
    for step in steps:
        if step[0] == "insert":
            relation = step[1]
            step = (
                "insert", relation,
                step[2].draw(rows_of(RELATIONS[relation], max_size=4)),
            )
        assert cached.step(step) == fresh.step(step), step
        assert cached.draws == fresh.draws, step
        assert bound_scans(cached.engine) == []
    # Every plan once more, after whatever the sequence left behind.
    for plan in PLANS:
        assert cached.outcome(plan) == fresh.outcome(plan)
    assert cached.draws == fresh.draws


# ------------------------------------------------------------------ units
def loaded(bf=2, method=HASH, lint=False):
    database = Database()
    for relation_schema, rows in (
        (A, [{"A.k": k, "A.x": k % 2} for k in range(6)]),
        (B, [{"B.k": k % 3, "B.y": k} for k in range(6)]),
        (V, [{"V.k": k, "V.z": 10 * k} for k in range(4)]),
        (N, [{"N.k": k, "N.n": k} for k in range(4)]),
    ):
        table = Table(relation_schema, blocking_factor=bf)
        table.insert_many(rows, count_io=False)
        database.register(relation_schema.name, table)
    return database, ExecutionEngine(database, method, lint=lint)


@pytest.fixture()
def recording():
    obs.enable(reset=True)
    yield lambda: {
        key: value
        for key, value in obs.snapshot()["metrics"]["counters"].items()
        if key.startswith("executor.plan_cache")
    }
    obs.disable()


def outcomes(**counts):
    return {
        f"executor.plan_cache{{outcome={name}}}": float(count)
        for name, count in counts.items()
    }


def test_repeats_hit_and_outcomes_are_counted(recording):
    _, engine = loaded()
    for _ in range(3):
        engine.execute(PLANS[0])
    engine.execute(PLANS[1])
    assert recording() == outcomes(lowered=2, hit=2)
    assert len(engine.plan_cache) == 2


def test_outcomes_are_counted_only_while_recording():
    obs.disable()
    _, engine = loaded()
    engine.execute(PLANS[0])
    obs.enable(reset=True)
    try:
        engine.execute(PLANS[0])
        counters = obs.snapshot()["metrics"]["counters"]
    finally:
        obs.disable()
    assert {
        k: v for k, v in counters.items() if k.startswith("executor.plan_cache")
    } == outcomes(hit=1)


def test_a_delta_table_is_collectable_after_the_run():
    database, engine = loaded()
    plan = PLANS[3]
    engine.execute(plan)
    delta = delta_table(database, "A", [{"A.k": 1, "A.x": 0}])
    result = engine.over(OverlayDatabase(database, {"A": delta})).execute(plan)
    assert result.cardinality == 1
    assert len(engine.plan_cache) == 1
    assert bound_scans(engine) == []
    ref = weakref.ref(delta)
    del delta
    gc.collect()
    assert ref() is None


def test_no_table_stays_bound_after_a_fault():
    database, engine = loaded()
    engine.execute(PLANS[0])
    database.fault_injector = FaultInjector(
        FaultPolicy(storage_failure_rate=1.0, scope=SCOPE_ALL, seed=0)
    )
    with pytest.raises(StorageFault):
        engine.execute(PLANS[0])
    assert bound_scans(engine) == []
    database.fault_injector = None
    fresh = ExecutionEngine(database, HASH).execute(PLANS[0])
    assert engine.execute(PLANS[0]).rows() == fresh.rows()


def test_the_bound_holds(recording):
    _, engine = loaded()
    plans = [
        Select(rel(A), compare("A.k", "=", literal(i)))
        for i in range(PLAN_CACHE_ENTRIES + 10)
    ]
    for plan in plans:
        engine.execute(plan)
        assert len(engine.plan_cache) <= PLAN_CACHE_ENTRIES
    assert len(engine.plan_cache) == PLAN_CACHE_ENTRIES
    engine.execute(plans[-1])  # still cached
    engine.execute(plans[0])  # evicted first
    assert recording() == outcomes(lowered=len(plans) + 1, hit=1)


@pytest.mark.parametrize(
    "change, outcome",
    [("rows", "hit"), ("schema", "relowered"), ("blocking factor", "relowered")],
)
def test_a_changed_table_relowers(recording, change, outcome):
    database, engine = loaded()
    plan = PLANS[3]
    engine.execute(plan)
    old = database.table("V")
    new_schema = schema("V", "k", "z") if change == "schema" else old.schema
    factor = old.blocking_factor * (2 if change == "blocking factor" else 1)
    swapped = Table(new_schema, blocking_factor=factor)
    swapped.insert_many([{"V.k": 1, "V.z": 5}], count_io=False)
    database.register("V", swapped)
    before = database.io.snapshot()
    result = engine.execute(plan)
    io = database.io.since(before)
    assert recording() == outcomes(**{"lowered": 1, outcome: 1})
    fresh_database, _ = loaded()
    fresh_database.register("V", swapped.copy())
    before = fresh_database.io.snapshot()
    expected = ExecutionEngine(fresh_database, HASH).execute(plan)
    assert result.rows() == expected.rows() != []
    assert io == fresh_database.io.since(before)


def test_a_side_swapped_join_never_gets_the_other_tree():
    left_first, right_first = PLANS[0], PLANS[2]
    assert left_first == right_first  # equal signatures: joins commute
    database, engine = loaded()
    oracle = ExecutionEngine(database, HASH, engine=REFERENCE)
    for plan in (left_first, right_first, left_first, right_first):
        result = engine.execute(plan)
        assert result.schema.attribute_names == plan.schema.attribute_names
        assert result.rows() == oracle.execute(plan).rows()
    assert result.schema.attribute_names[0] == "B.k"
    assert len(engine.plan_cache) == 2


def test_a_lint_on_engine_verifies_every_execute(monkeypatch):
    _, engine = loaded(lint=True)
    published = []
    original = LintReport.publish

    def publish(report):
        published.append(report.target)
        original(report)

    monkeypatch.setattr(LintReport, "publish", publish)
    plan = Project(PLANS[0], ["A.k", "B.y"])
    for _ in range(3):
        engine.execute(plan)
    assert len(published) == 3
    assert len(engine.plan_cache) == 1
    # A plan edited in place after its lowering was cached is still
    # caught on the next execute, from the cached tree.
    plan._schema = RelationSchema(plan.schema.name, [plan.schema.attributes[0]])
    plan._signature = plan._hash = None
    with pytest.raises(LintError, match="P007"):
        engine.execute(plan)


# ------------------------------------------------------ warehouse rewrites
def paper_warehouse():
    warehouse = DataWarehouse.from_workload(paper_workload())
    warehouse.design(DesignConfig(seed=0))
    for relation, rows in paper_rows(scale=0.01, seed=17).items():
        warehouse.load(relation, rows)
    warehouse.materialize()
    return warehouse


def served(warehouse, name):
    result = warehouse.serve(name)
    return sorted(tuple(sorted(row.items())) for row in result.table.rows())


def base_answer(warehouse, name):
    plan = warehouse.query_plan(name, use_views=False)
    table = ExecutionEngine(warehouse.database, engine=REFERENCE).execute(plan)
    return sorted(tuple(sorted(row.items())) for row in table.rows())


def test_serve_reuses_its_rewrite():
    warehouse = paper_warehouse()
    first = served(warehouse, "Q1")
    assert len(warehouse.rewrite_cache) == 1
    (entry,) = warehouse.rewrite_cache.values()
    assert served(warehouse, "Q1") == first == base_answer(warehouse, "Q1")
    assert list(warehouse.rewrite_cache.values()) == [entry]


def test_execute_reuses_the_rewrite_and_the_lowering(recording):
    warehouse = paper_warehouse()
    names = [spec.name for spec in warehouse.workload.queries]
    # A query answered by scanning one stored view runs a bare Relation,
    # which is never lowered or cached.
    lowered = [
        name for name in names
        if not isinstance(warehouse.query_plan(name), Relation)
    ]
    assert lowered
    before = recording()
    for name in names:
        for _ in range(3):
            warehouse.execute(name)
    counted = {
        key: value - before.get(key, 0.0) for key, value in recording().items()
    }
    assert counted == outcomes(lowered=len(lowered), hit=2 * len(lowered))


def test_design_drops_the_rewrite_cache():
    warehouse = paper_warehouse()
    served(warehouse, "Q1")
    warehouse.design(DesignConfig(seed=0))
    assert warehouse.rewrite_cache == {}
    warehouse.materialize()
    assert served(warehouse, "Q1") == base_answer(warehouse, "Q1")


def test_an_adaptive_migration_drops_the_rewrite_cache():
    warehouse = paper_warehouse()
    names = [spec.name for spec in warehouse.workload.queries]
    for name in names:
        served(warehouse, name)
    assert warehouse.rewrite_cache
    # Re-rank the workload so only Q1 matters, forcing a migration.
    for name in names:
        warehouse.set_query_frequency(name, 50.0 if name == "Q1" else 0.0)
    migration = warehouse.install_design(
        run_design(warehouse.workload, DesignConfig(seed=0))
    )
    assert not migration.is_noop
    assert warehouse.rewrite_cache == {}
    for name in names:
        assert served(warehouse, name) == base_answer(warehouse, name)


def test_drains_reuse_their_lowerings(recording):
    config = StarConfig(num_queries=4, include_aggregates=True, seed=0)
    warehouse = DataWarehouse.from_workload(star_workload(config))
    warehouse.design()
    rows = star_rows(config, 0.005, 0)
    for relation, relation_rows in sorted(rows.items()):
        warehouse.load(relation, relation_rows)
    warehouse.materialize()
    streaming = warehouse.enable_streaming(
        StreamingPolicy(max_lag_records=10_000, max_lag_ticks=float("inf"))
    )
    (shared,) = streaming.graph.shared_for("Fact")
    cut_plans = [streaming.graph.cut_plan(name, "Fact") for name in shared.views]
    batch = list(rows["Fact"][:3])
    # Warm both directions, then count one more drain of each.
    for write in (warehouse.apply_delete, warehouse.apply_update):
        write("Fact", batch, policy="stream")
        warehouse.drain_changes()
    before = recording()
    for write in (warehouse.apply_delete, warehouse.apply_update):
        write("Fact", batch, policy="stream")
        warehouse.drain_changes()
    counted = {key: value - before.get(key, 0.0) for key, value in recording().items()}
    assert {key for key, value in counted.items() if value} == {
        "executor.plan_cache{outcome=hit}"
    }
    assert [streaming.graph.cut_plan(name, "Fact") for name in shared.views] == cut_plans
    assert all(
        id(plan) in warehouse.engine.plan_cache._entries for plan in cut_plans
    )
    oracle = ExecutionEngine(warehouse.database, engine=REFERENCE)
    for view in warehouse.views:
        stored = warehouse.database.table(view.name).rows()
        expected = oracle.execute(view.plan).rows()
        assert sorted(map(repr, stored)) == sorted(map(repr, expected)), view.name
