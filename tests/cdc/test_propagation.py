"""Unit tests for the delta propagation graph and propagator."""

import datetime

import pytest

from repro.algebra.expressions import column, compare
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
from repro.cdc import (
    MODE_DELTA,
    MODE_RECOMPUTE,
    DeltaPropagator,
    PropagationGraph,
)
from repro.cdc.propagation import substitute_subtree
from repro.errors import StreamingError
from repro.executor.engine import Database, ExecutionEngine
from repro.storage.table import Table
from repro.warehouse.view import MaterializedView


@pytest.fixture()
def order_leaf(workload):
    return Relation("Order", workload.catalog.schema("Order").qualify())


@pytest.fixture()
def customer_leaf(workload):
    return Relation("Customer", workload.catalog.schema("Customer").qualify())


def _order_row(pid=1, cid=1, quantity=150):
    return {
        "Pid": pid,
        "Cid": cid,
        "quantity": quantity,
        "date": datetime.date(1996, 10, 1),
    }


class TestEdgeClassification:
    def test_spj_single_reference_is_delta(self, order_leaf):
        view = MaterializedView(
            name="v_spj",
            plan=Select(order_leaf, compare("Order.quantity", ">", 50)),
        )
        graph = PropagationGraph([view])
        rule = graph.rule("v_spj", "Order")
        assert rule.mode == MODE_DELTA
        assert not rule.insert_only

    @staticmethod
    def _aggregate(order_leaf, function, attribute):
        return MaterializedView(
            name="v_agg",
            plan=Aggregate(
                order_leaf,
                ["Order.Cid"],
                [AggregateSpec(function, attribute, "x")],
            ),
        )

    def test_count_is_an_insert_only_delta(self, order_leaf):
        view = self._aggregate(order_leaf, AggregateFunction.COUNT, None)
        rule = PropagationGraph([view]).rule("v_agg", "Order")
        assert rule.mode == MODE_DELTA
        assert rule.reason == ""
        assert rule.insert_only

    def test_avg_forces_recompute(self, order_leaf):
        view = self._aggregate(
            order_leaf, AggregateFunction.AVG, "Order.quantity"
        )
        rule = PropagationGraph([view]).rule("v_agg", "Order")
        assert rule.mode == MODE_RECOMPUTE
        assert rule.reason == "avg"
        assert not rule.insert_only

    def test_order_and_inner_distinct_force_recompute(
        self, order_leaf, customer_leaf
    ):
        inner = Join(
            Project(customer_leaf, ["Customer.city"], distinct=True),
            Project(order_leaf, ["Order.Pid"]),
        )
        views = [
            MaterializedView(name="v_limit", plan=Limit(order_leaf, 5)),
            MaterializedView(
                name="v_sort", plan=Sort(order_leaf, [("Order.quantity", True)])
            ),
            MaterializedView(name="v_inner", plan=inner),
        ]
        graph = PropagationGraph(views)
        for name in ("v_limit", "v_sort", "v_inner"):
            rule = graph.rule(name, "Order")
            assert (rule.mode, rule.reason) == (MODE_RECOMPUTE, "non-linear")

    def test_self_join_forces_recompute(self, order_leaf):
        view = MaterializedView(
            name="v_self",
            plan=Join(
                Project(order_leaf, ["Order.Pid"]),
                Project(order_leaf, ["Order.Cid"]),
            ),
        )
        graph = PropagationGraph([view])
        rule = graph.rule("v_self", "Order")
        assert rule.mode == MODE_RECOMPUTE
        assert rule.reason == "self-join"

    def test_distinct_projection_flags_edge(self, order_leaf):
        view = MaterializedView(
            name="v_distinct",
            plan=Project(order_leaf, ["Order.Pid"], distinct=True),
        )
        graph = PropagationGraph([view])
        rule = graph.rule("v_distinct", "Order")
        assert rule.mode == MODE_DELTA
        assert rule.insert_only

    def test_affected_views_sorted(self, order_leaf, customer_leaf):
        views = [
            MaterializedView(
                name="v_b",
                plan=Select(order_leaf, compare("Order.quantity", ">", 50)),
            ),
            MaterializedView(name="v_a", plan=order_leaf),
            MaterializedView(name="v_c", plan=customer_leaf),
        ]
        graph = PropagationGraph(views)
        assert graph.affected_views("Order") == ("v_a", "v_b")
        assert graph.affected_views("Customer") == ("v_c",)
        assert graph.affected_views("Part") == ()


class TestSharedSubplans:
    def _views(self, order_leaf, customer_leaf):
        hot = Select(order_leaf, compare("Order.quantity", ">", 100))
        narrow = MaterializedView(
            name="v_narrow", plan=Project(hot, ["Order.Pid"])
        )
        joined = MaterializedView(
            name="v_joined",
            plan=Join(
                hot,
                customer_leaf,
                compare("Order.Cid", "=", column("Customer.Cid")),
            ),
        )
        return hot, narrow, joined

    def test_common_subplan_detected(self, order_leaf, customer_leaf):
        hot, narrow, joined = self._views(order_leaf, customer_leaf)
        graph = PropagationGraph([narrow, joined])
        shared = graph.shared_for("Order")
        assert len(shared) == 1
        assert shared[0].name.startswith("__cdc_shared")
        assert shared[0].signature == hot.signature
        assert shared[0].views == ("v_joined", "v_narrow")
        assert graph.cut_signature("v_narrow", "Order") == hot.signature
        assert graph.cut_signature("v_joined", "Order") == hot.signature

    def test_no_sharing_for_single_view(self, order_leaf, customer_leaf):
        hot, narrow, _ = self._views(order_leaf, customer_leaf)
        graph = PropagationGraph([narrow])
        assert graph.shared_for("Order") == ()
        assert graph.cut_signature("v_narrow", "Order") is None


class TestSubstituteSubtree:
    def test_replaces_matching_subtree(self, order_leaf):
        hot = Select(order_leaf, compare("Order.quantity", ">", 100))
        plan = Project(hot, ["Order.Pid"])
        stand_in = Relation("__delta", hot.schema)
        rewritten = substitute_subtree(plan, hot.signature, stand_in)
        assert isinstance(rewritten.child, Relation)
        assert rewritten.child.name == "__delta"

    def test_untouched_plan_returned_by_identity(self, order_leaf):
        plan = Project(order_leaf, ["Order.Pid"])
        out = substitute_subtree(plan, "no-such-signature", order_leaf)
        assert out is plan


class TestDeltaPropagator:
    def _database(self, workload):
        database = Database()
        for name in ("Order", "Customer"):
            schema = workload.catalog.schema(name).qualify()
            database.register(name, Table(schema, 10))
        database.table("Order").insert_many(
            [_order_row(pid=1, cid=1), _order_row(pid=2, cid=2, quantity=10)]
        )
        database.table("Customer").insert_many(
            [
                {"Cid": 1, "name": "Ada", "city": "NY"},
                {"Cid": 2, "name": "Bob", "city": "LA"},
            ]
        )
        return database

    def test_shared_delta_used_once_for_both_views(
        self, workload, order_leaf, customer_leaf
    ):
        hot = Select(order_leaf, compare("Order.quantity", ">", 100))
        views = [
            MaterializedView(name="v_narrow", plan=Project(hot, ["Order.Pid"])),
            MaterializedView(
                name="v_joined",
                plan=Join(
                    hot,
                    customer_leaf,
                    compare("Order.Cid", "=", column("Customer.Cid")),
                ),
            ),
        ]
        graph = PropagationGraph(views)
        database = self._database(workload)
        propagator = DeltaPropagator(graph, database, ExecutionEngine(database))

        inserts = [_order_row(pid=7, cid=1, quantity=180)]
        deltas = propagator.propagate(
            "Order", inserts, [], ["v_narrow", "v_joined"]
        )
        assert deltas["v_narrow"].insert_rows == [{"Order.Pid": 7}]
        joined = deltas["v_joined"].insert_rows
        assert len(joined) == 1
        assert joined[0]["Customer.name"] == "Ada"
        # Both views consumed the same transient shared-delta table.
        assert deltas["v_narrow"].shared_used == deltas["v_joined"].shared_used
        assert len(deltas["v_narrow"].shared_used) == 1

    def test_filtered_out_insert_yields_empty_delta(
        self, workload, order_leaf
    ):
        view = MaterializedView(
            name="v_hot",
            plan=Select(order_leaf, compare("Order.quantity", ">", 100)),
        )
        graph = PropagationGraph([view])
        database = self._database(workload)
        propagator = DeltaPropagator(graph, database, ExecutionEngine(database))
        deltas = propagator.propagate(
            "Order", [_order_row(quantity=5)], [], ["v_hot"]
        )
        assert deltas["v_hot"].is_empty

    def test_delete_direction_produces_delete_rows(self, workload, order_leaf):
        view = MaterializedView(
            name="v_hot",
            plan=Select(order_leaf, compare("Order.quantity", ">", 100)),
        )
        graph = PropagationGraph([view])
        database = self._database(workload)
        propagator = DeltaPropagator(graph, database, ExecutionEngine(database))
        deltas = propagator.propagate(
            "Order", [], [_order_row(pid=1, cid=1)], ["v_hot"]
        )
        assert not deltas["v_hot"].insert_rows
        assert len(deltas["v_hot"].delete_rows) == 1

    def test_recompute_view_rejected(self, workload, order_leaf):
        view = MaterializedView(
            name="v_agg",
            plan=Aggregate(
                order_leaf,
                ["Order.Cid"],
                [AggregateSpec(AggregateFunction.AVG, "Order.quantity", "m")],
            ),
        )
        graph = PropagationGraph([view])
        database = self._database(workload)
        propagator = DeltaPropagator(graph, database, ExecutionEngine(database))
        with pytest.raises(StreamingError):
            propagator.propagate("Order", [_order_row()], [], ["v_agg"])

    def test_insert_only_view_takes_inserts_but_rejects_deletes(
        self, workload, order_leaf
    ):
        view = MaterializedView(
            name="v_count",
            plan=Aggregate(
                order_leaf,
                ["Order.Cid"],
                [AggregateSpec(AggregateFunction.COUNT, None, "n")],
            ),
        )
        graph = PropagationGraph([view])
        database = self._database(workload)
        propagator = DeltaPropagator(graph, database, ExecutionEngine(database))
        deltas = propagator.propagate(
            "Order", [_order_row(cid=2), _order_row(cid=2)], [], ["v_count"]
        )
        assert deltas["v_count"].insert_rows == [{"Order.Cid": 2, "n": 2}]
        with pytest.raises(StreamingError):
            propagator.propagate("Order", [], [_order_row()], ["v_count"])


class TestPaperDesignGraph:
    def test_installed_design_compiles_with_delta_edges(self):
        from repro.warehouse import DataWarehouse
        from repro.workload import paper_workload

        warehouse = DataWarehouse.from_workload(paper_workload())
        warehouse.design()
        graph = PropagationGraph(warehouse.views)
        assert graph.relations  # at least one captured base relation
        modes = {
            graph.rule(view.name, relation).mode
            for view in warehouse.views
            for relation in sorted(view.base_relations)
        }
        # The paper's Table-2 design is SPJ-only: every edge streams.
        assert modes == {MODE_DELTA}
