"""Unit tests for logical operators and signature-based equality."""

import pytest

from repro.algebra.expressions import column, compare
from repro.algebra.operators import (
    Aggregate,
    AggregateFunction,
    AggregateSpec,
    Join,
    Project,
    Relation,
    Select,
    project_if,
    select_if,
)
from repro.catalog.datatypes import DataType
from repro.catalog.schema import Attribute, RelationSchema
from repro.errors import AlgebraError


def rel(name, *cols):
    schema = RelationSchema(
        name, [Attribute(f"{name}.{c}", DataType.INTEGER) for c in cols]
    )
    return Relation(name, schema)


@pytest.fixture
def product():
    return rel("Product", "Pid", "Did")


@pytest.fixture
def division():
    return rel("Division", "Did", "city")


class TestRelation:
    def test_signature(self, product):
        assert product.signature == "rel(Product)"

    def test_is_leaf(self, product):
        assert product.is_leaf
        assert product.base_relations() == frozenset({"Product"})

    def test_with_children_rejects_children(self, product, division):
        with pytest.raises(AlgebraError):
            product.with_children([division])


class TestSelect:
    def test_schema_passthrough(self, product):
        select = Select(product, compare("Product.Pid", ">", 1))
        assert select.schema == product.schema

    def test_unknown_column_rejected(self, product):
        with pytest.raises(AlgebraError):
            Select(product, compare("Division.city", "=", 1))

    def test_short_name_accepted(self, product):
        # Unambiguous short names resolve against the child schema.
        select = Select(product, compare("Pid", ">", 1))
        assert "Pid" in next(iter(select.predicate.columns()))

    def test_equal_predicates_equal_signatures(self, product):
        a = Select(product, compare("Product.Pid", ">", 1))
        b = Select(product, compare("Product.Pid", ">", 1))
        assert a == b and hash(a) == hash(b)

    def test_select_if_none_passthrough(self, product):
        assert select_if(product, None) is product


class TestProject:
    def test_schema(self, product):
        project = Project(product, ["Product.Pid"])
        assert project.schema.attribute_names == ("Product.Pid",)

    def test_empty_rejected(self, product):
        with pytest.raises(AlgebraError):
            Project(product, [])

    def test_signature_order_insensitive(self, product):
        a = Project(product, ["Product.Pid", "Product.Did"])
        b = Project(product, ["Product.Did", "Product.Pid"])
        assert a.signature == b.signature

    def test_project_if_identity_elided(self, product):
        assert project_if(product, ["Product.Pid", "Product.Did"]) is product
        assert isinstance(project_if(product, ["Product.Pid"]), Project)


class TestJoin:
    def test_schema_concatenates(self, product, division):
        join = Join(product, division, compare("Product.Did", "=", column("Division.Did")))
        assert len(join.schema) == 4

    def test_commutative_signature(self, product, division):
        condition = compare("Product.Did", "=", column("Division.Did"))
        assert Join(product, division, condition) == Join(division, product, condition)

    def test_cross_product_signature(self, product, division):
        assert Join(product, division).signature.startswith("join[true]")

    def test_condition_columns_checked(self, product, division):
        with pytest.raises(AlgebraError):
            Join(product, division, compare("Customer.Cid", "=", 1))

    def test_base_relations(self, product, division):
        join = Join(product, division)
        assert join.base_relations() == frozenset({"Product", "Division"})

    def test_walk_postorder(self, product, division):
        join = Join(product, division)
        names = [type(n).__name__ for n in join.walk()]
        assert names == ["Relation", "Relation", "Join"]

    def test_node_count(self, product, division):
        assert Join(product, division).node_count() == 3

    def test_with_children(self, product, division):
        condition = compare("Product.Did", "=", column("Division.Did"))
        join = Join(product, division, condition)
        flipped = join.with_children((division, product))
        assert flipped.condition is condition
        assert flipped.left.signature == division.signature


class TestAggregate:
    def test_output_schema(self, product):
        agg = Aggregate(
            product,
            ["Product.Did"],
            [AggregateSpec(AggregateFunction.COUNT, None, "n")],
        )
        assert agg.schema.attribute_names == ("Product.Did", "n")
        assert agg.schema.attribute("n").datatype is DataType.INTEGER

    def test_sum_is_float(self, product):
        agg = Aggregate(
            product,
            [],
            [AggregateSpec(AggregateFunction.SUM, "Product.Pid", "s")],
        )
        assert agg.schema.attribute("s").datatype is DataType.FLOAT

    def test_min_keeps_input_type(self, product):
        agg = Aggregate(
            product,
            [],
            [AggregateSpec(AggregateFunction.MIN, "Product.Pid")],
        )
        assert agg.schema.attribute("min_Pid").datatype is DataType.INTEGER

    def test_requires_something(self, product):
        with pytest.raises(AlgebraError):
            Aggregate(product, [], [])

    def test_non_count_requires_attribute(self):
        with pytest.raises(AlgebraError):
            AggregateSpec(AggregateFunction.SUM, None)

    def test_default_alias(self):
        spec = AggregateSpec(AggregateFunction.AVG, "Product.Pid")
        assert spec.alias == "avg_Pid"

    def test_signature_stable(self, product):
        a = Aggregate(product, ["Product.Did"], [AggregateSpec(AggregateFunction.COUNT, None)])
        b = Aggregate(product, ["Product.Did"], [AggregateSpec(AggregateFunction.COUNT, None)])
        assert a == b


class TestDescribe:
    def test_describe_is_indented(self, product, division):
        join = Join(product, division)
        text = join.describe()
        lines = text.splitlines()
        assert len(lines) == 3
        assert lines[1].startswith("  ")


class TestSortLimit:
    def test_sort_signature_is_order_sensitive(self, product):
        from repro.algebra.operators import Sort

        a = Sort(product, [("Product.Pid", True), ("Product.Did", True)])
        b = Sort(product, [("Product.Did", True), ("Product.Pid", True)])
        assert a.signature != b.signature

    def test_sort_direction_in_signature(self, product):
        from repro.algebra.operators import Sort

        asc = Sort(product, [("Product.Pid", True)])
        desc = Sort(product, [("Product.Pid", False)])
        assert asc.signature != desc.signature

    def test_sort_requires_keys(self, product):
        from repro.algebra.operators import Sort

        with pytest.raises(AlgebraError):
            Sort(product, [])

    def test_sort_resolves_short_names(self, product):
        from repro.algebra.operators import Sort

        sort = Sort(product, [("Pid", True)])
        assert sort.keys == (("Product.Pid", True),)

    def test_sort_schema_passthrough(self, product):
        from repro.algebra.operators import Sort

        assert Sort(product, [("Pid", True)]).schema == product.schema

    def test_limit_validation(self, product):
        from repro.algebra.operators import Limit

        with pytest.raises(AlgebraError):
            Limit(product, -1)
        assert Limit(product, 0).count == 0

    def test_limit_with_children(self, product, division):
        from repro.algebra.operators import Limit

        limit = Limit(product, 5)
        rebuilt = limit.with_children((division,))
        assert rebuilt.count == 5
        assert rebuilt.child is division

    def test_pull_up_peels_decorations(self, product, division):
        from repro.algebra.operators import Join, Limit, Sort
        from repro.algebra.rewrite import pull_up

        join = Join(product, division,
                    compare("Product.Did", "=", column("Division.Did")))
        plan = Limit(Sort(join, [("Product.Pid", True)]), 7)
        pulled = pull_up(plan)
        assert pulled.limit is not None and pulled.limit.count == 7
        assert pulled.sort is not None
        assert isinstance(pulled.skeleton, Join)
        rebuilt = pulled.assemble()
        assert rebuilt.signature == plan.signature

    def test_sort_below_join_rejected_in_pull_up(self, product, division):
        from repro.algebra.operators import Join, Sort
        from repro.algebra.rewrite import pull_up

        sorted_product = Sort(product, [("Product.Pid", True)])
        plan = Join(sorted_product, division,
                    compare("Product.Did", "=", column("Division.Did")))
        with pytest.raises(AlgebraError):
            pull_up(plan)


class TestCachedProperties:
    """``base_relations()`` and ``Expression.columns()`` are cached on the
    immutable nodes; the cached values must equal a fresh walk."""

    @staticmethod
    def walked_relations(operator):
        return frozenset(
            n.name for n in operator.walk() if isinstance(n, Relation)
        )

    @staticmethod
    def walked_columns(expression):
        from repro.algebra.expressions import ColumnRef

        out, stack = set(), [expression]
        while stack:
            node = stack.pop()
            if isinstance(node, ColumnRef):
                out.add(node.name)
            stack.extend(node.children)
        return frozenset(out)

    def expressions_of(self, operator):
        for node in operator.walk():
            for predicate in (
                getattr(node, "predicate", None),
                getattr(node, "condition", None),
            ):
                stack = [predicate] if predicate is not None else []
                while stack:
                    expression = stack.pop()
                    yield expression
                    stack.extend(expression.children)

    def test_paper_plans_match_a_fresh_walk(self, workload, paper_mvpps):
        from repro.mvpp.generation import prepare_queries

        roots = [info.plan for info in prepare_queries(workload)]
        roots += [info.pulled.skeleton for info in prepare_queries(workload)]
        roots += [v.operator for mvpp in paper_mvpps for v in mvpp]
        checked = 0
        for root in roots:
            for node in root.walk():
                for _ in range(2):  # computed, then served from the cache
                    assert node.base_relations() == self.walked_relations(node)
                checked += 1
            for expression in self.expressions_of(root):
                for _ in range(2):
                    assert expression.columns() == self.walked_columns(expression)
        assert checked > 100

    def test_with_children_computes_its_own_relations(self, product, division):
        selection = Select(product, compare("Product.Did", "=", 3))
        assert selection.base_relations() == frozenset({"Product"})
        joined = Join(
            product, division, compare("Product.Did", "=", column("Division.Did"))
        )
        rebuilt = selection.with_children((joined,))
        assert rebuilt.base_relations() == frozenset({"Product", "Division"})
        assert selection.base_relations() == frozenset({"Product"})

    def test_substitute_computes_its_own_columns(self):
        predicate = compare("Product.Did", "=", column("Division.Did"))
        assert predicate.columns() == frozenset({"Product.Did", "Division.Did"})
        renamed = predicate.substitute({"Division.Did": "Order.Did"})
        assert renamed.columns() == frozenset({"Product.Did", "Order.Did"})
        assert predicate.columns() == frozenset({"Product.Did", "Division.Did"})
