"""Unit tests for skeleton merging (Figure 4, step 4.3)."""

import pytest

from repro.algebra.operators import Join, Relation
from repro.algebra.rewrite import pull_up
from repro.algebra.tree import find, leaves, subtree_signatures
from repro.mvpp.generation import prepare_queries
from repro.mvpp.merge import (
    SkeletonPool,
    merge_skeletons,
    skeleton_join_conjuncts,
)


@pytest.fixture(scope="module")
def infos(workload, estimator):
    return sorted(prepare_queries(workload, estimator), key=lambda i: -i.rank)


@pytest.fixture(scope="module")
def skeletons(infos):
    return {info.spec.name: info.pulled.skeleton for info in infos}, [
        info.spec.name for info in infos
    ]


class TestSkeletonJoinConjuncts:
    def test_counts(self, skeletons):
        by_name, _ = skeletons
        assert len(skeleton_join_conjuncts(by_name["Q3"])) == 3
        assert len(skeleton_join_conjuncts(by_name["Q1"])) == 1


class TestMergeOrder:
    def test_paper_order_is_q4_first(self, skeletons):
        _, order = skeletons
        # fq*Ca ranking: Q4 (5 × ~6m) dominates, as in the paper.
        assert order[0] == "Q4"

    def test_seed_skeleton_unchanged(self, skeletons, infos):
        by_name, order = skeletons
        merged = merge_skeletons(infos)
        assert merged[order[0]].signature == by_name[order[0]].signature


class TestSharing:
    def test_q3_reuses_q4_join_pattern(self, skeletons, infos):
        """After Q4 is merged, Q3 must reuse the Order⋈Customer node."""
        by_name, order = skeletons
        merged = merge_skeletons(infos)
        q4_joins = {
            node.signature
            for node in merged["Q4"].walk()
            if isinstance(node, Join)
        }
        q3_joins = {
            node.signature
            for node in merged["Q3"].walk()
            if isinstance(node, Join)
        }
        assert q4_joins & q3_joins, "Q3 and Q4 share no join vertex"

    def test_q1_reuses_q2_product_division(self, skeletons, infos):
        by_name, order = skeletons
        merged = merge_skeletons(infos)
        q2_signatures = set(subtree_signatures(merged["Q2"]))
        assert merged["Q1"].signature in q2_signatures

    def test_merged_plans_cover_original_relations(self, skeletons, infos):
        by_name, order = skeletons
        merged = merge_skeletons(infos)
        for name, skeleton in by_name.items():
            assert merged[name].base_relations() == skeleton.base_relations()

    def test_merged_plans_keep_all_join_predicates(self, skeletons, infos):
        by_name, order = skeletons
        merged = merge_skeletons(infos)
        for name, skeleton in by_name.items():
            original = {p.signature for p in skeleton_join_conjuncts(skeleton)}
            rebuilt = {p.signature for p in skeleton_join_conjuncts(merged[name])}
            assert original == rebuilt, name


class TestPool:
    def test_reuse_requires_matching_conditions(self, workload, estimator):
        """A pooled join with a different predicate must not be reused."""
        from repro.algebra.expressions import column, compare

        def leaf(name):
            return Relation(name, workload.catalog.schema(name).qualify())

        pool = SkeletonPool()
        weird = Join(
            leaf("Order"),
            leaf("Customer"),
            compare("Order.Pid", "=", column("Customer.Cid")),  # wrong key!
        )
        pool.add_tree(weird)
        normal_predicates = [
            compare("Order.Cid", "=", column("Customer.Cid"))
        ]
        pieces = pool.reusable_pieces({"Order", "Customer"}, normal_predicates)
        assert pieces == []

    def test_reuse_prefers_larger_cover(self, skeletons):
        by_name, order = skeletons
        pool = SkeletonPool()
        pool.add_tree(by_name["Q3"])  # contains both PD and PDOC joins
        predicates = skeleton_join_conjuncts(by_name["Q3"])
        pieces = pool.reusable_pieces(
            {"Product", "Division", "Order", "Customer"}, predicates
        )
        covered = {leaf.name for piece in pieces for leaf in leaves(piece)}
        assert covered == {"Product", "Division", "Order", "Customer"}
        assert len(pieces) == 1  # the whole four-way join is reused
