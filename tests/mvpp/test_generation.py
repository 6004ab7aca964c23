"""Unit tests for multiple-MVPP generation (Figure 4) and push-down."""

import hashlib

import pytest

from repro.algebra.expressions import Or
from repro.algebra.operators import Relation, Select
from repro.mvpp.config import DesignConfig
from repro.mvpp.generation import build_mvpp, design, generate_mvpps, prepare_queries
from repro.mvpp.cost import MVPPCostCalculator
from repro.workload.star_schema import StarConfig, star_workload


class TestPrepareQueries:
    def test_one_info_per_query(self, workload, estimator):
        infos = prepare_queries(workload, estimator)
        assert {i.spec.name for i in infos} == {"Q1", "Q2", "Q3", "Q4"}

    def test_rank_is_fq_times_ca(self, workload, estimator):
        for info in prepare_queries(workload, estimator):
            assert info.rank == pytest.approx(
                info.spec.frequency * info.access_cost
            )

    def test_invariants_describe_the_skeleton(self, workload, estimator):
        from repro.algebra import predicates as P
        from repro.mvpp.merge import skeleton_join_conjuncts

        for info in prepare_queries(workload, estimator):
            skeleton = info.pulled.skeleton
            assert info.leaf_names == skeleton.base_relations()
            assert {leaf.name for leaf in info.leaves} == info.leaf_names
            assert info.join_conjuncts == tuple(skeleton_join_conjuncts(skeleton))
            split = [
                c for cond in info.leaf_conditions.values() for c in P.conjuncts(cond)
            ] + list(info.residual_conjuncts)
            assert {c.signature for c in split} == {
                c.signature for c in P.conjuncts(info.pulled.selection)
            }
            for leaf in info.leaves:
                assert info.needed_from_leaf[leaf.name] <= set(
                    leaf.schema.attribute_names
                )


class TestGenerateMVPPs:
    def test_k_rotations_for_k_queries(self, paper_mvpps):
        assert len(paper_mvpps) == 4

    def test_rotations_limited(self, workload, estimator):
        assert len(generate_mvpps(workload, estimator, rotations=2)) == 2

    def test_every_mvpp_contains_all_queries(self, paper_mvpps):
        for mvpp in paper_mvpps:
            assert set(mvpp.query_names) == {"Q1", "Q2", "Q3", "Q4"}

    def test_mvpps_are_annotated_and_named(self, paper_mvpps):
        for mvpp in paper_mvpps:
            assert mvpp.is_annotated
            assert all(v.name for v in mvpp)

    def test_rotations_differ_structurally(self, paper_mvpps):
        signatures = {m.structure_signature() for m in paper_mvpps}
        assert len(signatures) >= 2  # the paper: (a)/(b) equal, (c) differs


class TestKeywordPrecedence:
    """Explicit ``generate_mvpps`` keywords override ``config``."""

    @pytest.fixture(scope="class")
    def forms(self, fig7_workload):
        figure8 = generate_mvpps(fig7_workload, rotations=1, push_down=True)[0]
        figure7 = generate_mvpps(fig7_workload, rotations=1, push_down=False)[0]
        assert figure8.structure_signature() != figure7.structure_signature()
        return figure7.structure_signature(), figure8.structure_signature()

    def test_explicit_push_down_true_beats_config(self, fig7_workload, forms):
        mvpp = generate_mvpps(
            fig7_workload,
            rotations=1,
            push_down=True,
            config=DesignConfig(push_down=False),
        )[0]
        assert mvpp.structure_signature() == forms[1]

    def test_explicit_push_down_false_beats_config(self, fig7_workload, forms):
        mvpp = generate_mvpps(
            fig7_workload,
            rotations=1,
            push_down=False,
            config=DesignConfig(push_down=True),
        )[0]
        assert mvpp.structure_signature() == forms[0]

    def test_config_push_down_applies_without_keyword(self, fig7_workload, forms):
        mvpp = generate_mvpps(
            fig7_workload, rotations=1, config=DesignConfig(push_down=False)
        )[0]
        assert mvpp.structure_signature() == forms[0]


class TestPushDown:
    def test_order_leaf_gets_disjunction(self, paper_mvpp):
        """Q3 filters date, Q4 filters quantity: the shared Order leaf
        must carry the OR of both (Figure 8)."""
        order_leaf = paper_mvpp.vertex_by_name("Order")
        stems = [
            p
            for p in paper_mvpp.parents_of(order_leaf)
            if isinstance(p.operator, Select)
        ]
        assert stems, "no selection stem over Order"
        assert isinstance(stems[0].operator.predicate, Or)

    def test_residual_selections_reapplied(self, paper_mvpp):
        """Queries sharing the disjunctive stem re-filter their own rows:
        Q4's plan must still contain a quantity-only selection."""
        q4_plan = paper_mvpp.query_root("Q4").operator
        residuals = [
            node
            for node in q4_plan.walk()
            if isinstance(node, Select)
            and not isinstance(node.predicate, Or)
            and "Order.quantity" in node.predicate.columns()
        ]
        assert residuals

    def test_single_query_leaf_has_plain_selection(self, paper_mvpp):
        """Division is filtered identically (city='LA') by all its queries,
        so its stem keeps the plain predicate, not a disjunction."""
        division = paper_mvpp.vertex_by_name("Division")
        stems = [
            p
            for p in paper_mvpp.parents_of(division)
            if isinstance(p.operator, Select)
        ]
        assert stems
        assert not isinstance(stems[0].operator.predicate, Or)

    def test_no_push_down_keeps_selections_above(self, workload, estimator):
        infos = sorted(
            prepare_queries(workload, estimator), key=lambda i: -i.rank
        )
        mvpp = build_mvpp(
            infos, workload, estimator, name="fig7", push_down=False
        )
        # Figure-7 form: every leaf is a bare base relation (no stems).
        for leaf in mvpp.leaves:
            for parent in mvpp.parents_of(leaf):
                assert not isinstance(parent.operator, Select) or not isinstance(
                    parent.operator.child, Relation
                )

    def test_fig7_disjunctive_stem_over_division(self, fig7_workload):
        """In the Figure 5/7/8 variant, Division is filtered differently by
        Q1 (city=LA), Q2 (name=Re) and Q3 (city=SF): the stem must be the
        three-way disjunction the paper pushes down in Figure 8."""
        mvpp = generate_mvpps(fig7_workload)[0]
        division = mvpp.vertex_by_name("Division")
        stems = [
            p
            for p in mvpp.parents_of(division)
            if isinstance(p.operator, Select)
        ]
        assert stems
        predicate = stems[0].operator.predicate
        assert isinstance(predicate, Or)
        assert len(predicate.children) == 3


class TestDesign:
    def test_design_picks_minimum(self, workload, estimator):
        result = design(workload, estimator=estimator)
        from repro.mvpp.materialization import select_views

        for mvpp in result.candidates:
            calc = MVPPCostCalculator(mvpp)
            chosen = select_views(mvpp, calc)
            assert result.total_cost <= calc.breakdown(chosen.materialized).total + 1e-6

    def test_design_result_fields(self, workload, estimator):
        result = design(workload, estimator=estimator)
        assert result.materialized_names
        assert result.breakdown.total > 0
        assert result.mvpp in result.candidates

    def test_empty_workload_rejected(self, workload, estimator):
        from dataclasses import replace
        from repro.errors import MVPPError

        empty = replace(workload, queries=())
        with pytest.raises(MVPPError):
            generate_mvpps(empty, estimator)


class TestIncludeNaive:
    def test_naive_candidate_considered(self, workload, estimator):
        from repro.mvpp.builder import build_from_workload
        from repro.mvpp.cost import MVPPCostCalculator
        from repro.mvpp.materialization import select_views

        combined = design(workload, DesignConfig(include_naive=True), estimator=estimator)
        merged_only = design(workload, estimator=estimator)
        naive = build_from_workload(workload, estimator)
        calc = MVPPCostCalculator(naive)
        naive_chosen = select_views(naive, calc, refine=True)
        naive_total = calc.breakdown(naive_chosen.materialized).total
        assert combined.total_cost <= min(
            merged_only.total_cost, naive_total
        ) + 1e-6

    def test_candidate_list_grows(self, workload, estimator):
        combined = design(workload, DesignConfig(include_naive=True), estimator=estimator)
        merged_only = design(workload, estimator=estimator)
        assert len(combined.candidates) == len(merged_only.candidates) + 1


class TestRotationInvariantWork:
    def test_selection_split_once_per_query(self, monkeypatch):
        """Regression: splitting a query's selection per leaf does not
        depend on the merge order, so one design() of k queries splits k
        times, not once per rotation, query and leaf."""
        from repro.mvpp import generation

        workload = star_workload(
            StarConfig(num_queries=8, include_aggregates=True, seed=0)
        )
        calls = []
        split = generation._leaf_conjuncts

        def counting(*args):
            calls.append(1)
            return split(*args)

        monkeypatch.setattr(generation, "_leaf_conjuncts", counting)
        result = design(workload)

        assert len(result.candidates) == 8
        assert len(calls) == 8


class TestDesignOutcomePinned:
    """The k=32 star designs the benchmark's ``design`` workload runs.

    Digested like ``perfbench/workloads.py:design_digest``: a speed-up of
    generation or selection must leave every chosen view and the exact
    total cost unchanged.
    """

    @pytest.mark.parametrize(
        "seed, expected",
        [(0, "551d3581bc89aadf"), (1, "34653e011307a36f"), (2, "7c1ed5462a55de5c")],
    )
    def test_star32_design_digest(self, seed, expected):
        workload = star_workload(
            StarConfig(num_queries=32, include_aggregates=True, seed=seed)
        )
        result = design(workload)
        signatures = sorted(str(v.operator.signature) for v in result.materialized)
        payload = "\n".join(signatures) + f"\n{result.total_cost!r}"
        assert hashlib.sha256(payload.encode()).hexdigest()[:16] == expected
