"""Ablation — the value of the Figure-4 merge itself (DESIGN.md §6.3).

How much of the design's benefit comes from the *generation* algorithm
(re-using join patterns across queries, rotating seeds) versus simply
interning each query's individually-optimal plan and sharing whatever
coincides?  The naive builder (:func:`repro.mvpp.builder.build_from_workload`)
is the no-merge baseline.
"""

from repro.analysis import format_blocks, render_table
from repro.mvpp import MVPPCostCalculator, build_from_workload, design, select_views
from repro.workload import (
    GeneratorConfig,
    OverlapConfig,
    generate_workload,
    overlap_workload,
    paper_workload,
)


def evaluate(mvpp):
    calc = MVPPCostCalculator(mvpp)
    chosen = select_views(mvpp, calc, refine=True)
    shared = sum(
        1 for v in mvpp.operations if len(mvpp.queries_using(v)) >= 2
    )
    return calc.breakdown(chosen.materialized).total, shared


def run(workload):
    naive_total, naive_shared = evaluate(build_from_workload(workload))
    merged = design(workload)
    merged_total = merged.total_cost
    merged_shared = sum(
        1
        for v in merged.mvpp.operations
        if len(merged.mvpp.queries_using(v)) >= 2
    )
    return naive_total, naive_shared, merged_total, merged_shared


def test_merge_vs_naive_sharing(benchmark):
    def sweep():
        rows = []
        rows.append(("paper example", *run(paper_workload())))
        rows.append(
            (
                "overlap 100%",
                *run(
                    overlap_workload(
                        OverlapConfig(overlap=1.0, num_queries=6, seed=2)
                    )
                ),
            )
        )
        rows.append(
            (
                "synthetic seed 4",
                *run(
                    generate_workload(
                        GeneratorConfig(
                            num_relations=6, num_queries=5, seed=4
                        )
                    ).workload
                ),
            )
        )
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    by_name = {r[0]: r for r in rows}

    # Finding 1: when queries share join cores but filter differently,
    # only the Figure-4 merge (via disjunctive push-down) can share —
    # it beats naive interning decisively.
    _, naive_total, _, merged_total, _ = by_name["overlap 100%"]
    assert merged_total < 0.6 * naive_total

    # Finding 2: the merge always finds at least as many sharing points…
    for name, _, naive_shared, _, merged_shared in rows:
        assert merged_shared >= naive_shared, name

    # …but NOT always a cheaper design: on the paper example the naive
    # build keeps per-query selections exact (no disjunctive stems) and
    # wins on total cost.  An honest deviation, reported below; the
    # DesignConfig(include_naive=True) option takes the best of both.
    from repro.mvpp import DesignConfig, design as run_design

    for name, workload in (
        ("paper example", paper_workload()),
        (
            "overlap 100%",
            overlap_workload(OverlapConfig(overlap=1.0, num_queries=6, seed=2)),
        ),
    ):
        combined = run_design(workload, DesignConfig(include_naive=True))
        _, naive_total, _, merged_total, _ = by_name[name]
        assert combined.total_cost <= min(naive_total, merged_total) + 1e-6

    print()
    print(
        render_table(
            [
                "Workload",
                "Naive total",
                "Naive shared nodes",
                "Fig-4 total",
                "Fig-4 shared nodes",
            ],
            [
                [
                    name,
                    format_blocks(naive_total),
                    naive_shared,
                    format_blocks(merged_total),
                    merged_shared,
                ]
                for name, naive_total, naive_shared, merged_total, merged_shared in rows
            ],
            title="Figure-4 merge vs naive plan interning",
        )
    )
