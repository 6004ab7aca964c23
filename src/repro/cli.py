"""Command-line interface.

Usage (also via ``python -m repro``)::

    repro workloads                       # list built-in workloads
    repro design   --workload paper       # run the full design pipeline
    repro explain  --workload paper       # logical + physical plan per query
    repro compare  --workload paper       # Table-2-style strategy table
    repro trace    --workload paper       # Figure-9 selection trace
    repro profile  --workload paper       # instrumented end-to-end run
    repro refresh  --failure-rate 0.3     # resilient scheduler refresh pass
    repro simulate --faults               # seeded fault-injection lifecycle
    repro simulate --stream --faults      # same lifecycle, CDC streaming drains
    repro simulate --shards 8             # pruned vs unpruned sharded serving
    repro simulate --drift                # static vs adaptive vs eager redesign
    repro adapt    --windows 8            # online drift-detection replay
    repro trace    --events               # flight-recorder journal as JSONL
    repro calibrate --workload paper      # estimated-vs-measured Ca/Cm report
    repro bench    --suite macro          # BENCH-tracked macro benchmark
    repro dot      --workload paper       # DOT export of the chosen MVPP
    repro lint     --workload paper       # semantic lint of the design problem
    repro lint     --self                 # determinism lint of the repro sources

Synthetic workloads accept ``--seed/--relations/--queries``; ``design``
can persist the result with ``--json FILE``; ``profile`` writes the full
span tree and metrics snapshot with ``--trace-json FILE``; ``lint``
emits ``--format text|json|sarif`` and exits nonzero on error-severity
findings.
"""

from __future__ import annotations

import argparse
import json
import sys
import warnings
from typing import Dict, List, Mapping, Optional, Tuple

from repro import __version__, obs
from repro.analysis import format_blocks, strategy_table, to_dot
from repro.errors import ReproError
from repro.mvpp import (
    DesignConfig,
    MVPPCostCalculator,
    design,
    generate_mvpps,
    select_views,
    strategies,
    strategy_names,
)
from repro.mvpp.serialize import design_to_dict
from repro.obs.export import (
    dump_json,
    selection_trace_to_dict,
    validate_profile,
)
from repro.workload import (
    GeneratorConfig,
    StarConfig,
    generate_workload,
    paper_workload,
    paper_workload_fig7,
    star_workload,
)

WORKLOADS = ("paper", "paper-fig7", "star", "synthetic")


def resolve_workload(args: argparse.Namespace):
    if args.workload == "paper":
        return paper_workload()
    if args.workload == "paper-fig7":
        return paper_workload_fig7()
    if args.workload == "star":
        return star_workload(
            StarConfig(num_queries=args.queries, seed=args.seed)
        )
    return generate_workload(
        GeneratorConfig(
            num_relations=args.relations,
            num_queries=args.queries,
            seed=args.seed,
        )
    ).workload


def resolve_workload_rows(
    args: argparse.Namespace, scale: float
) -> Tuple[object, Dict[str, List[Mapping[str, object]]]]:
    """A workload plus synthetic rows matching its statistics at ``scale``."""
    from repro.workload.datagen import paper_rows, star_rows, synthetic_rows

    if args.workload in ("paper", "paper-fig7"):
        return resolve_workload(args), paper_rows(scale=scale, seed=args.seed)
    if args.workload == "star":
        config = StarConfig(num_queries=args.queries, seed=args.seed)
        return star_workload(config), star_rows(config, scale=scale, seed=args.seed)
    generated = generate_workload(
        GeneratorConfig(
            num_relations=args.relations,
            num_queries=args.queries,
            seed=args.seed,
        )
    )
    return generated.workload, synthetic_rows(generated, scale=scale, seed=args.seed)


def _add_workload_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--workload", choices=WORKLOADS, default="paper",
        help="built-in workload to design for (default: paper)",
    )
    parser.add_argument("--seed", type=int, default=0,
                        help="seed for generated workloads")
    parser.add_argument("--relations", type=int, default=6,
                        help="relation count for synthetic workloads")
    parser.add_argument("--queries", type=int, default=5,
                        help="query count for generated workloads")
    parser.add_argument(
        "--rotations", type=int, default=None,
        help="limit the number of MVPP rotations (default: one per query)",
    )
    parser.add_argument(
        "--no-cost-cache", action="store_true",
        help="disable the shared cross-candidate cost cache",
    )
    parser.add_argument(
        "--strategy", default="heuristic", metavar="NAME",
        help="view-selection strategy (see `repro strategies`)",
    )
    parser.add_argument(
        "--engine", choices=("vectorized", "reference"), default="vectorized",
        help="execution engine: the vectorized columnar executor or the "
             "row-at-a-time reference oracle (default: vectorized)",
    )


def design_config(args: argparse.Namespace) -> DesignConfig:
    """The :class:`DesignConfig` described by the shared CLI flags."""
    return DesignConfig(
        strategy=args.strategy,
        rotations=args.rotations,
        cache=not args.no_cost_cache,
        seed=args.seed,
        engine=args.engine,
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="MVPP materialized view design (Yang/Karlapalem/Li, ICDCS'97)",
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    commands = parser.add_subparsers(dest="command", required=True)

    commands.add_parser("workloads", help="list built-in workloads")

    commands.add_parser(
        "strategies", help="list registered view-selection strategies"
    )

    design_parser = commands.add_parser("design", help="run the design pipeline")
    _add_workload_arguments(design_parser)
    design_parser.add_argument("--json", metavar="FILE", default=None,
                               help="write the design result as JSON")
    design_parser.add_argument(
        "--shards", type=int, default=0, metavar="N",
        help="also cost the design over N-way horizontal partitions "
             "(keys derived from the workload's own predicates)",
    )
    design_parser.add_argument(
        "--replicas", type=int, default=1, metavar="R",
        help="with --shards: read replicas per shard (default 1)",
    )

    explain_parser = commands.add_parser(
        "explain",
        help="logical plan annotations plus the physical operator tree",
    )
    _add_workload_arguments(explain_parser)
    explain_parser.add_argument(
        "--query", metavar="NAME", default=None,
        help="explain only this registered query (default: all of them)",
    )

    compare_parser = commands.add_parser(
        "compare", help="compare materialization strategies (Table 2)"
    )
    _add_workload_arguments(compare_parser)
    compare_parser.add_argument(
        "--exhaustive", action="store_true",
        help="include the 2^n optimum (small MVPPs only)",
    )

    trace_parser = commands.add_parser(
        "trace", help="print the Figure-9 selection trace"
    )
    _add_workload_arguments(trace_parser)
    trace_parser.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="output format (json shares the observability serializer)",
    )
    trace_parser.add_argument(
        "--events", action="store_true",
        help="run an instrumented lifecycle and dump the flight-recorder "
             "journal as JSONL instead of the selection trace",
    )
    trace_parser.add_argument(
        "--scale", type=float, default=0.01,
        help="with --events: fraction of the statistics' cardinalities "
             "to load (default 0.01)",
    )
    trace_parser.add_argument(
        "--output", metavar="FILE", default=None,
        help="with --events: write the JSONL here instead of stdout",
    )

    profile_parser = commands.add_parser(
        "profile",
        help="instrumented end-to-end run (design, load, execute, maintain)",
    )
    _add_workload_arguments(profile_parser)
    profile_parser.add_argument(
        "--scale", type=float, default=0.01,
        help="fraction of the statistics' cardinalities to load (default 0.01)",
    )
    profile_parser.add_argument(
        "--trace-json", metavar="FILE", default=None,
        help="write the span tree + metrics snapshot as JSON",
    )
    profile_parser.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="stdout format (json prints the full profile document)",
    )

    report_parser = commands.add_parser(
        "report", help="full design report (views, extremes, sensitivity)"
    )
    _add_workload_arguments(report_parser)

    dot_parser = commands.add_parser("dot", help="export the designed MVPP as DOT")
    _add_workload_arguments(dot_parser)
    dot_parser.add_argument("--output", metavar="FILE", default=None,
                            help="write DOT here instead of stdout")

    refresh_parser = commands.add_parser(
        "refresh",
        help="resilient view refresh: retry/backoff/breaker scheduler",
    )
    _add_workload_arguments(refresh_parser)
    refresh_parser.add_argument(
        "--scale", type=float, default=0.01,
        help="fraction of the statistics' cardinalities to load (default 0.01)",
    )
    refresh_parser.add_argument(
        "--failure-rate", type=float, default=0.0,
        help="injected storage failure rate during maintenance (default 0)",
    )
    refresh_parser.add_argument(
        "--max-attempts", type=int, default=5,
        help="retry attempts per view refresh (default 5)",
    )

    simulate_parser = commands.add_parser(
        "simulate",
        help="end-to-end lifecycle simulation (writes, queries, maintenance)",
    )
    _add_workload_arguments(simulate_parser)
    simulate_parser.add_argument(
        "--faults", action="store_true",
        help="inject seeded storage faults during maintenance",
    )
    simulate_parser.add_argument(
        "--failure-rate", type=float, default=0.3,
        help="injected failure rate when --faults is on (default 0.3)",
    )
    simulate_parser.add_argument(
        "--rounds", type=int, default=3,
        help="write/serve/maintain rounds to simulate (default 3)",
    )
    simulate_parser.add_argument(
        "--stream", action="store_true",
        help="maintain views by CDC streaming drains instead of deferred "
             "scheduler refreshes",
    )
    simulate_parser.add_argument(
        "--max-lag", type=int, default=None, metavar="N",
        help="with --stream: StreamingPolicy.max_lag_records "
             "backpressure bound",
    )
    simulate_parser.add_argument(
        "--coalesce", type=int, default=None, metavar="N",
        help="with --stream: StreamingPolicy.coalesce_records batch size",
    )
    simulate_parser.add_argument(
        "--retention", type=int, default=None, metavar="N",
        help="with --stream: change-log ring capacity per relation",
    )
    simulate_parser.add_argument(
        "--scale", type=float, default=0.02,
        help="fraction of the statistics' cardinalities to load (default 0.02)",
    )
    simulate_parser.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="output format (default: text)",
    )
    simulate_parser.add_argument(
        "--shards", type=int, default=0, metavar="N",
        help="run the sharding simulation instead: N-way partitions, "
             "pruned vs unpruned serving, partition-wise refresh",
    )
    simulate_parser.add_argument(
        "--replicas", type=int, default=2,
        help="with --shards: read replicas per shard (default 2)",
    )
    simulate_parser.add_argument(
        "--drift", action="store_true",
        help="replay a drifting workload instead: static vs adaptive vs "
             "eager redesign on the logical tick clock",
    )
    simulate_parser.add_argument(
        "--stationary", action="store_true",
        help="with --drift: stationary control run (the design-time "
             "profile throughout; the controller must accept nothing)",
    )
    simulate_parser.add_argument(
        "--windows-per-phase", type=int, default=4,
        help="with --drift: observation windows per workload phase "
             "(default 4; the replay runs three phases)",
    )

    adapt_parser = commands.add_parser(
        "adapt",
        help="online adaptation: drift detection + cost-gated redesign",
    )
    _add_workload_arguments(adapt_parser)
    adapt_parser.add_argument(
        "--windows", type=int, default=8,
        help="observation windows to replay (default 8; the hot set "
             "inverts halfway through)",
    )
    adapt_parser.add_argument(
        "--stationary", action="store_true",
        help="keep the design-time profile throughout (control run)",
    )
    adapt_parser.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="output format (default: text)",
    )

    lint_parser = commands.add_parser(
        "lint",
        help="static analysis: semantic MVPP/workload lints or --self code lint",
    )
    _add_workload_arguments(lint_parser)
    lint_parser.add_argument(
        "--self", dest="self_check", action="store_true",
        help="lint the repro package sources for determinism violations",
    )
    lint_parser.add_argument(
        "--path", action="append", metavar="PATH", default=None,
        help="lint these files/directories instead of the installed package "
             "(implies the code analyzer)",
    )
    lint_parser.add_argument(
        "--target", choices=("workload", "mvpp", "design", "all"), default="all",
        help="semantic scope: the workload spec, every candidate MVPP, "
             "the chosen design, or all three (default: all)",
    )
    lint_parser.add_argument(
        "--format", choices=("text", "json", "sarif", "github"), default="text",
        help="output format (default: text)",
    )
    lint_parser.add_argument(
        "--output", metavar="FILE", default=None,
        help="write the report here instead of stdout",
    )
    lint_parser.add_argument(
        "--rules", action="store_true",
        help="list the rule catalog and exit",
    )
    lint_parser.add_argument(
        "--baseline", metavar="FILE", default=None,
        help="hide findings listed in this baseline file; expired "
             "entries (no longer matching) are reported",
    )
    lint_parser.add_argument(
        "--write-baseline", metavar="FILE", default=None,
        help="write the surviving findings to FILE as the new baseline "
             "and exit 0",
    )

    calibrate_parser = commands.add_parser(
        "calibrate",
        help="estimated-vs-measured Ca/Cm report (worst-calibrated first)",
    )
    _add_workload_arguments(calibrate_parser)
    calibrate_parser.add_argument(
        "--scale", type=float, default=0.01,
        help="fraction of the statistics' cardinalities to load (default 0.01)",
    )
    calibrate_parser.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="output format (default: text)",
    )
    calibrate_parser.add_argument(
        "--limit", type=int, default=5,
        help="worst-calibrated entries to highlight (default 5)",
    )

    bench_parser = commands.add_parser(
        "bench",
        help="macro-benchmark sweep, BENCH-tracked with a regression gate",
    )
    _add_workload_arguments(bench_parser)
    bench_parser.add_argument(
        "--suite", choices=("macro",), default="macro",
        help="benchmark suite to run (default: macro)",
    )
    bench_parser.add_argument(
        "--scale", type=float, default=0.01,
        help="fraction of the statistics' cardinalities to load (default 0.01)",
    )
    bench_parser.add_argument(
        "--repeats", type=int, default=3,
        help="query-sweep repetitions (default 3)",
    )
    bench_parser.add_argument(
        "--windows", type=int, default=4,
        help="drift-replay observation windows (default 4)",
    )
    bench_parser.add_argument(
        "--output", metavar="FILE", default="BENCH_macro.json",
        help="write the benchmark document here (default: BENCH_macro.json)",
    )
    bench_parser.add_argument(
        "--baseline", metavar="FILE", default=None,
        help="compare against this document (default: the --output path "
             "when it already exists)",
    )
    bench_parser.add_argument(
        "--tolerance", type=float, default=0.25,
        help="allowed per-phase regression before failing (default 0.25)",
    )
    bench_parser.add_argument(
        "--smoke", action="store_true",
        help="deterministic mode: record wall_ms as 0 so the document is "
             "bit-compatible across machines (also via REPRO_BENCH_SMOKE)",
    )
    return parser


def command_workloads(args: argparse.Namespace) -> int:
    print("built-in workloads:")
    print("  paper       — the paper's Section-2 example (Table 1, Q1..Q4)")
    print("  paper-fig7  — the Figure 5/7/8 variant (divergent selections)")
    print("  star        — generated star schema (--queries, --seed)")
    print("  synthetic   — generated SPJ workload (--relations, --queries, --seed)")
    return 0


def command_strategies(args: argparse.Namespace) -> int:
    print("registered strategies:")
    for name in strategy_names():
        print(f"  {name}")
    return 0


def command_design(args: argparse.Namespace) -> int:
    workload = resolve_workload(args)
    config = design_config(args)
    result = design(workload, config)
    print(f"workload: {workload.name} ({len(workload.queries)} queries)")
    print(f"chosen MVPP: {result.mvpp.name} ({len(result.mvpp)} vertices)")
    print(f"materialize: {', '.join(result.materialized_names) or '(nothing)'}")
    breakdown = result.breakdown
    print(
        f"per-period cost: query={format_blocks(breakdown.query_processing)} "
        f"maintenance={format_blocks(breakdown.maintenance)} "
        f"total={format_blocks(breakdown.total)}"
    )
    if result.cache_stats is not None:
        stats = result.cache_stats
        print(
            f"cost cache: {stats['hits']:g} hits / {stats['misses']:g} misses "
            f"(hit ratio {stats['hit_ratio']:.0%}, {stats['size']:g} entries)"
        )
    sharding_doc = None
    if getattr(args, "shards", 0):
        sharding_doc = _design_sharding(args, workload, result)
    if args.json:
        document = design_to_dict(result)
        if sharding_doc is not None:
            document["sharding"] = sharding_doc
        with open(args.json, "w") as handle:
            json.dump(document, handle, indent=2)
        print(f"design written to {args.json}")
    return 0


def _design_sharding(
    args: argparse.Namespace, workload, result
) -> Dict[str, object]:
    """Cost the finished design over horizontal partitions.

    Builds an N-way shard catalog (partition keys derived from the
    workload's predicates, round-robin placement with replicas) and
    reports the distributed per-period cost with and without partition
    awareness — the difference is what per-shard update locality and
    pruned access buy at design time.
    """
    from repro.distributed import (
        DistributedCostCalculator,
        ShardCatalog,
        Topology,
    )
    from repro.distributed.simulate import choose_schemes

    if args.shards < 1:
        raise ReproError(f"--shards must be >= 1: {args.shards}")
    replicas = args.replicas
    if replicas < 1:
        raise ReproError(f"--replicas must be >= 1: {replicas}")
    schemes = choose_schemes(workload, {}, args.shards)
    sites = tuple(f"site{i}" for i in range(max(2, replicas)))
    topology = Topology(("warehouse",) + sites)
    catalog = ShardCatalog.build(
        schemes, topology=topology, sites=sites, replication=replicas
    )
    leaves = sorted(leaf.name for leaf in result.mvpp.leaves)
    placement = {
        name: sites[index % len(sites)]
        for index, name in enumerate(leaves)
    }
    whole = DistributedCostCalculator(
        result.mvpp, topology, placement, warehouse_site="warehouse"
    )
    partitioned = DistributedCostCalculator(
        result.mvpp, topology, placement, warehouse_site="warehouse",
        sharding=catalog,
    )
    whole_total = whole.total_cost(result.materialized)
    partitioned_total = partitioned.total_cost(result.materialized)
    print(
        f"sharding: {args.shards}-way partitions, {replicas} replica(s) "
        f"over sites {', '.join(sites)}"
    )
    for scheme in schemes:
        print(f"  {scheme.relation}: {scheme.kind} on {scheme.key}")
    print(
        f"  distributed per-period cost: "
        f"whole-object={format_blocks(whole_total)} "
        f"partition-aware={format_blocks(partitioned_total)}"
    )
    return {
        "shards": args.shards,
        "replicas": replicas,
        "schemes": [
            {
                "relation": s.relation,
                "key": s.key,
                "kind": s.kind,
                "shards": s.shards,
            }
            for s in schemes
        ],
        "catalog": catalog.describe(),
        "cost": {
            "whole_object": whole_total,
            "partition_aware": partitioned_total,
        },
    }


def command_explain(args: argparse.Namespace) -> int:
    from repro.warehouse import DataWarehouse

    workload = resolve_workload(args)
    warehouse = DataWarehouse.from_workload(workload, engine=args.engine)
    warehouse.design(design_config(args))
    names = [spec.name for spec in workload.queries]
    if args.query is not None:
        if args.query not in names:
            raise ReproError(
                f"unknown query {args.query!r}; "
                f"expected one of {', '.join(names)}"
            )
        names = [args.query]
    for index, name in enumerate(names):
        if index:
            print()
        print(warehouse.explain(name))
        plan = warehouse.query_plan(name)
        print(f"physical plan ({warehouse.engine.engine} engine):")
        print(warehouse.engine.explain(plan))
    return 0


def command_compare(args: argparse.Namespace) -> int:
    workload = resolve_workload(args)
    design_config(args)  # rejects invalid shared flags, as `design` does
    mvpp = generate_mvpps(workload, rotations=args.rotations or 1)[0]
    calculator = MVPPCostCalculator(mvpp)
    rows = strategies.compare(
        mvpp, calculator, include_exhaustive=args.exhaustive
    )
    rows.append(strategies.annealing(mvpp, calculator))
    print(strategy_table(rows, title=f"Strategies on {mvpp.name}"))
    return 0


def _run_instrumented_lifecycle(args: argparse.Namespace, scale: float):
    """Design, load, query, update, resilient refresh, adapt — once.

    The shared driver behind ``repro trace --events`` and ``repro
    calibrate``: every instrumented subsystem (executor, maintenance,
    scheduler, controller) runs at least once, so the journal and the
    calibration log carry one full story.
    """
    from repro.warehouse import DataWarehouse

    if scale <= 0:
        raise ReproError(f"--scale must be positive: {scale}")
    workload, rows = resolve_workload_rows(args, scale)
    warehouse = DataWarehouse.from_workload(workload)
    warehouse.design(design_config(args))
    for relation, relation_rows in rows.items():
        warehouse.load(relation, relation_rows)
    warehouse.materialize()
    # Sync statistics (base and stored views) to the loaded actuals, so
    # calibration measures cost-model error rather than the gap between
    # the Table-1 statistics and the --scale fraction actually loaded.
    warehouse.sync_statistics()
    for view in warehouse.views:
        if view.name in warehouse.database:
            table = warehouse.database.table(view.name)
            warehouse.statistics.set_relation(
                view.name, table.cardinality, table.num_blocks
            )
    for spec in workload.queries:
        warehouse.execute(spec.name)
    target = max(
        rows, key=lambda name: (workload.update_frequency(name), name)
    )
    delta = rows[target][: max(1, len(rows[target]) // 100)]
    warehouse.apply_update(target, delta, policy="defer")
    warehouse.refresh_resilient()
    # Streaming segment: CDC capture, stream ingest, drain.  Retention
    # is sized below the appended record count so the journal also
    # carries the cdc.dropped / degradation story.
    from repro.cdc import StreamingPolicy

    streaming = warehouse.enable_streaming(
        StreamingPolicy(
            retention=max(1, len(delta) // 2), coalesce_records=8
        )
    )
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # retention drop is intentional
        warehouse.apply_update(target, delta, policy="stream")
        warehouse.apply_delete(target, [delta[0]], policy="stream")
        streaming.drain()
    warehouse.refresh_resilient()
    warehouse.adapt()
    return workload, warehouse


def command_trace_events(args: argparse.Namespace) -> int:
    """Dump the flight-recorder journal of one lifecycle as JSONL."""
    was_enabled = obs.enabled()
    obs.enable(reset=True)
    try:
        workload, _ = _run_instrumented_lifecycle(args, args.scale)
        journal = obs.journal()
        text = journal.to_jsonl()
        events = len(journal)
    finally:
        if not was_enabled:
            obs.disable()
    if args.output:
        with open(args.output, "w") as handle:
            handle.write(text)
        print(
            f"{events} event(s) from workload {workload.name} "
            f"written to {args.output}"
        )
    else:
        print(text, end="")
    return 0


def command_trace(args: argparse.Namespace) -> int:
    if getattr(args, "events", False):
        return command_trace_events(args)
    workload = resolve_workload(args)
    design_config(args)  # rejects invalid shared flags, as `design` does
    mvpp = generate_mvpps(workload, rotations=args.rotations or 1)[0]
    calculator = MVPPCostCalculator(mvpp)
    result = select_views(mvpp, calculator)
    breakdown = calculator.breakdown(result.materialized)
    if getattr(args, "format", "text") == "json":
        document = selection_trace_to_dict(
            mvpp.name, result.trace, result.names, breakdown.total
        )
        print(json.dumps(document, indent=2))
        return 0
    print(f"Figure-9 trace on {mvpp.name}:")
    for step in result.trace:
        saving = "-" if step.saving is None else format_blocks(step.saving)
        pruned = f"  pruned={list(step.pruned)}" if step.pruned else ""
        print(
            f"  {step.vertex:>10}: w={format_blocks(step.weight):>10} "
            f"Cs={saving:>10} -> {step.decision}{pruned}"
        )
    print(f"M = {{{', '.join(result.names)}}}")
    print(f"total cost: {format_blocks(breakdown.total)}")
    return 0


def command_profile(args: argparse.Namespace) -> int:
    from repro.warehouse import DataWarehouse

    if args.scale <= 0:
        raise ReproError(f"--scale must be positive: {args.scale}")
    was_enabled = obs.enabled()
    obs.enable(reset=True)
    try:
        workload, rows = resolve_workload_rows(args, args.scale)
        warehouse = DataWarehouse.from_workload(workload)
        warehouse.design(design_config(args))
        for relation, relation_rows in rows.items():
            warehouse.load(relation, relation_rows)
        warehouse.materialize()
        for spec in workload.queries:
            warehouse.execute(spec.name)
        # Maintenance: an incremental delta on the most-updated relation,
        # then a full refresh (the paper's recompute policy).
        target = max(
            rows, key=lambda name: (workload.update_frequency(name), name)
        )
        delta = rows[target][: max(1, len(rows[target]) // 100)]
        warehouse.apply_update(target, delta, policy="incremental")
        warehouse.refresh()
        # Resilience + adaptive: one scheduler pass over deliberately
        # staled views and one controller decision, so the profile
        # document exercises every phase in PHASES.
        warehouse.apply_update(target, delta, policy="defer")
        warehouse.refresh_resilient()
        warehouse.adapt()

        document = obs.snapshot(workload=workload.name)
    finally:
        if not was_enabled:
            obs.disable()
    problems = validate_profile(document)
    if args.trace_json:
        dump_json(document, args.trace_json)
    if args.format == "json":
        print(json.dumps(document, indent=2))
    else:
        print(f"profiled workload: {workload.name} "
              f"({len(workload.queries)} queries, scale={args.scale})")
        print(f"{'phase':<14} {'wall_ms':>12} {'spans':>7}")
        for phase, bucket in sorted(
            document["phases"].items(), key=lambda item: -item[1]["wall_ms"]
        ):
            print(
                f"{phase:<14} {bucket['wall_ms']:>12.3f} "
                f"{int(bucket['spans']):>7}"
            )
        counters = document["metrics"]["counters"]
        for name in (
            "storage.blocks_read",
            "storage.blocks_written",
            "generation.reuse_hits",
            "selection.decisions{decision=materialize}",
        ):
            if name in counters:
                print(f"{name} = {counters[name]:g}")
        if args.trace_json:
            print(f"trace written to {args.trace_json}")
    if problems:
        for problem in problems:
            print(f"profile schema problem: {problem}", file=sys.stderr)
        return 1
    return 0


def command_report(args: argparse.Namespace) -> int:
    from repro.analysis import design_report

    workload = resolve_workload(args)
    result = design(workload, design_config(args))
    print(design_report(result))
    return 0


def command_dot(args: argparse.Namespace) -> int:
    workload = resolve_workload(args)
    result = design(workload, design_config(args))
    text = to_dot(result.mvpp, highlight=result.materialized)
    if args.output:
        with open(args.output, "w") as handle:
            handle.write(text + "\n")
        print(f"DOT written to {args.output}")
    else:
        print(text)
    return 0


def command_refresh(args: argparse.Namespace) -> int:
    from repro.resilience import FaultPolicy, ResilienceConfig, RetryPolicy
    from repro.warehouse import DataWarehouse

    if args.scale <= 0:
        raise ReproError(f"--scale must be positive: {args.scale}")
    workload, rows = resolve_workload_rows(args, args.scale)
    warehouse = DataWarehouse.from_workload(workload)
    warehouse.design(design_config(args))
    for relation, relation_rows in rows.items():
        warehouse.load(relation, relation_rows)
    warehouse.materialize()
    injector = None
    if args.failure_rate > 0:
        injector = warehouse.attach_faults(
            FaultPolicy(storage_failure_rate=args.failure_rate, seed=args.seed)
        )
    config = ResilienceConfig(
        retry=RetryPolicy(max_attempts=args.max_attempts), seed=args.seed
    )
    scheduler = warehouse.scheduler(config, injector=injector)
    # Make the views stale so the refreshes do real work.
    target = max(rows, key=lambda name: (workload.update_frequency(name), name))
    delta = rows[target][: max(1, len(rows[target]) // 100)]
    warehouse.apply_update(target, delta, policy="defer")

    outcomes = scheduler.refresh_all()
    print(f"resilient refresh on {workload.name} "
          f"(failure rate {args.failure_rate:g}, seed {args.seed}):")
    for outcome in outcomes:
        detail = f" ({outcome.error})" if outcome.error else ""
        print(
            f"  {outcome.view:>10}: {outcome.status:<10} "
            f"attempts={outcome.attempts} epoch={outcome.epoch} "
            f"ticks={outcome.ticks:.1f}{detail}"
        )
    if injector is not None:
        stats = injector.stats()
        print(f"faults injected: {stats['storage_faults']:g} storage, "
              f"{stats['comm_faults']:g} comm")
    stale = warehouse.stale_views()
    print(f"stale views remaining: {len(stale)}")
    return 0 if not stale else 1


def command_simulate(args: argparse.Namespace) -> int:
    if args.drift:
        return _simulate_drift(args)
    if getattr(args, "shards", 0):
        return _simulate_sharding(args)
    # --drift replays the cost model over no stored tables and --shards
    # checks pruned against unpruned serving; neither runs the write /
    # serve / maintain lifecycle below, so each keeps its own runner.

    from repro.cdc import DEFAULT_STREAMING_POLICY
    from repro.warehouse.simulation import simulate_lifecycle

    overrides = {
        field: value
        for field, value in (
            ("max_lag_records", args.max_lag),
            ("coalesce_records", args.coalesce),
            ("retention", args.retention),
        )
        if value is not None
    }
    policy = DEFAULT_STREAMING_POLICY.replace(**overrides) if overrides else None
    failure_rate = args.failure_rate if args.faults else 0.0
    workload, rows = resolve_workload_rows(args, args.scale)
    result = simulate_lifecycle(
        maintenance="stream" if args.stream else "defer",
        failure_rate=failure_rate,
        seed=args.seed,
        rounds=args.rounds,
        scale=args.scale,
        streaming_policy=policy,
        workload=workload,
        rows=rows,
    )
    if args.format == "json":
        print(json.dumps(result.to_dict(), indent=2))
        return 0 if result.ok else 1
    document = result.to_dict()
    print(f"simulated {result.rounds} {result.maintenance} rounds on "
          f"{result.workload} (failure rate {failure_rate:g}, "
          f"seed {result.seed}):")
    changes = document["changes"]
    print(f"  writes: {changes['inserts']} inserts / "
          f"{changes['deletes']} deletes")
    if args.stream:
        drains = document["drains"]
        print(f"  change log: {changes['appended']} appended, "
              f"{changes['dropped']} dropped")
        print(f"  drains: {drains['total']} total "
              f"({drains['backpressure']} from backpressure), "
              f"{drains['coalesced']} records coalesced away")
        print(f"  views: {drains['views_updated']} delta-updated / "
              f"{drains['views_recomputed']} degraded to batch / "
              f"{drains['views_failed']} failed")
    refreshes = document["refreshes"]
    print(f"  scheduler refreshes: {refreshes['succeeded']} ok / "
          f"{refreshes['failed']} failed / {refreshes['skipped']} skipped "
          f"({refreshes['retries']} retries over "
          f"{refreshes['attempted']} attempts)")
    print(f"  faults injected: "
          f"{result.faults_injected.get('storage_faults', 0):g} storage, "
          f"{result.faults_injected.get('comm_faults', 0):g} comm")
    print(f"  staleness: max {result.staleness_max} "
          f"(samples {result.staleness_samples})")
    queries = document["queries"]
    print(f"  queries: {queries['fresh']} fresh / {queries['stale']} stale / "
          f"{queries['degraded']} degraded "
          f"({queries['violations']} consistency violations)")
    print(f"  views vs recompute: {result.view_violations} violations, "
          f"{result.partial_writes} partial writes")
    print(f"  converged: {result.converged} "
          f"(epochs {result.final_epochs}, {result.final_ticks:.1f} ticks, "
          f"digest {result.digest})")
    return 0 if result.ok else 1


def _simulate_sharding(args: argparse.Namespace) -> int:
    from repro.distributed.simulate import simulate_sharding

    if args.shards < 1:
        raise ReproError(f"--shards must be >= 1: {args.shards}")
    if args.replicas < 1:
        raise ReproError(f"--replicas must be >= 1: {args.replicas}")
    if args.scale <= 0:
        raise ReproError(f"--scale must be positive: {args.scale}")
    workload, rows = resolve_workload_rows(args, args.scale)
    result = simulate_sharding(
        shards=args.shards,
        replication=args.replicas,
        seed=args.seed,
        workload=workload,
        rows=rows,
    )
    if args.format == "json":
        print(json.dumps(result.to_dict(), indent=2))
        return 0 if result.ok else 1
    print(
        f"sharded {result.workload} {result.shards} ways "
        f"(replication {result.replication}, seed {result.seed}):"
    )
    for scheme in result.schemes:
        print(f"  {scheme['relation']}: {scheme['kind']} on {scheme['key']}")
    for report in result.queries:
        print(
            f"  {report['query']}: io {report['io_pruned']:g} pruned vs "
            f"{report['io_unpruned']:g} unpruned "
            f"({report['partitions_pruned']} partitions pruned)"
        )
    print(
        f"  rows identical: {result.rows_identical}; selective queries "
        f"read strictly fewer blocks: {result.pruning_wins} "
        f"({result.selective_queries} selective)"
    )
    print(f"  refresh: affected shards only={result.refresh_affected_only}")
    return 0 if result.ok else 1


def _simulate_drift(args: argparse.Namespace) -> int:
    from repro.adaptive import simulate_drift

    result = simulate_drift(
        seed=args.seed,
        windows_per_phase=args.windows_per_phase,
        stationary=args.stationary,
        workload=resolve_workload(args),
    )
    if args.format == "json":
        print(json.dumps(result.to_dict(), indent=2))
    else:
        print(result.describe())
    if result.stationary:
        # The control run passes only if the controller stayed put.
        return 0 if result.accepted == 0 else 1
    return (
        0
        if result.adaptive_beats_static and result.adaptive_beats_eager
        else 1
    )


def command_adapt(args: argparse.Namespace) -> int:
    from repro.adaptive import simulation_policy
    from repro.warehouse import DataWarehouse

    if args.windows < 2:
        raise ReproError(f"--windows must be >= 2: {args.windows}")
    workload = resolve_workload(args)
    config = design_config(args)
    # One event per unit of design-time frequency (at least one), so the
    # opening windows replay exactly what the designer expected.
    base_counts = {
        spec.name: max(1, int(round(spec.frequency)))
        for spec in workload.queries
    }
    # The drifted profile swaps the hot set end-for-end: the busiest
    # query inherits the rarest query's rate and vice versa.
    ranked = sorted(base_counts, key=lambda name: (base_counts[name], name))
    drifted_counts = {
        name: base_counts[other]
        for name, other in zip(ranked, reversed(ranked))
    }
    updates = sorted(workload.update_frequencies)
    expected_events = sum(base_counts.values()) + len(updates)
    policy = simulation_policy(float(expected_events))

    warehouse = DataWarehouse.from_workload(workload)
    warehouse.design(config.replace(adaptive=policy))
    controller = warehouse.controller()

    switch = args.windows // 2
    for window in range(args.windows):
        drifted = not args.stationary and window >= switch
        counts = drifted_counts if drifted else base_counts
        for name in sorted(counts):
            for _ in range(counts[name]):
                controller.note_query(name, 1.0)
        for relation in updates:
            controller.note_update(relation, 1.0)
        controller.evaluate()

    decisions = controller.history
    accepted = sum(1 for decision in decisions if decision.accepted)
    if args.format == "json":
        document = {
            "workload": workload.name,
            "windows": args.windows,
            "stationary": args.stationary,
            "period_ticks": policy.period_ticks,
            "decisions": [decision.to_dict() for decision in decisions],
            "accepted": accepted,
            "final_views": list(
                controller.installed_result.materialized_names
            ),
        }
        print(json.dumps(document, indent=2))
        return 0
    shape = (
        "stationary"
        if args.stationary
        else f"hot set inverts at window {switch}"
    )
    print(
        f"adaptive replay on {workload.name}: {args.windows} windows "
        f"({shape}), seed {args.seed}"
    )
    for window, decision in enumerate(decisions):
        print(f"  window {window:>2}: {decision.describe()}")
    drift_events = sum(
        1 for decision in decisions if decision.drift is not None
    )
    print(f"  drift events: {drift_events}, accepted redesigns: {accepted}")
    views = ", ".join(controller.installed_result.materialized_names)
    print(f"  serving views: {views or '(nothing)'}")
    return 0


def command_lint(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro import lint as lint_mod

    if args.rules:
        print("registered lint rules:")
        for rule in lint_mod.all_rules():
            paper = f"  [{rule.paper}]" if rule.paper else ""
            print(
                f"  {rule.rule_id}  {rule.severity.label:<7} "
                f"({rule.scope}) {rule.summary}{paper}"
            )
        return 0

    if args.self_check or args.path:
        if args.path:
            report = lint_mod.lint_paths(
                [Path(p) for p in args.path], base=Path.cwd()
            )
        else:
            report = lint_mod.lint_self()
    else:
        workload = resolve_workload(args)
        config = design_config(args)
        report = lint_mod.LintReport(target=f"workload {workload.name!r}")
        if args.target in ("workload", "all"):
            report.merge(lint_mod.lint_workload(workload))
        if args.target in ("mvpp", "all"):
            for mvpp in generate_mvpps(workload, config=config):
                report.merge(lint_mod.lint_mvpp(mvpp, workload=workload))
        if args.target in ("design", "all"):
            result = design(workload, config)
            design_report = lint_mod.lint_design(
                result.mvpp,
                result.materialized,
                calculator=result.calculator,
                workload=workload,
            )
            if args.target == "all":
                # The per-candidate pass above already ran the mvpp-scope
                # rules on the chosen MVPP; keep only design-scope findings.
                design_report.diagnostics = [
                    d
                    for d in design_report.diagnostics
                    if lint_mod.get_rule(d.rule).scope != "mvpp"
                ]
            report.merge(design_report)
        report.diagnostics = report.sorted()

    expired = []
    if args.baseline:
        entries = lint_mod.load_baseline(Path(args.baseline))
        expired = lint_mod.apply_baseline(report, entries)

    if args.write_baseline:
        count = lint_mod.write_baseline(report, Path(args.write_baseline))
        print(f"baseline with {count} entr(y/ies) written to {args.write_baseline}")
        return 0

    report.publish()
    if args.format == "json":
        text = json.dumps(lint_mod.report_to_json(report), indent=2)
    elif args.format == "sarif":
        text = json.dumps(lint_mod.report_to_sarif(report), indent=2)
    elif args.format == "github":
        text = lint_mod.render_github(report)
    else:
        text = lint_mod.render_text(report)
    if args.output:
        with open(args.output, "w") as handle:
            handle.write(text + "\n")
        print(f"lint report written to {args.output}")
    else:
        print(text)
    for entry in expired:
        print(
            f"baseline entry expired (no longer matches): "
            f"{entry.get('rule', '?')} at {entry.get('path', '?')} "
            f"[{entry.get('fingerprint', '')}] — refresh with --write-baseline"
        )
    return report.exit_code


def command_calibrate(args: argparse.Namespace) -> int:
    from repro.obs.calibration import calibration_report

    was_enabled = obs.enabled()
    obs.enable(reset=True)
    try:
        workload, _ = _run_instrumented_lifecycle(args, args.scale)
        report = calibration_report(obs.calibration().samples)
    finally:
        if not was_enabled:
            obs.disable()
    if args.format == "json":
        document = {
            "workload": workload.name,
            "scale": args.scale,
            **report.to_dict(),
        }
        print(json.dumps(document, indent=2))
        return 0
    print(
        f"cost-model calibration on {workload.name} "
        f"(scale={args.scale:g}, seed={args.seed})"
    )
    print(report.render_text())
    worst = report.worst(args.limit)
    if worst:
        print(f"worst calibrated: {', '.join(e.name for e in worst)}")
    return 0


def command_bench(args: argparse.Namespace) -> int:
    import os

    from repro.obs.macro import (
        MacroConfig,
        compare_bench,
        run_macro,
        smoke_mode,
        validate_bench,
    )

    config = MacroConfig(
        workload=args.workload,
        scale=args.scale,
        repeats=args.repeats,
        windows=args.windows,
        seed=args.seed,
        smoke=args.smoke or smoke_mode(),
        engine=args.engine,
    )
    try:
        config.validate()
    except ValueError as error:
        raise ReproError(str(error)) from None
    baseline = None
    baseline_path = args.baseline or args.output
    if baseline_path and os.path.exists(baseline_path):
        with open(baseline_path) as handle:
            baseline = json.load(handle)
    document = run_macro(config)
    problems = validate_bench(document)
    if problems:
        for problem in problems:
            print(f"bench schema problem: {problem}", file=sys.stderr)
        return 1
    dump_json(document, args.output)
    mode = "smoke" if document["smoke"] else "timed"
    print(
        f"macro bench on {document['workload']} ({mode}, "
        f"seed={args.seed}) -> {args.output}"
    )
    print(f"{'phase':<10} {'wall_ms':>10} {'io_blocks':>10}")
    for name, bucket in document["phases"].items():
        print(
            f"{name:<10} {bucket['wall_ms']:>10.3f} "
            f"{bucket['io_blocks']:>10.0f}"
        )
    calibration = document["calibration"]
    print(
        f"calibration: {calibration['samples']} sample(s), mean relative "
        f"error {calibration['mean_relative_error']:.3f}"
    )
    if baseline is not None:
        regressions = compare_bench(baseline, document, args.tolerance)
        if regressions:
            for regression in regressions:
                print(f"REGRESSION: {regression}", file=sys.stderr)
            return 1
        print(
            f"no regressions against {baseline_path} "
            f"(tolerance {args.tolerance:.0%})"
        )
    return 0


COMMANDS = {
    "workloads": command_workloads,
    "strategies": command_strategies,
    "design": command_design,
    "explain": command_explain,
    "compare": command_compare,
    "trace": command_trace,
    "profile": command_profile,
    "report": command_report,
    "dot": command_dot,
    "refresh": command_refresh,
    "simulate": command_simulate,
    "adapt": command_adapt,
    "lint": command_lint,
    "calibrate": command_calibrate,
    "bench": command_bench,
}


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return COMMANDS[args.command](args)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
