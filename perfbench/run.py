"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload serve --seed 1 --seconds 10 --trace 0

Builds the program from the checkout's ``src/`` (pure Python, nothing to
compile), generates the workload's op stream from ``--seed``, sets
the warehouse up several times (the median is ``setup_s``), then drives
the ops from one client in a closed loop for ``--seconds`` of op time,
in whole rounds.  Sampled reads are checked against the REFERENCE engine
and the final views against a full recompute; a failed check or a failed
op prints ``"correct": false`` and exits 1.

``--trace 0`` prints the end-to-end metrics of ``BENCHMARK.json``.
``--trace 1`` runs the same op stream twice on fresh warehouses, for
half the time each: once untraced, once with spans around every layer's
public functions, and prints the per-layer metrics, including the
tracing overhead; the spans are written to ``perfbench/out/``.

The second-to-last line of output is an environment and config stamp;
the last line is the result document.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import random
import resource
import statistics
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SPEC = os.path.join(ROOT, "BENCHMARK.json")
OUT = os.path.join(HERE, "out")

#: Op time between full garbage collections, which run between rounds,
#: outside the measured time, so that collection pauses and garbage
#: piling up do not depend on when a run happens to collect.
COLLECT_EVERY_S = 1.0
#: Reads checked against the REFERENCE engine, one in each of the first
#: rounds (each check costs ~0.1 s, outside the measured time).
READ_CHECKS = 4
#: The percentile of an op key's latencies taken as its steady cost.
KEY_PERCENTILE = 10


def load_program() -> None:
    """Put the checkout's ``src/`` first on the import path, or exit."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        sys.exit(f"perfbench: program source not found under {SRC}")
    if not os.path.isfile(SPEC):
        sys.exit(f"perfbench: {SPEC} not found")
    sys.path.insert(0, SRC)


def percentile(samples: List[float], q: float) -> float:
    """Linear-interpolated percentile (``q`` in [0, 100]); failed ops are
    ``inf`` and so miss any latency limit."""
    if not samples:
        return 0.0
    ordered = sorted(samples)
    position = (len(ordered) - 1) * q / 100.0
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    if math.isinf(ordered[high]):
        return ordered[high] if position > low else ordered[low]
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def _mean(values: List[float]) -> float:
    return sum(values) / len(values) if values else 0.0


@dataclass
class Pass:
    """What one measured pass over the op stream recorded."""

    attempted: int = 0
    failed: int = 0
    busy_s: float = 0.0
    #: Op latencies (seconds) of each completed round.
    rounds: List[List[float]] = field(default_factory=list)
    #: Op latencies per op key (``op[:2]``), and the keys of one round.
    by_key: Dict[Tuple, List[float]] = field(default_factory=dict)
    mix: List[Tuple] = field(default_factory=list)
    latencies: Dict[str, List[float]] = field(default_factory=dict)
    errors: List[str] = field(default_factory=list)
    problems: List[str] = field(default_factory=list)
    #: (views used, rows) per successful read.
    reads: List[Tuple[int, int]] = field(default_factory=list)
    #: (candidate MVPPs, cost-cache stats) per successful design.
    designs: List[Tuple[int, Dict[str, float]]] = field(default_factory=list)
    #: Design total cost per star seed.
    costs: Dict[int, float] = field(default_factory=dict)
    digests: Dict[int, str] = field(default_factory=dict)
    #: Deterministic counters over the first round only.
    first_ops: int = 0
    first_io: Any = None
    first_staleness: List[int] = field(default_factory=list)
    io_reads: int = 0
    io_writes: int = 0
    cache: Optional[Dict[str, int]] = None


def timed_setup(workload) -> Tuple[Any, float]:
    started = time.perf_counter()
    context = workload.setup()
    return context, time.perf_counter() - started


def measure(workload, context, stream: Iterator[List[tuple]], seconds: float,
            seed: int, trace: bool, setups: Optional[List[float]] = None):
    """Drive whole rounds of the endless ``stream`` until ``seconds`` of
    op time.

    With ``setups``, adds set-up timings to it between rounds until it
    holds the workload's ``setup_repeats``, spread evenly over the run."""
    from spans import Instruments
    from workloads import design_digest

    result = Pass()
    io = workload.io_counter(context)
    engine = getattr(context, "engine", None)
    cache_before = dict(engine.build_cache.stats()) if engine else None
    rng = random.Random(seed)
    pending_check = False
    instruments = Instruments(trace)
    collected_at = -COLLECT_EVERY_S
    with instruments:
        for round_index, ops in enumerate(stream):
            if round_index > 0 and result.busy_s >= seconds:
                break
            while setups is not None and len(setups) < workload.setup_repeats and (
                result.busy_s >= seconds * len(setups) / workload.setup_repeats
            ):
                setups.append(timed_setup(workload)[1])
                collected_at = -COLLECT_EVERY_S
            if result.busy_s - collected_at >= COLLECT_EVERY_S:
                gc.collect()
                collected_at = result.busy_s
            round_latencies: List[float] = []
            check_at = rng.randrange(len(ops)) if round_index < READ_CHECKS else -1
            for position, op in enumerate(ops):
                if position == check_at:
                    pending_check = True
                instruments.op = result.attempted
                drains = len(instruments.drains)
                refreshes = len(instruments.refreshes)
                before = io.snapshot() if io is not None else None
                started = time.perf_counter()
                try:
                    outcome = workload.execute(context, op)
                    error = None
                except Exception as exc:  # counted, never swallowed
                    outcome, error = None, f"{op[0]}: {type(exc).__name__}: {exc}"
                elapsed = time.perf_counter() - started
                result.busy_s += elapsed
                result.attempted += 1
                failed = (
                    error is not None
                    or outcome.failed
                    or any(d.views_failed for d in instruments.drains[drains:])
                    or any(not o.ok for o in instruments.refreshes[refreshes:])
                )
                kind = op[0] if op[0] != "delete" else "write"
                result.latencies.setdefault(kind, []).append(
                    math.inf if failed else elapsed
                )
                round_latencies.append(math.inf if failed else elapsed)
                result.by_key.setdefault(op[:2], []).append(
                    math.inf if failed else elapsed
                )
                if round_index == 0:
                    result.mix.append(op[:2])
                if failed:
                    result.failed += 1
                    result.errors.append(error or f"{op[0]} {op[1]}: failed outcome")
                    continue
                if io is not None:
                    spent = io.since(before)
                    result.io_reads += spent.reads
                    result.io_writes += spent.writes
                if round_index == 0:
                    result.first_ops += 1
                    if io is not None:
                        result.first_io = (result.first_io or 0) + spent.total
                if outcome.served is not None:
                    result.reads.append(
                        (len(outcome.served.views_used),
                         outcome.served.table.cardinality)
                    )
                    if round_index == 0:
                        result.first_staleness.append(outcome.served.max_staleness)
                    if pending_check and outcome.served.max_staleness == 0:
                        instruments.paused = True
                        result.problems += workload.check_read(context, op, outcome)
                        instruments.paused = False
                        pending_check = False
                if outcome.design is not None:
                    design = outcome.design
                    result.designs.append(
                        (len(design.candidates), design.cache_stats or {})
                    )
                    result.costs.setdefault(op[1], design.total_cost)
                    digest = design_digest(design)
                    known = result.digests.setdefault(op[1], digest)
                    if known != digest:
                        result.problems.append(
                            f"design of star seed {op[1]} is not deterministic"
                        )
            result.rounds.append(round_latencies)
    while setups is not None and len(setups) < workload.setup_repeats:
        setups.append(timed_setup(workload)[1])
    if engine is not None:
        after = engine.build_cache.stats()
        result.cache = {
            key: after[key] - cache_before[key] for key in ("hits", "misses")
        }
    result.problems += workload.final_check(context)
    return result, instruments


def round_costs(workload, measured: Pass) -> List[List[float]]:
    """Steady op costs (seconds) of one round, once per estimate.

    Other tenants of a shared machine only ever slow ops down, and do so
    in phases of seconds, so the faster samples are the steady ones.
    Where every op of a key does the same work (``keyed_ops``), each key
    costs the ``KEY_PERCENTILE``-th percentile of its latencies and one
    round of those costs is the estimate.  Otherwise (``ingest``, whose
    reads carry a drain wherever the lag crosses its bound) every round,
    which has the same op mix, is its own estimate.  A change that slows
    every op still moves them by its full amount."""
    if workload.keyed_ops:
        cost = {
            key: percentile(samples, KEY_PERCENTILE)
            for key, samples in measured.by_key.items()
        }
        return [[cost[key] for key in measured.mix]]
    return measured.rounds


def ops_per_s(workload, measured: Pass) -> float:
    """Round size over round time; the upper quartile over estimates."""
    return percentile(
        [len(r) / sum(r) for r in round_costs(workload, measured)], 75
    )


def op_p50_s(workload, measured: Pass) -> float:
    """Median op cost of a round; the lower quartile over estimates."""
    return percentile(
        [percentile(r, 50) for r in round_costs(workload, measured)], 25
    )


def end_to_end(workload, context, measured: Pass, setups: List[float]) -> Dict[str, float]:
    return {
        "setup_s": statistics.median(setups),
        "ops_per_s": ops_per_s(workload, measured),
        "op_p50_ms": 1000 * op_p50_s(workload, measured),
        "design_cost": workload.design_cost(context, measured.costs),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(workload, plain: Pass, traced: Pass, instruments) -> Dict[str, float]:
    """Per-layer metrics: timings from the traced pass, per-op-type
    latencies and deterministic counters from the untraced one."""
    ops = max(1, traced.attempted)
    totals = instruments.totals()

    def self_ms(name: str) -> float:
        return 1000 * totals.get(name, {}).get("self_s", 0.0) / ops

    def inclusive_ms(name: str) -> float:
        return 1000 * totals.get(name, {}).get("inclusive_s", 0.0) / ops

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    reads_seen = traced.reads
    designs = traced.designs
    cache_hits = sum(stats.get("hits", 0) for _, stats in designs)
    cache_misses = sum(stats.get("misses", 0) for _, stats in designs)
    drains = instruments.drains
    drained = sum(d.records for d in drains)
    drain_views = sum(
        len(d.views_updated) + len(d.views_recomputed) + len(d.views_failed)
        for d in drains
    )
    reads = plain.latencies.get("read", [])
    writes = plain.latencies.get("write", [])
    design_lat = plain.latencies.get("design", [])
    build = traced.cache or {"hits": 0, "misses": 0}
    untraced_rate = ops_per_s(workload, plain)
    traced_rate = ops_per_s(workload, traced)
    return {
        "sql.parse_ms": self_ms("sql.parse"),
        "optimizer.optimize_ms": self_ms("optimizer.optimize"),
        "mvpp.generate_ms": self_ms("mvpp.generate"),
        "mvpp.select_ms": self_ms("mvpp.select"),
        "mvpp.candidates": _mean([count for count, _ in designs]),
        "mvpp.cost_cache_hit_ratio": ratio(cache_hits, cache_hits + cache_misses),
        "mvpp.cost_cache_entries": _mean(
            [stats.get("size", 0) for _, stats in designs]
        ),
        "warehouse.serve_self_ms": self_ms("warehouse.serve"),
        "rewriter.rewrite_ms": self_ms("rewriter.rewrite"),
        "rewriter.views_per_read": _mean([views for views, _ in reads_seen]),
        "executor.lower_ms": self_ms("executor.lower"),
        "executor.run_ms": self_ms("executor.run"),
        "executor.build_cache_hit_ratio": ratio(
            build["hits"], build["hits"] + build["misses"]
        ),
        "executor.rows_per_read": _mean([rows for _, rows in reads_seen]),
        "storage.blocks_read_per_op": traced.io_reads / ops,
        "storage.blocks_written_per_op": traced.io_writes / ops,
        "storage.insert_ms": self_ms("storage.insert"),
        "maintenance.materialize_ms": self_ms("maintenance.materialize"),
        "maintenance.incremental_ms": self_ms("maintenance.incremental"),
        "maintenance.recompute_fallback_frac": instruments.fallback_fraction(
            "maintenance.incremental", "maintenance.materialize"
        ),
        "cdc.drain_ms": self_ms("cdc.drain"),
        "cdc.records_per_drain": ratio(drained, len(drains)),
        "cdc.coalesced_frac": ratio(sum(d.coalesced for d in drains), drained),
        "cdc.recompute_fallback_frac": ratio(
            sum(len(d.views_recomputed) for d in drains), drain_views
        ),
        "cdc.views_failed": float(sum(len(d.views_failed) for d in drains)),
        "cdc.lag_check_ms": inclusive_ms("cdc.lag"),
        "resilience.refresh_view_ms": inclusive_ms("resilience.refresh_view"),
        "resilience.retries": float(
            sum(o.attempts - 1 for o in instruments.refreshes)
        ),
        "read_p50_ms": 1000 * percentile(reads, 50),
        "read_p99_ms": 1000 * percentile(reads, 99),
        "write_p50_ms": 1000 * percentile(writes, 50),
        "write_p99_ms": 1000 * percentile(writes, 99),
        "design_p50_ms": 1000 * percentile(design_lat, 50),
        "design_p90_ms": 1000 * percentile(design_lat, 90),
        "io_blocks_per_op": ratio(plain.first_io or 0, plain.first_ops),
        "staleness_p99_records": percentile(
            [float(x) for x in plain.first_staleness], 99
        ),
        "failed_frac": ratio(plain.failed + traced.failed,
                             plain.attempted + traced.attempted),
        "trace.ops_per_s": traced_rate,
        "trace.untraced_ops_per_s": untraced_rate,
        "trace.overhead_frac": 1.0 - traced_rate / untraced_rate,
    }


def stamp(args, workload) -> Dict[str, Any]:
    """Environment and config: wall times compare only like-for-like."""
    from workloads import DESIGN_QUERIES, ENGINE, JOIN_METHOD, SCALE, STAR

    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "engine": ENGINE,
        "join_method": JOIN_METHOD,
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "scale": 0.0 if workload.name == "design" else SCALE,
        "k": DESIGN_QUERIES if workload.name == "design" else STAR.num_queries,
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    load_program()
    from workloads import WORKLOADS

    with open(SPEC) as handle:
        spec = json.load(handle)
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(WORKLOADS)}")
    workload = WORKLOADS[args.workload]

    if args.trace:
        plain, _ = measure(workload, workload.setup(), workload.stream(args.seed),
                           args.seconds / 2, args.seed, trace=False)
        traced, instruments = measure(workload, workload.setup(),
                                      workload.stream(args.seed),
                                      args.seconds / 2, args.seed, trace=True)
        values = per_layer(workload, plain, traced, instruments)
        runs = [plain, traced]
        if plain.first_io != traced.first_io:
            traced.problems.append("tracing changed the measured block I/O")
        os.makedirs(OUT, exist_ok=True)
        instruments.write(
            os.path.join(OUT, f"trace-{workload.name}-{args.seed}.json"),
            stamp(args, workload),
        )
        wanted = spec["per_layer"]
    else:
        context, first = timed_setup(workload)
        setups = [first]
        measured, _ = measure(workload, context, workload.stream(args.seed),
                              args.seconds, args.seed, trace=False, setups=setups)
        values = end_to_end(workload, context, measured, setups)
        runs = [measured]
        wanted = spec["end_to_end"]

    # Healthy runs fail no op, so a failed op fails the run: otherwise
    # failures in a few ops could hide behind the steady-cost estimates.
    problems = [p for run in runs for p in run.problems] + [
        f"{run.failed} of {run.attempted} ops failed" for run in runs if run.failed
    ]
    for problem in problems:
        print(f"perfbench: check failed: {problem}", file=sys.stderr)
    for run in runs:
        for error in run.errors[:5]:
            print(f"perfbench: op failed: {error}", file=sys.stderr)
    info = stamp(args, workload)
    info["design_digests"] = {str(k): v for k, v in sorted(runs[0].digests.items())}
    print(json.dumps({"stamp": info}, sort_keys=True))
    print(json.dumps({
        "correct": not problems,
        "attempted": sum(run.attempted for run in runs),
        "failed": sum(run.failed for run in runs),
        "metrics": {
            metric["name"]: {"value": values[metric["name"]], "unit": metric["unit"]}
            for metric in wanted
        },
    }))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
