"""Design-time scaling report (not gated): how design() grows with k.

    python3 perfbench/scaling.py

For each query count k = 4/16/64/128 it designs a star workload with
aggregates (``star_workload(StarConfig(num_queries=k,
include_aggregates=True))``, star seed 0)
several times and reports the median ``design()`` wall time, the shares
of it spent in Figure-4 generation (``generate_mvpps``, inclusive) and
Figure-9 selection (the registered selection strategy, inclusive), and
the cost cache's hit ratio.  The curve decides whether multi-query
optimization is worth building: it is, only if design time dominates at
realistic k.  Prints a table and, as the last line, a JSON document.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import sys
import time

from run import load_program

#: The query counts k of the curve and the repeats at each; the large
#: workloads take seconds per design.
REPEATS = {4: 7, 16: 5, 64: 3, 128: 1}
STAR_SEED = 0


def scale_point(k: int) -> dict:
    from spans import Instruments
    from repro.warehouse import DataWarehouse
    from repro.workload.star_schema import StarConfig, star_workload

    workload = star_workload(
        StarConfig(num_queries=k, include_aggregates=True, seed=STAR_SEED)
    )
    walls, fig4, fig9, ratios = [], [], [], []
    for _ in range(REPEATS[k]):
        warehouse = DataWarehouse.from_workload(workload)
        with Instruments(trace=True) as instruments:
            started = time.perf_counter()
            result = warehouse.design()
            wall = time.perf_counter() - started
        totals = instruments.totals()
        walls.append(wall)
        fig4.append(totals["mvpp.generate"]["inclusive_s"] / wall)
        fig9.append(totals["mvpp.select"]["inclusive_s"] / wall)
        ratios.append(result.cache_stats["hit_ratio"])
    return {
        "k": k,
        "repeats": len(walls),
        "design_p50_ms": 1000 * statistics.median(walls),
        "figure4_share": statistics.median(fig4),
        "figure9_share": statistics.median(fig9),
        "cost_cache_hit_ratio": statistics.median(ratios),
    }


def main() -> int:
    load_program()
    points = [scale_point(k) for k in REPEATS]
    print(f"{'k':>4} {'design_p50_ms':>14} {'fig4':>6} {'fig9':>6} {'cache_hit':>9}")
    for p in points:
        print(
            f"{p['k']:>4} {p['design_p50_ms']:>14.1f} {p['figure4_share']:>6.2f} "
            f"{p['figure9_share']:>6.2f} {p['cost_cache_hit_ratio']:>9.3f}"
        )
    print(json.dumps({
        "stamp": {
            "python": platform.python_version(),
            "nproc": os.cpu_count(),
            "platform": platform.platform(),
            "seed": STAR_SEED,
        },
        "points": points,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
