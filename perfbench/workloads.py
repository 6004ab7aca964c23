"""Seeded op streams, set-up and op execution for the benchmark workloads.

Every workload is a closed loop with one client.  Its op stream is an
endless sequence of *rounds*: each round holds a fixed mix of op kinds
(sized by the workload's fq / fu weights) in an order drawn from the
benchmark seed, with seed-drawn row contents.  A run executes whole
rounds, so every run sees the same mix whatever its length, and the seed
only moves the order and the rows.  That keeps the figures comparable
across seeds.  Rounds are generated one at a time, between rounds and
outside the measured op time, so however fast the program gets, the
stream never runs dry and its memory stays bounded.

The warehouses themselves are fixed: the star schema, its queries and
its loaded rows do not depend on the benchmark seed, so ``design_cost``
and per-query work are identical on every run.
"""

from __future__ import annotations

import hashlib
import random
from collections import Counter
from dataclasses import dataclass
from itertools import islice
from typing import Any, Dict, Iterable, Iterator, List, Mapping, Tuple

from repro.executor.engine import HASH, REFERENCE, ExecutionEngine
from repro.warehouse import DataWarehouse
from repro.workload.datagen import star_rows
from repro.workload.star_schema import ATTR_DISTINCT, StarConfig, star_workload

#: The served warehouse: k=16 star queries with aggregates, scale 0.02
#: (4,000 fact rows, 100 rows per dimension).
STAR = StarConfig(num_queries=16, include_aggregates=True, seed=0)
SCALE = 0.02
DATA_SEED = 0
#: Design ops rotate through this fixed pool of k=32 star workloads.
DESIGN_QUERIES = 32
DESIGN_POOL = (0, 1, 2)
ROWS_PER_WRITE = 8
#: Bounded staleness of ingest reads, in change records.
MAX_STALENESS = 32
ENGINE = "vectorized"
#: Hash joins, so serving reuses join build sides (``BuildSideCache``)
#: until a write invalidates them.
JOIN_METHOD = HASH

Op = Tuple[Any, ...]
Round = List[Op]


def _rng(seed: int, label: str) -> random.Random:
    digest = hashlib.sha256(f"{label}:{seed}".encode()).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))


def _weighted_counts(weights: Mapping[str, float]) -> Dict[str, int]:
    """Ops per round for each name: ``round(weight / min weight)``."""
    low = min(weights.values())
    return {name: round(w / low) for name, w in weights.items()}


def _read_round(workload) -> List[str]:
    """One round of query names, each repeated ``round(fq / min fq)``
    times."""
    counts = _weighted_counts(
        {spec.name: spec.frequency for spec in workload.queries}
    )
    return [name for name, count in counts.items() for _ in range(count)]


def digest_rows(rows) -> Counter:
    """A multiset of rows, independent of row order and dict order."""
    return Counter(tuple(sorted(row.items())) for row in rows)


@dataclass
class OpResult:
    """What one op returned that the benchmark measures or checks."""

    failed: bool = False
    served: Any = None
    design: Any = None


class Workload:
    """Base class: one op stream shape and the warehouse it runs on."""

    name = ""
    #: Set-ups per run; ``setup_s`` is their median.  The first builds
    #: the measured warehouse, the others are spread over the run
    #: (between rounds, outside the measured time) so that they meet the
    #: same machine as the ops do, not one burst of it.
    setup_repeats = 5
    #: Whether every op of one key (``op[:2]``: kind and query, pool
    #: seed or relation) does the same work, so that a key's faster
    #: samples measure its steady cost.
    keyed_ops = True

    def stream(self, seed: int) -> Iterator[Round]:
        """The endless round stream of ``seed``.  Anything taken from the
        program (query names, loaded rows) is read here, up front; the
        rounds themselves are drawn from the seed alone."""
        raise NotImplementedError

    def setup(self):
        raise NotImplementedError

    def execute(self, context, op: Op) -> OpResult:
        raise NotImplementedError

    def io_counter(self, context):
        return None

    def design_cost(self, context, costs: Mapping[int, float]) -> float:
        """The chosen design's estimated total cost (blocks per period).

        ``costs`` maps each design op's star seed to its design's cost."""
        return float(context.design_result.total_cost)

    def final_check(self, context) -> List[str]:
        return []

    def check_read(self, context, op: Op, result: OpResult) -> List[str]:
        return []


# ----------------------------------------------------------------- design
class DesignWorkload(Workload):
    name = "design"
    #: Generating the pool takes milliseconds, so many repeats.
    setup_repeats = 51

    def stream(self, seed: int) -> Iterator[Round]:
        rng = _rng(seed, "design")
        while True:
            order = list(DESIGN_POOL)
            rng.shuffle(order)
            yield [("design", star_seed) for star_seed in order]

    def setup(self) -> Dict[int, Any]:
        return {
            star_seed: star_workload(
                StarConfig(
                    num_queries=DESIGN_QUERIES,
                    include_aggregates=True,
                    seed=star_seed,
                )
            )
            for star_seed in DESIGN_POOL
        }

    def execute(self, pool, op: Op) -> OpResult:
        warehouse = DataWarehouse.from_workload(pool[op[1]], engine=ENGINE)
        return OpResult(design=warehouse.design())

    def design_cost(self, pool, costs: Mapping[int, float]) -> float:
        # Mean over the whole pool (every run designs it at least once),
        # so it does not depend on the seed's order.
        return sum(costs[star_seed] for star_seed in DESIGN_POOL) / len(DESIGN_POOL)


def design_digest(result) -> str:
    """A stable digest of a design's materialized-view set."""
    signatures = sorted(
        str(vertex.operator.signature) for vertex in result.materialized
    )
    payload = "\n".join(signatures) + f"\n{result.total_cost!r}"
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


# ------------------------------------------------------- served warehouse
class _StarWarehouseWorkload(Workload):
    """Workloads that run on the designed, loaded k=16 star warehouse."""

    streaming = False

    def setup(self) -> DataWarehouse:
        warehouse = DataWarehouse.from_workload(
            star_workload(STAR), engine=ENGINE, join_method=JOIN_METHOD
        )
        warehouse.design()
        for relation, rows in sorted(star_rows(STAR, SCALE, DATA_SEED).items()):
            warehouse.load(relation, rows)
        warehouse.materialize()
        if self.streaming:
            warehouse.enable_streaming()
        return warehouse

    def io_counter(self, warehouse):
        return warehouse.database.io

    def _read(self, warehouse, op: Op, **kwargs) -> OpResult:
        served = warehouse.serve(op[1], **kwargs)
        return OpResult(failed=served.degraded, served=served)

    def check_read(self, warehouse, op: Op, result: OpResult) -> List[str]:
        """The served rows equal the REFERENCE engine's answer from base
        relations (hash joins keep the row-at-a-time oracle affordable)."""
        if result.served.max_staleness > 0:
            return []
        oracle = ExecutionEngine(warehouse.database, JOIN_METHOD, engine=REFERENCE)
        expected = oracle.execute(warehouse.query_plan(op[1], use_views=False))
        if digest_rows(expected.rows()) != digest_rows(result.served.table.rows()):
            return [f"{op[1]}: served rows differ from the reference answer"]
        return []

    def final_check(self, warehouse) -> List[str]:
        """After a final drain, every view equals a full recompute."""
        problems = []
        if warehouse.streaming is not None:
            report = warehouse.drain_changes()
            if report.views_failed:
                problems.append(f"final drain failed: {report.views_failed}")
        for view in warehouse.views:
            recomputed = warehouse.engine.execute(view.plan)
            stored = warehouse.database.table(view.name)
            if digest_rows(recomputed.rows()) != digest_rows(stored.rows()):
                problems.append(f"{view.name} differs from a full recompute")
        return problems


def _fact_row(rng: random.Random, fact_id: int, dimension_rows: int) -> Dict[str, int]:
    row = {"id": fact_id}
    for index in range(STAR.num_dimensions):
        row[f"Dim{index + 1}_fk"] = rng.randrange(dimension_rows)
    row["measure"] = rng.randrange(10_000)
    row["qty"] = rng.randint(1, 100)
    return row


def _dimension_row(rng: random.Random, dim_id: int) -> Dict[str, object]:
    return {
        "id": dim_id,
        "attr": f"a{rng.randrange(ATTR_DISTINCT)}",
        "level": rng.randrange(10),
    }


FACT_ROWS = max(1, int(STAR.fact_rows * SCALE))
DIMENSION_ROWS = max(1, int(STAR.dimension_rows * SCALE))


class ServeWorkload(_StarWarehouseWorkload):
    name = "serve"

    def stream(self, seed: int) -> Iterator[Round]:
        return self._rounds(_rng(seed, "serve"), _read_round(star_workload(STAR)))

    @staticmethod
    def _rounds(rng: random.Random, names: List[str]) -> Iterator[Round]:
        while True:
            order = list(names)
            rng.shuffle(order)
            yield [("read", name) for name in order]

    def execute(self, warehouse, op: Op) -> OpResult:
        return self._read(warehouse, op)

    def final_check(self, warehouse) -> List[str]:
        return []


class IngestWorkload(_StarWarehouseWorkload):
    name = "ingest"
    streaming = True
    #: A read pays for a drain only when the lag has crossed its bound.
    keyed_ops = False
    #: Per round: 13 reads (68%), 5 inserts (26%) and 1 delete (5%) of 8
    #: fact rows each.  Short rounds spread the writes evenly, so about
    #: one drain (lag past 32 records) falls in each.
    READS, WRITES, DELETES = 13, 5, 1

    def stream(self, seed: int) -> Iterator[Round]:
        return self._rounds(
            _rng(seed, "ingest"),
            _read_round(star_workload(STAR)),
            list(star_rows(STAR, SCALE, DATA_SEED)["Fact"]),
        )

    def _rounds(self, rng: random.Random, names: List[str],
                loaded: List[Dict[str, int]]) -> Iterator[Round]:
        reads: List[str] = []
        live: List[Dict[str, int]] = []
        next_id = FACT_ROWS
        index = 0
        while True:
            kinds = (
                ["read"] * self.READS
                + ["write"] * self.WRITES
                + ["delete"] * self.DELETES
            )
            rng.shuffle(kinds)
            if index == 0:
                first = kinds.index("write")
                kinds = kinds[first:] + kinds[:first]
            ops: Round = []
            for kind in kinds:
                if kind == "read":
                    if not reads:
                        # The reads follow fq: whole shuffled read rounds.
                        reads = list(names)
                        rng.shuffle(reads)
                    ops.append(("read", reads.pop()))
                elif kind == "write":
                    rows = []
                    for _ in range(ROWS_PER_WRITE):
                        rows.append(_fact_row(rng, next_id, DIMENSION_ROWS))
                        next_id += 1
                    live.extend(rows)
                    ops.append(("write", "Fact", tuple(rows)))
                else:
                    pool = live if len(live) >= ROWS_PER_WRITE else loaded
                    rows = [
                        pool.pop(rng.randrange(len(pool)))
                        for _ in range(ROWS_PER_WRITE)
                    ]
                    ops.append(("delete", "Fact", tuple(rows)))
            index += 1
            yield ops

    def execute(self, warehouse, op: Op) -> OpResult:
        if op[0] == "read":
            result = self._read(warehouse, op, max_staleness=MAX_STALENESS)
            if result.served.max_staleness > MAX_STALENESS:
                result.failed = True
            return result
        if op[0] == "write":
            warehouse.apply_update(op[1], op[2], policy="stream")
        else:
            warehouse.apply_delete(op[1], op[2], policy="stream")
        return OpResult()


class RefreshWorkload(_StarWarehouseWorkload):
    name = "refresh"

    def stream(self, seed: int) -> Iterator[Round]:
        counts = _weighted_counts(star_workload(STAR).update_frequencies)
        return self._rounds(_rng(seed, "refresh"), sorted(
            name for name, count in counts.items() for _ in range(count)
        ))

    @staticmethod
    def _rounds(rng: random.Random, relations: List[str]) -> Iterator[Round]:
        next_id = {"Fact": FACT_ROWS}
        while True:
            order = list(relations)
            rng.shuffle(order)
            ops: Round = []
            for relation in order:
                start = next_id.get(relation, DIMENSION_ROWS)
                if relation == "Fact":
                    rows = [
                        _fact_row(rng, start + i, DIMENSION_ROWS)
                        for i in range(ROWS_PER_WRITE)
                    ]
                else:
                    rows = [
                        _dimension_row(rng, start + i)
                        for i in range(ROWS_PER_WRITE)
                    ]
                next_id[relation] = start + ROWS_PER_WRITE
                ops.append(("write", relation, tuple(rows)))
            yield ops

    def execute(self, warehouse, op: Op) -> OpResult:
        warehouse.apply_update(op[1], op[2], policy="incremental")
        return OpResult()


WORKLOADS: Dict[str, Workload] = {
    workload.name: workload
    for workload in (
        DesignWorkload(),
        ServeWorkload(),
        IngestWorkload(),
        RefreshWorkload(),
    )
}


def stream_fingerprint(stream: Iterable[Round], rounds: int) -> str:
    """A digest of an op stream's first ``rounds`` rounds, for
    bit-identity checks."""
    return hashlib.sha256(repr(list(islice(stream, rounds))).encode()).hexdigest()
