"""Row-at-a-time operators over block-structured tables: the REFERENCE engine.

Each operator consumes input :class:`~repro.storage.table.Table`
objects, charges the *same* block-I/O pattern the analytical cost model
assumes (linear-scan selection, block nested-loop join, ...), and
produces a new table.  ``ExecutionEngine.execute(plan,
engine="reference")`` runs them, and the equivalence suite checks the
vectorized engine against them — see
``tests/executor/test_vectorized_equivalence.py``.  Everything here is
private; the public operator API is :mod:`repro.executor.physical`.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.algebra.expressions import Expression
from repro.algebra.operators import AggregateFunction, AggregateSpec
from repro.catalog.schema import RelationSchema
from repro.errors import ExecutionError
from repro.storage.block import block_count
from repro.storage.table import Table


def _linear_select(source: Table, predicate: Expression) -> Table:
    """σ via linear scan: reads every block of ``source``."""
    out = Table(source.schema, source.blocking_factor, io=source.io)
    for row in source.scan(count_io=True):
        if predicate.evaluate(row) is True:
            out.insert(row)
    return out


def _project_table(
    source: Table, attributes: Sequence[str], distinct: bool = False
) -> Table:
    """π: one pass; output packs more rows per block.

    Bag semantics by default; with ``distinct=True`` duplicate output
    tuples are eliminated (hash-set dedup, first occurrence wins).
    """
    resolved = [source.schema.attribute(a).name for a in attributes]
    schema = source.schema.project(resolved)
    fraction = len(resolved) / max(1, source.schema.arity)
    blocking_factor = source.blocking_factor / max(fraction, 1e-9)
    out = Table(schema, blocking_factor, io=source.io)
    seen: set = set()
    for row in source.scan(count_io=True):
        projected = {name: row[name] for name in resolved}
        if distinct:
            key = tuple(projected[name] for name in resolved)
            if key in seen:
                continue
            seen.add(key)
        out.insert(projected)
    return out


def _nested_loop_join(
    outer: Table,
    inner: Table,
    condition: Optional[Expression],
) -> Table:
    """Block nested-loop join: ``B(outer) + B(outer)·B(inner)`` reads.

    For every outer block the inner relation is rescanned, exactly as the
    paper's cost formula assumes.
    """
    schema = outer.schema.join(inner.schema)
    blocking_factor = _joined_blocking_factor(outer, inner)
    out = Table(schema, blocking_factor, io=outer.io)
    outer.io.read_blocks(outer.num_blocks)
    outer.io.read_blocks(outer.num_blocks * inner.num_blocks)
    inner_rows = inner.rows()
    for outer_row in outer.rows():
        for inner_row in inner_rows:
            merged = {**outer_row, **inner_row}
            if condition is None or condition.evaluate(merged) is True:
                out.insert(merged)
    return out


def _hash_join(
    outer: Table,
    inner: Table,
    equi_pairs: Sequence[Tuple[str, str]],
    residual: Optional[Expression] = None,
) -> Table:
    """In-memory hash join: one pass over each input.

    ``equi_pairs`` holds (outer column, inner column) join keys; any
    ``residual`` predicate is applied to surviving pairs.  Rows with a
    NULL join key never match.
    """
    if not equi_pairs:
        raise ExecutionError("hash join requires at least one equi-join pair")
    schema = outer.schema.join(inner.schema)
    blocking_factor = _joined_blocking_factor(outer, inner)
    out = Table(schema, blocking_factor, io=outer.io)

    inner_keys = [inner.schema.attribute(b).name for _, b in equi_pairs]
    outer_keys = [outer.schema.attribute(a).name for a, _ in equi_pairs]
    buckets: Dict[Tuple[Any, ...], List[Dict[str, Any]]] = {}
    for row in inner.scan(count_io=True):
        key = tuple(row[k] for k in inner_keys)
        if None not in key:
            buckets.setdefault(key, []).append(row)
    for row in outer.scan(count_io=True):
        key = tuple(row[k] for k in outer_keys)
        for match in buckets.get(key, ()):
            merged = {**row, **match}
            if residual is None or residual.evaluate(merged) is True:
                out.insert(merged)
    return out


def _index_join(
    outer: Table,
    inner: Table,
    equi_pair: Tuple[str, str],
    leftover: Optional[Expression] = None,
) -> Table:
    """Index-nested-loop join: probe an index on the stored ``inner`` key.

    The index is a plain value -> positions dict built here from the
    inner rows; the oracle shares no index with the engine it checks.
    Its build charges ``B(inner)`` (after a fault-injecting proxy's read
    fault) unless a join has charged it since the inner table last
    changed, as recorded in the table's
    :attr:`~repro.storage.columnar.ColumnView.charged_builds`.  Then
    ``B(outer)``, and per outer row with a non-NULL key one probe read
    plus the blocks holding its matches (a proxy draws a read fault on
    each probe).  NULL keys match nothing.  The ``leftover`` predicate
    filters the joined rows, as a selection above the join would.
    """
    outer_key = outer.schema.attribute(equi_pair[0]).name
    inner_key = inner.schema.attribute(equi_pair[1]).name
    charged = inner.column_view().charged_builds
    if inner_key not in charged:
        inner.rows()  # a proxy draws its read fault here
        inner.io.read_blocks(inner.num_blocks)
        charged.add(inner_key)
    stored = inner._rows
    index: Dict[Any, List[int]] = {}
    for position, row in enumerate(stored):
        index.setdefault(row[inner_key], []).append(position)

    schema = outer.schema.join(inner.schema)
    blocking_factor = _joined_blocking_factor(outer, inner)
    joined = Table(schema, blocking_factor, io=outer.io)
    for row in outer.scan(count_io=True):
        key = row[outer_key]
        if key is None:
            continue
        positions = index.get(key, [])
        inner.io.read_blocks(
            1 + block_count(len(positions), inner.blocking_factor)
        )
        rows = stored if type(inner) is Table else inner.rows()
        for position in positions:
            joined.insert({**row, **rows[position]})
    if leftover is None:
        return joined
    out = Table(schema, blocking_factor, io=outer.io)
    for row in joined.rows():
        if leftover.evaluate(row) is True:
            out.insert(row)
    return out


def _sort_merge_join(
    outer: Table,
    inner: Table,
    equi_pairs: Sequence[Tuple[str, str]],
    residual: Optional[Expression] = None,
) -> Table:
    """Sort-merge join on one or more equi-join keys.

    Charges one read pass plus ``B·⌈log2 B⌉`` sort I/O per input (external
    merge sort accounting, matching
    :class:`repro.optimizer.cost_model.SortMergeCostModel`), then merges
    the sorted runs.  Rows with NULL join keys never match.
    """
    import math

    if not equi_pairs:
        raise ExecutionError("sort-merge join requires at least one equi-join pair")
    outer_keys = [outer.schema.attribute(a).name for a, _ in equi_pairs]
    inner_keys = [inner.schema.attribute(b).name for _, b in equi_pairs]

    def charge_sort(table: Table) -> None:
        blocks = table.num_blocks
        table.io.read_blocks(blocks)
        if blocks > 1:
            table.io.read_blocks(int(blocks * math.ceil(math.log2(blocks))))

    charge_sort(outer)
    charge_sort(inner)

    def sortable(rows, keys):
        return sorted(
            (r for r in rows if all(r[k] is not None for k in keys)),
            key=lambda r: tuple(r[k] for k in keys),
        )

    left_rows = sortable(outer.rows(), outer_keys)
    right_rows = sortable(inner.rows(), inner_keys)

    schema = outer.schema.join(inner.schema)
    out = Table(schema, _joined_blocking_factor(outer, inner), io=outer.io)
    i = j = 0
    while i < len(left_rows) and j < len(right_rows):
        left_key = tuple(left_rows[i][k] for k in outer_keys)
        right_key = tuple(right_rows[j][k] for k in inner_keys)
        if left_key < right_key:
            i += 1
        elif left_key > right_key:
            j += 1
        else:
            # Emit the cross product of the two equal-key runs.
            run_start = j
            while (
                j < len(right_rows)
                and tuple(right_rows[j][k] for k in inner_keys) == left_key
            ):
                j += 1
            run_end = j
            while (
                i < len(left_rows)
                and tuple(left_rows[i][k] for k in outer_keys) == left_key
            ):
                for index in range(run_start, run_end):
                    merged = {**left_rows[i], **right_rows[index]}
                    if residual is None or residual.evaluate(merged) is True:
                        out.insert(merged)
                i += 1
    return out


def _aggregate_table(
    source: Table,
    group_by: Sequence[str],
    specs: Sequence[AggregateSpec],
    output_schema: RelationSchema,
) -> Table:
    """γ: hash aggregation in one pass over the input."""
    keys = [source.schema.attribute(k).name for k in group_by]
    groups: Dict[Tuple[Any, ...], List[Dict[str, Any]]] = {}
    for row in source.scan(count_io=True):
        group_key = tuple(row[k] for k in keys)
        groups.setdefault(group_key, []).append(row)
    if not groups and not keys:
        groups[()] = []  # global aggregate over an empty input

    out = Table(output_schema, source.blocking_factor, io=source.io)
    for group_key, rows in groups.items():
        result: Dict[str, Any] = dict(zip(keys, group_key))
        for spec in specs:
            result[spec.alias] = _evaluate_aggregate(spec, rows)
        out.insert(result)
    return out


def _sort_table(source: Table, keys: Sequence[Tuple[str, bool]]) -> Table:
    """τ (ORDER BY): external-sort I/O accounting, stable in-memory sort.

    Mixed ascending/descending keys are handled by repeated stable sorts
    from the least-significant key outward.  NULLs order first on
    ascending keys (and last on descending), matching most engines'
    NULLS FIRST default.
    """
    resolved = [
        (source.schema.attribute(name).name, bool(ascending))
        for name, ascending in keys
    ]
    import math

    blocks = source.num_blocks
    source.io.read_blocks(blocks)
    if blocks > 1:
        source.io.read_blocks(int(blocks * math.ceil(math.log2(blocks))))

    rows = source.rows()
    for name, ascending in reversed(resolved):
        rows.sort(
            key=lambda r, n=name: (r[n] is not None, r[n])
            if r[n] is not None
            else (False, 0),
            reverse=not ascending,
        )
    out = Table(source.schema, source.blocking_factor, io=source.io)
    for row in rows:
        out.insert(row)
    return out


def _limit_table(source: Table, count: int) -> Table:
    """LIMIT: read only the blocks holding the first ``count`` rows."""
    needed_blocks = block_count(min(count, source.cardinality), source.blocking_factor)
    source.io.read_blocks(needed_blocks)
    out = Table(source.schema, source.blocking_factor, io=source.io)
    for row in source.rows()[:count]:
        out.insert(row)
    return out


def _materialize_table(result: Table) -> Table:
    """Charge the block writes of storing ``result`` persistently."""
    result.io.write_blocks(result.num_blocks)
    return result


def _evaluate_aggregate(spec: AggregateSpec, rows: List[Dict[str, Any]]) -> Any:
    if spec.function is AggregateFunction.COUNT:
        if spec.attribute is None:
            return len(rows)
        return sum(1 for r in rows if r[spec.attribute] is not None)
    values = [r[spec.attribute] for r in rows if r[spec.attribute] is not None]
    if not values:
        return None
    if spec.function is AggregateFunction.SUM:
        return float(sum(values))
    if spec.function is AggregateFunction.AVG:
        return float(sum(values)) / len(values)
    if spec.function is AggregateFunction.MIN:
        return min(values)
    if spec.function is AggregateFunction.MAX:
        return max(values)
    raise ExecutionError(f"unsupported aggregate {spec.function}")


def _joined_blocking_factor(outer: Table, inner: Table) -> float:
    """Joined rows are wider: records-per-block combine harmonically."""
    from repro.executor.physical import joined_blocking_factor

    return joined_blocking_factor(outer.blocking_factor, inner.blocking_factor)
