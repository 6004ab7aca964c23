"""The physical operator layer of the vectorized executor.

Logical plans (:mod:`repro.algebra.operators`) describe *what* relation
to compute; the classes here describe *how*.  A
:class:`PhysicalOperator` tree is produced by :class:`PhysicalPlanner`
(schemas, blocking factors, join splits and compiled predicate kernels
are all resolved once per lowering, not once per operator invocation),
then driven by :meth:`repro.executor.engine.ExecutionEngine.execute`.
The engine keeps each plan's lowered tree in its :class:`PlanCache`
and runs it again on the next execute of the same plan object: a
:class:`Scan` is bound to its table from the executing database for
one run and unbound when the run ends, and a table whose schema object
or blocking factor changed since the lowering sends the plan back to
the planner.

Operators are columnar internally: each ``_compute`` materializes its
full output as column lists, mirroring the row engine's
materialize-every-operator execution model so block I/O accounting is
*identical*.  The public :meth:`PhysicalOperator.batches` protocol
slices that output into fixed-size :class:`~repro.executor.batch.Batch`
chunks.

Equivalence contract (enforced by
``tests/executor/test_vectorized_equivalence.py``): every operator
produces bit-identical rows, in the same order where the row engine
defines one, and charges the same reads/writes to the same
:class:`~repro.storage.block.IOCounter` in the same sequence — so
seeded fault injection (:mod:`repro.resilience.faults`) draws the exact
same decision stream under either engine.
"""

from __future__ import annotations

import heapq
import math
from operator import itemgetter
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro import obs
from repro.algebra import operators as L
from repro.algebra import predicates as P
from repro.algebra.expressions import Expression, column, compare
from repro.errors import ExecutionError, StorageError
from repro.executor.batch import (
    DEFAULT_BATCH_SIZE,
    compile_pair,
    compile_selection,
    iter_batches,
    leading_equality,
    resolve_joined_column,
)
from repro.storage.block import block_count
from repro.storage.columnar import hash_groups
from repro.storage.table import DEFAULT_BLOCKING_FACTOR, Table

__all__ = [
    "ExecutionContext",
    "PhysicalOperator",
    "Scan",
    "Filter",
    "Projection",
    "NestedLoopJoin",
    "HashJoin",
    "MergeJoin",
    "IndexNestedLoopJoin",
    "HashAggregate",
    "SortOperator",
    "LimitOperator",
    "BuildSideCache",
    "PlanCache",
    "PhysicalPlanner",
    "charge_materialize",
    "execute_operator",
    "joined_blocking_factor",
    "scan_of",
]


def joined_blocking_factor(outer_bf: float, inner_bf: float) -> float:
    """Joined rows are wider: records-per-block combine harmonically."""
    bf_outer = max(outer_bf, 1e-9)
    bf_inner = max(inner_bf, 1e-9)
    return 1.0 / (1.0 / bf_outer + 1.0 / bf_inner)


class ExecutionContext:
    """Per-execute state threaded through an operator tree.

    ``io`` is the counter explicit charges go to (the database's shared
    counter in engine runs); scans of stored tables always charge the
    *table's* counter, exactly like the row operators.  ``cache`` is the
    engine's :class:`BuildSideCache` (``None`` disables reuse, e.g.
    under fault injection, where skipping a build would desynchronize
    the seeded fault stream).
    """

    __slots__ = ("io", "batch_size", "cache", "database", "record")

    def __init__(
        self,
        io,
        batch_size: int = DEFAULT_BATCH_SIZE,
        cache: Optional["BuildSideCache"] = None,
        database=None,
        record: bool = False,
    ):
        self.io = io
        self.batch_size = batch_size
        self.cache = cache
        self.database = database
        self.record = record


class PhysicalOperator:
    """Base class: a node of the physical plan.

    Subclasses implement ``_compute(ctx) -> (columns, row_count)``;
    :meth:`batches` wraps that into the chunked protocol.  ``schema``
    and ``blocking_factor`` are fixed at plan time.
    """

    name = "physical"
    __slots__ = ("schema", "blocking_factor", "children")

    def __init__(self, schema, blocking_factor: float, children: Tuple["PhysicalOperator", ...]):
        self.schema = schema
        self.blocking_factor = blocking_factor
        self.children = children

    def _compute(self, ctx: ExecutionContext) -> Tuple[List[List[Any]], int]:
        raise NotImplementedError

    def batches(self, ctx: ExecutionContext):
        """Yield the operator's output as fixed-size columnar batches."""
        columns, length = materialize(self, ctx)
        yield from iter_batches(self.schema, columns, length, ctx.batch_size)

    @property
    def label(self) -> str:
        return self.name

    def describe(self, indent: int = 0) -> str:
        """Indented multi-line rendering of the physical subtree."""
        lines = ["  " * indent + self.label]
        for child in self.children:
            lines.append(child.describe(indent + 1))
        return "\n".join(lines)

    def walk(self):
        """Post-order traversal (children before parents)."""
        for child in self.children:
            yield from child.walk()
        yield self


def materialize(op: PhysicalOperator, ctx: ExecutionContext) -> Tuple[List[List[Any]], int]:
    """Run ``op`` fully, recording per-operator metrics when enabled."""
    if not ctx.record:
        return op._compute(ctx)
    before = ctx.io.snapshot()
    columns, length = op._compute(ctx)
    registry = obs.metrics()
    registry.counter("executor.rows_produced", operator=op.name).inc(length)
    registry.counter("executor.batches_produced", operator=op.name).inc(
        -(-length // ctx.batch_size) if length else 0
    )
    registry.histogram("executor.operator_io", operator=op.name).observe(
        float(ctx.io.since(before).total)
    )
    return columns, length


class _Prepared:
    """A child readied for consumption: materialized now, charged later.

    The row operators execute subtrees first and charge input reads at
    their own boundary (e.g. nested-loop charges ``B + B·B`` *after*
    both inputs exist).  ``_prepare`` mirrors the subtree execution,
    ``_finish_scan`` / ``_finish_rows`` mirror the charge, preserving
    both the I/O totals and the fault-injection draw order.
    """

    __slots__ = ("op", "columns", "length")

    def __init__(self, op, columns, length):
        self.op = op
        self.columns = columns
        self.length = length


def _prepare(op: PhysicalOperator, ctx: ExecutionContext) -> _Prepared:
    if isinstance(op, Scan):
        return _Prepared(op, None, op.require_table().cardinality)
    columns, length = materialize(op, ctx)
    return _Prepared(op, columns, length)


def _blocks(prep: _Prepared) -> int:
    if isinstance(prep.op, Scan):
        return prep.op.require_table().num_blocks
    return block_count(prep.length, prep.op.blocking_factor)


def _finish_scan(prep: _Prepared, ctx: ExecutionContext):
    """Consume like ``table.scan(count_io=True)`` would."""
    if isinstance(prep.op, Scan):
        return prep.op.touch_scan(ctx)
    ctx.io.read_blocks(block_count(prep.length, prep.op.blocking_factor))
    return prep.columns, prep.length


def _finish_rows(prep: _Prepared, ctx: ExecutionContext):
    """Consume like ``table.rows()`` would (no read charge)."""
    if isinstance(prep.op, Scan):
        return prep.op.touch_rows(ctx)
    return prep.columns, prep.length


def _charge_io(prep: _Prepared, ctx: ExecutionContext):
    """The counter explicit charges for this input go to."""
    if isinstance(prep.op, Scan):
        return prep.op.require_table().io
    return ctx.io


# ------------------------------------------------------------------- leaves
class Scan(PhysicalOperator):
    """Leaf: a stored table (base relation or materialized view).

    ``schema`` and ``blocking_factor`` are the table's at lowering.
    The table handle (a fault-injecting proxy when the database has an
    injector attached) is bound by the lowering or by :meth:`bind`, and
    an engine run drops it again (:func:`unbind`), so a cached tree
    holds no table between runs.  The consuming operator decides *how*
    it is touched — ``touch_scan`` reproduces a counted
    ``scan()`` (one fault draw plus a full read charge), ``touch_rows``
    reproduces ``rows()`` (one fault draw, no charge).  Plain tables
    skip the proxy ceremony and charge directly.
    """

    name = "scan"
    __slots__ = ("relation_name", "table")

    def __init__(
        self,
        relation_name: str,
        table: Optional[Table] = None,
        schema=None,
        blocking_factor: Optional[float] = None,
    ):
        if table is not None:
            schema = table.schema
            blocking_factor = table.blocking_factor
        elif schema is None:
            raise ExecutionError(
                f"unbound scan of {relation_name!r} needs an explicit schema"
            )
        super().__init__(
            schema,
            blocking_factor if blocking_factor is not None else DEFAULT_BLOCKING_FACTOR,
            (),
        )
        self.relation_name = relation_name
        self.table = table

    def bind(self, table: Table) -> bool:
        """Bind ``table`` for one run; ``False`` (and nothing bound) when
        its schema object or blocking factor is not the one this scan
        was lowered for, so operators above would resolve stale
        positions."""
        if (
            table.schema is not self.schema
            or table.blocking_factor != self.blocking_factor
        ):
            return False
        self.table = table
        return True

    def require_table(self) -> Table:
        if self.table is None:
            raise ExecutionError(
                f"scan of {self.relation_name!r} is not bound to a table"
            )
        return self.table

    def _columns(self) -> List[List[Any]]:
        view = self.require_table().column_view()
        return [view.column(name) for name in self.schema.attribute_names]

    def touch_scan(self, ctx: ExecutionContext):
        table = self.require_table()
        if type(table) is Table:
            table.io.read_blocks(table.num_blocks)
        else:
            # Proxy: let scan() draw its fault decision and charge.
            iterator = table.scan(count_io=True)
            next(iterator, None)
            iterator.close()
        return self._columns(), table.cardinality

    def touch_rows(self, ctx: ExecutionContext):
        table = self.require_table()
        if type(table) is not Table:
            table.rows()  # fault draw; the copy itself is discarded
        return self._columns(), table.cardinality

    def positions(self, name: str, ctx: ExecutionContext, operator: str):
        """The table's cached value -> positions index of column ``name``.

        An in-memory access path that charges no I/O: the consuming
        ``operator`` has already touched the scan, as a linear scan
        would.  Counted as ``executor.index_lookups{operator}``.
        """
        if ctx.record:
            obs.metrics().counter(
                "executor.index_lookups", operator=operator
            ).inc()
        return self.require_table().column_view().positions(name)

    def charge_index_build(self, name: str) -> None:
        """Charge ``B(table)`` for building the index of column ``name``.

        Charged once per write of the table: a column already in the
        view's ``charged_builds`` costs nothing.  A fault-injecting
        proxy draws its read fault first, as ``rows()`` would.
        """
        table = self.require_table()
        charged = table.column_view().charged_builds
        if name in charged:
            return
        if type(table) is not Table:
            table.rows()  # fault draw; the copy itself is discarded
        table.io.read_blocks(table.num_blocks)
        charged.add(name)

    def _compute(self, ctx: ExecutionContext):
        return self.touch_scan(ctx)

    @property
    def label(self) -> str:
        if self.table is None:
            return f"Scan[{self.relation_name}] (unbound)"
        return (
            f"Scan[{self.relation_name}] "
            f"(rows={self.table.cardinality}, bf={self.blocking_factor:g})"
        )


# -------------------------------------------------------------- unary nodes
class Filter(PhysicalOperator):
    """σ via linear scan: a selection vector, then one gather per column.

    The compiled :func:`~repro.executor.batch.compile_selection` kernel
    evaluates each conjunct on the rows that survived the earlier ones;
    a predicate it cannot compile (a column reference that does not
    resolve) is evaluated on row dicts instead, counted as
    ``executor.row_fallbacks{operator="filter"}``.

    Over a stored table, a leading ``column = literal`` conjunct
    (:func:`~repro.executor.batch.leading_equality`) is read from the
    table's position index: its hits merged with the column's NULL
    positions, which stay unknown, seed the same cascade.  The scan is
    still touched and charged in full.
    """

    name = "filter"
    __slots__ = ("predicate", "_select", "_names", "_lookup")

    def __init__(self, child: PhysicalOperator, predicate: Expression):
        super().__init__(child.schema, child.blocking_factor, (child,))
        self.predicate = predicate
        self._names = child.schema.attribute_names
        self._select = compile_selection(predicate, self._names)
        self._lookup = None
        if self._select is not None and isinstance(child, Scan):
            self._lookup = leading_equality(predicate, self._names)

    def _compute(self, ctx: ExecutionContext):
        child = self.children[0]
        columns, length = _finish_scan(_prepare(child, ctx), ctx)
        first = None
        if self._lookup is not None:
            name, value = self._lookup
            index = child.positions(name, ctx, self.name)
            hits = index.get(value, ())
            nulls = index.get(None, ())
            kept = list(heapq.merge(hits, nulls)) if nulls else hits
            first = (kept, nulls)
        keep = _selected(
            self._select, self.predicate, self._names, columns, length,
            ctx, self.name, first,
        )
        take = _taker(keep, length)
        return [take(col) for col in columns], len(keep)

    @property
    def label(self) -> str:
        vectorized = "vectorized" if self._select is not None else "row-fallback"
        return f"Filter[{L._pretty(self.predicate)}] ({vectorized})"


def _selected(
    select, predicate, names, columns, length, ctx, operator, first=None
) -> List[int]:
    """Ascending positions where ``predicate`` is ``True``.

    ``select`` is the predicate's compiled kernel (``first`` as
    :func:`~repro.executor.batch.compile_selection` takes it); when it
    did not compile (``None``) the predicate is evaluated on row dicts
    keyed by ``names``, counted as ``executor.row_fallbacks{operator}``.
    """
    if select is not None:
        return select(columns, length, first)
    evaluate = predicate.evaluate
    keep = [
        position
        for position, values in enumerate(zip(*columns))
        if evaluate(dict(zip(names, values))) is True
    ]
    if ctx.record:
        obs.metrics().counter("executor.row_fallbacks", operator=operator).inc()
    return keep


class Projection(PhysicalOperator):
    """π: column picking; DISTINCT dedups on the projected tuple."""

    name = "project"
    __slots__ = ("attributes", "distinct", "_indices")

    def __init__(
        self,
        child: PhysicalOperator,
        attributes: Sequence[str],
        distinct: bool = False,
    ):
        resolved = [child.schema.attribute(a).name for a in attributes]
        schema = child.schema.project(resolved)
        fraction = len(resolved) / max(1, child.schema.arity)
        blocking_factor = child.blocking_factor / max(fraction, 1e-9)
        super().__init__(schema, blocking_factor, (child,))
        self.attributes = tuple(resolved)
        self.distinct = bool(distinct)
        names = child.schema.attribute_names
        self._indices = [names.index(name) for name in resolved]

    def _compute(self, ctx: ExecutionContext):
        columns, length = _finish_scan(_prepare(self.children[0], ctx), ctx)
        picked = [columns[i] for i in self._indices]
        if not self.distinct:
            return picked, length
        seen = set()
        keep = []
        for position, key in enumerate(zip(*picked)):
            if key not in seen:
                seen.add(key)
                keep.append(position)
        take = _taker(keep, length)
        return [take(col) for col in picked], len(keep)

    @property
    def label(self) -> str:
        tag = "Project DISTINCT" if self.distinct else "Project"
        return f"{tag}[{', '.join(self.attributes)}]"


# -------------------------------------------------------------------- joins
def _joined_mapping(left_width: int, right_width: int) -> List[Tuple[int, int]]:
    """(side, index) source of each attribute of a joined schema.

    :meth:`~repro.catalog.schema.RelationSchema.join` lists the left
    input's attributes, then the right input's, one for one, so the
    output column ``k`` is taken by position, never by name: two inputs
    that both carry an unqualified ``n`` keep their own values under
    ``A.n`` and ``B.n``.
    """
    return [(0, index) for index in range(left_width)] + [
        (1, index) for index in range(right_width)
    ]


def _taker(positions: List[int], length: int):
    """A function reading ``positions`` out of a column of ``length``.

    Columns are never mutated in place, so reading every position in
    order shares the column itself.  Otherwise one ``itemgetter`` is
    built per position list and applied to each column.
    """
    count = len(positions)
    if count == length and positions == list(range(length)):
        return lambda col: col
    if count > 1:
        getter = itemgetter(*positions)
        return lambda col: list(getter(col))
    return lambda col: [col[p] for p in positions]


def _gather(mapping, outer_columns, inner_columns, outer_pos, inner_pos):
    """Build output columns from matched (outer, inner) position lists."""
    take_outer = _taker(outer_pos, len(outer_columns[0]) if outer_columns else 0)
    take_inner = _taker(inner_pos, len(inner_columns[0]) if inner_columns else 0)
    return [
        take_outer(outer_columns[index]) if side == 0
        else take_inner(inner_columns[index])
        for side, index in mapping
    ]


def _key_vector(columns, indices) -> Sequence[Any]:
    """The per-row equi/grouping keys of ``columns[indices]``.

    A single key column is its own key vector: its scalar values hash
    and compare exactly like the 1-tuples a row-wise key would build.
    Several key columns become one tuple per row, built by ``zip``.
    """
    if len(indices) == 1:
        return columns[indices[0]]
    return list(zip(*[columns[k] for k in indices]))


def _hash_buckets(keys, width: int) -> Dict[Any, List[int]]:
    """Key -> ascending positions, NULL-bearing keys dropped.

    A NULL equi-key never satisfies ``=``, so those rows can never
    match under any join method.
    """
    buckets = hash_groups(keys)
    if width == 1:
        buckets.pop(None, None)
    else:
        for key in [key for key in buckets if None in key]:
            del buckets[key]
    return buckets


def _null_free(keys, width: int) -> List[int]:
    """Positions whose key holds no NULL."""
    if width == 1:
        return [i for i, key in enumerate(keys) if key is not None]
    return [i for i, key in enumerate(keys) if None not in key]


def _null_positions(keys, width: int) -> List[int]:
    """Positions whose key holds a NULL, ascending."""
    if width == 1:
        if None not in keys:
            return []
        return [i for i, key in enumerate(keys) if key is None]
    return [i for i, key in enumerate(keys) if None in key]


def _probe(buckets, keys, outer_pos: List[int], inner_pos: List[int]) -> None:
    """Append every (outer, inner) match of ``keys`` in outer-major order."""
    append_outer = outer_pos.append
    append_inner = inner_pos.append
    for i, matches in enumerate(map(buckets.get, keys)):
        if matches is None:
            continue
        if len(matches) == 1:
            append_outer(i)
            append_inner(matches[0])
        else:
            outer_pos.extend([i] * len(matches))
            inner_pos.extend(matches)


def _probe_filtered(buckets, keys, ocols, icols, residual_fn, outer_pos, inner_pos):
    """:func:`_probe` keeping only the pairs ``residual_fn`` accepts."""
    outer_rows = list(zip(*ocols))
    inner_rows = list(zip(*icols))
    for i, matches in enumerate(map(buckets.get, keys)):
        if matches is None:
            continue
        outer_row = outer_rows[i]
        for j in matches:
            if residual_fn(outer_row, inner_rows[j]) is True:
                outer_pos.append(i)
                inner_pos.append(j)


class _JoinBase(PhysicalOperator):
    """Shared state of the binary join operators.

    Every join method evaluates its condition (or the part of it the
    equi-keys leave over) on the *joined* row, the row the output table
    stores: a column reference resolves against the joined schema, so
    an unqualified input column the join qualifies (``n`` becoming
    ``A.n``) is found under its joined name.
    """

    __slots__ = ("_lnames", "_rnames", "_mapping")

    def __init__(self, left: PhysicalOperator, right: PhysicalOperator):
        schema = left.schema.join(right.schema)
        blocking_factor = joined_blocking_factor(
            left.blocking_factor, right.blocking_factor
        )
        super().__init__(schema, blocking_factor, (left, right))
        self._lnames = left.schema.attribute_names
        self._rnames = right.schema.attribute_names
        self._mapping = _joined_mapping(len(self._lnames), len(self._rnames))

    @property
    def left(self) -> PhysicalOperator:
        return self.children[0]

    @property
    def right(self) -> PhysicalOperator:
        return self.children[1]

    def _resolve(self, name: str) -> Optional[Tuple[int, int]]:
        """``(side, index)`` of column ``name`` in the joined row."""
        return resolve_joined_column(
            name, self.schema.attribute_names, self._mapping
        )

    def _compile(self, expr: Optional[Expression]):
        """``expr``'s pair kernel over the joined row (resolved now)."""
        return compile_pair(expr, self.schema.attribute_names, self._mapping)

    def _pairs_passing_rowwise(self, expr, ocols, icols, candidates):
        """The (i, j) candidates whose joined row dict passes ``expr``."""
        names = self.schema.attribute_names
        mapping = self._mapping
        out = []
        for i, j in candidates:
            row = dict(zip(names, [
                ocols[index][i] if side == 0 else icols[index][j]
                for side, index in mapping
            ]))
            if expr.evaluate(row) is True:
                out.append((i, j))
        return out


class NestedLoopJoin(_JoinBase):
    """Block nested-loop join: ``B(outer) + B(outer)·B(inner)`` reads.

    The I/O model is the paper's rescan-per-outer-block formula; the
    *evaluation* is hash-accelerated when the condition's conjuncts, in
    ``And.children`` order, start with vectorizable equi-conjuncts.
    Like the row engine (and ``Filter``'s cascade), a pair runs its
    conjuncts in that order and stops at the first false one, so
    pruning the pairs where a leading equi-conjunct is false skips no
    evaluation that could raise (``=`` never does).  The rest — bucket
    matches and, when a residual follows, every pair with a NULL key
    (an unknown equi-conjunct does not stop the evaluation) — go
    through the remaining conjuncts in order.  The output is exactly
    the nested loop's, outer-major.
    """

    name = "nested-loop-join"
    __slots__ = ("condition", "_accel_pairs", "_residual_fn", "_pair_fn")

    def __init__(
        self,
        left: PhysicalOperator,
        right: PhysicalOperator,
        condition: Optional[Expression],
    ):
        super().__init__(left, right)
        self.condition = condition
        self._accel_pairs: List[Tuple[int, int]] = []
        self._residual_fn = None
        self._pair_fn = None
        if condition is None:
            return
        self._pair_fn = self._compile(condition)
        pairs, residual = self._split_equi(condition)
        # Accelerate only a fully compiled condition, so every pair the
        # buckets do not prune runs the same kernels in the same order.
        if pairs and self._pair_fn is not None:
            self._accel_pairs = pairs
            self._residual_fn = self._compile(residual)

    def _split_equi(self, condition):
        """The leading equi-conjuncts as (outer, inner) column indices,
        and the conjunction of the rest (still in ``And.children``
        order)."""
        pairs: List[Tuple[int, int]] = []
        parts = P.conjuncts(condition)
        for conjunct in parts:
            if not P.is_join_predicate(conjunct):
                break
            left_ref = self._resolve(conjunct.left.name)
            right_ref = self._resolve(conjunct.right.name)
            if left_ref is None or right_ref is None or left_ref[0] == right_ref[0]:
                break
            if left_ref[0] == 0:
                pairs.append((left_ref[1], right_ref[1]))
            else:
                pairs.append((right_ref[1], left_ref[1]))
        return pairs, P.conjunction(list(parts[len(pairs):]))

    def _compute(self, ctx: ExecutionContext):
        left_prep = _prepare(self.left, ctx)
        right_prep = _prepare(self.right, ctx)
        outer_blocks = _blocks(left_prep)
        inner_blocks = _blocks(right_prep)
        ctx.io.read_blocks(outer_blocks)
        ctx.io.read_blocks(outer_blocks * inner_blocks)
        icols, i_n = _finish_rows(right_prep, ctx)
        ocols, o_n = _finish_rows(left_prep, ctx)

        outer_pos: List[int] = []
        inner_pos: List[int] = []
        if self.condition is None:
            inner_range = list(range(i_n))
            for i in range(o_n):
                outer_pos.extend([i] * i_n)
                inner_pos.extend(inner_range)
        elif self._accel_pairs:
            self._probe_buckets(ocols, icols, outer_pos, inner_pos)
        else:
            self._full_loop(ocols, o_n, icols, i_n, outer_pos, inner_pos)
        return (
            _gather(self._mapping, ocols, icols, outer_pos, inner_pos),
            len(outer_pos),
        )

    def _probe_buckets(self, ocols, icols, outer_pos, inner_pos):
        width = len(self._accel_pairs)
        ikeys = _key_vector(icols, [j for _, j in self._accel_pairs])
        okeys = _key_vector(ocols, [i for i, _ in self._accel_pairs])
        buckets = _hash_buckets(ikeys, width)
        if self._residual_fn is None:
            _probe(buckets, okeys, outer_pos, inner_pos)
            return
        inner_nulls = _null_positions(ikeys, width)
        outer_nulls = _null_positions(okeys, width)
        if not inner_nulls and not outer_nulls:
            _probe_filtered(
                buckets, okeys, ocols, icols, self._residual_fn,
                outer_pos, inner_pos,
            )
            return
        # A NULL key leaves its equi-conjunct unknown, not false, so the
        # row engine goes on to the residual: run the whole condition
        # on those pairs too (it cannot pass them, but it may raise).
        pair_fn = self._pair_fn
        outer_rows = list(zip(*ocols))
        inner_rows = list(zip(*icols))
        every_inner = range(len(inner_rows))
        outer_nulls = set(outer_nulls)
        for i, key in enumerate(okeys):
            if i in outer_nulls:
                candidates = every_inner
            else:
                candidates = heapq.merge(buckets.get(key, ()), inner_nulls)
            outer_row = outer_rows[i]
            for j in candidates:
                if pair_fn(outer_row, inner_rows[j]) is True:
                    outer_pos.append(i)
                    inner_pos.append(j)

    def _full_loop(self, ocols, o_n, icols, i_n, outer_pos, inner_pos):
        pair_fn = self._pair_fn
        if pair_fn is not None:
            inner_rows = list(zip(*icols))
            for i, outer_row in enumerate(zip(*ocols)):
                for j, inner_row in enumerate(inner_rows):
                    if pair_fn(outer_row, inner_row) is True:
                        outer_pos.append(i)
                        inner_pos.append(j)
            return
        candidates = [(i, j) for i in range(o_n) for j in range(i_n)]
        for i, j in self._pairs_passing_rowwise(
            self.condition, ocols, icols, candidates
        ):
            outer_pos.append(i)
            inner_pos.append(j)

    @property
    def label(self) -> str:
        if self.condition is None:
            return "NestedLoopJoin[cross]"
        mode = "hash-accelerated" if self._accel_pairs else "full-scan"
        return f"NestedLoopJoin[{L._pretty(self.condition)}] ({mode})"


class HashJoin(_JoinBase):
    """In-memory hash join with build-side reuse across executions.

    NULL keys never match (like every other join method, and SQL);
    the build side (the inner/right input) can be served from the
    engine's :class:`BuildSideCache`, in which case the recorded I/O of
    the original build is replayed so accounting stays identical while
    the subtree's wall-clock cost disappears.
    """

    name = "hash-join"
    __slots__ = (
        "equi_pairs",
        "residual",
        "_okeys",
        "_ikeys",
        "_residual_fn",
        "cache_token",
        "_base_relations",
    )

    def __init__(
        self,
        left: PhysicalOperator,
        right: PhysicalOperator,
        equi_pairs: Sequence[Tuple[str, str]],
        residual: Optional[Expression] = None,
        cache_token=None,
        base_relations: Sequence[str] = (),
    ):
        if not equi_pairs:
            raise ExecutionError("hash join requires at least one equi-join pair")
        super().__init__(left, right)
        self.equi_pairs = tuple(equi_pairs)
        self.residual = residual
        outer_names = list(self._lnames)
        inner_names = list(self._rnames)
        self._okeys = [
            outer_names.index(left.schema.attribute(a).name)
            for a, _ in equi_pairs
        ]
        self._ikeys = [
            inner_names.index(right.schema.attribute(b).name)
            for _, b in equi_pairs
        ]
        self._residual_fn = self._compile(residual)
        self.cache_token = cache_token
        self._base_relations = tuple(base_relations)

    # ------------------------------------------------------------- validity
    def _validity(self, ctx: ExecutionContext):
        database = ctx.database
        if database is None:
            return None
        parts = []
        for name in self._base_relations:
            version = database.version(name)
            if version is None:
                return None  # an overlay substitute: never cached
            try:
                table = database.table(name)
            except ExecutionError:
                return None
            parts.append((name, version, table.cardinality))
        return tuple(parts)

    def _compute(self, ctx: ExecutionContext):
        left_prep = _prepare(self.left, ctx)
        cache = ctx.cache if self.cache_token is not None else None
        validity = self._validity(ctx) if cache is not None else None
        entry = None
        if cache is not None and validity is not None:
            entry = cache.lookup(self.cache_token, validity)
        if entry is not None:
            # Replay the recorded build I/O: totals stay identical, the
            # build-side subtree simply never re-executes.
            if entry.reads:
                ctx.io.read_blocks(entry.reads)
            if entry.writes:
                ctx.io.write_blocks(entry.writes)
            icols, i_n, buckets = entry.columns, entry.cardinality, entry.buckets
        else:
            before = ctx.io.snapshot()
            right_prep = _prepare(self.right, ctx)
            icols, i_n = _finish_scan(right_prep, ctx)
            buckets = _hash_buckets(
                _key_vector(icols, self._ikeys), len(self._ikeys)
            )
            if cache is not None and validity is not None:
                delta = ctx.io.since(before)
                cache.store(
                    self.cache_token,
                    validity,
                    icols,
                    i_n,
                    buckets,
                    delta.reads,
                    delta.writes,
                    self._base_relations,
                )
        ocols, o_n = _finish_scan(left_prep, ctx)

        okeys = _key_vector(ocols, self._okeys)
        outer_pos: List[int] = []
        inner_pos: List[int] = []
        residual_fn = self._residual_fn
        if self.residual is None:
            _probe(buckets, okeys, outer_pos, inner_pos)
        elif residual_fn is not None:
            _probe_filtered(
                buckets, okeys, ocols, icols, residual_fn, outer_pos, inner_pos
            )
        else:
            candidates = []
            for i, matches in enumerate(map(buckets.get, okeys)):
                if matches:
                    candidates.extend((i, j) for j in matches)
            for i, j in self._pairs_passing_rowwise(
                self.residual, ocols, icols, candidates
            ):
                outer_pos.append(i)
                inner_pos.append(j)
        return (
            _gather(self._mapping, ocols, icols, outer_pos, inner_pos),
            len(outer_pos),
        )

    @property
    def label(self) -> str:
        keys = ", ".join(f"{a}={b}" for a, b in self.equi_pairs)
        cached = " (build-cacheable)" if self.cache_token is not None else ""
        if self.residual is not None:
            return f"HashJoin[{keys}; {L._pretty(self.residual)}]{cached}"
        return f"HashJoin[{keys}]{cached}"


class MergeJoin(_JoinBase):
    """Sort-merge join: external-sort I/O accounting, NULL keys drop."""

    name = "merge-join"
    __slots__ = ("equi_pairs", "residual", "_okeys", "_ikeys", "_residual_fn")

    def __init__(
        self,
        left: PhysicalOperator,
        right: PhysicalOperator,
        equi_pairs: Sequence[Tuple[str, str]],
        residual: Optional[Expression] = None,
    ):
        if not equi_pairs:
            raise ExecutionError(
                "sort-merge join requires at least one equi-join pair"
            )
        super().__init__(left, right)
        self.equi_pairs = tuple(equi_pairs)
        self.residual = residual
        outer_names = list(self._lnames)
        inner_names = list(self._rnames)
        self._okeys = [
            outer_names.index(left.schema.attribute(a).name)
            for a, _ in equi_pairs
        ]
        self._ikeys = [
            inner_names.index(right.schema.attribute(b).name)
            for _, b in equi_pairs
        ]
        self._residual_fn = self._compile(residual)

    @staticmethod
    def _charge_sort(prep: _Prepared, ctx: ExecutionContext) -> None:
        blocks = _blocks(prep)
        io = _charge_io(prep, ctx)
        io.read_blocks(blocks)
        if blocks > 1:
            io.read_blocks(int(blocks * math.ceil(math.log2(blocks))))

    def _compute(self, ctx: ExecutionContext):
        left_prep = _prepare(self.left, ctx)
        right_prep = _prepare(self.right, ctx)
        self._charge_sort(left_prep, ctx)
        self._charge_sort(right_prep, ctx)
        ocols, o_n = _finish_rows(left_prep, ctx)
        icols, i_n = _finish_rows(right_prep, ctx)

        width = len(self._okeys)
        okeys = _key_vector(ocols, self._okeys)
        ikeys = _key_vector(icols, self._ikeys)
        left_order = sorted(_null_free(okeys, width), key=okeys.__getitem__)
        right_order = sorted(_null_free(ikeys, width), key=ikeys.__getitem__)
        left_keys = list(map(okeys.__getitem__, left_order))
        right_keys = list(map(ikeys.__getitem__, right_order))

        candidates: List[Tuple[int, int]] = []
        i = j = 0
        while i < len(left_order) and j < len(right_order):
            left_key = left_keys[i]
            right_key = right_keys[j]
            if left_key < right_key:
                i += 1
            elif left_key > right_key:
                j += 1
            else:
                run_start = j
                while j < len(right_order) and right_keys[j] == left_key:
                    j += 1
                run_end = j
                while i < len(left_order) and left_keys[i] == left_key:
                    for index in range(run_start, run_end):
                        candidates.append((left_order[i], right_order[index]))
                    i += 1

        outer_pos: List[int] = []
        inner_pos: List[int] = []
        residual_fn = self._residual_fn
        if self.residual is None:
            for pair in candidates:
                outer_pos.append(pair[0])
                inner_pos.append(pair[1])
        elif residual_fn is not None:
            outer_rows = list(zip(*ocols))
            inner_rows = list(zip(*icols))
            for i, j in candidates:
                if residual_fn(outer_rows[i], inner_rows[j]) is True:
                    outer_pos.append(i)
                    inner_pos.append(j)
        else:
            for i, j in self._pairs_passing_rowwise(
                self.residual, ocols, icols, candidates
            ):
                outer_pos.append(i)
                inner_pos.append(j)
        return (
            _gather(self._mapping, ocols, icols, outer_pos, inner_pos),
            len(outer_pos),
        )

    @property
    def label(self) -> str:
        keys = ", ".join(f"{a}={b}" for a, b in self.equi_pairs)
        return f"MergeJoin[{keys}]"


class IndexNestedLoopJoin(_JoinBase):
    """Probe the stored inner relation's position index (paper §3.2).

    The inner input is a :class:`Scan`; each outer row in turn probes
    its table's :meth:`~repro.storage.columnar.ColumnView.positions`
    index on the inner key, so the output is outer-major with each
    row's matches in stored order.  An outer row whose key is NULL is
    not probed and matches nothing; the inner NULLs, which the index
    keeps under ``None``, are never asked for.  The leftover conjuncts
    (the residual and any further equi-pairs) then filter the joined
    rows as a :class:`Filter` above the join would: compiled, or on
    row dicts when they do not compile.

    Block I/O, in order: ``B(inner)`` for the index build unless a join
    has charged it since the inner table last changed
    (:meth:`Scan.charge_index_build`), ``B(outer)``, and per probe one
    index read plus ``⌈matches / bf⌉`` blocks of matching rows, each
    probe of a fault-injecting proxy drawing its read fault.
    """

    name = "index-nested-loop-join"
    __slots__ = ("equi_pair", "leftover", "_okey", "_ikey", "_select")

    def __init__(
        self,
        left: PhysicalOperator,
        right: Scan,
        equi_pair: Tuple[str, str],
        leftover: Optional[Expression] = None,
    ):
        super().__init__(left, right)
        self.equi_pair = equi_pair
        self.leftover = leftover
        outer_key = left.schema.attribute(equi_pair[0]).name
        self._okey = list(self._lnames).index(outer_key)
        self._ikey = right.schema.attribute(equi_pair[1]).name
        self._select = compile_selection(leftover, self.schema.attribute_names)

    def _compute(self, ctx: ExecutionContext):
        left_prep = _prepare(self.left, ctx)
        inner = self.right
        inner.charge_index_build(self._ikey)
        ocols, _ = _finish_scan(left_prep, ctx)
        index = inner.positions(self._ikey, ctx, self.name)
        table = inner.require_table()
        read, bf = table.io.read_blocks, table.blocking_factor
        draw = table.rows if type(table) is not Table else None
        outer_pos: List[int] = []
        inner_pos: List[int] = []
        for i, key in enumerate(ocols[self._okey]):
            if key is None:
                continue
            matches = index.get(key, ())
            read(1 + block_count(len(matches), bf))
            if draw is not None:
                draw()  # fault draw; the copy itself is discarded
            outer_pos.extend([i] * len(matches))
            inner_pos.extend(matches)
        columns = _gather(
            self._mapping, ocols, inner._columns(), outer_pos, inner_pos
        )
        length = len(outer_pos)
        if self.leftover is None:
            return columns, length
        keep = _selected(
            self._select, self.leftover, self.schema.attribute_names,
            columns, length, ctx, self.name,
        )
        take = _taker(keep, length)
        return [take(col) for col in columns], len(keep)

    @property
    def label(self) -> str:
        outer_key, inner_key = self.equi_pair
        return (
            f"IndexNestedLoopJoin[{outer_key}={inner_key}] "
            f"(index on {self.right.relation_name})"
        )


# -------------------------------------------------- aggregation, sort, limit
class HashAggregate(PhysicalOperator):
    """γ: hash aggregation, one pass, group order = first occurrence.

    A single group-by column over a stored table takes its groups from
    the table's position index, which holds exactly the groups a pass
    would build; the scan is still touched and charged in full.
    """

    name = "aggregate"
    __slots__ = ("group_by", "specs", "_key_indices", "_targets")

    def __init__(
        self,
        child: PhysicalOperator,
        group_by: Sequence[str],
        specs,
        output_schema,
    ):
        super().__init__(output_schema, child.blocking_factor, (child,))
        keys = [child.schema.attribute(k).name for k in group_by]
        self.group_by = tuple(keys)
        self.specs = tuple(specs)
        names = list(child.schema.attribute_names)
        self._key_indices = [names.index(k) for k in keys]
        # Output attribute -> result-dict key, replicating Table._normalize
        # over ``{**group keys, **aliases}`` (exact name, then short name).
        available = list(keys) + [spec.alias for spec in self.specs]
        available_set = set(available)
        targets = []
        for attribute in output_schema:
            if attribute.name in available_set:
                targets.append(attribute.name)
            elif attribute.short_name in available_set:
                targets.append(attribute.short_name)
            else:
                raise StorageError(
                    f"row missing attribute {attribute.name!r}: "
                    f"{sorted(available_set)}"
                )
        self._targets = targets

    def _compute(self, ctx: ExecutionContext):
        child = self.children[0]
        columns, length = _finish_scan(_prepare(child, ctx), ctx)
        columns_by_name = dict(zip(child.schema.attribute_names, columns))
        width = len(self._key_indices)
        if width == 1 and isinstance(child, Scan):
            groups = child.positions(self.group_by[0], ctx, self.name)
        elif width:
            groups = hash_groups(_key_vector(columns, self._key_indices))
        else:
            # One global group, even over an empty input.
            groups = {(): list(range(length))}

        # Output columns by result name; later names shadow earlier ones
        # exactly as the row engine's ``{**group keys, **aliases}`` does.
        by_name: Dict[str, List[Any]] = {}
        if width == 1:
            by_name[self.group_by[0]] = list(groups)
        else:
            for offset, name in enumerate(self.group_by):
                by_name[name] = [key[offset] for key in groups]
        for spec in self.specs:
            by_name[spec.alias] = [
                _evaluate_aggregate(spec, positions, columns_by_name)
                for positions in groups.values()
            ]
        return [by_name[target] for target in self._targets], len(groups)

    @property
    def label(self) -> str:
        funcs = ", ".join(s.signature for s in self.specs)
        if self.group_by:
            return f"HashAggregate[{', '.join(self.group_by)}; {funcs}]"
        return f"HashAggregate[{funcs}]"


def _evaluate_aggregate(spec, positions, columns_by_name):
    """Exact columnar replica of the row engine's ``_evaluate_aggregate``.

    Column resolution is deliberately lazy so an empty group never
    touches the aggregated attribute — matching the row engine, which
    only indexes ``r[spec.attribute]`` on rows that exist.  A group's
    values are gathered in position order by one ``itemgetter`` call,
    so sums add in the row engine's order.
    """
    if spec.function is L.AggregateFunction.COUNT and spec.attribute is None:
        return len(positions)
    if not positions:
        return 0 if spec.function is L.AggregateFunction.COUNT else None
    col = columns_by_name[spec.attribute]
    if len(positions) == 1:
        values = (col[positions[0]],)
    else:
        values = itemgetter(*positions)(col)
    if spec.function is L.AggregateFunction.COUNT:
        return len(values) - values.count(None)
    if None in values:
        values = [value for value in values if value is not None]
        if not values:
            return None
    if spec.function is L.AggregateFunction.SUM:
        return float(sum(values))
    if spec.function is L.AggregateFunction.AVG:
        return float(sum(values)) / len(values)
    if spec.function is L.AggregateFunction.MIN:
        return min(values)
    if spec.function is L.AggregateFunction.MAX:
        return max(values)
    raise ExecutionError(f"unsupported aggregate {spec.function}")


class SortOperator(PhysicalOperator):
    """τ: external-sort I/O accounting, stable index sort, NULLS FIRST."""

    name = "sort"
    __slots__ = ("keys", "_resolved")

    def __init__(self, child: PhysicalOperator, keys: Sequence[Tuple[str, bool]]):
        super().__init__(child.schema, child.blocking_factor, (child,))
        names = list(child.schema.attribute_names)
        resolved = [
            (child.schema.attribute(name).name, bool(ascending))
            for name, ascending in keys
        ]
        self.keys = tuple(resolved)
        self._resolved = [
            (names.index(name), ascending) for name, ascending in resolved
        ]

    def _compute(self, ctx: ExecutionContext):
        prep = _prepare(self.children[0], ctx)
        blocks = _blocks(prep)
        io = _charge_io(prep, ctx)
        io.read_blocks(blocks)
        if blocks > 1:
            io.read_blocks(int(blocks * math.ceil(math.log2(blocks))))
        columns, length = _finish_rows(prep, ctx)
        order = list(range(length))
        for index, ascending in reversed(self._resolved):
            col = columns[index]
            order.sort(
                key=lambda i, c=col: (True, c[i])
                if c[i] is not None
                else (False, 0),
                reverse=not ascending,
            )
        take = _taker(order, length)
        return [take(col) for col in columns], length

    @property
    def label(self) -> str:
        rendered = ", ".join(
            f"{name} {'ASC' if ascending else 'DESC'}"
            for name, ascending in self.keys
        )
        return f"Sort[{rendered}]"


class LimitOperator(PhysicalOperator):
    """LIMIT: reads only the blocks holding the first ``count`` rows."""

    name = "limit"
    __slots__ = ("count",)

    def __init__(self, child: PhysicalOperator, count: int):
        super().__init__(child.schema, child.blocking_factor, (child,))
        self.count = count

    def _compute(self, ctx: ExecutionContext):
        prep = _prepare(self.children[0], ctx)
        needed = block_count(
            min(self.count, prep.length), self.blocking_factor
        )
        _charge_io(prep, ctx).read_blocks(needed)
        columns, length = _finish_rows(prep, ctx)
        return [col[: self.count] for col in columns], min(self.count, length)

    @property
    def label(self) -> str:
        return f"Limit[{self.count}]"


# -------------------------------------------------------- build-side cache
class _BuildEntry:
    """One cached hash-join build side plus its recorded build I/O."""

    __slots__ = (
        "validity",
        "columns",
        "cardinality",
        "buckets",
        "reads",
        "writes",
        "base_relations",
    )

    def __init__(
        self, validity, columns, cardinality, buckets, reads, writes, base_relations
    ):
        self.validity = validity
        self.columns = columns
        self.cardinality = cardinality
        self.buckets = buckets
        self.reads = reads
        self.writes = writes
        self.base_relations = base_relations


class BuildSideCache:
    """Hash-join build sides reused across refreshes and repeated serves.

    Keyed on the build subtree's *logical signature* plus its join-key
    attributes; an entry is valid only while every base relation it
    reads still has the same registration version (bumped by
    ``Database.register``/``drop`` — the freshness epoch) and
    cardinality.  A relation with no version (``None``: a table an
    overlay substitutes, such as a delta, a rewound table or a shared
    cdc delta) makes the build neither stored nor looked up, so one
    cache serves the warehouse engine and every delta evaluation over
    it.  Invalidation mirrors ``CostCache``: warehouses call
    :meth:`invalidate` whenever a relation or view changes.  (The
    position indexes of :mod:`repro.storage.columnar` need no such call:
    a table's own writes drop them.)

    Cached entries replay their recorded build I/O on every hit, so
    measured block counts are identical with and without the cache —
    only the wall-clock cost of re-executing the build subtree is
    saved.
    """

    def __init__(self, max_entries: int = 32):
        if max_entries < 1:
            raise ExecutionError(f"max_entries must be >= 1: {max_entries}")
        self._entries: Dict[Any, _BuildEntry] = {}
        self.max_entries = max_entries
        self.hits = 0
        self.misses = 0

    def lookup(self, token, validity) -> Optional[_BuildEntry]:
        entry = self._entries.get(token)
        if entry is None:
            self.misses += 1
            return None
        if entry.validity != validity:
            del self._entries[token]
            self.misses += 1
            return None
        self.hits += 1
        return entry

    def store(
        self, token, validity, columns, cardinality, buckets, reads, writes,
        base_relations,
    ) -> None:
        self._entries.pop(token, None)
        while len(self._entries) >= self.max_entries:
            # FIFO eviction: drop the oldest surviving entry.
            self._entries.pop(next(iter(self._entries)))
        self._entries[token] = _BuildEntry(
            validity, columns, cardinality, buckets, reads, writes,
            tuple(base_relations),
        )

    def invalidate(self, name: Optional[str] = None) -> None:
        """Drop entries reading ``name`` (or everything when ``None``)."""
        if name is None:
            self._entries.clear()
            return
        stale = [
            token
            for token, entry in self._entries.items()
            if name in entry.base_relations
        ]
        for token in stale:
            del self._entries[token]

    def stats(self) -> Dict[str, int]:
        return {
            "entries": len(self._entries),
            "hits": self.hits,
            "misses": self.misses,
        }

    def __len__(self) -> int:
        return len(self._entries)


# ------------------------------------------------------------- plan cache
#: Lowered trees a :class:`PlanCache` keeps; the oldest goes first.
PLAN_CACHE_ENTRIES = 64


class PlanCache:
    """Lowered physical trees, one per logical plan *object*.

    A plan's lowering depends only on the plan and on the schema object
    and blocking factor of each table it scans, so an engine runs the
    cached tree again instead of lowering the plan on every execute.
    Entries are keyed by ``id(plan)`` and hold the plan, so the id
    cannot be reused while its entry lives, and two plans that are
    equal but not identical never share a tree: ``Operator`` equality
    compares signatures, and a join's signature does not tell its sides
    apart.  The cache holds no table — :meth:`lookup` binds a tree's
    scans for one run and :func:`unbind` drops them — and keeps at most
    :data:`PLAN_CACHE_ENTRIES` trees, evicting the oldest, because cdc
    drains and shard unions run plans that live for one evaluation.
    """

    def __init__(self):
        #: id(plan) -> (plan, its lowered tree, the tree's scans).
        self._entries: Dict[
            int, Tuple[L.Operator, PhysicalOperator, Tuple[Scan, ...]]
        ] = {}

    def lookup(self, plan: L.Operator, database):
        """``(tree, scans, outcome)`` for running ``plan`` on ``database``.

        On a hit the cached tree comes back with its scans bound to
        ``database``'s tables, fetched in lowering order, and outcome
        ``"hit"``.  Otherwise the tree is ``None`` and the outcome says
        why: ``"lowered"`` (no tree cached) or ``"relowered"`` (some
        table's schema object or blocking factor changed since the
        lowering; nothing is left bound).  A missing table raises, as
        the lowering would.
        """
        entry = self._entries.get(id(plan))
        if entry is None:
            return None, (), "lowered"
        scans = entry[2]
        try:
            for scan in scans:
                if not scan.bind(database.table(scan.relation_name)):
                    unbind(scans)
                    return None, (), "relowered"
        except BaseException:
            unbind(scans)
            raise
        return entry[1], scans, "hit"

    def store(self, plan: L.Operator, root: PhysicalOperator) -> Tuple[Scan, ...]:
        """Keep ``root`` as the tree of ``plan``; returns its scans."""
        self._entries.pop(id(plan), None)
        while len(self._entries) >= PLAN_CACHE_ENTRIES:
            self._entries.pop(next(iter(self._entries)))
        scans = tuple(op for op in root.walk() if isinstance(op, Scan))
        self._entries[id(plan)] = (plan, root, scans)
        return scans

    def __len__(self) -> int:
        return len(self._entries)


def unbind(scans) -> None:
    """Drop the tables ``scans`` were bound to for a run."""
    for scan in scans:
        scan.table = None


# ------------------------------------------------------------------ planner
#: Join strategies (mirrored by ``repro.executor.engine``).
NESTED_LOOP = "nested-loop"
HASH = "hash"
INDEX_NESTED_LOOP = "index-nested-loop"
SORT_MERGE = "sort-merge"


def split_join_condition(plan: "L.Join"):
    """Split a join condition into (equi pairs, residual predicate).

    Byte-identical to the row engine's split: a ``column = column``
    conjunct becomes an (outer attribute, inner attribute) pair when
    one side names an attribute of the *logical* left schema.
    """
    equi: List[Tuple[str, str]] = []
    residual_parts: List[Expression] = []
    outer_columns = set(plan.left.schema.attribute_names)
    for conjunct in P.conjuncts(plan.condition):
        if P.is_join_predicate(conjunct):
            left_name = conjunct.left.name  # type: ignore[union-attr]
            right_name = conjunct.right.name  # type: ignore[union-attr]
            if left_name in outer_columns:
                equi.append((left_name, right_name))
                continue
            if right_name in outer_columns:
                equi.append((right_name, left_name))
                continue
        residual_parts.append(conjunct)
    return equi, P.conjunction(residual_parts)


class PhysicalPlanner:
    """Lowers logical plans to physical operator trees.

    All plan-constant work happens here: table binding and schema
    checks, attribute resolution, joined blocking factors, join-condition
    splits and predicate kernel compilation.  The engine lowers a plan
    when its :class:`PlanCache` has no tree for it (or the tree's tables
    changed shape) and runs the cached tree otherwise.  With
    ``require_tables=False`` (used by ``explain``) relations missing
    from the database lower to unbound scans carrying the logical
    schema.
    """

    def __init__(
        self,
        database=None,
        join_method: str = NESTED_LOOP,
        require_tables: bool = True,
        lint: bool = False,
    ):
        self.database = database
        self.join_method = join_method
        self.require_tables = require_tables
        self.lint = lint

    def lower(self, plan: L.Operator) -> PhysicalOperator:
        if self.lint:
            verify_logical(plan)
        root = self._lower(plan)
        if self.lint:
            verify_physical(plan, root)
        return root

    def _lower(self, plan: L.Operator) -> PhysicalOperator:
        if isinstance(plan, L.Relation):
            return self._lower_relation(plan)
        if isinstance(plan, L.Select):
            return Filter(self._lower(plan.child), plan.predicate)
        if isinstance(plan, L.Project):
            return Projection(
                self._lower(plan.child), plan.attributes, plan.distinct
            )
        if isinstance(plan, L.Join):
            return self._lower_join(plan)
        if isinstance(plan, L.Aggregate):
            return HashAggregate(
                self._lower(plan.child), plan.group_by, plan.aggregates,
                plan.schema,
            )
        if isinstance(plan, L.Sort):
            return SortOperator(self._lower(plan.child), plan.keys)
        if isinstance(plan, L.Limit):
            return LimitOperator(self._lower(plan.child), plan.count)
        raise ExecutionError(f"cannot execute operator {type(plan).__name__}")

    def _lower_relation(self, plan: L.Relation) -> Scan:
        database = self.database
        if database is not None and (
            self.require_tables or plan.name in database
        ):
            table = database.table(plan.name)
            self._check_schema(plan, table)
            return Scan(plan.name, table=table)
        if self.require_tables:
            raise ExecutionError(f"no table named {plan.name!r} is loaded")
        return Scan(plan.name, schema=plan.schema)

    def _lower_join(self, plan: L.Join) -> PhysicalOperator:
        left = self._lower(plan.left)
        right = self._lower(plan.right)
        if self.join_method == NESTED_LOOP:
            return NestedLoopJoin(left, right, plan.condition)
        equi, residual = split_join_condition(plan)
        if not equi:
            return NestedLoopJoin(left, right, plan.condition)
        if self.join_method == SORT_MERGE:
            return MergeJoin(left, right, equi, residual)
        if self.join_method == INDEX_NESTED_LOOP and isinstance(
            plan.right, L.Relation
        ):
            first, rest = equi[0], equi[1:]
            leftover = P.conjunction(
                [residual]
                + [compare(column(a), "=", column(b)) for a, b in rest]
            )
            return IndexNestedLoopJoin(left, right, first, leftover)
        token = (
            "hash-build",
            plan.right.signature,
            tuple(b for _, b in equi),
        )
        base = tuple(sorted(plan.right.base_relations()))
        return HashJoin(
            left, right, equi, residual,
            cache_token=token, base_relations=base,
        )

    @staticmethod
    def _check_schema(plan: L.Relation, table: Table) -> None:
        expected = set(plan.schema.attribute_names)
        actual = set(table.schema.attribute_names)
        if not expected <= actual:
            raise ExecutionError(
                f"table {plan.name!r} is missing attributes "
                f"{sorted(expected - actual)}"
            )


def verify_logical(plan: L.Operator) -> None:
    """Logical verification (rules P001-P007), run before lowering.

    A corrupt plan must fail with the P-rule diagnostic, not with
    whatever construction error the physical operators hit first.
    """
    from repro.lint.plans import verify_plan

    logical = verify_plan(plan, name=plan.schema.name)
    if logical.errors:
        logical.publish()
        logical.raise_on_errors()


def verify_physical(plan: L.Operator, root: PhysicalOperator) -> None:
    """The full pass over a lowered tree, including the
    logical<->physical preservation check P008.

    Findings are published; error-severity ones abort the execute
    before any I/O is charged.
    """
    from repro.lint.plans import verify_lowering

    report = verify_lowering(plan, root, name=plan.schema.name)
    report.publish()
    report.raise_on_errors()


# ------------------------------------------------------------------ helpers
def scan_of(table: Table) -> Scan:
    """Wrap an existing table as a physical scan leaf."""
    return Scan(table.schema.name, table=table)


def execute_operator(
    op: PhysicalOperator,
    io,
    batch_size: int = DEFAULT_BATCH_SIZE,
    database=None,
) -> Table:
    """Drive one operator tree to completion and build its result table.

    No obs recording and no build cache: one operator tree in, one
    table out, charging its block I/O to ``io``.  Tests use it to run a
    single operator over stored tables, e.g.
    ``execute_operator(Filter(scan_of(t), p), io=t.io)``.
    """
    ctx = ExecutionContext(io=io, batch_size=batch_size, database=database)
    columns, length = materialize(op, ctx)
    return table_from_columns(
        op.schema, op.blocking_factor, columns, length, io
    )


def table_from_columns(schema, blocking_factor, columns, length, io) -> Table:
    """A result table holding ``columns`` (``length`` values each).

    Its size is answered from ``length``; row dicts are built once, by
    the first read or write that needs rows, without re-validation:
    values flowing through physical operators were validated when their
    source rows were loaded (``DataType.validate`` is idempotent).  A
    caller that only counts rows never pays for them.
    """
    out = Table(schema, blocking_factor, io=io)
    if columns:  # no columns zip to no rows, whatever ``length`` says
        out._pending = (columns, length)
    return out


def charge_materialize(result: Table) -> Table:
    """Charge the block writes of storing ``result`` persistently."""
    result.io.write_blocks(result.num_blocks)
    return result
