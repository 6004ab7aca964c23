"""Columnar batches and vectorized expression compilation.

This module is the data plane of the vectorized executor
(:mod:`repro.executor.physical`).  A :class:`Batch` is a fixed-size
columnar chunk — one Python list per attribute, aligned by row
position, with the producing operator's schema carried along — and the
unit :meth:`PhysicalOperator.batches` yields.

The compilers translate :mod:`repro.algebra.expressions` trees into
closures over column vectors:

* :func:`compile_selection` — a selection predicate over one input
  becomes ``fn(columns, n) -> positions``, the ascending row positions
  it passes.  This is a *selection vector*: the caller gathers each
  column once through it.  A top-level AND runs as a cascade.  Its
  conjuncts run in ``And.children`` order, the first over every row,
  each later one only over the rows every earlier conjunct left True
  or NULL — exactly :meth:`And.evaluate`'s short-circuit, so a
  conjunct never runs (or raises) on a row the row engine would not
  evaluate it on.  ``column op literal`` and ``column op column`` are
  C-level ``compress`` kernels when the values read hold no NULL.  A
  caller holding a position index passes in the positions of a
  leading ``column = literal`` conjunct instead
  (:func:`leading_equality`).
* :func:`compile_mask` — any other expression becomes
  ``fn(columns, positions) -> values``: ``Expression.evaluate`` of each
  listed row, in order, with nested AND/OR short-circuiting row by row
  the same way.  The cascade runs it on the surviving rows only.
* :func:`compile_pair` — a join condition becomes a scalar
  ``fn(left_row, right_row) -> value`` over *tuples* (one value per
  attribute), with column references resolved against the joined row
  the join stores (:func:`resolve_joined_column`: exact joined name,
  then a unique short name).

**Pass rule.**  A row passes a selection, and a pair passes a join
condition, iff the predicate evaluates to ``True`` (SQL WHERE/ON
semantics): ``False``, NULL and any other value reject it.  Both
engines and the oracle in :mod:`repro.executor.reference` keep it.

All compilers return ``None`` for anything they cannot translate
(an unknown node type, or a column reference the row engine would
resolve dynamically per row); callers then fall back to row-at-a-time
``evaluate`` so behaviour — including raised errors — is unchanged.
"""

from __future__ import annotations

import operator as _operator
from itertools import compress, repeat
from typing import Any, Callable, List, Optional, Sequence, Tuple

from repro.algebra.expressions import (
    And,
    ColumnRef,
    Comparison,
    Expression,
    Literal,
    Not,
    Or,
)

__all__ = [
    "Batch",
    "DEFAULT_BATCH_SIZE",
    "compile_mask",
    "compile_pair",
    "compile_selection",
    "iter_batches",
    "leading_equality",
    "resolve_column",
    "resolve_joined_column",
]

#: Rows per batch unless the engine overrides it.
DEFAULT_BATCH_SIZE = 1024

_COMPARISON_OPS = {
    "=": _operator.eq,
    "!=": _operator.ne,
    "<": _operator.lt,
    "<=": _operator.le,
    ">": _operator.gt,
    ">=": _operator.ge,
}

#: ``fn(columns, positions) -> values`` — a compiled columnwise expression.
MaskFn = Callable[[Sequence[List[Any]], Sequence[int]], List[Any]]
#: ``fn(columns, n) -> positions`` — a compiled selection predicate.
SelectFn = Callable[[Sequence[List[Any]], int], List[int]]
#: ``fn(left_row, right_row) -> value`` — a compiled pairwise expression.
PairFn = Callable[[Tuple[Any, ...], Tuple[Any, ...]], Any]


class Batch:
    """One columnar chunk of an operator's output.

    ``columns`` holds one list per schema attribute, all of length
    ``length``; ``None`` marks SQL NULL.  Batches are read-only by
    convention — operators build fresh column lists rather than mutate
    a batch they were handed.
    """

    __slots__ = ("schema", "columns", "length")

    def __init__(self, schema, columns: Sequence[List[Any]], length: int):
        self.schema = schema
        self.columns = tuple(columns)
        self.length = length

    def column(self, name: str) -> List[Any]:
        """The column for attribute ``name`` (resolved like the schema)."""
        return self.columns[self.schema.index_of(name)]

    def rows(self):
        """Row dicts (for tests and debugging — operators stay columnar)."""
        names = self.schema.attribute_names
        for values in zip(*self.columns) if self.columns else ():
            yield dict(zip(names, values))

    def __len__(self) -> int:
        return self.length

    def __repr__(self) -> str:
        return f"Batch({self.schema.name}, rows={self.length})"


def iter_batches(schema, columns: Sequence[List[Any]], length: int, batch_size: int):
    """Slice full columns into :class:`Batch` chunks of ``batch_size``."""
    if batch_size < 1:
        raise ValueError(f"batch size must be >= 1: {batch_size}")
    for start in range(0, length, batch_size):
        stop = min(start + batch_size, length)
        yield Batch(
            schema,
            [column[start:stop] for column in columns],
            stop - start,
        )


# --------------------------------------------------------------- resolution
def resolve_column(name: str, names: Sequence[str]) -> Optional[int]:
    """Index of ``name`` in ``names`` under row-dict lookup semantics.

    Mirrors :meth:`ColumnRef.evaluate`: exact key first, then a unique
    short-name suffix match.  Returns ``None`` when the reference would
    not resolve (ambiguous or missing) — the caller falls back to
    row-wise evaluation so the row engine's error surfaces unchanged.
    """
    for index, key in enumerate(names):
        if key == name:
            return index
    short = name.rsplit(".", 1)[-1]
    matches = [
        index
        for index, key in enumerate(names)
        if key.rsplit(".", 1)[-1] == short
    ]
    if len(matches) == 1:
        return matches[0]
    return None


def resolve_joined_column(
    name: str, names: Sequence[str], mapping: Sequence[Tuple[int, int]]
) -> Optional[Tuple[int, int]]:
    """Resolve ``name`` against a joined row, as :func:`resolve_column`.

    ``names`` are the joined schema's attributes and ``mapping[k]`` the
    ``(side, index)`` input column attribute ``k`` is taken from (side
    0 = left, 1 = right).  ``None`` when the reference would not
    resolve.
    """
    index = resolve_column(name, names)
    return None if index is None else mapping[index]


# ------------------------------------------------------- selection kernels
#: ``fn(columns, live) -> (kept, nulls)`` — one conjunct of a selection
#: run over the ascending positions ``live``: ``kept`` lists those it
#: does not reject (True or NULL), ``nulls`` those of them it left NULL.
ConjunctFn = Callable[
    [Sequence[List[Any]], Sequence[int]], Tuple[Sequence[int], Sequence[int]]
]


def _at(column: List[Any], positions: Sequence[int]) -> List[Any]:
    """``column`` read at ``positions`` (the column itself for every row)."""
    if positions == range(len(column)):
        return column
    return list(map(column.__getitem__, positions))


def _comparison_kernel(
    op, left: int, right: Optional[int], value: Any = None
) -> ConjunctFn:
    """``column op column`` (index ``right``) or ``column op value``.

    One C-level ``compress`` over ``map(op, ...)`` when the values read
    hold no NULL, a Python loop otherwise.
    """

    def kernel(cols, live):
        lefts = _at(cols[left], live)
        if right is None:
            rights: Any = repeat(value)
            null_free = value is not None and None not in lefts
        else:
            rights = _at(cols[right], live)
            null_free = None not in lefts and None not in rights
        if null_free:
            return list(compress(live, map(op, lefts, rights))), ()
        kept: List[int] = []
        nulls: List[int] = []
        for position, a, b in zip(live, lefts, rights):
            if a is None or b is None:
                kept.append(position)
                nulls.append(position)
            elif op(a, b):
                kept.append(position)
        return kept, nulls

    return kernel


def _mask_kernel(mask_fn: MaskFn) -> ConjunctFn:
    """Any other conjunct: its :func:`compile_mask` values at ``live``."""

    def kernel(cols, live):
        kept: List[int] = []
        nulls: List[int] = []
        for position, value in zip(live, mask_fn(cols, live)):
            if value is None:
                kept.append(position)
                nulls.append(position)
            elif value is True:
                kept.append(position)
        return kept, nulls

    return kernel


def _conjunct_kernel(
    expr: Expression, names: Tuple[str, ...]
) -> Optional[ConjunctFn]:
    # Comparing the engine's value types yields a bool, so the
    # compress kernels keep exactly the True rows.
    if isinstance(expr, Comparison) and isinstance(expr.left, ColumnRef):
        op = _COMPARISON_OPS[expr.op]
        left = resolve_column(expr.left.name, names)
        if left is None:
            return None
        if isinstance(expr.right, Literal):
            return _comparison_kernel(op, left, None, expr.right.value)
        if isinstance(expr.right, ColumnRef):
            right = resolve_column(expr.right.name, names)
            if right is None:
                return None
            return _comparison_kernel(op, left, right)
    mask_fn = compile_mask(expr, names)
    if mask_fn is None:
        return None
    return _mask_kernel(mask_fn)


def _conjuncts(expr: Expression) -> Tuple[Expression, ...]:
    return expr.children if isinstance(expr, And) else (expr,)


def leading_equality(
    expr: Optional[Expression], names: Sequence[str]
) -> Optional[Tuple[str, Any]]:
    """``(column name, value)`` of a leading ``column = literal`` conjunct.

    Only a value a position index answers exactly qualifies: not NULL
    (which no row equals) and equal to itself (not NaN).
    Comparing the engine's value types with ``==`` agrees with dict
    lookup, so the index's hits for the value are exactly the rows the
    conjunct leaves True; its NULL rows are the ones it leaves NULL.
    """
    if expr is None:
        return None
    lead = _conjuncts(expr)[0]
    if not (
        isinstance(lead, Comparison)
        and lead.op == "="
        and isinstance(lead.left, ColumnRef)
        and isinstance(lead.right, Literal)
    ):
        return None
    value = lead.right.value
    if value is None or value != value:
        return None
    index = resolve_column(lead.left.name, tuple(names))
    if index is None:
        return None
    return names[index], value


def compile_selection(
    expr: Optional[Expression], names: Sequence[str]
) -> Optional[SelectFn]:
    """Compile a selection predicate to ``fn(columns, n) -> positions``.

    The positions are the ascending rows where ``expr.evaluate`` is
    ``True``.  The conjuncts of a top-level AND run as a cascade in
    ``And.children`` order: each one sees only the rows every earlier
    conjunct left True or NULL, and a row is selected when none was
    NULL.  ``None`` means some conjunct is not vectorizable.

    The returned function also takes ``first``, the ascending
    ``(kept, nulls)`` positions of the leading conjunct when the caller
    already has them (a position-index lookup, see
    :func:`leading_equality`); the cascade then starts at the second
    conjunct.  The lists passed in are only read.
    """
    if expr is None:
        return None
    names = tuple(names)
    kernels = [_conjunct_kernel(part, names) for part in _conjuncts(expr)]
    if any(kernel is None for kernel in kernels):
        return None

    def select(cols, n, first=None):
        live: Sequence[int] = range(n)
        unknown: set = set()
        for step, kernel in enumerate(kernels):
            if step == 0 and first is not None:
                live, nulls = first
            else:
                live, nulls = kernel(cols, live)
            if not live:
                return []
            unknown.update(nulls)
        if unknown:
            return [position for position in live if position not in unknown]
        return list(live)

    return select


# ------------------------------------------------------------ mask compiler
def _short_circuit(child_fns: List[MaskFn], stop_on: bool) -> MaskFn:
    """AND (``stop_on=False``) or OR (``stop_on=True``) over positions.

    Each child runs only on the rows no earlier child has decided, as
    in ``And.evaluate`` / ``Or.evaluate``: a value whose truth
    (``value is True``) is ``stop_on`` decides the row, a NULL marks it
    unless a later child decides it.
    """
    undecided = not stop_on

    def mask(cols, rows):
        outcome: dict = {}
        live = rows
        for fn in child_fns:
            pending: List[int] = []
            for position, value in zip(live, fn(cols, live)):
                if value is None:
                    outcome[position] = None
                    pending.append(position)
                elif (value is True) is stop_on:
                    outcome[position] = stop_on
                else:
                    pending.append(position)
            live = pending
            if not live:
                break
        return [outcome.get(position, undecided) for position in rows]

    return mask


def compile_mask(expr: Optional[Expression], names: Sequence[str]) -> Optional[MaskFn]:
    """Compile ``expr`` to a columnwise kernel over columns named ``names``.

    The returned function maps (columns, ascending row positions) to
    ``expr.evaluate`` of each of those rows, in order; only the columns
    ``expr`` references are read at them.  ``None`` means the
    expression (or a sub-expression) is not vectorizable; the caller
    must evaluate row dicts instead.
    """
    if expr is None:
        return None
    names = tuple(names)

    if isinstance(expr, Literal):
        value = expr.value
        return lambda cols, rows: [value] * len(rows)

    if isinstance(expr, ColumnRef):
        index = resolve_column(expr.name, names)
        if index is None:
            return None
        return lambda cols, rows: _at(cols[index], rows)

    if isinstance(expr, Comparison):
        op = _COMPARISON_OPS[expr.op]
        left_fn = compile_mask(expr.left, names)
        right_fn = compile_mask(expr.right, names)
        if left_fn is None or right_fn is None:
            return None
        return lambda cols, rows: [
            None if (a is None or b is None) else op(a, b)
            for a, b in zip(left_fn(cols, rows), right_fn(cols, rows))
        ]

    if isinstance(expr, (And, Or)):
        child_fns = [compile_mask(child, names) for child in expr.children]
        if any(fn is None for fn in child_fns):
            return None
        return _short_circuit(child_fns, isinstance(expr, Or))

    if isinstance(expr, Not):
        child_fn = compile_mask(expr.operand, names)
        if child_fn is None:
            return None
        return lambda cols, rows: [
            None if value is None else value is not True
            for value in child_fn(cols, rows)
        ]

    return None


# ------------------------------------------------------------ pair compiler
def compile_pair(
    expr: Optional[Expression],
    names: Sequence[str],
    mapping: Sequence[Tuple[int, int]],
) -> Optional[PairFn]:
    """Compile a join condition to a scalar kernel over row tuples.

    ``names`` are the joined schema's attributes and ``mapping[k]`` the
    ``(side, index)`` input column attribute ``k`` is taken from.  The
    returned ``fn(left_row, right_row)``, over rows given as value
    tuples in their input schema's order, equals
    ``expr.evaluate(joined_row_dict)``: column references resolve
    against the joined row, once, here.  ``None`` means fall back to
    row-dict evaluation.
    """
    if expr is None:
        return None

    if isinstance(expr, Literal):
        value = expr.value
        return lambda lrow, rrow: value

    if isinstance(expr, ColumnRef):
        resolved = resolve_joined_column(expr.name, names, mapping)
        if resolved is None:
            return None
        side, index = resolved
        if side == 1:
            return lambda lrow, rrow: rrow[index]
        return lambda lrow, rrow: lrow[index]

    if isinstance(expr, Comparison):
        op = _COMPARISON_OPS[expr.op]
        left_fn = compile_pair(expr.left, names, mapping)
        right_fn = compile_pair(expr.right, names, mapping)
        if left_fn is None or right_fn is None:
            return None

        def comparison(lrow, rrow, op=op, lf=left_fn, rf=right_fn):
            a = lf(lrow, rrow)
            b = rf(lrow, rrow)
            if a is None or b is None:
                return None
            return op(a, b)

        return comparison

    if isinstance(expr, (And, Or)):
        child_fns = [
            compile_pair(child, names, mapping) for child in expr.children
        ]
        if any(fn is None for fn in child_fns):
            return None
        stop_on = isinstance(expr, Or)

        def boolean(lrow, rrow, fns=tuple(child_fns), stop_on=stop_on):
            saw_null = False
            for fn in fns:
                value = fn(lrow, rrow)
                if value is None:
                    saw_null = True
                elif (value is True) is stop_on:
                    return stop_on
            return None if saw_null else not stop_on

        return boolean

    if isinstance(expr, Not):
        child_fn = compile_pair(expr.operand, names, mapping)
        if child_fn is None:
            return None

        def negation(lrow, rrow, fn=child_fn):
            value = fn(lrow, rrow)
            if value is None:
                return None
            return value is not True

        return negation

    return None
