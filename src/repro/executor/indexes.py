"""Index management and index-nested-loop join.

Paper Section 3.2 argues that, unlike generic multiple-query-processing
temporaries, a *materialized* intermediate result can always be indexed
afterwards, "therefore it is guaranteed that there is a performance gain
if an intermediate result is materialized".  This module makes that claim
executable: an :class:`IndexManager` maintains hash indexes over stored
tables, and :func:`index_nested_loop_join` probes an index instead of
rescanning the inner relation for every outer block.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple

from repro.algebra.expressions import Expression
from repro.errors import ExecutionError
from repro.storage.index import HashIndex
from repro.storage.table import Table
from repro.executor._rowwise import _joined_blocking_factor


class IndexManager:
    """Hash indexes over named tables, rebuilt on demand.

    Keys are ``(table name, attribute)``.  The manager tracks the table
    cardinality at build time so a changed table is re-indexed lazily.
    """

    def __init__(self) -> None:
        self._indexes: Dict[Tuple[str, str], Tuple[HashIndex, int]] = {}

    def ensure(self, name: str, table: Table, attribute: str) -> HashIndex:
        """Return a fresh index on ``table.attribute`` (build if needed)."""
        resolved = table.schema.attribute(attribute).name
        key = (name, resolved)
        cached = self._indexes.get(key)
        if cached is not None:
            index, built_at = cached
            if built_at == table.cardinality and index.table is table:
                return index
        index = HashIndex(table, resolved)
        # Building costs one pass over the table.
        table.io.read_blocks(table.num_blocks)
        self._indexes[key] = (index, table.cardinality)
        return index

    def invalidate(self, name: str) -> None:
        """Drop all indexes of a table (after updates)."""
        for key in [k for k in self._indexes if k[0] == name]:
            del self._indexes[key]

    def __len__(self) -> int:
        return len(self._indexes)


def index_nested_loop_join(
    outer: Table,
    index: HashIndex,
    equi_pair: Tuple[str, str],
    residual: Optional[Expression] = None,
) -> Table:
    """Join ``outer`` against an indexed inner table.

    Reads ``B(outer)`` blocks plus, per outer row, the index probe and
    the matching inner blocks — the access pattern that makes indexed
    materialized views profitable even for selective probes.  An outer
    row with a NULL key matches nothing, so it is not probed.
    """
    outer_key, inner_key = equi_pair
    inner = index.table
    if index.attribute != inner.schema.attribute(inner_key).name:
        raise ExecutionError(
            f"index is on {index.attribute!r}, join needs {inner_key!r}"
        )
    schema = outer.schema.join(inner.schema)
    out = Table(schema, _joined_blocking_factor(outer, inner), io=outer.io)
    resolved_outer = outer.schema.attribute(outer_key).name
    for row in outer.scan(count_io=True):
        key = row[resolved_outer]
        if key is None:
            continue
        for match in index.lookup(key):
            merged = {**row, **match}
            if residual is None or residual.evaluate(merged) is True:
                out.insert(merged)
    return out
