"""Columnar chunk views over block-structured tables.

The vectorized executor (``repro.executor.physical``) consumes tables
column-at-a-time.  :class:`ColumnView` is a lazily built, cached
transposition of a :class:`~repro.storage.table.Table`'s rows: one
Python list per attribute, built on first access and invalidated by the
table whenever its rows change (:meth:`Table.insert`,
:meth:`Table.insert_many`, :meth:`Table.clear`).

Beside the columns the view caches one *position index* per column on
demand (:meth:`ColumnView.positions`): each value mapped to the
ascending row positions holding it, built by :func:`hash_groups`.  The
executor answers a leading ``column = literal`` filter conjunct and a
single-column GROUP BY over a stored table from it instead of a pass
over the column, and an index-nested-loop join probes it for the
stored inner relation (the paper's §3.2: an index can always be built
on a materialized intermediate).  Invalidation drops the indexes with
the columns.

Columns and indexes are purely in-memory access paths — they never
touch the table's :class:`~repro.storage.block.IOCounter` and charge
no I/O.  Block I/O accounting stays exactly where the row engine put
it: operators charge reads and writes at scan/materialize boundaries,
whether they then iterate rows, columns or an index (a filter answered
from an index still charges the linear scan the cost model assumes).

The one charge an index carries is its build, and only a join pays
it: ``B(table)`` the first time an index-nested-loop join probes a
column after the table last changed.  :attr:`ColumnView.charged_builds`
records the columns whose build a join has charged; both engines read
and set it, and invalidation clears it with the indexes.  So the
charge follows the table, not the engine: a filter or GROUP BY that
built the index charged nothing for it, and a second engine (or an
overlay engine) over an unchanged table does not charge it again.

Fault-injecting proxies (:class:`repro.resilience.faults.FaultyTable`)
share the wrapped table's view instance, so a mutation through either
handle invalidates the one cache both sides read.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Set


def hash_groups(keys: Iterable[Any]) -> Dict[Any, List[int]]:
    """Key -> ascending positions, keys in first-occurrence order."""
    groups: Dict[Any, List[int]] = {}
    for position, key in enumerate(keys):
        group = groups.get(key)
        if group is None:
            groups[key] = [position]
        else:
            group.append(position)
    return groups


class ColumnView:
    """A cached column-major view of one table's rows.

    Columns are plain Python lists aligned by row position; ``None``
    marks SQL NULL exactly as in the row representation.  The cache
    maps attribute *names* (the table schema's qualified names) to
    columns and is rebuilt per column on demand after invalidation.
    Position indexes are keyed the same way and dropped with the
    columns, and so is :attr:`charged_builds`.
    """

    __slots__ = ("_rows", "_columns", "_positions", "_charged", "_cardinality")

    def __init__(self, rows: List[Dict[str, Any]]) -> None:
        #: The table's row list, not the table: a cycle would keep a
        #: replaced table and its columns alive until a cyclic collection.
        self._rows = rows
        self._columns: Dict[str, List[object]] = {}
        self._positions: Dict[str, Dict[Any, List[int]]] = {}
        self._charged: Set[str] = set()
        self._cardinality: int = -1

    def invalidate(self) -> None:
        """Drop all cached columns and indexes (called by the owning table)."""
        self._columns.clear()
        self._positions.clear()
        self._charged.clear()
        self._cardinality = -1

    def _revalidate(self) -> None:
        rows = self._rows
        if self._cardinality != len(rows):
            # Stale for a reason invalidation didn't see (defensive —
            # direct ``_rows`` mutation); rebuild everything lazily.
            self.invalidate()
            self._cardinality = len(rows)

    @property
    def cardinality(self) -> int:
        """Row count the cached columns correspond to."""
        return len(self._rows)

    def column(self, name: str) -> List[object]:
        """The values of attribute ``name`` in row order (cached).

        ``name`` must be an exact qualified attribute name from the
        table's schema (callers resolve short names first, with the
        same rules the row engine uses).
        """
        self._revalidate()
        column = self._columns.get(name)
        if column is None:
            column = [row[name] for row in self._rows]
            self._columns[name] = column
        return column

    def positions(self, name: str) -> Dict[Any, List[int]]:
        """Value -> ascending row positions of column ``name`` (cached).

        Keys are in first-occurrence order, exactly as
        :func:`hash_groups` yields them; NULL is the key ``None``.  The
        dict and its lists are shared by every caller and must be
        treated as read-only.
        """
        column = self.column(name)  # revalidates the cache first
        index = self._positions.get(name)
        if index is None:
            index = hash_groups(column)
            self._positions[name] = index
        return index

    @property
    def charged_builds(self) -> Set[str]:
        """Columns whose index build an index-nested-loop join has
        charged since the table last changed; the executor adds to it."""
        self._revalidate()
        return self._charged

    def columns(self, names) -> List[List[object]]:
        """Columns for ``names`` (exact qualified names), in order."""
        return [self.column(name) for name in names]

    def has_cached(self, name: str) -> bool:
        """Whether ``name`` is currently materialized (for tests)."""
        return name in self._columns

    def has_index(self, name: str) -> bool:
        """Whether the position index of ``name`` is built (for tests)."""
        return name in self._positions
