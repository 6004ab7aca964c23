"""In-memory block-structured heap tables.

Rows are read and written as dictionaries keyed by the schema's
attribute names (which are qualified, e.g. ``"Product.Pid"``, once a
table participates in query processing).  A table the vectorized
executor returns holds the executor's columns instead and builds its
row dictionaries once, on the first read or write that needs them;
its size is known without them.  Physically, rows are grouped into
blocks of ``blocking_factor`` rows; every scan charges one read per
block to the table's :class:`IOCounter`.
"""

from __future__ import annotations

from itertools import compress
from operator import itemgetter
from typing import Any, Callable, Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple

from repro.catalog.schema import RelationSchema
from repro.errors import StorageError
from repro.storage.block import IOCounter, block_count

#: Rows per block when the caller does not specify a blocking factor.
DEFAULT_BLOCKING_FACTOR = 10


class Table:
    """A heap table: a schema, rows, and a blocking factor."""

    #: Optional change-capture callback ``hook(op, rows)`` with ``op`` in
    #: ``("insert", "delete")`` and ``rows`` the normalized rows written
    #: or removed.  Fired *after* a successful mutation (a fault-aborted
    #: write emits nothing), so a change log never records a write that
    #: did not happen.  Class-level default keeps proxies cheap.
    write_hook = None

    #: ``(columns, length)`` a result table holds until its rows are
    #: first needed (see :attr:`_rows`); ``None`` once they are built.
    _pending = None

    def __init__(
        self,
        schema: RelationSchema,
        blocking_factor: float = DEFAULT_BLOCKING_FACTOR,
        io: Optional[IOCounter] = None,
    ):
        if blocking_factor <= 0:
            raise StorageError(f"blocking factor must be positive: {blocking_factor}")
        self.schema = schema
        self.blocking_factor = blocking_factor
        self.io = io if io is not None else IOCounter()
        self._rows: List[Dict[str, Any]] = []
        self._colcache = None  # lazily created ColumnView

    @property
    def _rows(self) -> List[Dict[str, Any]]:
        """The stored row list, built from pending columns on first use.

        Each access is a property call, so a per-row loop binds the list
        once."""
        pending = self._pending
        if pending is not None:
            self._pending = None
            names = self.schema.attribute_names
            self._built = [dict(zip(names, values)) for values in zip(*pending[0])]
        return self._built

    @_rows.setter
    def _rows(self, rows: List[Dict[str, Any]]) -> None:
        self._pending = None
        self._built = rows

    # ---------------------------------------------------------------- sizing
    @property
    def cardinality(self) -> int:
        pending = self._pending
        return len(self._built) if pending is None else pending[1]

    @property
    def num_blocks(self) -> int:
        return block_count(self.cardinality, self.blocking_factor)

    def __len__(self) -> int:
        return self.cardinality

    # --------------------------------------------------------------- loading
    def insert(self, row: Mapping[str, Any], count_io: bool = False) -> None:
        """Insert one row (validated against the schema's types)."""
        normalized = self._normalize(row)
        self._rows.append(normalized)
        if self._colcache is not None:
            self._colcache.invalidate()
        if count_io:
            self.io.write_blocks(1)
        if self.write_hook is not None:
            self.write_hook("insert", [normalized])

    def insert_many(self, rows: Iterable[Mapping[str, Any]], count_io: bool = True) -> int:
        """Bulk insert; charges one write per *block* appended."""
        stored = self._rows
        before = len(stored)
        for row in rows:
            stored.append(self._normalize(row))
        added = len(stored) - before
        if added and self._colcache is not None:
            self._colcache.invalidate()
        if count_io and added:
            self.io.write_blocks(block_count(added, self.blocking_factor))
        if added and self.write_hook is not None:
            self.write_hook("insert", stored[before:])
        return added

    def delete_many(
        self, rows: Iterable[Mapping[str, Any]], count_io: bool = True
    ) -> List[Dict[str, Any]]:
        """Remove one stored occurrence per given row (bag semantics).

        Rows are matched after normalization (short or qualified column
        names accepted), so the caller can pass exactly what it inserted.
        The first stored occurrence goes, so the kept rows keep their
        order.  Returns the rows actually removed, in stored order — a
        row with no stored match is skipped, not an error.

        One pass, no sort: rows are keyed by :func:`row_values`, and only
        stored rows whose value in one column is among the given rows'
        values in that column are keyed at all.  Charges one read per
        block scanned plus one write per block of removed rows.
        """
        key = row_values(self.schema)
        wanted: Dict[Any, int] = {}
        for row in rows:
            k = key(self._normalize(row))
            wanted[k] = wanted.get(k, 0) + 1
        if not wanted:
            return []
        if count_io:
            self.io.read_blocks(self.num_blocks)
        stored = self._rows
        hits: List[int] = []
        for index in self._candidates(wanted):
            k = key(stored[index])
            count = wanted.get(k)
            if count:
                wanted[k] = count - 1
                hits.append(index)
        if not hits:
            return []
        removed = [stored[index] for index in hits]
        for index in reversed(hits):
            del stored[index]
        if self._colcache is not None:
            self._colcache.invalidate()
        if count_io:
            self.io.write_blocks(block_count(len(removed), self.blocking_factor))
        if self.write_hook is not None:
            self.write_hook("delete", removed)
        return removed

    def _candidates(self, wanted: Mapping[Any, int]) -> List[int]:
        """Positions of the stored rows that may equal a ``wanted`` key:
        those whose value in the column with the most distinct wanted
        values is among them."""
        names = self.schema.attribute_names
        stored = self._rows
        if len(names) == 1:
            column, values = names[0], set(wanted)
        else:
            by_column = [set(values) for values in zip(*wanted)]
            if not by_column:  # no columns: every row is the empty row
                return list(range(len(stored)))
            best = max(range(len(names)), key=lambda i: len(by_column[i]))
            column, values = names[best], by_column[best]
        matches = map(values.__contains__, map(itemgetter(column), stored))
        return list(compress(range(len(stored)), matches))

    def _normalize(self, row: Mapping[str, Any]) -> Dict[str, Any]:
        out: Dict[str, Any] = {}
        for attribute in self.schema:
            if attribute.name in row:
                value = row[attribute.name]
            elif attribute.short_name in row:
                value = row[attribute.short_name]
            else:
                raise StorageError(
                    f"row missing attribute {attribute.name!r}: {sorted(row)}"
                )
            out[attribute.name] = attribute.datatype.validate(value)
        return out

    # --------------------------------------------------------------- reading
    def scan(self, count_io: bool = True) -> Iterator[Dict[str, Any]]:
        """Yield every row; charges one read per block when ``count_io``."""
        if count_io:
            self.io.read_blocks(self.num_blocks)
        yield from iter(self._rows)

    def rows(self) -> List[Dict[str, Any]]:
        """A new list of the stored rows, without I/O accounting.

        The list is the caller's own; the row dicts are shared with the
        table and must not be mutated.  A fault-injecting proxy still
        fails the read."""
        return list(self._rows)

    def copy(self) -> "Table":
        """A plain table holding this table's rows, without re-validating them.

        Same schema, blocking factor and :class:`IOCounter`.  The row
        list is the copy's own, so later inserts or deletes on either
        table leave the other unchanged; the row dicts are shared, as
        :meth:`rows` already shares them.  Reads through :meth:`rows`
        (a fault-injecting proxy still fails the read), charges no I/O
        and carries no ``write_hook``.
        """
        out = Table(self.schema, self.blocking_factor, io=self.io)
        out._rows = self.rows()
        return out

    def clear(self) -> None:
        self._rows.clear()
        if self._colcache is not None:
            self._colcache.invalidate()

    def column_view(self):
        """The cached columnar view of this table's rows.

        Created on first use and invalidated automatically whenever the
        rows change.  Fault-injecting proxies share the wrapped table's
        view, so both handles always observe the same cache.
        """
        if self._colcache is None:
            from repro.storage.columnar import ColumnView

            self._colcache = ColumnView(self._rows)
        return self._colcache

    def qualified(self, relation_name: Optional[str] = None) -> "Table":
        """A view of this table with attribute names qualified.

        Used when a base table loaded with short column names enters
        query processing, where plans reference ``Relation.attr`` names.
        The returned table shares this table's :class:`IOCounter`.
        """
        name = relation_name or self.schema.name
        qualified_schema = self.schema.rename(name).qualify()
        out = Table(qualified_schema, self.blocking_factor, io=self.io)
        mapping = {
            old.name: new.name
            for old, new in zip(self.schema, qualified_schema)
        }
        out._rows = [
            {mapping[k]: v for k, v in row.items()} for row in self._rows
        ]
        return out

    def __repr__(self) -> str:
        return (
            f"Table({self.schema.name}, rows={self.cardinality}, "
            f"blocks={self.num_blocks})"
        )


def table_from_rows(
    schema: RelationSchema,
    rows: Sequence[Mapping[str, Any]],
    blocking_factor: float = DEFAULT_BLOCKING_FACTOR,
    io: Optional[IOCounter] = None,
) -> Table:
    """Build a table from rows without charging load I/O."""
    table = Table(schema, blocking_factor, io)
    table.insert_many(rows, count_io=False)
    return table


def row_values(schema: RelationSchema) -> Callable[[Mapping[str, Any]], Any]:
    """A function giving a normalized row's values in ``schema`` order.

    The result is hashable and compares like the row, so it keys rows
    in bag operations; a one-column schema gives the bare value.
    """
    names = schema.attribute_names
    return itemgetter(*names) if names else lambda row: ()


def row_items(row: Mapping[str, Any]) -> Tuple[Tuple[str, Any], ...]:
    """A row as its ``(column, value)`` pairs sorted by column name:
    hashable, and equal for rows equal whatever their key order."""
    return tuple(sorted(row.items()))


def items_order(items: Tuple[Tuple[str, Any], ...]) -> tuple:
    """A sort key for :func:`row_items` tuples that orders NULLs.

    A NULL sorts before every value of its column, where comparing the
    pairs themselves raises ``TypeError``; rows without NULLs sort
    exactly as their pairs do.
    """
    return tuple((name, value is not None, value) for name, value in items)
