"""In-memory block-structured heap tables.

Rows are dictionaries keyed by the schema's attribute names (which are
qualified, e.g. ``"Product.Pid"``, once a table participates in query
processing).  Physically, rows are grouped into blocks of
``blocking_factor`` rows; every scan charges one read per block to the
table's :class:`IOCounter`.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, Iterator, List, Mapping, Optional, Sequence

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

    # ---------------------------------------------------------------- sizing
    @property
    def cardinality(self) -> int:
        return len(self._rows)

    @property
    def num_blocks(self) -> int:
        return block_count(len(self._rows), self.blocking_factor)

    def __len__(self) -> int:
        return len(self._rows)

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
        before = len(self._rows)
        for row in rows:
            self._rows.append(self._normalize(row))
        added = len(self._rows) - before
        if added and self._colcache is not None:
            self._colcache.invalidate()
        if count_io and added:
            self.io.write_blocks(block_count(added, self.blocking_factor))
        if added and self.write_hook is not None:
            self.write_hook("insert", self._rows[before:])
        return added

    def delete_many(
        self, rows: Iterable[Mapping[str, Any]], count_io: bool = True
    ) -> List[Dict[str, Any]]:
        """Remove one stored occurrence per given row (bag semantics).

        Rows are matched after normalization (short or qualified column
        names accepted), so the caller can pass exactly what it inserted.
        Returns the rows actually removed — a row with no stored match is
        skipped, not an error.  Charges one read per block scanned plus
        one write per block of removed rows.
        """
        wanted: Dict[tuple, int] = {}
        for row in rows:
            key = tuple(sorted(self._normalize(row).items()))
            wanted[key] = wanted.get(key, 0) + 1
        if not wanted:
            return []
        if count_io:
            self.io.read_blocks(self.num_blocks)
        kept: List[Dict[str, Any]] = []
        removed: List[Dict[str, Any]] = []
        for stored in self._rows:
            key = tuple(sorted(stored.items()))
            if wanted.get(key, 0) > 0:
                wanted[key] -= 1
                removed.append(stored)
            else:
                kept.append(stored)
        if removed:
            self._rows[:] = kept
            if self._colcache is not None:
                self._colcache.invalidate()
            if count_io:
                self.io.write_blocks(
                    block_count(len(removed), self.blocking_factor)
                )
            if self.write_hook is not None:
                self.write_hook("delete", removed)
        return removed

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
        """All rows without I/O accounting (inspection/testing only)."""
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

            self._colcache = ColumnView(self)
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
        for row in self._rows:
            out._rows.append({mapping[k]: v for k, v in row.items()})
        return out

    def __repr__(self) -> str:
        return (
            f"Table({self.schema.name}, rows={len(self._rows)}, "
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
