"""Secondary indexes over heap tables.

The paper argues (Section 3.2) that an index can always be built on a
materialized intermediate result, guaranteeing a performance gain; these
index structures back that claim in the execution engine and in the
maintenance layer (delta joins probe indexes instead of rescanning).
"""

from __future__ import annotations

import bisect
from typing import Any, Dict, Iterator, List, Tuple

from repro.errors import StorageError
from repro.storage.block import block_count
from repro.storage.table import Table


class HashIndex:
    """Equality index: attribute value -> matching rows.

    Lookups charge ``ceil(matches / blocking_factor)`` block reads (the
    blocks holding the matches) plus one read for the index probe itself.
    """

    def __init__(self, table: Table, attribute: str):
        self.table = table
        self.attribute = table.schema.attribute(attribute).name
        self._buckets: Dict[Any, List[int]] = {}
        self.rebuild()

    def rebuild(self) -> None:
        self._buckets.clear()
        for position, row in enumerate(self.table.rows()):
            self._buckets.setdefault(row[self.attribute], []).append(position)

    def lookup(self, value: Any, count_io: bool = True) -> List[Dict[str, Any]]:
        positions = self._buckets.get(value, [])
        if count_io:
            self.table.io.read_blocks(
                1 + block_count(len(positions), self.table.blocking_factor)
            )
        table = self.table
        # A plain table is indexed in place; a fault-injecting proxy
        # still draws its read fault through ``rows()``.
        rows = table._rows if type(table) is Table else table.rows()
        return [rows[p] for p in positions]

    def __len__(self) -> int:
        return sum(len(v) for v in self._buckets.values())


class SortedIndex:
    """Ordered index supporting range lookups via binary search."""

    def __init__(self, table: Table, attribute: str):
        self.table = table
        self.attribute = table.schema.attribute(attribute).name
        self._entries: List[Tuple[Any, int]] = []
        self.rebuild()

    def rebuild(self) -> None:
        self._entries = sorted(
            (row[self.attribute], position)
            for position, row in enumerate(self.table.rows())
            if row[self.attribute] is not None
        )

    def range(
        self,
        low: Any = None,
        high: Any = None,
        include_low: bool = True,
        include_high: bool = True,
        count_io: bool = True,
    ) -> List[Dict[str, Any]]:
        """Rows with ``low <op> attribute <op> high`` (None = unbounded)."""
        keys = [entry[0] for entry in self._entries]
        start = 0
        if low is not None:
            start = (
                bisect.bisect_left(keys, low)
                if include_low
                else bisect.bisect_right(keys, low)
            )
        end = len(keys)
        if high is not None:
            end = (
                bisect.bisect_right(keys, high)
                if include_high
                else bisect.bisect_left(keys, high)
            )
        if end < start:
            end = start
        positions = [position for _, position in self._entries[start:end]]
        if count_io:
            self.table.io.read_blocks(
                1 + block_count(len(positions), self.table.blocking_factor)
            )
        rows = self.table.rows()
        return [rows[p] for p in positions]

    def __len__(self) -> int:
        return len(self._entries)
