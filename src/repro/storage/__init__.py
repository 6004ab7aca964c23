"""Physical storage: block-structured tables, column views, I/O accounting."""

from repro.storage.block import IOCounter, IOSnapshot, block_count
from repro.storage.table import DEFAULT_BLOCKING_FACTOR, Table, table_from_rows

__all__ = [
    "DEFAULT_BLOCKING_FACTOR",
    "IOCounter",
    "IOSnapshot",
    "Table",
    "block_count",
    "table_from_rows",
]
