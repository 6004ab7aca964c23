"""The rewound overlay of a drain against the record-by-record loop.

A coalesced run evaluates against every other relation as it stood at
the run's last record: the head rows with the later records undone,
newest first.  The oracle below is the earlier loop, which copied every
row, removed the newest stored occurrence of each logged insert with a
scan from the end and re-inserted the rows through ``insert_many``.
The one-pass version must give the same rows in the same order, and
raise the same error for a logged insert the table does not hold.
"""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.catalog.datatypes import DataType
from repro.catalog.schema import Attribute, RelationSchema
from repro.cdc.changelog import ChangeRecord, DELETE, INSERT, UPDATE
from repro.cdc.streaming import _rewound
from repro.errors import StreamingError
from repro.storage.table import Table

SETTINGS = settings(
    max_examples=300,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

SCHEMA = RelationSchema(
    "R", [Attribute("R.k", DataType.INTEGER), Attribute("R.f", DataType.FLOAT)]
)
ROW = st.fixed_dictionaries(
    {"k": st.one_of(st.none(), st.integers(0, 2)), "f": st.sampled_from([None, 1, 2.5])}
)


def reference_rewound(table, future):
    """The record-by-record rewind: one backward scan per logged insert."""

    def key(row):
        return tuple(sorted(row.items()))

    rows = [dict(row) for row in table.rows()]
    for record in reversed(future):
        if record.op in (INSERT, UPDATE):
            for index in range(len(rows) - 1, -1, -1):
                if key(rows[index]) == key(record.row):
                    del rows[index]
                    break
            else:
                raise StreamingError("a logged insert is missing")
        if record.op in (DELETE, UPDATE):
            rows.append(dict(record.old_row))
    rewound = Table(table.schema, table.blocking_factor, io=table.io)
    rewound.insert_many(rows, count_io=False)
    return rewound


@st.composite
def histories(draw):
    """A head table's rows and the records that led to them from an
    earlier state."""
    table = Table(SCHEMA, blocking_factor=3)
    table.insert_many(draw(st.lists(ROW, max_size=8)), count_io=False)
    future = []

    def record(op, row=None, old_row=None):
        seq = len(future) + 1
        future.append(
            ChangeRecord(relation="R", lsn=seq, seq=seq, op=op, row=row, old_row=old_row)
        )

    for op in draw(st.lists(st.sampled_from([INSERT, DELETE, UPDATE]), max_size=8)):
        if op != INSERT and not len(table):
            op = INSERT
        if op in (DELETE, UPDATE):
            # Deleting a recent insert gives insert-then-delete pairs.
            (old,) = table.delete_many([draw(st.sampled_from(table.rows()))])
        if op in (INSERT, UPDATE):
            table.insert_many([draw(ROW)], count_io=False)
            new = table.rows()[-1]
        record(op, row=new if op != DELETE else None, old_row=old if op != INSERT else None)
    if draw(st.booleans()) and future:
        # A log that disagrees with the table: an insert it never stored.
        record(INSERT, row={"R.k": 9, "R.f": None})
    return table.rows(), future


@SETTINGS
@given(histories())
def test_rewound_matches_the_record_by_record_loop(history):
    head, future = history
    table = Table(SCHEMA, blocking_factor=3)
    table.insert_many(head, count_io=False)
    before = table.rows()
    try:
        expected = reference_rewound(table, future)
    except StreamingError:
        with pytest.raises(StreamingError):
            _rewound(table, future)
        return
    rewound = _rewound(table, future)
    assert rewound.rows() == expected.rows()
    assert rewound.io is table.io
    assert rewound.write_hook is None
    assert table.rows() == before


def test_insert_then_delete_of_a_stored_row_keeps_the_head_order():
    table = Table(SCHEMA)
    table.insert_many([{"k": 1, "f": 1}, {"k": 2, "f": None}], count_io=False)
    row = dict(table.rows()[0])
    future = [
        ChangeRecord(relation="R", lsn=1, seq=1, op=INSERT, row=row),
        ChangeRecord(relation="R", lsn=2, seq=2, op=DELETE, old_row=row),
    ]
    assert _rewound(table, future).rows() == table.rows()
