"""``Table.delete_many`` against the sorted-key algorithm it replaced.

The oracle below is the earlier implementation, kept verbatim in
spirit: it keys every row by ``tuple(sorted(row.items()))`` and
rebuilds the kept rows.  The one-pass version must agree with it on
the rows returned, the rows kept and their order, the I/O charged and
the ``write_hook`` payload, over duplicates, NULLs, FLOAT columns given
ints, unmatched rows, short and qualified names and one-column schemas.
"""

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.catalog.datatypes import DataType
from repro.catalog.schema import Attribute, RelationSchema
from repro.storage.block import block_count
from repro.storage.table import Table

SETTINGS = settings(
    max_examples=300,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

NAN = float("nan")
VALUES = {
    DataType.INTEGER: st.one_of(st.none(), st.integers(0, 2)),
    DataType.FLOAT: st.one_of(
        st.none(), st.integers(0, 2), st.sampled_from([0.5, 1.0, NAN])
    ),
    DataType.STRING: st.one_of(st.none(), st.sampled_from(["a", "b"])),
}


def reference_delete_many(table, rows, count_io=True):
    """The sorted-key ``delete_many``: one sort per given and stored row."""
    wanted = {}
    for row in rows:
        key = tuple(sorted(table._normalize(row).items()))
        wanted[key] = wanted.get(key, 0) + 1
    if not wanted:
        return []
    if count_io:
        table.io.read_blocks(table.num_blocks)
    kept, removed = [], []
    for stored in table._rows:
        key = tuple(sorted(stored.items()))
        if wanted.get(key, 0) > 0:
            wanted[key] -= 1
            removed.append(stored)
        else:
            kept.append(stored)
    if removed:
        table._rows[:] = kept
        if table._colcache is not None:
            table._colcache.invalidate()
        if count_io:
            table.io.write_blocks(block_count(len(removed), table.blocking_factor))
        if table.write_hook is not None:
            table.write_hook("delete", removed)
    return removed


@st.composite
def cases(draw):
    types = draw(st.lists(st.sampled_from(list(VALUES)), min_size=1, max_size=3))
    short = [f"c{i}" for i in range(len(types))]
    qualified = draw(st.booleans())
    schema = RelationSchema(
        "R",
        [
            Attribute(f"R.{name}" if qualified else name, datatype)
            for name, datatype in zip(short, types)
        ],
    )
    row = st.fixed_dictionaries(
        {name: VALUES[datatype] for name, datatype in zip(short, types)}
    )
    stored = draw(st.lists(row, max_size=10))
    pick = st.sampled_from(stored) if stored else row
    deletes = []
    for chosen in draw(st.lists(st.one_of(pick, row), max_size=6)):
        # Given rows may use short or qualified names, row by row.
        if qualified and draw(st.booleans()):
            chosen = {f"R.{name}": value for name, value in chosen.items()}
        deletes.append(chosen)
    return (
        schema,
        stored,
        deletes,
        draw(st.sampled_from([1, 3, 10])),
        draw(st.booleans()),
        draw(st.booleans()),
    )


def _table(schema, stored, blocking_factor, cached):
    table = Table(schema, blocking_factor)
    table.insert_many(stored, count_io=False)
    payloads = []
    table.write_hook = lambda op, rows: payloads.append((op, list(rows)))
    if cached:
        table.column_view()
    return table, payloads


@SETTINGS
@given(cases())
def test_delete_many_matches_the_sorted_key_algorithm(case):
    schema, stored, deletes, blocking_factor, count_io, cached = case
    table, payloads = _table(schema, stored, blocking_factor, cached)
    oracle, oracle_payloads = _table(schema, stored, blocking_factor, cached)

    removed = table.delete_many(deletes, count_io=count_io)
    expected = reference_delete_many(oracle, deletes, count_io=count_io)

    assert removed == expected
    assert table.rows() == oracle.rows()
    assert (table.io.reads, table.io.writes) == (oracle.io.reads, oracle.io.writes)
    assert payloads == oracle_payloads
    if cached:
        for name in schema.attribute_names:
            assert table.column_view().column(name) == [
                row[name] for row in table.rows()
            ]


def test_first_stored_occurrence_goes():
    schema = RelationSchema(
        "R", [Attribute("R.k", DataType.INTEGER), Attribute("R.f", DataType.FLOAT)]
    )
    table = Table(schema)
    table.insert_many(
        [{"k": 1, "f": 1}, {"k": 2, "f": None}, {"k": 1, "f": 1}], count_io=False
    )
    first = table.rows()[0]
    removed = table.delete_many([{"R.k": 1, "f": 1}, {"k": 3, "f": None}])
    assert removed[0] is first
    assert table.rows() == [{"R.k": 2, "R.f": None}, {"R.k": 1, "R.f": 1.0}]
