"""Selection-vector kernels against row-at-a-time ``Expression.evaluate``.

:func:`compile_selection` must select exactly the rows where the
predicate evaluates to ``True``, and must run each conjunct only on the
rows the row engine would evaluate it on — so a conjunct that raises on
a row an earlier conjunct already rejected raises in neither.  Random
predicate trees over random NULL-bearing columns of mixed types (an
INTEGER column compared with a STRING literal raises ``TypeError``)
pin both halves.  The same pass rule — a row passes iff its predicate
is ``True`` — holds for the vectorized engine, the REFERENCE engine and
the oracle in :mod:`repro.executor.reference`.
"""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro import obs
from repro.algebra.expressions import Not, column, compare, literal
from repro.algebra.operators import Join, Relation, Select
from repro.algebra.predicates import conjunction, disjunction
from repro.catalog.datatypes import DataType
from repro.catalog.schema import Attribute, RelationSchema
from repro.errors import AlgebraError
from repro.executor.batch import compile_mask, compile_pair, compile_selection
from repro.executor.engine import (
    ENGINES,
    HASH,
    NESTED_LOOP,
    SORT_MERGE,
    Database,
    ExecutionEngine,
)
from repro.executor.physical import (
    ExecutionContext,
    Filter,
    materialize,
    scan_of,
)
from repro.executor.reference import evaluate as oracle
from repro.storage.table import Table

SETTINGS = settings(
    max_examples=200,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

NAMES = ("T.i", "T.j", "T.f", "T.s")
OPS = ("=", "!=", "<", "<=", ">", ">=")

_VALUES = {
    "T.i": st.integers(0, 4),
    "T.j": st.integers(0, 4),
    "T.f": st.sampled_from([0.0, 1.5, 2.0, 3.5]),
    "T.s": st.sampled_from(["a", "b", "c"]),
}


def _nullable(values):
    return st.one_of(st.none(), values, values)


ROWS = st.lists(
    st.fixed_dictionaries({name: _nullable(_VALUES[name]) for name in NAMES}),
    max_size=12,
)

_LITERALS = st.one_of(
    st.integers(0, 4).map(literal),
    st.sampled_from([1.0, 2.5]).map(literal),
    st.sampled_from(["a", "b"]).map(literal),
)

LEAVES = st.one_of(
    st.builds(compare, st.sampled_from(NAMES), st.sampled_from(OPS), _LITERALS),
    st.builds(
        compare,
        st.sampled_from(NAMES),
        st.sampled_from(OPS),
        st.sampled_from(NAMES).map(column),
    ),
    st.sampled_from(NAMES).map(column),
    _LITERALS,
)

PREDICATES = st.recursive(
    LEAVES,
    lambda children: st.one_of(
        st.lists(children, min_size=2, max_size=3).map(conjunction),
        st.lists(children, min_size=2, max_size=3).map(disjunction),
        children.map(Not),
    ),
    max_leaves=6,
)


def _outcome(thunk):
    """The value ``thunk`` returns, or the type of error it raises."""
    try:
        return thunk()
    except TypeError:
        return TypeError


def _columns(rows):
    return [[row[name] for row in rows] for name in NAMES]


@SETTINGS
@given(PREDICATES, ROWS)
def test_selection_is_the_rows_evaluating_true(predicate, rows):
    select = compile_selection(predicate, NAMES)
    assert select is not None
    got = _outcome(lambda: select(_columns(rows), len(rows)))
    expected = _outcome(
        lambda: [i for i, row in enumerate(rows) if predicate.evaluate(row) is True]
    )
    assert got == expected


NUMERIC_COMPARISONS = st.builds(
    compare,
    st.sampled_from(("T.i", "T.j", "T.f")),
    st.sampled_from(OPS),
    st.one_of(st.integers(0, 4).map(literal), st.sampled_from(("T.i", "T.f")).map(column)),
)


@SETTINGS
@given(st.lists(NUMERIC_COMPARISONS, min_size=1, max_size=2), ROWS)
def test_a_conjunct_runs_where_earlier_ones_are_true_or_null(parts, rows):
    # ``T.s > 3`` raises on any non-NULL string.  Its signature sorts
    # after every numeric comparison, so it is the last conjunct and
    # raises iff a row with a string reaches it.
    predicate = conjunction([*parts, compare("T.s", ">", literal(3))])
    select = compile_selection(predicate, NAMES)
    got = _outcome(lambda: select(_columns(rows), len(rows)))
    expected = _outcome(
        lambda: [i for i, row in enumerate(rows) if predicate.evaluate(row) is True]
    )
    assert got == expected


@SETTINGS
@given(PREDICATES, ROWS, st.data())
def test_mask_evaluates_only_the_given_rows(predicate, rows, data):
    positions = sorted(
        data.draw(st.sets(st.integers(0, max(len(rows) - 1, 0))))
        if rows
        else []
    )
    mask = compile_mask(predicate, NAMES)
    got = _outcome(lambda: mask(_columns(rows), positions))
    expected = _outcome(lambda: [predicate.evaluate(rows[p]) for p in positions])
    assert got == expected


@SETTINGS
@given(PREDICATES, ROWS, ROWS)
def test_pair_kernel_matches_merged_row_evaluation(predicate, lefts, rights):
    # The right side shadows T.i and T.s; T.j and T.f come from the left.
    left_names, right_names = NAMES, ("T.i", "T.s")
    pair = compile_pair(predicate, left_names, right_names)
    assert pair is not None
    pairs = [(left, right) for left in lefts for right in rights]

    def kernel():
        return [
            pair(
                tuple(left[n] for n in left_names),
                tuple(right[n] for n in right_names),
            )
            for left, right in pairs
        ]

    def rowwise():
        return [
            predicate.evaluate(
                {**left, **{n: right[n] for n in right_names}}
            )
            for left, right in pairs
        ]

    assert _outcome(kernel) == _outcome(rowwise)


# ------------------------------------------------------ engines and oracle
def _run(plan, tables, schemas, mode, method=NESTED_LOOP):
    database = Database()
    for name, rows in tables.items():
        table = Table(schemas[name], blocking_factor=3)
        table.insert_many(rows)
        database.register(name, table)
    result = ExecutionEngine(database, method, engine=mode).execute(plan)
    return list(result.rows())


class TestShortCircuitParity:
    """A conjunct runs only where every earlier one was True or NULL."""

    SCHEMA = RelationSchema(
        "A",
        [Attribute("A.a", DataType.INTEGER), Attribute("A.s", DataType.STRING)],
    )
    ROWS = [{"A.a": 0, "A.s": "a"}, {"A.a": 2, "A.s": "b"}]

    def _plan(self):
        # ``A.s > 3`` would raise TypeError, but no row has A.a = 1.
        predicate = conjunction(
            [compare("A.a", "=", literal(1)), compare("A.s", ">", literal(3))]
        )
        return Select(Relation("A", self.SCHEMA), predicate)

    @pytest.mark.parametrize("mode", ENGINES)
    def test_rejected_rows_never_reach_later_conjuncts(self, mode):
        rows = _run(self._plan(), {"A": self.ROWS}, {"A": self.SCHEMA}, mode)
        assert rows == []

    def test_oracle_agrees(self):
        assert oracle(self._plan(), {"A": self.ROWS}) == []

    @pytest.mark.parametrize("mode", ENGINES)
    def test_a_null_conjunct_does_not_stop_the_next(self, mode):
        rows = [{"A.a": None, "A.s": "a"}]
        with pytest.raises(TypeError):
            _run(self._plan(), {"A": rows}, {"A": self.SCHEMA}, mode)


class TestPassRule:
    """A row passes iff its predicate is ``True`` — in every evaluator."""

    SCHEMA = RelationSchema(
        "A",
        [Attribute("A.id", DataType.INTEGER), Attribute("A.v", DataType.INTEGER)],
    )
    ROWS = [{"A.id": i, "A.v": v} for i, v in enumerate([0, 1, 2, None])]
    PREDICATES = {"column": column("A.v"), "literal": literal(2)}

    @pytest.mark.parametrize("kind", sorted(PREDICATES))
    @pytest.mark.parametrize("mode", ENGINES)
    def test_engines(self, mode, kind):
        plan = Select(Relation("A", self.SCHEMA), self.PREDICATES[kind])
        assert _run(plan, {"A": self.ROWS}, {"A": self.SCHEMA}, mode) == []

    @pytest.mark.parametrize("kind", sorted(PREDICATES))
    def test_oracle(self, kind):
        plan = Select(Relation("A", self.SCHEMA), self.PREDICATES[kind])
        assert oracle(plan, {"A": self.ROWS}) == []

    @pytest.mark.parametrize("mode", ENGINES)
    def test_a_conjunct_is_true_only_when_true(self, mode):
        # Splitting an AND into one selection per conjunct (as push-down
        # does) keeps the same rows only if AND applies the same rule.
        predicate = conjunction([column("A.v"), compare("A.id", ">=", 0)])
        plan = Select(Relation("A", self.SCHEMA), predicate)
        assert oracle(plan, {"A": self.ROWS}) == []
        assert _run(plan, {"A": self.ROWS}, {"A": self.SCHEMA}, mode) == []

    OTHER = RelationSchema(
        "B",
        [
            Attribute("B.id", DataType.INTEGER),
            Attribute("B.w", DataType.INTEGER),
            Attribute("B.ok", DataType.BOOLEAN),
        ],
    )
    OTHER_ROWS = [
        {"B.id": i, "B.w": w, "B.ok": ok}
        for i, (w, ok) in enumerate([(2, True), (1, False), (0, None), (None, True)])
    ]

    @pytest.mark.parametrize("residual", ("B.ok", "B.w"))
    @pytest.mark.parametrize("method", (NESTED_LOOP, HASH, SORT_MERGE))
    @pytest.mark.parametrize("mode", ENGINES)
    def test_join_residual(self, mode, method, residual):
        condition = conjunction(
            [compare("A.id", "=", column("B.id")), column(residual)]
        )
        plan = Join(Relation("A", self.SCHEMA), Relation("B", self.OTHER), condition)
        tables = {"A": self.ROWS, "B": self.OTHER_ROWS}
        schemas = {"A": self.SCHEMA, "B": self.OTHER}
        expected = (
            [
                {"A.id": 0, "A.v": 0, "B.id": 0, "B.w": 2, "B.ok": True},
                {"A.id": 3, "A.v": None, "B.id": 3, "B.w": None, "B.ok": True},
            ]
            if residual == "B.ok"
            else []
        )
        assert oracle(plan, tables) == expected
        assert _run(plan, tables, schemas, mode, method) == expected

    @pytest.mark.parametrize("mode", ENGINES)
    def test_lone_column_join_condition(self, mode):
        plan = Join(
            Relation("A", self.SCHEMA), Relation("B", self.OTHER), column("B.w")
        )
        tables = {"A": self.ROWS[:1], "B": self.OTHER_ROWS}
        schemas = {"A": self.SCHEMA, "B": self.OTHER}
        assert oracle(plan, tables) == []
        assert _run(plan, tables, schemas, mode) == []


class TestNestedLoopConjunctOrder:
    """Nested-loop joins run a pair's conjuncts in ``And.children``
    order, hash-accelerated or not: ``A.s > 3`` raises TypeError on any
    pair it reaches."""

    SCHEMA = RelationSchema(
        "A",
        [Attribute("A.a", DataType.INTEGER), Attribute("A.s", DataType.STRING)],
    )
    OTHER = RelationSchema("B", [Attribute("B.x", DataType.INTEGER)])
    SCHEMAS = {"A": SCHEMA, "B": OTHER}
    RAISES = compare("A.s", ">", literal(3))

    def _plan(self, *conjuncts):
        condition = conjunction(list(conjuncts))
        assert list(condition.children) == list(conjuncts)  # canonical order
        return Join(
            Relation("A", self.SCHEMA), Relation("B", self.OTHER), condition
        )

    @pytest.mark.parametrize("mode", ENGINES)
    def test_a_residual_before_the_equi_conjunct_sees_every_pair(self, mode):
        schema = RelationSchema(
            "A",
            [Attribute("A.s", DataType.STRING), Attribute("A.z", DataType.INTEGER)],
        )
        condition = conjunction([self.RAISES, compare("A.z", "=", column("B.x"))])
        assert condition.children[0] is self.RAISES
        plan = Join(Relation("A", schema), Relation("B", self.OTHER), condition)
        tables = {"A": [{"A.s": "a", "A.z": 1}], "B": [{"B.x": 2}]}
        with pytest.raises(TypeError):
            _run(plan, tables, {"A": schema, "B": self.OTHER}, mode)

    @pytest.mark.parametrize("mode", ENGINES)
    def test_a_false_equi_conjunct_stops_the_pair(self, mode):
        plan = self._plan(compare("A.a", "=", column("B.x")), self.RAISES)
        tables = {"A": [{"A.a": 1, "A.s": "a"}], "B": [{"B.x": 2}]}
        assert _run(plan, tables, self.SCHEMAS, mode) == []

    @pytest.mark.parametrize(
        "tables",
        [
            {"A": [{"A.a": None, "A.s": "a"}], "B": [{"B.x": 2}]},
            {"A": [{"A.a": 1, "A.s": "a"}], "B": [{"B.x": None}]},
        ],
        ids=["outer-null", "inner-null"],
    )
    @pytest.mark.parametrize("mode", ENGINES)
    def test_a_null_equi_key_does_not_stop_the_pair(self, mode, tables):
        plan = self._plan(compare("A.a", "=", column("B.x")), self.RAISES)
        with pytest.raises(TypeError):
            _run(plan, tables, self.SCHEMAS, mode)


class TestRowFallback:
    """A predicate whose column does not resolve runs on row dicts, counted.

    Logical ``Select`` rejects such a predicate, so the physical
    ``Filter`` is built directly.
    """

    # No row has A.v = 9 or NULL, so the unresolvable Z.zz is never
    # evaluated.
    FALLBACK = conjunction(
        [compare("A.v", "=", literal(9)), compare("Z.zz", "=", literal(1))]
    )

    @staticmethod
    def _filter(predicate):
        table = Table(TestPassRule.SCHEMA, blocking_factor=3)
        table.insert_many(TestPassRule.ROWS[:3])
        return Filter(scan_of(table), predicate), table

    def _count(self, predicate):
        op, table = self._filter(predicate)
        obs.enable(reset=True)
        try:
            columns, length = materialize(
                op, ExecutionContext(io=table.io, record=True)
            )
            counter = obs.metrics().counter(
                "executor.row_fallbacks", operator="filter"
            )
            return columns, length, counter.value
        finally:
            obs.disable()

    def test_fallback_is_counted(self):
        assert self._count(self.FALLBACK) == ([[], []], 0, 1)

    def test_compiled_filter_is_not_counted(self):
        assert self._count(compare("A.v", ">", 1)) == ([[2], [2]], 1, 0)

    def test_labels_tell_the_paths_apart(self):
        assert self._filter(self.FALLBACK)[0].label.endswith("(row-fallback)")
        compiled = self._filter(compare("A.v", ">", 1))[0]
        assert compiled.label.endswith("(vectorized)")

    def test_fallback_raises_what_the_row_engine_raises(self):
        op, table = self._filter(compare("Z.zz", "=", literal(1)))
        with pytest.raises(AlgebraError):
            materialize(op, ExecutionContext(io=table.io))
