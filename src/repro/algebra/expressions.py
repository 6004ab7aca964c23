"""Scalar expressions: column references, literals, comparisons, booleans.

Expressions are immutable and hashable.  Equality is *structural modulo
canonicalization*: ``a = b`` equals ``b = a``, ``x AND y`` equals
``y AND x``, and duplicate conjuncts collapse.  The canonical form is the
expression *signature*, a deterministic string that the MVPP layer uses to
detect common subexpressions across query plans (paper Section 3.1,
condition ``R(u) = R(v)``).

Column references are expected to be fully qualified
(``"Division.city"``) by the time expressions enter the algebra; the SQL
translator performs that resolution.
"""

from __future__ import annotations

import datetime
from typing import Any, FrozenSet, Iterable, Mapping, Optional, Tuple

from repro.catalog.datatypes import DataType, infer_type
from repro.errors import AlgebraError

#: Comparison operators and their mirror images (used to canonicalize
#: ``literal <op> column`` into ``column <mirror-op> literal``).
MIRRORED_OPS = {
    "=": "=",
    "!=": "!=",
    "<": ">",
    "<=": ">=",
    ">": "<",
    ">=": "<=",
}

COMPARISON_OPS = tuple(MIRRORED_OPS)


class Expression:
    """Base class for scalar expressions.

    Subclasses set ``_children`` and implement :meth:`_compute_signature`
    and :meth:`evaluate`.  Signatures and column sets are computed once
    and cached — safe because expressions are immutable.
    """

    __slots__ = ("_children", "_signature", "_hash", "_columns")

    def __init__(self, children: Tuple["Expression", ...]):
        self._children = children
        self._signature: Optional[str] = None
        self._hash: Optional[int] = None
        self._columns: Optional[FrozenSet[str]] = None

    @property
    def children(self) -> Tuple["Expression", ...]:
        return self._children

    @property
    def signature(self) -> str:
        if self._signature is None:
            self._signature = self._compute_signature()
        return self._signature

    def _compute_signature(self) -> str:
        raise NotImplementedError

    def evaluate(self, row: Mapping[str, Any]) -> Any:
        """Evaluate against a row mapping qualified column names to values."""
        raise NotImplementedError

    def columns(self) -> FrozenSet[str]:
        """All column names referenced anywhere in this expression."""
        if self._columns is None:
            self._columns = frozenset().union(
                *(child.columns() for child in self._children)
            )
        return self._columns

    def substitute(self, mapping: Mapping[str, str]) -> "Expression":
        """A copy with column names replaced per ``mapping`` (identity otherwise)."""
        raise NotImplementedError

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Expression):
            return NotImplemented
        return self.signature == other.signature

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(self.signature)
        return self._hash

    def __repr__(self) -> str:
        return self.signature


class ColumnRef(Expression):
    """Reference to a column by (preferably qualified) name."""

    __slots__ = ("name",)

    def __init__(self, name: str):
        if not name:
            raise AlgebraError("column name must be non-empty")
        super().__init__(())
        self.name = name

    @property
    def short_name(self) -> str:
        return self.name.rsplit(".", 1)[-1]

    def _compute_signature(self) -> str:
        return f"col({self.name})"

    def columns(self) -> FrozenSet[str]:
        if self._columns is None:
            self._columns = frozenset((self.name,))
        return self._columns

    def evaluate(self, row: Mapping[str, Any]) -> Any:
        if self.name in row:
            return row[self.name]
        # Fall back to a unique short-name match so expressions survive
        # projections that strip qualifiers.
        matches = [k for k in row if k.rsplit(".", 1)[-1] == self.short_name]
        if len(matches) == 1:
            return row[matches[0]]
        raise AlgebraError(f"column {self.name!r} not found in row {sorted(row)}")

    def substitute(self, mapping: Mapping[str, str]) -> "ColumnRef":
        return ColumnRef(mapping.get(self.name, self.name))


class Literal(Expression):
    """A typed constant."""

    __slots__ = ("value", "datatype")

    def __init__(self, value: Any, datatype: Optional[DataType] = None):
        super().__init__(())
        self.datatype = datatype if datatype is not None else infer_type(value)
        self.value = self.datatype.validate(value)

    def _compute_signature(self) -> str:
        if isinstance(self.value, datetime.date):
            return f"lit(date:{self.value.isoformat()})"
        return f"lit({self.datatype.value}:{self.value!r})"

    def evaluate(self, row: Mapping[str, Any]) -> Any:
        return self.value

    def substitute(self, mapping: Mapping[str, str]) -> "Literal":
        return self


class Comparison(Expression):
    """Binary comparison, canonicalized so literals sit on the right.

    For symmetric operators over two columns the operands are ordered by
    name, so ``a.x = b.y`` and ``b.y = a.x`` share one signature — the
    property common-subexpression detection relies on.
    """

    __slots__ = ("op", "left", "right")

    def __init__(self, op: str, left: Expression, right: Expression):
        if op not in MIRRORED_OPS:
            raise AlgebraError(f"unknown comparison operator: {op!r}")
        if isinstance(left, Literal) and not isinstance(right, Literal):
            op, left, right = MIRRORED_OPS[op], right, left
        if (
            op in ("=", "!=")
            and isinstance(left, ColumnRef)
            and isinstance(right, ColumnRef)
            and right.name < left.name
        ):
            left, right = right, left
        super().__init__((left, right))
        self.op = op
        self.left = left
        self.right = right

    @property
    def is_equijoin(self) -> bool:
        """True for ``column = column`` — a join predicate candidate."""
        return (
            self.op == "="
            and isinstance(self.left, ColumnRef)
            and isinstance(self.right, ColumnRef)
        )

    def _compute_signature(self) -> str:
        return f"cmp({self.left.signature}{self.op}{self.right.signature})"

    def evaluate(self, row: Mapping[str, Any]) -> Optional[bool]:
        left = self.left.evaluate(row)
        right = self.right.evaluate(row)
        if left is None or right is None:
            return None  # SQL three-valued logic: NULL comparisons are unknown
        if self.op == "=":
            return left == right
        if self.op == "!=":
            return left != right
        if self.op == "<":
            return left < right
        if self.op == "<=":
            return left <= right
        if self.op == ">":
            return left > right
        return left >= right

    def substitute(self, mapping: Mapping[str, str]) -> "Comparison":
        return Comparison(
            self.op, self.left.substitute(mapping), self.right.substitute(mapping)
        )


class _NaryBoolean(Expression):
    """Shared behaviour of AND/OR: flattening, deduplication, sorting."""

    __slots__ = ()
    _tag = ""

    def __init__(self, operands: Iterable[Expression]):
        flattened = []
        for operand in operands:
            if type(operand) is type(self):
                flattened.extend(operand.children)
            else:
                flattened.append(operand)
        # Deduplicate by signature, then sort for canonical ordering.
        unique = {e.signature: e for e in flattened}
        ordered = tuple(unique[s] for s in sorted(unique))
        if len(ordered) < 2:
            raise AlgebraError(
                f"{self._tag} requires at least two distinct operands; "
                f"use predicates.conjunction/disjunction to build safely"
            )
        super().__init__(ordered)

    def _compute_signature(self) -> str:
        inner = ",".join(c.signature for c in self.children)
        return f"{self._tag}({inner})"

    def substitute(self, mapping: Mapping[str, str]) -> "Expression":
        return type(self)(c.substitute(mapping) for c in self.children)


class And(_NaryBoolean):
    """N-ary conjunction (flattened, deduplicated, order-insensitive).

    AND, OR and NOT read an operand as true only when it is ``True``;
    NULL is unknown and any other value is false.  That is the rule a
    selection passes a row by, so splitting a conjunction into separate
    selections never changes which rows pass.
    """

    __slots__ = ()
    _tag = "and"

    def evaluate(self, row: Mapping[str, Any]) -> Optional[bool]:
        saw_null = False
        for child in self.children:
            value = child.evaluate(row)
            if value is None:
                saw_null = True
            elif value is not True:
                return False
        return None if saw_null else True


class Or(_NaryBoolean):
    """N-ary disjunction (flattened, deduplicated, order-insensitive)."""

    __slots__ = ()
    _tag = "or"

    def evaluate(self, row: Mapping[str, Any]) -> Optional[bool]:
        saw_null = False
        for child in self.children:
            value = child.evaluate(row)
            if value is None:
                saw_null = True
            elif value is True:
                return True
        return None if saw_null else False


class Not(Expression):
    """Logical negation."""

    __slots__ = ("operand",)

    def __init__(self, operand: Expression):
        # Double negation is eliminated by predicates.negate(); the class
        # itself stores whatever it is given so signatures stay faithful.
        super().__init__((operand,))
        self.operand = operand

    def _compute_signature(self) -> str:
        return f"not({self.operand.signature})"

    def evaluate(self, row: Mapping[str, Any]) -> Optional[bool]:
        value = self.operand.evaluate(row)
        if value is None:
            return None
        return value is not True

    def substitute(self, mapping: Mapping[str, str]) -> "Not":
        return Not(self.operand.substitute(mapping))


def column(name: str) -> ColumnRef:
    """Shorthand constructor used pervasively in tests and examples."""
    return ColumnRef(name)


def literal(value: Any, datatype: Optional[DataType] = None) -> Literal:
    """Shorthand constructor for :class:`Literal`."""
    return Literal(value, datatype)


def compare(left: Any, op: str, right: Any) -> Comparison:
    """Build a comparison, lifting bare strings to columns and other
    Python values to literals.

    ``compare("Division.city", "=", literal("LA"))`` and
    ``compare("Order.quantity", ">", 100)`` both work.
    """

    def lift(operand: Any) -> Expression:
        if isinstance(operand, Expression):
            return operand
        if isinstance(operand, str):
            return ColumnRef(operand)
        return Literal(operand)

    return Comparison(op, lift(left), lift(right))
