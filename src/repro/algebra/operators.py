"""Logical relational operators: scan, select, project, join, aggregate.

Operator trees are immutable.  Each node computes its output schema at
construction time (so malformed plans fail fast) and exposes a canonical
*signature*.  Two subtrees with equal signatures compute the same relation
— the common-subexpression criterion of the paper (Section 3.1: merge
``u, v`` when ``S(u) = S(v)`` and ``R(u) = R(v)``).  Join signatures are
commutative, so ``A ⋈ B`` and ``B ⋈ A`` merge.

Attribute names flowing through operator trees are fully qualified
(``"Product.Pid"``); the SQL translator guarantees this.
"""

from __future__ import annotations

import enum
from typing import FrozenSet, Iterator, Optional, Sequence, Tuple

from repro.algebra.expressions import Expression
from repro.algebra import predicates as P
from repro.catalog.datatypes import DataType
from repro.catalog.schema import Attribute, RelationSchema
from repro.errors import AlgebraError


class Operator:
    """Base class for logical operators.

    The signature and the base-relation set are computed once and
    cached — safe because operators are immutable.
    """

    __slots__ = ("_children", "_schema", "_signature", "_hash", "_base_relations")

    def __init__(self, children: Tuple["Operator", ...], schema: RelationSchema):
        self._children = children
        self._schema = schema
        self._signature: Optional[str] = None
        self._hash: Optional[int] = None
        self._base_relations: Optional[FrozenSet[str]] = None

    @property
    def children(self) -> Tuple["Operator", ...]:
        return self._children

    @property
    def schema(self) -> RelationSchema:
        return self._schema

    @property
    def signature(self) -> str:
        if self._signature is None:
            self._signature = self._compute_signature()
        return self._signature

    def _compute_signature(self) -> str:
        raise NotImplementedError

    @property
    def label(self) -> str:
        """Short human-readable node label used in plan displays."""
        raise NotImplementedError

    def with_children(self, children: Sequence["Operator"]) -> "Operator":
        """A structurally identical node over new children."""
        raise NotImplementedError

    @property
    def is_leaf(self) -> bool:
        return not self._children

    def base_relations(self) -> FrozenSet[str]:
        """Names of every base relation in this subtree."""
        if self._base_relations is None:
            self._base_relations = frozenset().union(
                *(child.base_relations() for child in self._children)
            )
        return self._base_relations

    def walk(self) -> Iterator["Operator"]:
        """Post-order traversal (children before parents)."""
        for child in self._children:
            yield from child.walk()
        yield self

    def node_count(self) -> int:
        return sum(1 for _ in self.walk())

    def describe(self, indent: int = 0) -> str:
        """Indented multi-line rendering of the subtree."""
        lines = ["  " * indent + self.label]
        for child in self._children:
            lines.append(child.describe(indent + 1))
        return "\n".join(lines)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Operator):
            return NotImplemented
        return self.signature == other.signature

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(self.signature)
        return self._hash

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.label})"


class Relation(Operator):
    """Leaf: a reference to a base relation (or a materialized view).

    The schema carried here should be *qualified*
    (:meth:`RelationSchema.qualify`) so attribute names are unambiguous
    throughout the plan.
    """

    __slots__ = ("name",)

    def __init__(self, name: str, schema: RelationSchema):
        super().__init__((), schema)
        self.name = name

    def _compute_signature(self) -> str:
        return f"rel({self.name})"

    def base_relations(self) -> FrozenSet[str]:
        if self._base_relations is None:
            self._base_relations = frozenset((self.name,))
        return self._base_relations

    @property
    def label(self) -> str:
        return self.name

    def with_children(self, children: Sequence[Operator]) -> "Relation":
        if children:
            raise AlgebraError("Relation is a leaf; it takes no children")
        return self


class Select(Operator):
    """Selection σ_predicate(child).  The predicate must be non-trivial."""

    __slots__ = ("predicate",)

    def __init__(self, child: Operator, predicate: Expression):
        if predicate is None:
            raise AlgebraError("Select predicate must not be None; omit the node")
        missing = predicate.columns() - set(child.schema.attribute_names)
        unresolvable = {
            c for c in missing if not _resolves_short(c, child.schema)
        }
        if unresolvable:
            raise AlgebraError(
                f"Select predicate references columns {sorted(unresolvable)} "
                f"not present in child schema {child.schema.attribute_names}"
            )
        super().__init__((child,), child.schema)
        self.predicate = predicate

    @property
    def child(self) -> Operator:
        return self._children[0]

    def _compute_signature(self) -> str:
        return f"select[{self.predicate.signature}]({self.child.signature})"

    @property
    def label(self) -> str:
        return f"σ[{_pretty(self.predicate)}]"

    def with_children(self, children: Sequence[Operator]) -> "Select":
        (child,) = children
        return Select(child, self.predicate)


class Project(Operator):
    """Projection π_attributes(child).

    By default projection is set-styled for costing purposes but the
    executor keeps duplicates (SQL bag semantics) — matching the paper,
    which never deduplicates.  With ``distinct=True`` (``SELECT
    DISTINCT``) the executor eliminates duplicate output tuples; the
    flag is part of the signature, so a bag projection never matches a
    duplicate-eliminating one during view rewriting.
    """

    __slots__ = ("attributes", "distinct")

    def __init__(
        self,
        child: Operator,
        attributes: Sequence[str],
        distinct: bool = False,
    ):
        if not attributes:
            raise AlgebraError("Project requires at least one attribute")
        resolved = tuple(child.schema.attribute(a).name for a in attributes)
        schema = child.schema.project(resolved, relation_name=child.schema.name)
        super().__init__((child,), schema)
        self.attributes = resolved
        self.distinct = bool(distinct)

    @property
    def child(self) -> Operator:
        return self._children[0]

    def _compute_signature(self) -> str:
        attrs = ",".join(sorted(self.attributes))
        tag = "distinct" if self.distinct else "project"
        return f"{tag}[{attrs}]({self.child.signature})"

    @property
    def label(self) -> str:
        prefix = "δπ" if self.distinct else "π"
        return f"{prefix}[{', '.join(self.attributes)}]"

    def with_children(self, children: Sequence[Operator]) -> "Project":
        (child,) = children
        return Project(child, self.attributes, self.distinct)


class Join(Operator):
    """Inner join on an optional predicate (``None`` = cross product).

    The signature is commutative in the two inputs; the schema, however,
    preserves input order (left attributes first), matching SQL.
    """

    __slots__ = ("condition",)

    def __init__(
        self,
        left: Operator,
        right: Operator,
        condition: Optional[Expression] = None,
    ):
        schema = left.schema.join(right.schema)
        if condition is not None:
            available = set(schema.attribute_names)
            missing = {
                c
                for c in condition.columns()
                if c not in available and not _resolves_short(c, schema)
            }
            if missing:
                raise AlgebraError(
                    f"Join condition references columns {sorted(missing)} "
                    f"not present in joined schema"
                )
        super().__init__((left, right), schema)
        self.condition = condition

    @property
    def left(self) -> Operator:
        return self._children[0]

    @property
    def right(self) -> Operator:
        return self._children[1]

    def _compute_signature(self) -> str:
        cond = self.condition.signature if self.condition is not None else "true"
        inner = "|".join(sorted((self.left.signature, self.right.signature)))
        return f"join[{cond}]({inner})"

    @property
    def label(self) -> str:
        if self.condition is None:
            return "×"
        return f"⋈[{_pretty(self.condition)}]"

    def with_children(self, children: Sequence[Operator]) -> "Join":
        left, right = children
        return Join(left, right, self.condition)


class Sort(Operator):
    """ORDER BY: a presentation-layer operator above the SPJ body.

    ``keys`` is a sequence of (attribute, ascending) pairs.  Unlike the
    set-oriented operators, a Sort's signature is order-*sensitive* in
    its keys.
    """

    __slots__ = ("keys",)

    def __init__(self, child: Operator, keys: Sequence[Tuple[str, bool]]):
        if not keys:
            raise AlgebraError("Sort requires at least one key")
        resolved = tuple(
            (child.schema.attribute(name).name, bool(ascending))
            for name, ascending in keys
        )
        super().__init__((child,), child.schema)
        self.keys = resolved

    @property
    def child(self) -> Operator:
        return self._children[0]

    def _compute_signature(self) -> str:
        rendered = ",".join(
            f"{name}:{'asc' if ascending else 'desc'}"
            for name, ascending in self.keys
        )
        return f"sort[{rendered}]({self.child.signature})"

    @property
    def label(self) -> str:
        rendered = ", ".join(
            f"{name} {'ASC' if ascending else 'DESC'}"
            for name, ascending in self.keys
        )
        return f"τ[{rendered}]"

    def with_children(self, children: Sequence[Operator]) -> "Sort":
        (child,) = children
        return Sort(child, self.keys)


class Limit(Operator):
    """LIMIT n: keep the first ``count`` rows of the input."""

    __slots__ = ("count",)

    def __init__(self, child: Operator, count: int):
        if count < 0:
            raise AlgebraError(f"LIMIT count must be >= 0: {count}")
        super().__init__((child,), child.schema)
        self.count = count

    @property
    def child(self) -> Operator:
        return self._children[0]

    def _compute_signature(self) -> str:
        return f"limit[{self.count}]({self.child.signature})"

    @property
    def label(self) -> str:
        return f"limit[{self.count}]"

    def with_children(self, children: Sequence[Operator]) -> "Limit":
        (child,) = children
        return Limit(child, self.count)


class AggregateFunction(enum.Enum):
    """Aggregate functions of the paper's 'future work' extension."""

    COUNT = "count"
    SUM = "sum"
    AVG = "avg"
    MIN = "min"
    MAX = "max"


class AggregateSpec:
    """One aggregate output: ``func(attribute) AS alias``.

    ``attribute`` is ``None`` only for ``COUNT(*)``.
    """

    __slots__ = ("function", "attribute", "alias")

    def __init__(
        self,
        function: AggregateFunction,
        attribute: Optional[str],
        alias: Optional[str] = None,
    ):
        if attribute is None and function is not AggregateFunction.COUNT:
            raise AlgebraError(f"{function.value} requires an attribute")
        self.function = function
        self.attribute = attribute
        self.alias = alias or (
            f"{function.value}_{attribute.rsplit('.', 1)[-1]}"
            if attribute
            else "count_all"
        )

    @property
    def signature(self) -> str:
        return f"{self.function.value}({self.attribute or '*'})->{self.alias}"

    def output_type(self, input_type: Optional[DataType]) -> DataType:
        if self.function is AggregateFunction.COUNT:
            return DataType.INTEGER
        if self.function in (AggregateFunction.SUM, AggregateFunction.AVG):
            return DataType.FLOAT
        if input_type is None:
            raise AlgebraError("MIN/MAX require a typed input attribute")
        return input_type

    def __repr__(self) -> str:
        return self.signature


class Aggregate(Operator):
    """GROUP BY aggregation (the paper's aggregation-query extension)."""

    __slots__ = ("group_by", "aggregates")

    def __init__(
        self,
        child: Operator,
        group_by: Sequence[str],
        aggregates: Sequence[AggregateSpec],
    ):
        if not aggregates and not group_by:
            raise AlgebraError("Aggregate needs group-by keys or aggregates")
        resolved_keys = tuple(child.schema.attribute(a).name for a in group_by)
        attributes = [child.schema.attribute(k) for k in resolved_keys]
        resolved_specs = []
        for spec in aggregates:
            if spec.attribute is not None:
                source = child.schema.attribute(spec.attribute)
                spec = AggregateSpec(spec.function, source.name, spec.alias)
                attributes.append(
                    Attribute(spec.alias, spec.output_type(source.datatype))
                )
            else:
                attributes.append(Attribute(spec.alias, spec.output_type(None)))
            resolved_specs.append(spec)
        schema = RelationSchema(child.schema.name, attributes)
        super().__init__((child,), schema)
        self.group_by = resolved_keys
        self.aggregates = tuple(resolved_specs)

    @property
    def child(self) -> Operator:
        return self._children[0]

    def _compute_signature(self) -> str:
        keys = ",".join(sorted(self.group_by))
        funcs = ",".join(sorted(s.signature for s in self.aggregates))
        return f"aggregate[{keys};{funcs}]({self.child.signature})"

    @property
    def label(self) -> str:
        funcs = ", ".join(s.signature for s in self.aggregates)
        if self.group_by:
            return f"γ[{', '.join(self.group_by)}; {funcs}]"
        return f"γ[{funcs}]"

    def with_children(self, children: Sequence[Operator]) -> "Aggregate":
        (child,) = children
        return Aggregate(child, self.group_by, self.aggregates)


def _resolves_short(name: str, schema: RelationSchema) -> bool:
    """Whether ``name`` resolves as an unambiguous short name in ``schema``."""
    try:
        schema.attribute(name)
        return True
    except Exception:
        return False


def _pretty(predicate: Expression) -> str:
    """Compact one-line predicate rendering for labels."""
    text = predicate.signature
    for noise in ("col(", "lit(", "cmp(", ")"):
        text = text.replace(noise, "" if noise != ")" else "")
    return text.replace("and(", "AND ").replace("or(", "OR ")


def select_if(child: Operator, predicate: Optional[Expression]) -> Operator:
    """``Select(child, p)`` unless ``p`` is TRUE, in which case ``child``."""
    if predicate is None:
        return child
    return Select(child, predicate)


def project_if(
    child: Operator,
    attributes: Optional[Sequence[str]],
    distinct: bool = False,
) -> Operator:
    """Project unless ``attributes`` is None/empty or already the schema.

    A ``distinct`` projection is always kept (even when it projects onto
    the full schema) because it still eliminates duplicates.
    """
    if not attributes:
        return child
    resolved = tuple(child.schema.attribute(a).name for a in attributes)
    if resolved == child.schema.attribute_names and not distinct:
        return child
    return Project(child, resolved, distinct)


# Re-export the predicate helpers most callers need alongside operators.
conjunction = P.conjunction
disjunction = P.disjunction
