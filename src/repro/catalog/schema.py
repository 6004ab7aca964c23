"""Relation schemas and the system catalog.

A :class:`RelationSchema` is an ordered list of named, typed attributes.
The :class:`Catalog` maps relation names to schemas and is the single
source of truth the SQL translator, the optimizer and the MVPP builder
resolve names against.

Attribute names inside one relation are unique.  Across relations they may
repeat (``Product.name`` vs ``Customer.name``); consumers disambiguate with
qualified references, and :meth:`RelationSchema.join` qualifies colliding
names automatically.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.catalog.datatypes import DataType
from repro.errors import (
    CatalogError,
    DuplicateRelationError,
    UnknownAttributeError,
    UnknownRelationError,
)


@dataclass(frozen=True)
class Attribute:
    """A named, typed column of a relation.

    ``name`` may be qualified (``"Product.name"``) for attributes of
    derived relations whose unqualified name would collide.
    ``short_name`` is the unqualified name (text after the last dot),
    computed once; it takes no part in equality, hashing or ``repr``.
    """

    name: str
    datatype: DataType
    short_name: str = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "short_name", self.name.rpartition(".")[2])

    def qualified(self, relation: str) -> "Attribute":
        """A copy of this attribute qualified with ``relation``."""
        return Attribute(f"{relation}.{self.short_name}", self.datatype)

    def __str__(self) -> str:
        return f"{self.name}:{self.datatype.value}"


class RelationSchema:
    """An ordered, immutable collection of attributes with a relation name."""

    def __init__(self, name: str, attributes: Sequence[Attribute]):
        if not name:
            raise CatalogError("relation name must be non-empty")
        self._name = name
        self._attributes: Tuple[Attribute, ...] = tuple(attributes)
        self._by_name: Dict[str, Attribute] = {a.name: a for a in self._attributes}
        if len(self._by_name) != len(self._attributes):
            seen = set()
            for attribute in self._attributes:
                if attribute.name in seen:
                    raise CatalogError(
                        f"duplicate attribute {attribute.name!r} in relation {name!r}"
                    )
                seen.add(attribute.name)
        self._attribute_names: Tuple[str, ...] = tuple(self._by_name)
        # Unqualified lookup index: short name -> attributes carrying it.
        self._by_short: Dict[str, List[Attribute]] = {}
        for attribute in self._attributes:
            self._by_short.setdefault(attribute.short_name, []).append(attribute)

    @property
    def name(self) -> str:
        return self._name

    @property
    def attributes(self) -> Tuple[Attribute, ...]:
        return self._attributes

    @property
    def attribute_names(self) -> Tuple[str, ...]:
        return self._attribute_names

    @property
    def arity(self) -> int:
        return len(self._attributes)

    def __len__(self) -> int:
        return len(self._attributes)

    def __iter__(self) -> Iterator[Attribute]:
        return iter(self._attributes)

    def __contains__(self, attribute_name: str) -> bool:
        return (
            attribute_name in self._by_name
            or attribute_name in self._by_short
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RelationSchema):
            return NotImplemented
        return self._name == other._name and self._attributes == other._attributes

    def __hash__(self) -> int:
        return hash((self._name, self._attributes))

    def __repr__(self) -> str:
        cols = ", ".join(str(a) for a in self._attributes)
        return f"RelationSchema({self._name}: {cols})"

    def attribute(self, name: str) -> Attribute:
        """Resolve an attribute by exact or unqualified name.

        An unqualified name resolves only if it is unambiguous within this
        schema; ambiguity raises :class:`UnknownAttributeError` (callers
        must qualify).
        """
        if name in self._by_name:
            return self._by_name[name]
        candidates = self._by_short.get(name, [])
        if len(candidates) == 1:
            return candidates[0]
        raise UnknownAttributeError(name, self._name)

    def index_of(self, name: str) -> int:
        """Positional index of an attribute, resolving like :meth:`attribute`."""
        return self._attributes.index(self.attribute(name))

    def project(self, names: Sequence[str], relation_name: Optional[str] = None) -> "RelationSchema":
        """Schema of a projection onto ``names`` (order preserved)."""
        attributes = [self.attribute(n) for n in names]
        return RelationSchema(relation_name or self._name, attributes)

    def rename(self, new_name: str) -> "RelationSchema":
        return RelationSchema(new_name, self._attributes)

    def qualify(self) -> "RelationSchema":
        """A copy with every attribute qualified by this relation's name."""
        return RelationSchema(
            self._name, [a.qualified(self._name) for a in self._attributes]
        )

    def join(self, other: "RelationSchema", name: Optional[str] = None) -> "RelationSchema":
        """Schema of the (natural-free) join of two relations.

        Attributes keep their names unless the unqualified name appears in
        both inputs, in which case *both* copies are qualified with their
        source relation name, mirroring SQL's disambiguation rule.
        """
        clashes = self._by_short.keys() & other._by_short.keys()

        def resolve(attribute: Attribute, owner: str) -> Attribute:
            if attribute.short_name in clashes and "." not in attribute.name:
                return attribute.qualified(owner)
            return attribute

        combined = [resolve(a, self._name) for a in self._attributes]
        combined += [resolve(a, other._name) for a in other._attributes]
        return RelationSchema(name or f"{self._name}_{other._name}", combined)


class Catalog:
    """Registry of relation schemas.

    The catalog deliberately stores only *logical* metadata; physical
    statistics (cardinality, blocks, selectivities) live in
    :class:`repro.catalog.statistics.StatisticsCatalog` so the optimizer
    can be pointed at alternative statistics for what-if analysis.
    """

    def __init__(self, schemas: Iterable[RelationSchema] = ()):
        self._schemas: Dict[str, RelationSchema] = {}
        for schema in schemas:
            self.register(schema)

    def register(self, schema: RelationSchema) -> RelationSchema:
        """Register ``schema``; raises on duplicate names."""
        if schema.name in self._schemas:
            raise DuplicateRelationError(schema.name)
        self._schemas[schema.name] = schema
        return schema

    def register_relation(
        self, name: str, columns: Sequence[Tuple[str, DataType]]
    ) -> RelationSchema:
        """Convenience: build and register a schema from (name, type) pairs."""
        schema = RelationSchema(name, [Attribute(n, t) for n, t in columns])
        return self.register(schema)

    def unregister(self, name: str) -> None:
        if name not in self._schemas:
            raise UnknownRelationError(name)
        del self._schemas[name]

    def schema(self, name: str) -> RelationSchema:
        try:
            return self._schemas[name]
        except KeyError:
            raise UnknownRelationError(name) from None

    def __contains__(self, name: str) -> bool:
        return name in self._schemas

    def __iter__(self) -> Iterator[RelationSchema]:
        return iter(self._schemas.values())

    def __len__(self) -> int:
        return len(self._schemas)

    @property
    def relation_names(self) -> Tuple[str, ...]:
        return tuple(self._schemas)

    def resolve_attribute(self, name: str) -> Tuple[RelationSchema, Attribute]:
        """Find the unique relation owning attribute ``name``.

        Accepts qualified (``Rel.attr``) and unqualified names; an
        unqualified name owned by several relations raises
        :class:`UnknownAttributeError` — the caller must qualify.
        """
        if "." in name:
            relation_name, short = name.split(".", 1)
            schema = self.schema(relation_name)
            return schema, schema.attribute(short)
        owners = [s for s in self._schemas.values() if name in s]
        if len(owners) == 1:
            return owners[0], owners[0].attribute(name)
        raise UnknownAttributeError(name)
