"""Unit tests for relation schemas and the catalog."""

import pytest

from repro.catalog.datatypes import DataType
from repro.catalog.schema import Attribute, Catalog, RelationSchema
from repro.errors import (
    CatalogError,
    DuplicateRelationError,
    UnknownAttributeError,
    UnknownRelationError,
)


def make_schema():
    return RelationSchema(
        "Product",
        [
            Attribute("Pid", DataType.INTEGER),
            Attribute("name", DataType.STRING),
            Attribute("Did", DataType.INTEGER),
        ],
    )


class TestAttribute:
    def test_short_name_of_qualified(self):
        attribute = Attribute("Product.name", DataType.STRING)
        assert attribute.short_name == "name"

    def test_short_name_of_unqualified(self):
        assert Attribute("name", DataType.STRING).short_name == "name"

    def test_qualified(self):
        attribute = Attribute("name", DataType.STRING).qualified("Product")
        assert attribute.name == "Product.name"

    def test_qualified_is_idempotent_on_short_name(self):
        attribute = Attribute("Product.name", DataType.STRING).qualified("X")
        assert attribute.name == "X.name"

    def test_short_name_is_left_out_of_equality_hash_and_repr(self):
        attribute = Attribute("Product.name", DataType.STRING)
        other = Attribute("Product.name", DataType.STRING)
        object.__setattr__(other, "short_name", "changed")
        assert attribute == other
        assert hash(attribute) == hash(other)
        assert hash(attribute) == hash(("Product.name", DataType.STRING))
        assert repr(attribute) == repr(other) == (
            f"Attribute(name='Product.name', datatype={DataType.STRING!r})"
        )


class TestRelationSchema:
    def test_rejects_empty_name(self):
        with pytest.raises(CatalogError):
            RelationSchema("", [Attribute("a", DataType.INTEGER)])

    def test_rejects_duplicate_attributes(self):
        with pytest.raises(CatalogError):
            RelationSchema(
                "R",
                [Attribute("a", DataType.INTEGER), Attribute("a", DataType.STRING)],
            )

    def test_lookup_exact(self):
        schema = make_schema()
        assert schema.attribute("Pid").datatype is DataType.INTEGER

    def test_lookup_unknown_raises(self):
        with pytest.raises(UnknownAttributeError):
            make_schema().attribute("missing")

    def test_contains(self):
        schema = make_schema()
        assert "name" in schema
        assert "missing" not in schema

    def test_index_of(self):
        assert make_schema().index_of("name") == 1

    def test_project_preserves_order(self):
        projected = make_schema().project(["Did", "Pid"])
        assert projected.attribute_names == ("Did", "Pid")

    def test_qualify(self):
        schema = make_schema().qualify()
        assert schema.attribute_names == ("Product.Pid", "Product.name", "Product.Did")

    def test_qualified_short_lookup(self):
        schema = make_schema().qualify()
        assert schema.attribute("name").name == "Product.name"

    def test_join_disambiguates_clashing_names(self):
        left = make_schema()
        right = RelationSchema(
            "Division",
            [Attribute("Did", DataType.INTEGER), Attribute("name", DataType.STRING)],
        )
        joined = left.join(right)
        names = set(joined.attribute_names)
        # 'name' and 'Did' clash, so both sides get qualified.
        assert "Product.name" in names and "Division.name" in names
        assert "Product.Did" in names and "Division.Did" in names
        assert "Pid" in names  # unique names stay short

    def test_join_of_qualified_schemas_has_no_clashes(self):
        left = make_schema().qualify()
        right = RelationSchema(
            "Division",
            [Attribute("Did", DataType.INTEGER), Attribute("name", DataType.STRING)],
        ).qualify()
        joined = left.join(right)
        assert len(joined) == 5

    def test_ambiguous_short_lookup_raises(self):
        left = make_schema()
        right = RelationSchema(
            "Division",
            [Attribute("Did", DataType.INTEGER), Attribute("name", DataType.STRING)],
        )
        joined = left.join(right)
        with pytest.raises(UnknownAttributeError):
            joined.attribute("name")

    def test_equality_and_hash(self):
        assert make_schema() == make_schema()
        assert hash(make_schema()) == hash(make_schema())
        assert make_schema() != make_schema().rename("Other")

    def test_rename(self):
        assert make_schema().rename("P2").name == "P2"


class TestCatalog:
    def test_register_and_lookup(self):
        catalog = Catalog([make_schema()])
        assert catalog.schema("Product").arity == 3

    def test_register_relation_helper(self):
        catalog = Catalog()
        schema = catalog.register_relation("R", [("a", DataType.INTEGER)])
        assert schema.name == "R"
        assert "R" in catalog

    def test_duplicate_rejected(self):
        catalog = Catalog([make_schema()])
        with pytest.raises(DuplicateRelationError):
            catalog.register(make_schema())

    def test_unknown_raises(self):
        with pytest.raises(UnknownRelationError):
            Catalog().schema("nope")

    def test_unregister(self):
        catalog = Catalog([make_schema()])
        catalog.unregister("Product")
        assert "Product" not in catalog
        with pytest.raises(UnknownRelationError):
            catalog.unregister("Product")

    def test_iteration_and_len(self):
        catalog = Catalog([make_schema()])
        assert len(catalog) == 1
        assert [s.name for s in catalog] == ["Product"]

    def test_resolve_attribute_qualified(self):
        catalog = Catalog([make_schema()])
        schema, attribute = catalog.resolve_attribute("Product.name")
        assert schema.name == "Product" and attribute.name == "name"

    def test_resolve_attribute_unqualified_unique(self):
        catalog = Catalog([make_schema()])
        schema, attribute = catalog.resolve_attribute("Pid")
        assert attribute.name == "Pid"

    def test_resolve_attribute_ambiguous(self):
        catalog = Catalog()
        catalog.register_relation("A", [("x", DataType.INTEGER)])
        catalog.register_relation("B", [("x", DataType.INTEGER)])
        with pytest.raises(UnknownAttributeError):
            catalog.resolve_attribute("x")
