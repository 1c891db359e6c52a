"""Tests for the reflective metamodeling framework."""

import pytest

from repro.errors import MetamodelError, ModelError, ValidationError
from repro.meta.metamodel import AttributeKind, MetaModel
from repro.meta.model import Model
from repro.meta.registry import MetamodelRegistry
from repro.meta.validate import validate_model, validation_problems


def library_metamodel() -> MetaModel:
    """A tiny metamodel used across these tests."""
    mm = MetaModel("library")
    named = mm.define("Named", abstract=True)
    named.attribute("name", AttributeKind.STR, required=True)
    lib = mm.define("Library", supertypes=["Named"])
    lib.reference("books", "Book", containment=True, many=True)
    lib.reference("featured", "Book")  # cross reference
    book = mm.define("Book", supertypes=["Named"])
    book.attribute("pages", AttributeKind.INT, default=100)
    book.attribute("genre", AttributeKind.ENUM,
                   enum_values=("novel", "reference"), default="novel")
    mm.check()
    return mm


class TestMetamodelDefinition:
    def test_duplicate_class_rejected(self):
        mm = MetaModel("m")
        mm.define("A")
        with pytest.raises(MetamodelError):
            mm.define("A")

    def test_unknown_supertype_caught_by_check(self):
        mm = MetaModel("m")
        mm.define("A", supertypes=["Missing"])
        with pytest.raises(MetamodelError):
            mm.check()

    def test_inheritance_cycle_caught(self):
        mm = MetaModel("m")
        mm.define("A", supertypes=["B"])
        mm.define("B", supertypes=["A"])
        with pytest.raises(MetamodelError):
            mm.check()

    def test_unknown_reference_target_caught(self):
        mm = MetaModel("m")
        mm.define("A").reference("r", "Nowhere")
        with pytest.raises(MetamodelError):
            mm.check()

    def test_inherited_features_visible(self):
        mm = library_metamodel()
        book = mm.metaclass("Book")
        assert "name" in book.all_attributes()
        assert book.is_subtype_of("Named")
        assert not book.is_subtype_of("Library")

    def test_enum_attribute_requires_values(self):
        mm = MetaModel("m")
        with pytest.raises(MetamodelError):
            mm.define("A").attribute("e", AttributeKind.ENUM)

    def test_bad_default_rejected(self):
        mm = MetaModel("m")
        with pytest.raises(MetamodelError):
            mm.define("A").attribute("n", AttributeKind.INT, default="oops")


class TestModelObjects:
    def test_create_and_attribute_roundtrip(self):
        model = Model(library_metamodel())
        book = model.create("Book", name="Dune", pages=412)
        assert book.get("name") == "Dune"
        assert book.get("pages") == 412

    def test_default_applies_when_unset(self):
        model = Model(library_metamodel())
        book = model.create("Book", name="X")
        assert book.get("pages") == 100

    def test_abstract_class_not_instantiable(self):
        model = Model(library_metamodel())
        with pytest.raises(ModelError):
            model.create("Named", name="nope")

    def test_wrong_attribute_type_rejected(self):
        model = Model(library_metamodel())
        book = model.create("Book", name="X")
        with pytest.raises(ModelError):
            book.set("pages", "many")

    def test_bool_is_not_an_int(self):
        model = Model(library_metamodel())
        book = model.create("Book", name="X")
        with pytest.raises(ModelError):
            book.set("pages", True)

    def test_enum_value_checked(self):
        model = Model(library_metamodel())
        book = model.create("Book", name="X")
        book.set("genre", "reference")
        with pytest.raises(ModelError):
            book.set("genre", "poetry")

    def test_unknown_attribute_rejected(self):
        model = Model(library_metamodel())
        book = model.create("Book", name="X")
        with pytest.raises(ModelError):
            book.get("isbn")

    def test_containment_sets_container(self):
        model = Model(library_metamodel())
        lib = model.create("Library", name="City")
        book = model.create("Book", name="Dune")
        lib.add_ref("books", book)
        assert book.container is lib
        assert book in lib.children()

    def test_object_cannot_be_contained_twice(self):
        model = Model(library_metamodel())
        a = model.create("Library", name="A")
        b = model.create("Library", name="B")
        book = model.create("Book", name="Dune")
        a.add_ref("books", book)
        with pytest.raises(ModelError):
            b.add_ref("books", book)

    def test_single_reference_set_and_replace(self):
        model = Model(library_metamodel())
        lib = model.create("Library", name="City")
        b1 = model.create("Book", name="One")
        b2 = model.create("Book", name="Two")
        lib.set_ref("featured", b1)
        lib.set_ref("featured", b2)
        assert lib.ref("featured") is b2

    def test_reference_type_checked(self):
        model = Model(library_metamodel())
        lib = model.create("Library", name="City")
        other = model.create("Library", name="Other")
        with pytest.raises(ModelError):
            lib.add_ref("books", other)

    def test_remove_ref_clears_container(self):
        model = Model(library_metamodel())
        lib = model.create("Library", name="City")
        book = model.create("Book", name="Dune")
        lib.add_ref("books", book)
        lib.remove_ref("books", book)
        assert book.container is None

    def test_iter_tree_preorder(self):
        model = Model(library_metamodel())
        lib = model.create("Library", name="City")
        model.add_root(lib)
        for title in ("A", "B"):
            lib.add_ref("books", model.create("Book", name=title))
        names = [obj.label for obj in lib.iter_tree()]
        assert names == ["City", "A", "B"]

    def test_objects_of_honours_subtyping(self):
        model = Model(library_metamodel())
        lib = model.create("Library", name="City")
        model.add_root(lib)
        lib.add_ref("books", model.create("Book", name="A"))
        assert len(model.objects_of("Named")) == 2
        assert len(model.objects_of("Book")) == 1


class TestValidation:
    def test_missing_required_attribute_reported(self):
        model = Model(library_metamodel())
        lib = model.create("Library")
        model.add_root(lib)
        problems = validation_problems(model)
        assert any("name" in p for p in problems)

    def test_valid_model_passes(self):
        model = Model(library_metamodel())
        lib = model.create("Library", name="City")
        model.add_root(lib)
        validate_model(model)  # must not raise

    def test_validation_error_carries_problems(self):
        model = Model(library_metamodel())
        model.add_root(model.create("Library"))
        with pytest.raises(ValidationError) as excinfo:
            validate_model(model)
        assert excinfo.value.problems


class TestRegistry:
    def test_register_and_get(self):
        registry = MetamodelRegistry()
        mm = library_metamodel()
        registry.register(mm)
        assert registry.get("library") is mm
        assert "library" in registry

    def test_duplicate_registration_rejected(self):
        registry = MetamodelRegistry()
        registry.register(library_metamodel())
        with pytest.raises(MetamodelError):
            registry.register(library_metamodel())

    def test_unknown_lookup_raises(self):
        with pytest.raises(MetamodelError):
            MetamodelRegistry().get("nope")


class TestFrozenMetamodel:
    def test_definitions_raise_and_tables_are_read_only(self):
        mm = library_metamodel().freeze()
        assert mm.frozen
        book = mm.metaclass("Book")
        with pytest.raises(MetamodelError, match="frozen"):
            mm.define("Shelf")
        with pytest.raises(MetamodelError, match="frozen"):
            book.attribute("isbn", AttributeKind.STR)
        with pytest.raises(MetamodelError, match="frozen"):
            book.reference("author", "Book")
        with pytest.raises(TypeError):
            book.own_attributes["isbn"] = None
        with pytest.raises(TypeError):
            book.all_attributes()["isbn"] = None
        with pytest.raises(TypeError):
            mm._classes["Shelf"] = book
        with pytest.raises(MetamodelError, match="frozen"):
            book.abstract = True
        with pytest.raises(MetamodelError, match="frozen"):
            book.own_attributes["pages"].default = 7
        with pytest.raises(MetamodelError, match="frozen"):
            mm.metaclass("Library").own_references["books"].many = False
        with pytest.raises(MetamodelError, match="frozen"):
            mm.frozen = False

    def test_lookups_match_an_unfrozen_twin(self):
        frozen, open_ = library_metamodel().freeze(), library_metamodel()
        for cls in frozen.classes():
            twin = open_.metaclass(cls.name)
            assert ([c.name for c in cls.all_supertypes()]
                    == [c.name for c in twin.all_supertypes()])
            assert list(cls.all_attributes()) == list(twin.all_attributes())
            assert list(cls.all_references()) == list(twin.all_references())
            assert cls.is_subtype_of("Named") == twin.is_subtype_of("Named")

    def test_frozen_metamodel_still_builds_models(self):
        mm = library_metamodel().freeze()
        model = Model(mm)
        lib = model.create("Library", name="city")
        book = model.create("Book", name="b")
        lib.add_ref("books", book)
        assert book.get("pages") == 100 and book.container is lib
        with pytest.raises(ModelError):
            book.set("genre", "poetry")

    def test_comdes_metamodel_is_built_once_and_shared(self):
        from repro.comdes import comdes_metamodel, system_to_model
        from repro.comdes.examples import cruise_control_system
        from repro.comdes.metamodel import _build_comdes_metamodel
        shared = comdes_metamodel()
        assert shared is comdes_metamodel() and shared.frozen
        first = system_to_model(cruise_control_system())
        second = system_to_model(cruise_control_system())
        assert first.metamodel is shared and second.metamodel is shared
        fresh = _build_comdes_metamodel()
        assert not fresh.frozen
        assert ([c.name for c in shared.classes()]
                == [c.name for c in fresh.classes()])
        with pytest.raises(MetamodelError):
            shared.define("Extra")
