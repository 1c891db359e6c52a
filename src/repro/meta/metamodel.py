"""Metamodel definitions: metaclasses, attributes, references.

This mirrors the Ecore subset GMDF needs: single/multiple inheritance of
metaclasses, typed attributes with defaults, and references that are either
*containment* (forming the model tree) or *cross* references, with optional
``many`` multiplicity.

A metamodel shared between models (the COMDES metamodel is built once per
process) is frozen with :meth:`MetaModel.freeze`: defining classes,
attributes or references then raises, its tables become read-only
mappings, and each class's inheritance-aware lookups are computed once
and reused.
"""

from __future__ import annotations

import enum
from types import MappingProxyType
from typing import Any, Dict, List, Mapping, Optional, Sequence

from repro.errors import MetamodelError


class AttributeKind(enum.Enum):
    """Primitive attribute types supported by the reflective layer."""

    INT = "int"
    FLOAT = "float"
    STR = "str"
    BOOL = "bool"
    ENUM = "enum"

    def accepts(self, value: Any) -> bool:
        """Whether *value* is a legal value of this kind (enums need a spec)."""
        if self is AttributeKind.INT:
            return isinstance(value, int) and not isinstance(value, bool)
        if self is AttributeKind.FLOAT:
            return isinstance(value, (int, float)) and not isinstance(value, bool)
        if self is AttributeKind.STR:
            return isinstance(value, str)
        if self is AttributeKind.BOOL:
            return isinstance(value, bool)
        return isinstance(value, str)  # ENUM literals are strings


class _Freezable:
    """Attribute writes raise once :meth:`MetaModel.freeze` has sealed
    the object (``_sealed``)."""

    _sealed = False

    def __setattr__(self, name: str, value: Any) -> None:
        if self._sealed:
            raise MetamodelError(
                f"{type(self).__name__} of a frozen metamodel cannot "
                f"change ({name!r})")
        object.__setattr__(self, name, value)

    def _seal(self) -> None:
        object.__setattr__(self, "_sealed", True)


class MetaAttribute(_Freezable):
    """A typed attribute slot on a metaclass."""

    def __init__(
        self,
        name: str,
        kind: AttributeKind,
        default: Any = None,
        required: bool = False,
        enum_values: Optional[Sequence[str]] = None,
    ) -> None:
        if kind is AttributeKind.ENUM and not enum_values:
            raise MetamodelError(f"enum attribute {name!r} needs enum_values")
        self.name = name
        self.kind = kind
        self.default = default
        self.required = required
        self.enum_values = tuple(enum_values) if enum_values else ()
        if default is not None and not self.accepts(default):
            raise MetamodelError(
                f"default {default!r} is not a valid {kind.value} for attribute {name!r}"
            )

    def accepts(self, value: Any) -> bool:
        """Whether *value* conforms to this attribute's type."""
        if not self.kind.accepts(value):
            return False
        if self.kind is AttributeKind.ENUM:
            return value in self.enum_values
        return True

    def __repr__(self) -> str:
        return f"<MetaAttribute {self.name}:{self.kind.value}>"


class MetaReference(_Freezable):
    """A reference slot: containment or cross, single- or many-valued."""

    def __init__(
        self,
        name: str,
        target: str,
        containment: bool = False,
        many: bool = False,
        required: bool = False,
    ) -> None:
        self.name = name
        self.target = target
        self.containment = containment
        self.many = many
        self.required = required

    def __repr__(self) -> str:
        flavor = "contains" if self.containment else "refers-to"
        mult = "*" if self.many else "1"
        return f"<MetaReference {self.name} {flavor} {self.target}[{mult}]>"


class MetaClass(_Freezable):
    """A class in a metamodel; supports multiple inheritance of features."""

    def __init__(self, name: str, metamodel: "MetaModel", abstract: bool = False,
                 supertypes: Sequence[str] = ()) -> None:
        self.name = name
        self.metamodel = metamodel
        self.abstract = abstract
        self.supertype_names = tuple(supertypes)
        self.own_attributes: Mapping[str, MetaAttribute] = {}
        self.own_references: Mapping[str, MetaReference] = {}
        # (supertypes, attributes, references), set when frozen
        self._frozen_lookups: Optional[tuple] = None

    # -- definition -------------------------------------------------------

    def _check_open(self) -> None:
        if self.metamodel.frozen:
            raise MetamodelError(
                f"metamodel {self.metamodel.name!r} is frozen; "
                f"cannot change {self.name}")

    def attribute(self, name: str, kind: AttributeKind, **kwargs: Any) -> "MetaClass":
        """Define an attribute; returns self for chaining."""
        self._check_open()
        if name in self.own_attributes:
            raise MetamodelError(f"duplicate attribute {name!r} on {self.name}")
        self.own_attributes[name] = MetaAttribute(name, kind, **kwargs)
        return self

    def reference(self, name: str, target: str, **kwargs: Any) -> "MetaClass":
        """Define a reference; returns self for chaining."""
        self._check_open()
        if name in self.own_references:
            raise MetamodelError(f"duplicate reference {name!r} on {self.name}")
        self.own_references[name] = MetaReference(name, target, **kwargs)
        return self

    # -- inheritance-aware lookups ----------------------------------------

    def supertypes(self) -> List["MetaClass"]:
        """Direct supertypes, resolved through the owning metamodel."""
        return [self.metamodel.metaclass(name) for name in self.supertype_names]

    def all_supertypes(self) -> Sequence["MetaClass"]:
        """Transitive supertypes in MRO-ish order (no duplicates)."""
        if self._frozen_lookups is not None:
            return self._frozen_lookups[0]
        seen: Dict[str, MetaClass] = {}
        stack = list(self.supertypes())
        while stack:
            cls = stack.pop(0)
            if cls.name not in seen:
                seen[cls.name] = cls
                stack.extend(cls.supertypes())
        return list(seen.values())

    def is_subtype_of(self, name: str) -> bool:
        """True if this class is *name* or inherits from it."""
        if self.name == name:
            return True
        return any(cls.name == name for cls in self.all_supertypes())

    def all_attributes(self) -> Mapping[str, MetaAttribute]:
        """Own + inherited attributes; subclasses override supertype slots."""
        if self._frozen_lookups is not None:
            return self._frozen_lookups[1]
        merged: Dict[str, MetaAttribute] = {}
        for cls in reversed(self.all_supertypes()):
            merged.update(cls.own_attributes)
        merged.update(self.own_attributes)
        return merged

    def all_references(self) -> Mapping[str, MetaReference]:
        """Own + inherited references; subclasses override supertype slots."""
        if self._frozen_lookups is not None:
            return self._frozen_lookups[2]
        merged: Dict[str, MetaReference] = {}
        for cls in reversed(self.all_supertypes()):
            merged.update(cls.own_references)
        merged.update(self.own_references)
        return merged

    def __repr__(self) -> str:
        return f"<MetaClass {self.metamodel.name}.{self.name}>"


class MetaModel(_Freezable):
    """A named collection of metaclasses (an Ecore package stand-in)."""

    def __init__(self, name: str) -> None:
        self.name = name
        self._classes: Mapping[str, MetaClass] = {}
        #: set by :meth:`freeze`; a frozen metamodel cannot change
        self.frozen = False

    def define(self, name: str, abstract: bool = False,
               supertypes: Sequence[str] = ()) -> MetaClass:
        """Create a metaclass; supertypes may be defined later (checked at check())."""
        if self.frozen:
            raise MetamodelError(
                f"metamodel {self.name!r} is frozen; cannot define {name!r}")
        if name in self._classes:
            raise MetamodelError(f"duplicate metaclass {name!r} in {self.name}")
        cls = MetaClass(name, self, abstract=abstract, supertypes=supertypes)
        self._classes[name] = cls
        return cls

    def metaclass(self, name: str) -> MetaClass:
        """Look up a metaclass by name."""
        try:
            return self._classes[name]
        except KeyError:
            raise MetamodelError(f"unknown metaclass {name!r} in {self.name}") from None

    def has_class(self, name: str) -> bool:
        """Whether a metaclass with *name* exists."""
        return name in self._classes

    def classes(self) -> List[MetaClass]:
        """All metaclasses in definition order."""
        return list(self._classes.values())

    def concrete_classes(self) -> List[MetaClass]:
        """Metaclasses that can be instantiated."""
        return [cls for cls in self._classes.values() if not cls.abstract]

    def check(self) -> None:
        """Verify internal consistency: supertypes and reference targets exist,
        and the inheritance graph is acyclic."""
        for cls in self._classes.values():
            for sup in cls.supertype_names:
                if sup not in self._classes:
                    raise MetamodelError(f"{cls.name}: unknown supertype {sup!r}")
            for ref in cls.own_references.values():
                if ref.target not in self._classes:
                    raise MetamodelError(
                        f"{cls.name}.{ref.name}: unknown target {ref.target!r}"
                    )
        for cls in self._classes.values():
            self._check_acyclic(cls, set())

    def freeze(self) -> "MetaModel":
        """Check, then make this metamodel immutable; returns self.

        Every definition call and every attribute write on the metamodel,
        its classes, attributes and references raises from now on, the
        class, attribute and reference tables become read-only mappings,
        and each class's
        :meth:`~MetaClass.all_supertypes`, ``all_attributes`` and
        ``all_references`` are computed here once.
        """
        if self.frozen:
            return self
        self.check()
        lookups = {cls.name: (tuple(cls.all_supertypes()),
                              MappingProxyType(dict(cls.all_attributes())),
                              MappingProxyType(dict(cls.all_references())))
                   for cls in self._classes.values()}
        for cls in self._classes.values():
            cls.own_attributes = MappingProxyType(dict(cls.own_attributes))
            cls.own_references = MappingProxyType(dict(cls.own_references))
            cls._frozen_lookups = lookups[cls.name]
            for feature in (*cls.own_attributes.values(),
                            *cls.own_references.values()):
                feature._seal()
            cls._seal()
        self._classes = MappingProxyType(dict(self._classes))
        self.frozen = True
        self._seal()
        return self

    def _check_acyclic(self, cls: MetaClass, path: set) -> None:
        if cls.name in path:
            raise MetamodelError(f"inheritance cycle through {cls.name!r}")
        path = path | {cls.name}
        for sup in cls.supertypes():
            self._check_acyclic(sup, path)

    def __repr__(self) -> str:
        return f"<MetaModel {self.name} ({len(self._classes)} classes)>"
