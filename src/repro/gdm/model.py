"""Runtime debug-model classes: elements, links, bindings.

:class:`GdmModel` is the object the engine animates. It can round-trip into
the reflective form conforming to :func:`~repro.gdm.metamodel.gdm_metamodel`
(the file the prototype writes as "an initial GDM file", Fig 6 step 3).

Command dispatch costs one dict lookup, not a scan of the model:

* the **binding index** maps ``(kind, path)`` to the bindings a command
  triggers, filled on first use from the registration-order scan and
  dropped whenever the binding list changes (:meth:`GdmModel.add_binding`
  and :meth:`GdmModel.remove_binding` are the only mutators, and
  :attr:`GdmModel.bindings` is an immutable tuple);
* the **group index** lists each exclusive-highlight group's elements and
  the **link index** the first link per source path, both kept by
  :meth:`GdmModel.add_element` / :meth:`GdmModel.add_link`;
* the **lit set** holds every element and link given a pulse through
  :meth:`GdmModel.pulse` (or restored with one), so pulse decay visits
  only those.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple, Union

from repro.comm.protocol import Command, CommandKind
from repro.errors import AbstractionError
from repro.gdm.patterns import PatternSpec
from repro.meta.model import Model
from repro.gdm.metamodel import gdm_metamodel
from repro.render.geometry import Rect
from repro.util.ids import IdGenerator


class GdmElement:
    """A graphical element animated at runtime."""

    def __init__(self, element_id: str, label: str, pattern: PatternSpec,
                 source_path: str, group: str = "") -> None:
        self.id = element_id
        self.label = label
        self.pattern = pattern
        self.source_path = source_path
        #: exclusive-highlight group (e.g. all states of one machine)
        self.group = group
        self.rect: Optional[Rect] = None
        #: dynamic display state mutated by reactions
        self.style: Dict[str, str] = {}

    @property
    def highlighted(self) -> bool:
        """Whether the element is currently highlighted."""
        return self.style.get("highlighted") == "true"

    def reset_style(self) -> None:
        """Clear all dynamic styling (used by replay and engine reset)."""
        self.style.clear()

    def __repr__(self) -> str:
        return f"<GdmElement {self.id} {self.pattern.kind.value} <- {self.source_path}>"


class GdmLink:
    """A connection (arrow/line) between two elements."""

    def __init__(self, link_id: str, src_id: str, dst_id: str,
                 pattern: PatternSpec, source_path: str = "",
                 label: str = "") -> None:
        if not pattern.kind.is_edge:
            raise AbstractionError(
                f"link {link_id} needs an edge pattern, got {pattern.kind.value}"
            )
        self.id = link_id
        self.src_id = src_id
        self.dst_id = dst_id
        self.pattern = pattern
        self.source_path = source_path
        self.label = label
        self.style: Dict[str, str] = {}

    def __repr__(self) -> str:
        return f"<GdmLink {self.src_id} -> {self.dst_id}>"


class CommandBinding:
    """Command setup entry: which command triggers which reaction.

    ``path_selector`` is an exact source path or a prefix ending in ``*``
    (e.g. ``state:lights.lamp.*``).
    """

    def __init__(self, command_kind: CommandKind, path_selector: str,
                 reaction: str) -> None:
        self.command_kind = CommandKind(command_kind)
        self.path_selector = path_selector
        self.reaction = reaction

    def matches(self, command: Command) -> bool:
        """Whether *command* triggers this binding."""
        if command.kind is not self.command_kind:
            return False
        if self.path_selector.endswith("*"):
            return command.path.startswith(self.path_selector[:-1])
        return command.path == self.path_selector

    def __repr__(self) -> str:
        return (f"<CommandBinding {self.command_kind.name} "
                f"{self.path_selector} -> {self.reaction}>")


#: bound on the binding index; a stream of ever-new paths refills it
_BINDING_INDEX_LIMIT = 4096


class GdmModel:
    """The complete debug model: elements + links + command bindings."""

    def __init__(self, name: str, source_model: str = "") -> None:
        self.name = name
        self.source_model = source_model
        self._ids = IdGenerator()
        self.elements: Dict[str, GdmElement] = {}
        self.links: Dict[str, GdmLink] = {}
        self._bindings: Tuple[CommandBinding, ...] = ()
        self._by_path: Dict[str, GdmElement] = {}
        self._link_by_path: Dict[str, GdmLink] = {}
        self._groups: Dict[str, Tuple[GdmElement, ...]] = {}
        self._binding_index: Dict[Tuple[CommandKind, str],
                                  Tuple[CommandBinding, ...]] = {}
        #: decay order of every item: elements (0, n), then links (1, n)
        self._rank: Dict[str, Tuple[int, int]] = {}
        #: items carrying a pulse, by id (read-only to callers: an empty
        #: dict means a decay has nothing to clear)
        self.lit: Dict[str, Union[GdmElement, GdmLink]] = {}

    # -- construction ----------------------------------------------------

    def add_element(self, label: str, pattern: PatternSpec, source_path: str,
                    group: str = "") -> GdmElement:
        """Create and register an element."""
        if source_path in self._by_path:
            raise AbstractionError(
                f"element for source path {source_path!r} already exists"
            )
        element = GdmElement(self._ids.next("el"), label, pattern,
                             source_path, group)
        self.elements[element.id] = element
        self._by_path[source_path] = element
        self._rank[element.id] = (0, len(self.elements))
        if group:
            self._groups[group] = self._groups.get(group, ()) + (element,)
        return element

    def add_link(self, src: GdmElement, dst: GdmElement, pattern: PatternSpec,
                 source_path: str = "", label: str = "") -> GdmLink:
        """Create and register a link between two existing elements."""
        for endpoint in (src, dst):
            if endpoint.id not in self.elements:
                raise AbstractionError(f"link endpoint {endpoint.id} not in model")
        link = GdmLink(self._ids.next("ln"), src.id, dst.id, pattern,
                       source_path, label)
        self.links[link.id] = link
        self._link_by_path.setdefault(source_path, link)
        self._rank[link.id] = (1, len(self.links))
        return link

    @property
    def bindings(self) -> Tuple[CommandBinding, ...]:
        """The command bindings in registration order (read-only)."""
        return self._bindings

    def add_binding(self, binding: CommandBinding) -> CommandBinding:
        """Register a command binding (order matters: first match wins set)."""
        self._bindings += (binding,)
        self._binding_index.clear()
        return binding

    def remove_binding(self, index: int) -> CommandBinding:
        """Unregister and return the binding at *index* in the list."""
        bindings = list(self._bindings)
        binding = bindings.pop(index)
        self._bindings = tuple(bindings)
        self._binding_index.clear()
        return binding

    # -- lookup -----------------------------------------------------------

    def element_by_path(self, source_path: str) -> Optional[GdmElement]:
        """Element created from *source_path*, or None."""
        return self._by_path.get(source_path)

    def link_by_path(self, source_path: str) -> Optional[GdmLink]:
        """First link created from *source_path*, or None."""
        return self._link_by_path.get(source_path)

    def elements_in_group(self, group: str) -> Tuple[GdmElement, ...]:
        """All elements sharing an exclusive-highlight group."""
        return self._groups.get(group, ())

    def bindings_for(self, command: Command) -> Tuple[CommandBinding, ...]:
        """All bindings triggered by *command* (in registration order)."""
        key = (command.kind, command.path)
        found = self._binding_index.get(key)
        if found is None:
            index = self._binding_index
            if len(index) >= _BINDING_INDEX_LIMIT:
                index.clear()
            found = index[key] = tuple(
                b for b in self._bindings if b.matches(command))
        return found

    # -- pulses -------------------------------------------------------------

    def pulse(self, item: Union[GdmElement, GdmLink]) -> None:
        """Light *item*'s transient pulse until the next decay."""
        item.style["pulse"] = "true"
        self.lit[item.id] = item

    def decay_pulses(self) -> List[str]:
        """Clear every pulse; returns the affected ids, elements first,
        each kind in creation order."""
        lit = self.lit
        if not lit:
            return []
        items = list(lit.values())
        lit.clear()
        if len(items) > 1:
            rank = self._rank
            items.sort(key=lambda item: rank[item.id])
        return [item.id for item in items
                if item.style.pop("pulse", None) is not None]

    def styles_snapshot(self) -> Dict[str, Dict[str, str]]:
        """Copy of every element's dynamic style (animation frames)."""
        return {eid: dict(e.style) for eid, e in self.elements.items()}

    def dynamic_state(self) -> Dict[str, Dict[str, Dict[str, str]]]:
        """The complete mutable display state: element *and* link styles.

        This is the replay checkpoint payload — restoring it via
        :meth:`restore_dynamic_state` puts the model back into exactly
        this animation instant.
        """
        return {
            "elements": {eid: dict(e.style)
                         for eid, e in self.elements.items() if e.style},
            "links": {lid: dict(l.style)
                      for lid, l in self.links.items() if l.style},
        }

    def restore_dynamic_state(
            self, state: Dict[str, Dict[str, Dict[str, str]]]) -> None:
        """Inverse of :meth:`dynamic_state` (clears everything else)."""
        self.reset_styles()
        for items, styles in ((self.elements, state.get("elements", {})),
                              (self.links, state.get("links", {}))):
            for item_id, style in styles.items():
                item = items.get(item_id)
                if item is not None:
                    item.style.update(style)
                    if "pulse" in style:
                        self.lit[item_id] = item

    def reset_styles(self) -> None:
        """Clear all dynamic styling."""
        for element in self.elements.values():
            element.reset_style()
        for link in self.links.values():
            link.style.clear()
        self.lit.clear()

    # -- reflective form -------------------------------------------------------

    def to_meta_model(self) -> Model:
        """Serialize into a model conforming to the GDM metamodel."""
        mm = gdm_metamodel()
        model = Model(mm, name=self.name)
        root = model.create("DebugModel", name=self.name,
                            sourceModel=self.source_model)
        model.add_root(root)
        objects: Dict[str, object] = {}
        for element in self.elements.values():
            obj = model.create(
                "GraphicalElement",
                name=element.label,
                sourcePath=element.source_path,
                pattern=element.pattern.kind.value,
                highlighted=element.highlighted,
            )
            if element.rect is not None:
                obj.set("x", element.rect.x).set("y", element.rect.y)
                obj.set("w", element.rect.w).set("h", element.rect.h)
            root.add_ref("elements", obj)
            objects[element.id] = obj
        for link in self.links.values():
            obj = model.create(
                "Link", name=link.label, sourcePath=link.source_path,
                pattern=link.pattern.kind.value,
            )
            obj.set_ref("source", objects[link.src_id])
            obj.set_ref("target", objects[link.dst_id])
            root.add_ref("links", obj)
        for binding in self.bindings:
            obj = model.create(
                "CommandBinding",
                commandKind=binding.command_kind.name,
                pathSelector=binding.path_selector,
                reaction=binding.reaction,
            )
            root.add_ref("bindings", obj)
        return model

    def __repr__(self) -> str:
        return (f"<GdmModel {self.name!r}: {len(self.elements)} elements, "
                f"{len(self.links)} links, {len(self.bindings)} bindings>")
