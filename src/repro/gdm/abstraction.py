"""The abstraction engine: user model + mapping table -> debug model.

This is the paper's "automatic model abstraction and generation": once the
user finishes the pairing dialog (``ABSTRACTION FINISHED``), the GDM is
obtained automatically. The engine walks the reflective model, creates an
element for every node-mapped object, a link for every edge-mapped object
whose endpoints resolved, lays the result out, and installs the default
command bindings (state -> highlight, signal -> annotate, ...).
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.comm.protocol import CommandKind
from repro.errors import AbstractionError
from repro.gdm.mapping import MappingTable
from repro.gdm.model import CommandBinding, GdmElement, GdmModel
from repro.gdm.reactions import ReactionKind
from repro.meta.model import Model, ModelObject
from repro.render.geometry import Rect
from repro.render.layout import circular_layout, grid_layout


class AbstractionEngine:
    """Builds GDMs from reflective models via a mapping table."""

    def __init__(self, table: MappingTable) -> None:
        self.table = table

    def build(self, model: Model, name: str = "") -> GdmModel:
        """Run the abstraction and return the generated debug model,
        laid out and with the default command bindings installed."""
        if model.metamodel is not self.table.metamodel:
            if model.metamodel.name != self.table.metamodel.name:
                raise AbstractionError(
                    f"mapping table is for metamodel "
                    f"{self.table.metamodel.name!r}, model conforms to "
                    f"{model.metamodel.name!r}"
                )
        gdm = GdmModel(name or f"{model.name}_gdm", source_model=model.name)

        object_to_element: Dict[str, GdmElement] = {}
        edge_objects: List[Tuple[ModelObject, object]] = []

        for obj in model.all_objects():
            rule = self.table.rule_for(obj.metaclass.name)
            if rule is None or rule.render_as == "skip":
                continue
            if rule.render_as == "edge":
                edge_objects.append((obj, rule))
                continue
            group = ""
            if rule.group_by_container and obj.container is not None:
                group = self._path_of(obj.container)
            element = gdm.add_element(
                label=self._label_of(obj, rule.label_attr),
                pattern=rule.pattern,
                source_path=self._path_of(obj),
                group=group,
            )
            object_to_element[obj.id] = element

        for obj, rule in edge_objects:
            endpoints = rule.edge_resolver(obj, model)
            if endpoints is None:
                continue
            src_obj, dst_obj = endpoints
            src = object_to_element.get(src_obj.id)
            dst = object_to_element.get(dst_obj.id)
            if src is None or dst is None:
                continue  # endpoint class not mapped as node: drop the edge
            gdm.add_link(src, dst, rule.pattern,
                         source_path=self._path_of(obj),
                         label=self._label_of(obj, rule.label_attr))

        if not gdm.elements:
            raise AbstractionError(
                "abstraction produced an empty debug model — no metaclass in "
                "the model is paired as a node"
            )
        self.assign_layout(gdm)
        self.install_default_bindings(gdm)
        return gdm

    @staticmethod
    def _label_of(obj: ModelObject, label_attr: str) -> str:
        attrs = obj.metaclass.all_attributes()
        if label_attr in attrs and obj.get(label_attr):
            return str(obj.get(label_attr))
        return obj.label

    @staticmethod
    def _path_of(obj: ModelObject) -> str:
        attrs = obj.metaclass.all_attributes()
        if "path" in attrs and obj.get("path"):
            return str(obj.get("path"))
        return obj.id

    # -- layout --------------------------------------------------------------

    def assign_layout(self, gdm: GdmModel) -> None:
        """Position elements: state groups on circles, the rest on a grid."""
        groups: Dict[str, List[GdmElement]] = {}
        loose: List[GdmElement] = []
        for element in gdm.elements.values():
            if element.group:
                groups.setdefault(element.group, []).append(element)
            else:
                loose.append(element)

        offset_y = 0
        for group_name in sorted(groups):
            members = groups[group_name]
            placement = circular_layout([e.id for e in members])
            max_bottom = 0
            for element in members:
                rect = placement[element.id]
                element.rect = Rect(rect.x, rect.y + offset_y,
                                    element.pattern.width,
                                    element.pattern.height)
                max_bottom = max(max_bottom, element.rect.bottom)
            offset_y = max_bottom + 6

        if loose:
            placement = grid_layout(
                [e.id for e in loose],
                cell_w=max(e.pattern.width for e in loose),
                cell_h=max(e.pattern.height for e in loose),
            )
            for element in loose:
                rect = placement[element.id]
                element.rect = Rect(rect.x, rect.y + offset_y,
                                    element.pattern.width,
                                    element.pattern.height)

    # -- default command setup ----------------------------------------------

    def install_default_bindings(self, gdm: GdmModel) -> None:
        """Install the standard command -> reaction associations.

        * ``STATE_ENTER`` on a state element -> exclusive HIGHLIGHT
        * ``SIG_UPDATE`` on a signal element -> ANNOTATE with the value
        * ``TRANS_FIRED`` on a transition link path -> PULSE
        * ``TASK_START`` on an actor element -> PULSE
        """
        for element in gdm.elements.values():
            path = element.source_path
            if path.startswith("state:"):
                gdm.add_binding(CommandBinding(
                    CommandKind.STATE_ENTER, path, ReactionKind.HIGHLIGHT.name))
            elif path.startswith("signal:"):
                gdm.add_binding(CommandBinding(
                    CommandKind.SIG_UPDATE, path, ReactionKind.ANNOTATE.name))
            elif path.startswith("actor:"):
                gdm.add_binding(CommandBinding(
                    CommandKind.TASK_START, path, ReactionKind.PULSE.name))
        for link in gdm.links.values():
            if link.source_path.startswith("trans:"):
                gdm.add_binding(CommandBinding(
                    CommandKind.TRANS_FIRED, link.source_path,
                    ReactionKind.PULSE.name))
