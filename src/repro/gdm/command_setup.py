"""The command-setting dialog (Fig 6, step 4).

"Command reaction information is subsequently added (i.e. which command
triggers which type of reaction) using the command setting interface ...
similar to the one shown in Fig 4."

Like the abstraction guide, this is the programmatic counterpart of that
dialog: the left list shows command sources present in the debug model, the
right list the available reaction types; the middle list holds the current
bindings, with add/delete.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.comm.protocol import CommandKind
from repro.errors import DebuggerError
from repro.gdm.model import CommandBinding, GdmModel
from repro.gdm.reactions import ReactionKind
from repro.util.textgrid import TextGrid


class CommandSetupDialog:
    """Interactive editing of a debug model's command bindings."""

    def __init__(self, gdm: GdmModel) -> None:
        self.gdm = gdm
        self._finished = False

    # -- the dialog's lists ---------------------------------------------------

    def command_sources(self) -> List[Tuple[str, str]]:
        """(path, suggested command kind) for every animatable element."""
        sources: List[Tuple[str, str]] = []
        for element in self.gdm.elements.values():
            path = element.source_path
            if path.startswith("state:"):
                sources.append((path, CommandKind.STATE_ENTER.name))
            elif path.startswith("signal:"):
                sources.append((path, CommandKind.SIG_UPDATE.name))
            elif path.startswith("actor:"):
                sources.append((path, CommandKind.TASK_START.name))
        for link in self.gdm.links.values():
            if link.source_path.startswith("trans:"):
                sources.append((link.source_path,
                                CommandKind.TRANS_FIRED.name))
        return sources

    def reaction_options(self) -> List[str]:
        """Available reaction type names."""
        return [kind.name for kind in ReactionKind]

    def bindings(self) -> List[CommandBinding]:
        """The current binding list."""
        return list(self.gdm.bindings)

    # -- editing ------------------------------------------------------------

    def add(self, command_kind: CommandKind, path_selector: str,
            reaction: str) -> CommandBinding:
        """Add a binding (reaction name validated)."""
        self._check_open()
        if reaction not in self.reaction_options():
            raise DebuggerError(
                f"unknown reaction {reaction!r}; "
                f"options: {self.reaction_options()}"
            )
        return self.gdm.add_binding(
            CommandBinding(command_kind, path_selector, reaction))

    def delete(self, index: int) -> CommandBinding:
        """Delete the binding at *index* in the list."""
        self._check_open()
        if not (0 <= index < len(self.gdm.bindings)):
            raise DebuggerError(
                f"binding index {index} outside 0..{len(self.gdm.bindings) - 1}"
            )
        return self.gdm.remove_binding(index)

    def finish(self) -> GdmModel:
        """Close the dialog; at least one binding must remain."""
        self._check_open()
        if not self.gdm.bindings:
            raise DebuggerError("cannot finish command setup with no bindings")
        self._finished = True
        return self.gdm

    def _check_open(self) -> None:
        if self._finished:
            raise DebuggerError("command setup already finished")

    @property
    def finished(self) -> bool:
        """Whether the dialog was closed."""
        return self._finished

    # -- the "screenshot" ------------------------------------------------------

    def render_dialog(self) -> str:
        """ASCII rendering of the command-setting dialog."""
        sources = self.command_sources()
        bindings = self.bindings()
        reactions = self.reaction_options()
        rows = max(len(sources), len(bindings), len(reactions)) + 2
        rows = min(rows, 18)
        grid = TextGrid(108, rows + 7)

        grid.text(2, 0, "COMMAND SETTING — which command triggers which reaction")
        grid.box(1, 1, 38, rows + 2)
        grid.text(3, 2, "Command sources")
        for i, (path, kind) in enumerate(sources[: rows - 2]):
            grid.text(3, 3 + i, f"{kind[:11]} {path}"[:34])

        grid.box(40, 1, 44, rows + 2)
        grid.text(42, 2, "Existing bindings")
        for i, binding in enumerate(bindings[: rows - 2]):
            grid.text(42, 3 + i,
                      (f"{binding.command_kind.name[:10]} "
                       f"{binding.path_selector} -> "
                       f"{binding.reaction}   [del]")[:40])

        grid.box(85, 1, 21, rows + 2)
        grid.text(87, 2, "Reaction types")
        for i, reaction in enumerate(reactions):
            grid.text(87, 3 + i, f"( ) {reaction}"[:17])

        grid.text(2, rows + 4,
                  "[ FINISHED ]" if self._finished else "[ COMMAND SETUP DONE ]")
        return grid.render()
