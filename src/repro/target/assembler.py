"""Two-pass assembler with labels.

``emit``/``emit_jump``/``label`` record a program; ``assemble`` resolves
labels (forward and backward) and returns the final instruction list. Jump
targets are backpatched in the second pass, so code generators can emit
control flow in source order without knowing addresses.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Union

from repro.errors import AssemblyError
from repro.target.isa import Instr, JUMP_OPS


class _PendingJump:
    """A jump whose target label is resolved at assemble time."""

    __slots__ = ("op", "label", "src_path")

    def __init__(self, op: str, label: str, src_path: Optional[str]) -> None:
        self.op = op
        self.label = label
        self.src_path = src_path


class Assembler:
    """Accumulates instructions and labels; ``assemble()`` backpatches."""

    def __init__(self) -> None:
        self._items: List[Union[Instr, _PendingJump]] = []
        self._labels: Dict[str, int] = {}
        self._fresh_count = 0

    @property
    def position(self) -> int:
        """Address the next emitted instruction will occupy."""
        return len(self._items)

    def emit(self, op: str, arg: Optional[int] = None,
             src_path: Optional[str] = None) -> int:
        """Append one instruction; returns its address."""
        self._items.append(Instr(op, arg, src_path=src_path))
        return len(self._items) - 1

    def emit_jump(self, op: str, label: str,
                  src_path: Optional[str] = None) -> int:
        """Append a jump to *label* (resolved later); returns its address."""
        if op not in JUMP_OPS:
            raise AssemblyError(
                f"{op} is not a jump opcode; emit_jump takes one of "
                f"{sorted(JUMP_OPS)}"
            )
        self._items.append(_PendingJump(op, label, src_path))
        return len(self._items) - 1

    def label(self, name: str) -> None:
        """Define *name* at the current position."""
        if name in self._labels:
            raise AssemblyError(f"duplicate label {name!r}")
        self._labels[name] = len(self._items)

    def fresh_label(self, prefix: str = "L") -> str:
        """A label name guaranteed unique within this assembler."""
        self._fresh_count += 1
        return f"__{prefix}_{self._fresh_count}"

    def assemble(self) -> List[Instr]:
        """Resolve all labels and return the final program."""
        code: List[Instr] = []
        for item in self._items:
            if isinstance(item, Instr):
                code.append(item)
                continue
            target = self._labels.get(item.label)
            if target is None:
                raise AssemblyError(f"undefined label {item.label!r}")
            code.append(Instr(item.op, target, src_path=item.src_path))
        return code

