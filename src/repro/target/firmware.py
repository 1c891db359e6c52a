"""Firmware images and their symbol/path metadata.

A :class:`FirmwareImage` is everything the model-to-code transformation
produces for one system: the code, one entry point per actor task, the
data-RAM symbol table, the initialised-data image, and the path table that
maps compact wire ids back to model-element paths. ``code`` is a plain
mutable list on purpose — the fault-injection campaign rewrites single
instructions in copies of an image to emulate implementation bugs.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.errors import AssemblyError, TargetFault
from repro.target.isa import Instr
from repro.target.memory import RAM_BASE


class Symbol:
    """One allocated data word: a name, a RAM address and a kind."""

    __slots__ = ("name", "addr", "kind")

    def __init__(self, name: str, addr: int, kind: str) -> None:
        self.name = name
        self.addr = addr
        self.kind = kind

    def __repr__(self) -> str:
        return f"<Symbol {self.name} @0x{self.addr:08x} [{self.kind}]>"


class SymbolTable:
    """Sequential data-RAM allocator with name and address lookup."""

    def __init__(self) -> None:
        self._by_name: Dict[str, Symbol] = {}
        self._by_addr: Dict[int, Symbol] = {}
        self._order: List[Symbol] = []

    def allocate(self, name: str, kind: str = "var") -> Symbol:
        """Allocate the next free word for *name*."""
        if name in self._by_name:
            raise AssemblyError(f"symbol {name!r} allocated twice")
        symbol = Symbol(name, RAM_BASE + len(self._order), kind)
        self._by_name[name] = symbol
        self._by_addr[symbol.addr] = symbol
        self._order.append(symbol)
        return symbol

    def lookup(self, name: str) -> Symbol:
        """The symbol called *name*; unknown names raise."""
        try:
            return self._by_name[name]
        except KeyError:
            raise AssemblyError(f"unknown symbol {name!r}") from None

    def addr_of(self, name: str) -> int:
        """RAM address of *name*."""
        return self.lookup(name).addr

    def at_addr(self, addr: int) -> Optional[Symbol]:
        """The symbol at *addr*, or None (not every word is named)."""
        return self._by_addr.get(addr)

    def has(self, name: str) -> bool:
        """Whether *name* is allocated."""
        return name in self._by_name

    def symbols(self, kind: Optional[str] = None) -> List[Symbol]:
        """All symbols in allocation order, optionally filtered by kind."""
        if kind is None:
            return list(self._order)
        return [s for s in self._order if s.kind == kind]

    def __len__(self) -> int:
        return len(self._order)


class FirmwareImage:
    """One generated firmware: code + entries + symbols + data + paths."""

    def __init__(self, name: str, code: Sequence[Instr],
                 entries: Dict[str, int], symbols: SymbolTable,
                 data_init: Dict[int, int],
                 path_table: Optional[Dict[int, str]] = None) -> None:
        code = list(code)
        for task, entry in entries.items():
            if not 0 <= entry < len(code):
                raise AssemblyError(
                    f"entry of task {task!r} is {entry}, outside the "
                    f"{len(code)}-instruction image"
                )
        self.name = name
        self.code: List[Instr] = code
        self.entries = dict(entries)
        self.symbols = symbols
        self.data_init = dict(data_init)
        self.path_table = dict(path_table or {})
        self._id_by_path = {path: pid for pid, path in self.path_table.items()}

    # -- tasks -------------------------------------------------------------

    def entry_of(self, task: str) -> int:
        """Entry address of *task*; unknown tasks trap."""
        try:
            return self.entries[task]
        except KeyError:
            raise TargetFault(f"firmware {self.name!r} has no task {task!r}") \
                from None

    def instruction_count(self) -> int:
        """Code size in instructions."""
        return len(self.code)

    # -- wire ids ----------------------------------------------------------

    def path_of_id(self, path_id: int) -> str:
        """Model-element path behind a wire id."""
        try:
            return self.path_table[path_id]
        except KeyError:
            raise AssemblyError(
                f"firmware {self.name!r} has no path id {path_id}"
            ) from None

    def id_of_path(self, path: str) -> int:
        """Wire id of a model-element path."""
        try:
            return self._id_by_path[path]
        except KeyError:
            raise AssemblyError(
                f"firmware {self.name!r} has no path {path!r}"
            ) from None

    def __repr__(self) -> str:
        return (f"<FirmwareImage {self.name!r}: {len(self.code)} instrs, "
                f"{len(self.entries)} task(s), {len(self.symbols)} symbol(s)>")
