"""A source-level debugger over the virtual target.

Works the way GDB does on an embedded board: code breakpoints at
instruction addresses (settable from the source map, i.e. "break on this
model element's code"), a small number of *hardware* watchpoints on data
words, single-stepping, and symbol inspection. It deliberately knows
nothing about models — it is the code-level baseline.

Memory inspection routes through a :class:`~repro.comm.link.DebugLink`
(default: the zero-cost in-process :class:`~repro.comm.link.DirectLink`),
so pointing the same debugger at a JTAG link prices every ``inspect`` as
a real probe transaction — and ``inspect_many`` batches a whole variable
view into one.

Watchpoints are address comparators, as in hardware: the debugger
declares the watched addresses to the memory's write hook
(:meth:`~repro.target.memory.MemoryMap.set_write_hook`), and the CPU
stops its fast loop only at the stores that can write one of them. A
debugger holding no watchpoints declares an empty set, so the target
runs exactly as fast as an undebugged one.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence

from repro.comm.link import DebugLink, DirectLink
from repro.debugger.watch import Watchpoint
from repro.errors import DebuggerError
from repro.target.assembler import disassemble
from repro.target.board import Board
from repro.target.cpu import RunResult
from repro.target.firmware import FirmwareImage

#: real debug units have 2-8 comparators; 4 is typical (e.g. Cortex-M DWT)
HW_WATCHPOINT_SLOTS = 4


class WatchHit:
    """One tripped watchpoint."""

    __slots__ = ("watchpoint", "value", "previous", "pc", "cycles")

    def __init__(self, watchpoint: Watchpoint, value: int,
                 previous: Optional[int], pc: int, cycles: int) -> None:
        self.watchpoint = watchpoint
        self.value = value
        self.previous = previous
        self.pc = pc
        self.cycles = cycles

    def __repr__(self) -> str:
        return (f"<WatchHit {self.watchpoint.symbol} -> {self.value} "
                f"at pc={self.pc}>")


class SourceDebugger:
    """GDB-style control of one board."""

    def __init__(self, board: Board, firmware: FirmwareImage,
                 link: Optional[DebugLink] = None) -> None:
        self.board = board
        self.firmware = firmware
        if link is None:
            link = DirectLink(board)
        # Inspection traffic is its own attribution channel; a
        # caller-provided link keeps whatever label its layer assigned.
        if link.label == type(link).kind:
            link.label = "inspect"
        self.link = link
        self.watchpoints: List[Watchpoint] = []
        self.hits: List[WatchHit] = []
        self._shadow: dict = {}
        self.on_hit: Optional[Callable[[WatchHit], None]] = None
        board.memory.set_write_hook(self._write_hook, ())

    # -- breakpoints -----------------------------------------------------------

    def break_at(self, pc: int) -> None:
        """Set a code breakpoint at an instruction address."""
        if not (0 <= pc < len(self.firmware.code)):
            raise DebuggerError(f"breakpoint pc {pc} outside code")
        self.board.cpu.breakpoints.add(pc)

    def break_at_path(self, src_path: str) -> List[int]:
        """Break at every instruction generated from a model element.

        This is what a developer armed with the source map can do — still a
        code-level notion (addresses), not a model-level one.
        """
        pcs = self.firmware.instructions_for_path(src_path)
        if not pcs:
            raise DebuggerError(f"no code generated from {src_path!r}")
        for pc in pcs:
            self.board.cpu.breakpoints.add(pc)
        return pcs

    def clear_breakpoints(self) -> None:
        """Remove all code breakpoints."""
        self.board.cpu.breakpoints.clear()

    # -- watchpoints --------------------------------------------------------

    def watch(self, symbol: str, predicate=None,
              description: str = "") -> Watchpoint:
        """Set a hardware watchpoint on a firmware symbol."""
        if len(self.watchpoints) >= HW_WATCHPOINT_SLOTS:
            raise DebuggerError(
                f"all {HW_WATCHPOINT_SLOTS} hardware watchpoint slots in use"
            )
        addr = self.firmware.symbols.addr_of(symbol)
        watchpoint = Watchpoint(symbol, addr, predicate, description)
        self.watchpoints.append(watchpoint)
        self._shadow[addr] = self.board.memory.peek(addr)
        self.board.memory.set_write_hook(
            self._write_hook, [w.addr for w in self.watchpoints])
        return watchpoint

    def _write_hook(self, addr: int, value: int) -> None:
        for watchpoint in self.watchpoints:
            if watchpoint.addr != addr:
                continue
            previous = self._shadow.get(addr)
            if watchpoint.check(value, previous):
                hit = WatchHit(watchpoint, value, previous,
                               self.board.cpu.pc, self.board.cpu.cycles)
                self.hits.append(hit)
                if self.on_hit is not None:
                    self.on_hit(hit)
        if addr in self._shadow:
            self._shadow[addr] = value

    # -- execution control ----------------------------------------------------

    def run_task(self, task: str, max_instructions: int = 1_000_000) -> RunResult:
        """Run one job of *task*, honouring code breakpoints."""
        self.board.cpu.reset_task(self.firmware.entry_of(task))
        return self.board.cpu.run(max_instructions=max_instructions,
                                  break_on_breakpoints=True)

    def continue_(self, max_instructions: int = 1_000_000) -> RunResult:
        """Continue after a breakpoint stop."""
        if self.board.cpu.halted:
            raise DebuggerError("target is not stopped mid-task")
        return self.board.cpu.run(max_instructions=max_instructions,
                                  break_on_breakpoints=True)

    def step_instruction(self) -> RunResult:
        """Execute exactly one instruction."""
        if self.board.cpu.halted:
            raise DebuggerError("target is not stopped mid-task")
        return self.board.cpu.run(single_step=True)

    # -- inspection --------------------------------------------------------

    def inspect(self, symbol: str) -> int:
        """Read a symbol's current value (one link transaction)."""
        value, _ = self.link.read_word(self.firmware.symbols.addr_of(symbol))
        return value

    def inspect_many(self, symbols: Sequence[str]) -> Dict[str, int]:
        """Read several symbols in one batched link transaction.

        The addresses are grouped into contiguous runs by the link, so a
        variable view refreshing dozens of symbols costs one round trip —
        same batching the passive channel's poll plan uses.
        """
        if not symbols:
            return {}
        addrs = [self.firmware.symbols.addr_of(name) for name in symbols]
        values, _ = self.link.read_scatter(addrs)
        return dict(zip(symbols, values))

    def list_source(self, around_pc: Optional[int] = None,
                    context: int = 4) -> str:
        """Disassembly listing around a pc (defaults to the current pc)."""
        pc = around_pc if around_pc is not None else self.board.cpu.pc
        start = max(0, pc - context)
        return disassemble(self.firmware.code, start=start,
                           count=2 * context + 1, mark_pc=pc)

    def backtrace(self) -> str:
        """A GDB-flavoured stop report."""
        cpu = self.board.cpu
        symbol = None
        frame = f"pc={cpu.pc} cycles={cpu.cycles} stack={cpu.stack}"
        if 0 <= cpu.pc < len(self.firmware.code):
            src = self.firmware.code[cpu.pc].src_path
            if src:
                symbol = src
        return f"#0 {frame}" + (f" in <{symbol}>" if symbol else "")
