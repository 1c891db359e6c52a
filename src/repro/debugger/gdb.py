"""A code-level debugger over the virtual target: hardware watchpoints.

Works the way GDB does on an embedded board with a small number of
*hardware* watchpoints on data words: a watchpoint trips when the
firmware writes its variable and the predicate holds, and each hit
records the pc and cycle count of the store. It deliberately knows
nothing about models — it is the code-level baseline, and watchpoints
are all the detection campaign asks of it.

Watchpoints are address comparators, as in hardware: the debugger
declares the watched addresses to the memory's write hook
(:meth:`~repro.target.memory.MemoryMap.set_write_hook`), and the CPU
stops its fast loop only at the stores that can write one of them. A
debugger holding no watchpoints declares an empty set, so the target
runs exactly as fast as an undebugged one.
"""

from __future__ import annotations

from typing import Callable, List, Optional

from repro.debugger.watch import Watchpoint
from repro.errors import DebuggerError
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
    """GDB-style hardware watchpoints on one board."""

    def __init__(self, board: Board, firmware: FirmwareImage) -> None:
        self.board = board
        self.firmware = firmware
        self.watchpoints: List[Watchpoint] = []
        self.hits: List[WatchHit] = []
        self._shadow: dict = {}
        self.on_hit: Optional[Callable[[WatchHit], None]] = None
        board.memory.set_write_hook(self._write_hook, ())

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
        """Run one job of *task* with the watchpoints armed."""
        self.board.cpu.reset_task(self.firmware.entry_of(task))
        return self.board.cpu.run(max_instructions=max_instructions)
