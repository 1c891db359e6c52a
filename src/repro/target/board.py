"""The target board: CPU + RAM + peripherals + the JTAG debug backdoor.

A :class:`Board` is one computation node of the distributed system. The
:class:`DebugPort` is the on-chip debug unit's bus master: it reads and
writes RAM through the backdoor plane (uncounted, unhooked) and can stall
task dispatching — the hardware facts that make passive JTAG monitoring
free for the target.
"""

from __future__ import annotations

from typing import Optional

from repro.errors import TargetFault
from repro.target.cpu import Cpu, RunResult
from repro.target.firmware import FirmwareImage
from repro.target.memory import MemoryMap
from repro.target.peripherals import Uart
from repro.util.intmath import wrap32

#: IDCODE scanned out of the TAP (LSB must be 1 per IEEE 1149.1).
BOARD_IDCODE = 0x4441_5445  # spells "DATE", for the paper's venue


class Board:
    """One embedded node: CPU, RAM, UART and a firmware image."""

    #: CPU clock (Hz), RAM words, UART FIFO bytes and stack words. The
    #: FIFO absorbs one fully-instrumented job burst (~8 frames of 10
    #: bytes), so clean runs drop nothing; overrun tests shrink it.
    clock_hz = 8_000_000
    RAM_WORDS = 4096
    UART_FIFO = 128
    STACK_DEPTH = 128

    def __init__(self) -> None:
        self.memory = MemoryMap(self.RAM_WORDS)
        self.uart = Uart(fifo_depth=self.UART_FIFO)
        self.cpu = Cpu(self.memory, stack_depth=self.STACK_DEPTH)
        self.firmware: Optional[FirmwareImage] = None
        #: set by the debugger (JTAG HALT / serial halt request): the RTOS
        #: skips job dispatch while stalled. The CPU itself is unaware.
        self.stalled = False

    def load_firmware(self, firmware: FirmwareImage) -> None:
        """Flash *firmware*: decode the code, initialise the data image."""
        if len(firmware.symbols) > len(self.memory):
            raise TargetFault(
                f"firmware {firmware.name!r} needs {len(firmware.symbols)} "
                f"data words but the board has {len(self.memory)}"
            )
        self.firmware = firmware
        # task entries are block boundaries: no block row may span one,
        # so every reset_task lands on a block head
        self.cpu.load(firmware.code, entries=firmware.entries.values())
        self.memory.load_init_image(firmware.data_init)
        self.memory.reset()

    def _require_firmware(self) -> FirmwareImage:
        if self.firmware is None:
            raise TargetFault("no firmware loaded")
        return self.firmware

    def run_task(self, task: str,
                 max_instructions: int = 1_000_000) -> RunResult:
        """Run one job of *task* from its entry point to HALT."""
        entry = self._require_firmware().entry_of(task)
        self.cpu.reset_task(entry)
        return self.cpu.run(max_instructions=max_instructions)

    def cycles_to_us(self, cycles: int) -> int:
        """Convert CPU cycles to microseconds at this board's clock
        (rounded up: a job occupies its last partial microsecond)."""
        return (cycles * 1_000_000 + self.clock_hz - 1) // self.clock_hz

    def symbol_value(self, name: str) -> int:
        """Backdoor read of a firmware symbol (no target cost)."""
        return self.memory.peek(self._require_firmware().symbols.addr_of(name))

    def __repr__(self) -> str:
        loaded = self.firmware.name if self.firmware else "no firmware"
        return (f"<Board {self.clock_hz // 1_000_000}MHz, "
                f"{len(self.memory)} words, {loaded}>")


class DebugPort:
    """The on-chip debug unit: backdoor memory master + run control.

    Accesses are counted on the *port*, never on the target's memory plane
    — the accounting that proves passive monitoring is free.
    """

    def __init__(self, board: Board) -> None:
        self.board = board
        self.idcode = BOARD_IDCODE
        self.reads = 0
        self.writes = 0

    def read_word(self, addr: int) -> int:
        """Scan one RAM word out (uncounted on the target side)."""
        self.reads += 1
        return self.board.memory.peek(addr)

    def write_word(self, addr: int, value: int) -> None:
        """Scan one RAM word in (stored with signed 32-bit semantics)."""
        self.writes += 1
        self.board.memory.poke(addr, wrap32(value))

    def halt(self) -> None:
        """Stall the target's task dispatching."""
        self.board.stalled = True

    def resume(self) -> None:
        """Release the stall."""
        self.board.stalled = False

    @property
    def is_halted(self) -> bool:
        """Whether the target is currently stalled by this port."""
        return self.board.stalled
