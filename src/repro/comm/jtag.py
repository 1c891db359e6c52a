"""IEEE 1149.1 (JTAG) test access port and host probe.

The passive command interface: the probe scans monitored variables out of
the target's RAM through a faithful 16-state TAP controller — zero target
instructions executed, zero target cycles consumed. The TAP state machine
follows the standard's TMS transition diagram exactly (property-tested:
five TMS=1 clocks reach Test-Logic-Reset from any state).

Data registers implemented behind the IR:

========= ======= ====================================================
IDCODE    0b0001  32-bit device identification (capture)
MEMADDR    0b0010  32-bit memory address register (update)
MEMREAD    0b0011  capture loads RAM[address] for shifting out
MEMWRITE   0b0100  update stores the shifted value to RAM[address]
HALT       0b0101  update-IR stalls the target's task dispatching
RESUME     0b0110  update-IR releases the stall
BLOCKREAD  0b0111  like MEMREAD, but capture auto-increments the address
BLOCKWRITE 0b1000  like MEMWRITE, but update auto-increments the address
BYPASS     0b1111  single-bit bypass register
========== ======= ====================================================

BLOCKREAD and BLOCKWRITE are the batching registers (ARM MEM-AP style
auto-increment accesses): load the base once through MEMADDR, select the
block register once, then every Capture-DR reads — or every Update-DR
writes — the *next* consecutive word. N words cost one IR setup plus N
DR scans instead of N full MEMADDR/MEMREAD (or MEMWRITE) round trips,
which is what lets fault-injection memory patches and watch-set polls
ride a single USB transaction.
"""

from __future__ import annotations

import enum
import math
from typing import Dict, List, Optional, Sequence, Tuple

from repro.comm.usb import UsbTransport
from repro.errors import JtagError
from repro.target.board import DebugPort

IR_WIDTH = 4


class Instruction(enum.IntEnum):
    """Implemented IR opcodes."""

    IDCODE = 0b0001
    MEMADDR = 0b0010
    MEMREAD = 0b0011
    MEMWRITE = 0b0100
    HALT = 0b0101
    RESUME = 0b0110
    BLOCKREAD = 0b0111
    BLOCKWRITE = 0b1000
    BYPASS = 0b1111


class TapState(enum.Enum):
    """The 16 controller states of IEEE 1149.1."""

    TEST_LOGIC_RESET = "Test-Logic-Reset"
    RUN_TEST_IDLE = "Run-Test/Idle"
    SELECT_DR_SCAN = "Select-DR-Scan"
    CAPTURE_DR = "Capture-DR"
    SHIFT_DR = "Shift-DR"
    EXIT1_DR = "Exit1-DR"
    PAUSE_DR = "Pause-DR"
    EXIT2_DR = "Exit2-DR"
    UPDATE_DR = "Update-DR"
    SELECT_IR_SCAN = "Select-IR-Scan"
    CAPTURE_IR = "Capture-IR"
    SHIFT_IR = "Shift-IR"
    EXIT1_IR = "Exit1-IR"
    PAUSE_IR = "Pause-IR"
    EXIT2_IR = "Exit2-IR"
    UPDATE_IR = "Update-IR"


#: state -> (next on TMS=0, next on TMS=1), straight from the standard
TAP_TRANSITIONS: Dict[TapState, Tuple[TapState, TapState]] = {
    TapState.TEST_LOGIC_RESET: (TapState.RUN_TEST_IDLE, TapState.TEST_LOGIC_RESET),
    TapState.RUN_TEST_IDLE: (TapState.RUN_TEST_IDLE, TapState.SELECT_DR_SCAN),
    TapState.SELECT_DR_SCAN: (TapState.CAPTURE_DR, TapState.SELECT_IR_SCAN),
    TapState.CAPTURE_DR: (TapState.SHIFT_DR, TapState.EXIT1_DR),
    TapState.SHIFT_DR: (TapState.SHIFT_DR, TapState.EXIT1_DR),
    TapState.EXIT1_DR: (TapState.PAUSE_DR, TapState.UPDATE_DR),
    TapState.PAUSE_DR: (TapState.PAUSE_DR, TapState.EXIT2_DR),
    TapState.EXIT2_DR: (TapState.SHIFT_DR, TapState.UPDATE_DR),
    TapState.UPDATE_DR: (TapState.RUN_TEST_IDLE, TapState.SELECT_DR_SCAN),
    TapState.SELECT_IR_SCAN: (TapState.CAPTURE_IR, TapState.TEST_LOGIC_RESET),
    TapState.CAPTURE_IR: (TapState.SHIFT_IR, TapState.EXIT1_IR),
    TapState.SHIFT_IR: (TapState.SHIFT_IR, TapState.EXIT1_IR),
    TapState.EXIT1_IR: (TapState.PAUSE_IR, TapState.UPDATE_IR),
    TapState.PAUSE_IR: (TapState.PAUSE_IR, TapState.EXIT2_IR),
    TapState.EXIT2_IR: (TapState.SHIFT_IR, TapState.UPDATE_IR),
    TapState.UPDATE_IR: (TapState.RUN_TEST_IDLE, TapState.SELECT_DR_SCAN),
}


class TapController:
    """Bit-level TAP controller wired to a board's debug port."""

    def __init__(self, port: DebugPort) -> None:
        self.port = port
        self.state = TapState.TEST_LOGIC_RESET
        self.ir = int(Instruction.IDCODE)
        self._shift: int = 0
        self._shift_width: int = 32
        self._address: int = 0
        self.tck_count = 0

    def _dr_width(self) -> int:
        try:
            instruction = Instruction(self.ir)
        except ValueError:
            return 1  # unknown IR values select BYPASS, per the standard
        return 1 if instruction is Instruction.BYPASS else 32

    def drive(self, tms: int, tdi: int = 0) -> int:
        """One TCK cycle: sample TMS/TDI, return TDO."""
        if tms not in (0, 1) or tdi not in (0, 1):
            raise JtagError(f"TMS/TDI must be 0 or 1, got tms={tms} tdi={tdi}")
        self.tck_count += 1

        tdo = 0
        if self.state is TapState.SHIFT_DR or self.state is TapState.SHIFT_IR:
            width = (IR_WIDTH if self.state is TapState.SHIFT_IR
                     else self._shift_width)
            tdo = self._shift & 1
            self._shift = (self._shift >> 1) | (tdi << (width - 1))

        previous = self.state
        self.state = TAP_TRANSITIONS[previous][tms]

        # Entry actions of the new state. The reset state *holds* the IR at
        # IDCODE for as long as the controller sits in it (the standard keeps
        # reset asserted in Test-Logic-Reset).
        del previous
        if self.state is TapState.TEST_LOGIC_RESET:
            self.ir = int(Instruction.IDCODE)
        elif self.state is TapState.CAPTURE_IR:
            self._shift = 0b0001  # mandated capture pattern LSBs = 01
            self._shift_width = IR_WIDTH
        elif self.state is TapState.CAPTURE_DR:
            self._shift_width = self._dr_width()
            self._shift = self._capture_dr()
        elif self.state is TapState.UPDATE_IR:
            self.ir = self._shift & ((1 << IR_WIDTH) - 1)
            self._apply_ir_side_effect()
        elif self.state is TapState.UPDATE_DR:
            self._update_dr()
        return tdo

    def _capture_dr(self) -> int:
        try:
            instruction = Instruction(self.ir)
        except ValueError:
            return 0
        if instruction is Instruction.IDCODE:
            return self.port.idcode
        if instruction is Instruction.MEMREAD:
            if not self.port.board.memory.contains(self._address):
                return 0xDEADDEAD  # fault pattern, like real debug APs
            return self.port.read_word(self._address) & 0xFFFFFFFF
        if instruction is Instruction.BLOCKREAD:
            address = self._address
            self._address = (address + 1) & 0xFFFFFFFF  # MEM-AP auto-increment
            if not self.port.board.memory.contains(address):
                return 0xDEADDEAD
            return self.port.read_word(address) & 0xFFFFFFFF
        if instruction is Instruction.MEMADDR:
            return self._address
        return 0

    def _update_dr(self) -> None:
        try:
            instruction = Instruction(self.ir)
        except ValueError:
            return
        if instruction is Instruction.MEMADDR:
            self._address = self._shift & 0xFFFFFFFF
        elif instruction is Instruction.MEMWRITE:
            if self.port.board.memory.contains(self._address):
                self.port.write_word(self._address, self._shift & 0xFFFFFFFF)
        elif instruction is Instruction.BLOCKWRITE:
            address = self._address
            self._address = (address + 1) & 0xFFFFFFFF  # MEM-AP auto-increment
            if self.port.board.memory.contains(address):
                self.port.write_word(address, self._shift & 0xFFFFFFFF)

    def _apply_ir_side_effect(self) -> None:
        if self.ir == Instruction.HALT:
            self.port.halt()
        elif self.ir == Instruction.RESUME:
            self.port.resume()


def group_runs(addrs: Sequence[int]) -> List[Tuple[int, int]]:
    """Group addresses into maximal contiguous ``(base, count)`` runs.

    Input order and duplicates do not matter; runs come back sorted by
    base. This is the scatter-read planner: each run becomes one
    MEMADDR + BLOCKREAD sequence, so watch sets that live next to each
    other in data RAM (the common case — codegen allocates sequentially)
    collapse into very few block transfers.
    """
    runs: List[Tuple[int, int]] = []
    for addr in sorted(set(addrs)):
        if runs and addr == runs[-1][0] + runs[-1][1]:
            runs[-1] = (runs[-1][0], runs[-1][1] + 1)
        else:
            runs.append((addr, 1))
    return runs


def _sign32(raw: int) -> int:
    return raw - (1 << 32) if raw >= (1 << 31) else raw


class JtagProbe:
    """Host-side probe: drives the TAP and accounts for scan time.

    ``*_timed`` operations return their cost in microseconds: TCK cycles
    at ``tck_hz`` plus one USB transaction when a *transport* is attached
    — the latency the passive channel pays per poll.
    """

    def __init__(self, tap: TapController, tck_hz: int = 4_000_000,
                 transport: Optional[UsbTransport] = None) -> None:
        if tck_hz <= 0:
            raise JtagError(f"tck_hz must be positive, got {tck_hz}")
        self.tap = tap
        self.tck_hz = tck_hz
        self.transport = transport
        self.operations = 0

    # -- low-level sequences -----------------------------------------------

    def _clock(self, tms: int, tdi: int = 0) -> int:
        return self.tap.drive(tms, tdi)

    def _shift_register(self, ir_scan: bool, value: int, width: int) -> int:
        """From Run-Test/Idle: scan *width* bits through IR or DR, back to RTI."""
        if self.tap.state is TapState.TEST_LOGIC_RESET:
            self._clock(0)  # freshly powered TAP: step into Run-Test/Idle
        if self.tap.state is not TapState.RUN_TEST_IDLE:
            raise JtagError(f"probe must start scans from Run-Test/Idle, "
                            f"not {self.tap.state.value}")
        self._clock(1)                      # -> Select-DR-Scan
        if ir_scan:
            self._clock(1)                  # -> Select-IR-Scan
        self._clock(0)                      # -> Capture-xR
        self._clock(0)                      # -> Shift-xR
        captured = 0
        for bit in range(width):
            last = bit == width - 1
            tdo = self._clock(1 if last else 0, (value >> bit) & 1)
            captured |= tdo << bit          # -> Exit1-xR on the last bit
        self._clock(1)                      # -> Update-xR
        self._clock(0)                      # -> Run-Test/Idle
        return captured

    def shift_ir(self, instruction: int) -> None:
        """Load a 4-bit instruction into the IR."""
        self._shift_register(True, int(instruction), IR_WIDTH)

    def shift_dr(self, value: int, width: int = 32) -> int:
        """Scan *width* bits through the current DR; returns captured bits."""
        return self._shift_register(False, value, width)

    # -- high-level operations ----------------------------------------------

    def _timed(self, fn) -> Tuple[int, int]:
        start = self.tap.tck_count
        result = fn()
        cycles = self.tap.tck_count - start
        cost = math.ceil(cycles * 1_000_000 / self.tck_hz)
        self.operations += 1
        return result, cost

    def read_word_timed(self, addr: int) -> Tuple[int, int]:
        """Read one RAM word; returns (value, cost_us)."""
        def op() -> int:
            self.shift_ir(Instruction.MEMADDR)
            self.shift_dr(addr, 32)
            self.shift_ir(Instruction.MEMREAD)
            return self.shift_dr(0, 32)
        raw, cost = self._timed(op)
        if self.transport is not None:
            cost += self.transport.transaction_cost_us(2)
        return _sign32(raw), cost

    def read_scatter_timed(self, addrs: Sequence[int]
                           ) -> Tuple[List[int], int]:
        """Read arbitrary RAM words, batched into contiguous block runs.

        The run plan comes from :func:`group_runs`; every run is one
        MEMADDR + BLOCKREAD sequence on the same scan chain, and the whole
        scatter read is charged as a **single** USB transaction. Returns
        values aligned with *addrs* (duplicates allowed) plus the cost.
        """
        if not addrs:
            raise JtagError("scatter read needs at least one address")
        runs = group_runs(addrs)

        def op() -> Dict[int, int]:
            values: Dict[int, int] = {}
            for base, count in runs:
                self.shift_ir(Instruction.MEMADDR)
                self.shift_dr(base, 32)
                self.shift_ir(Instruction.BLOCKREAD)
                for offset in range(count):
                    values[base + offset] = _sign32(self.shift_dr(0, 32))
            return values

        by_addr, cost = self._timed(op)
        if self.transport is not None:
            words = len(runs) + sum(count for _, count in runs)
            cost += self.transport.transaction_cost_us(words)
        return [by_addr[addr] for addr in addrs], cost

    def write_block_timed(self, base: int, values: Sequence[int]) -> int:
        """Write consecutive RAM words starting at *base*; returns cost_us.

        One MEMADDR load, one BLOCKWRITE IR select, then one DR scan per
        word riding the auto-increment — and at most **one** USB
        transaction, however large the block. This is the bulk
        memory-patch path (fault injection over JTAG).
        """
        if not values:
            raise JtagError("block write needs at least one value")

        def op() -> int:
            self.shift_ir(Instruction.MEMADDR)
            self.shift_dr(base, 32)
            self.shift_ir(Instruction.BLOCKWRITE)
            for value in values:
                self.shift_dr(value & 0xFFFFFFFF, 32)
            return 0

        _, cost = self._timed(op)
        if self.transport is not None:
            cost += self.transport.transaction_cost_us(1 + len(values))
        return cost

    def halt_target(self) -> None:
        """Stall the target via the HALT instruction."""
        self.shift_ir(Instruction.HALT)

    def resume_target(self) -> None:
        """Release the target via the RESUME instruction."""
        self.shift_ir(Instruction.RESUME)
