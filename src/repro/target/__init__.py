"""The virtual embedded target: ISA, assembler, firmware, CPU and board.

This package is the "embedded controller" of the paper: generated firmware
runs here, the active command interface EMITs from here, and the passive
JTAG probe scans this board's RAM. The interpreter is the framework's
hottest path and is engineered accordingly — see :mod:`repro.target.cpu`
for the performance rules (decode once, one dispatch per straight-line
run, hoisted locals, watched stores as stop rows of the one fast
loop).

ISA reference
=============

A 32-bit signed stack machine. One word per cell, wraparound arithmetic,
C-style truncating division, comparisons/logic yield 0 or 1. ``a`` is the
value *below* the top of stack, ``b`` the top (pushed last).

======== ========= ==================== ====== ==========================
Opcode   Operand   Stack effect         Cycles Notes
======== ========= ==================== ====== ==========================
LOAD     addr      -- m[addr]              2   direct read
STORE    addr      v --                    2   direct write
LDI                addr -- m[addr]         3   indirect read
STI                v addr --               3   indirect write
PUSH     imm       -- imm                  1
POP                v --                    1
DUP                v -- v v                1
SWAP               a b -- b a              1
ADD                a b -- a+b              1   wraps to 32-bit
SUB                a b -- a-b              1   wraps to 32-bit
MUL                a b -- a*b              3   wraps to 32-bit
DIV                a b -- a/b             12   truncates toward zero;
                                              b=0 traps
MOD                a b -- a%b             12   sign follows dividend;
                                              b=0 traps
NEG                a -- -a                 1   -INT_MIN wraps to INT_MIN
MIN                a b -- min(a,b)         1
MAX                a b -- max(a,b)         1
AND                a b -- a&&b             1   logical: 0/1
OR                 a b -- a||b             1   logical: 0/1
NOT                a -- !a                 1   logical: 0/1
EQ NE              a b -- a?b              1   0/1
LT LE GT GE        a b -- a?b              1   0/1
JMP      target    --                      2   absolute
JZ       target    c --                    2   jump if c == 0
JNZ      target    c --                    2   jump if c != 0
EMIT     kind      id v --                24   debug command (kind,id,v):
                                              appended to the CPU's
                                              emit_log and handed to the
                                              emit handler (active
                                              command interface)
HALT               --                      1   end of task job
======== ========= ==================== ====== ==========================

Traps (:class:`repro.errors.TargetFault`): stack under/overflow, memory
access outside RAM, divide/modulo by zero, jump or pc outside code.

Cycle costs model a small in-order MCU; EMIT's cost is deliberately large
(formatting + UART FIFO push) because it *is* the instrumentation overhead
the paper's passive JTAG solution eliminates (benchmark E7).

Block rows
==========

Generated firmware is straight-line runs of stack code between branches,
so :meth:`~repro.target.cpu.Cpu.load` compiles each maximal run into one
**block row** (on by default; ``Cpu(fuse=False)`` keeps the reference
decoding): a Python function generated from per-opcode templates,
dispatched by the one fast loop that also runs plain rows. A cruise
control activation of ~52 instructions takes ~7 dispatches instead of
one per instruction. :mod:`repro.target.blocks` states where a run ends
and the **timing-identity invariant**: a block charges, counts, reads
and writes exactly what its plain rows would, and decomposes back to
them whenever a budget, stack-depth or divisor check could tell the
difference, so LIMIT stops land on a legal pc and faults carry the plain
pc and counters.

**Watch stops.** Watched stores are *stop pcs* of the same fast loop:
per program and watch set, the CPU builds trapped decodings with a stop
row at every ``STORE`` to a watched address and every ``STI`` while
anything is watched, with the blocks formed again around them (see
:mod:`repro.target.cpu`). There are no code breakpoints and no
single-stepping: the code-level baseline uses watchpoints only.
``tests/test_superinstructions.py`` holds the lockstep proofs (blocks ==
plain == checked, and stop-pc route == checked loop);
``benchmarks/perf_interp.py`` scores the speedups (``fusion_speedup``
and ``watch_speedup``, floor-gated in CI) and counts the rows dispatched
per activation (ceiling-gated).

``Cpu.run(max_instructions, profile=None)`` is the whole run interface.
A ``profile`` dict selects the checked reference loop for every
instruction and fills with per-opcode retirement counts (plain decoded
opcodes, never block rows); unused, it costs nothing, because the hook
is priced once at ``run()`` entry. The lockstep tests force the checked
loop with ``profile={}``, and ``benchmarks/perf_interp.py`` dumps the
measured profile (``opcode_profile``) with every run.
"""

from repro.target.assembler import Assembler, disassemble
from repro.target.board import BOARD_IDCODE, Board, DebugPort
from repro.target.cpu import Cpu, RunResult, StopReason
from repro.target.firmware import FirmwareImage, Symbol, SymbolTable
from repro.target.isa import Instr, OPCODES, cycles_of
from repro.target.memory import MemoryMap, RAM_BASE
from repro.target.peripherals import Uart

__all__ = [
    "Assembler", "disassemble",
    "BOARD_IDCODE", "Board", "DebugPort",
    "Cpu", "RunResult", "StopReason",
    "FirmwareImage", "Symbol", "SymbolTable",
    "Instr", "OPCODES", "cycles_of",
    "MemoryMap", "RAM_BASE",
    "Uart",
]
