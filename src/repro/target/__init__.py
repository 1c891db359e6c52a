"""The virtual embedded target: ISA, assembler, firmware, CPU and board.

This package is the "embedded controller" of the paper: generated firmware
runs here, the active command interface EMITs from here, and the passive
JTAG probe scans this board's RAM. The interpreter is the framework's
hottest path and is engineered accordingly — see :mod:`repro.target.cpu`
for the performance rules (decode once, int dispatch, hoisted locals,
watchpoints and breakpoints as stop rows of the one fast loop).

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

Superinstructions
=================

Generated firmware is dominated by a handful of rigid shapes, so
:meth:`~repro.target.cpu.Cpu.load` runs a fusion pass (on by default;
``Cpu(fuse=False)`` keeps the reference decoding) that collapses them
into single decoded rows, dispatched by the one fast loop that also runs
plain rows:

========================================== ================================
Constituent sequence                        Fused row
========================================== ================================
``[LOAD|PUSH] a; [LOAD|PUSH] b; <alu>;     ALU+STORE quad (one dispatch
STORE y``                                  computes ``m[y]``)
``[LOAD|PUSH] a; [LOAD|PUSH] b; <alu>;     ALU+branch quad (state-machine
JZ/JNZ t``                                 dispatch, loop back-edges)
``PUSH k; STORE y``                        constant store
``LOAD a; STORE y``                        move (Delay outputs, port copies)
``LOAD a; JZ/JNZ t``                       load-and-test
``PUSH ch; [LOAD|PUSH] v; EMIT kind``      command preamble (the codegen's
                                           EMIT shape — instrumentation in
                                           one dispatch)
========================================== ================================

``<alu>`` is any binary op (``a b -- r``), DIV/MOD included.

**Branch-target rule.** No fused row spans a jump target, a task entry,
or the end of code; fusing may *start* at one (that is what keeps loop
bodies fused). Interior pcs of a fused region keep their plain decoded
rows, so an undeclared entry or a resume from a mid-sequence stop simply
executes unfused.

**Timing-identity invariant.** Fusion is observably invisible: a fused
row charges the exact sum of its constituents' cycle costs, counts their
instruction count and performs their RAM reads/writes. Whenever fused
execution could be *observed* to differ — the instruction budget lands
mid-sequence, an address is outside RAM, the constituents' transient
stack pushes would overflow, or a fused divide sees a zero divisor — the
row decomposes back to per-instruction execution, so LIMIT stops land on
a legal unfused pc and faults carry the constituent's pc and counters.

**Debug stops.** Watchpoints and breakpoints are *stop pcs* of the same
fast loop. Per program and stop set, the CPU builds trapped copies of
the fused and plain rows: a stop row at every store to a watched
address, every ``STI`` while anything is watched and every armed
breakpoint, and a fused row that would run across a stop pc goes back
to its plain rows.
The loop returns before a stop row; ``Cpu.run`` reports the breakpoint
or runs that one instruction on the per-instruction checked loop, where
the write hook fires, then re-enters the fast loop. A decomposing row
lands on the trapped plain rows, so it cannot run past a stop either.
Single-stepping and the opcode/pc profiles still check every
instruction. ``tests/test_superinstructions.py`` holds the lockstep
proofs (fused == plain, and stop-pc route == checked loop);
``benchmarks/perf_interp.py`` scores the speedups (``fusion_speedup``
and ``watch_speedup``, floor-gated in CI).

Fusion decisions are driven by measurement, not guesswork:
``Cpu.run(profile=...)`` fills a dict with per-opcode retirement counts
(plain decoded opcodes, never superinstruction ids) at zero cost when
unused — the hook is priced once at ``run()`` entry — and
``benchmarks/perf_interp.py`` dumps the measured profile
(``opcode_profile``) with every run.
"""

from repro.target.assembler import Assembler, disassemble
from repro.target.board import BOARD_IDCODE, Board, DebugPort
from repro.target.cpu import Cpu, RunResult, StopReason
from repro.target.firmware import FirmwareImage, Symbol, SymbolTable
from repro.target.isa import Instr, OPCODES, cycles_of
from repro.target.memory import MemoryMap, RAM_BASE
from repro.target.peripherals import Gpio, Uart

__all__ = [
    "Assembler", "disassemble",
    "BOARD_IDCODE", "Board", "DebugPort",
    "Cpu", "RunResult", "StopReason",
    "FirmwareImage", "Symbol", "SymbolTable",
    "Instr", "OPCODES", "cycles_of",
    "MemoryMap", "RAM_BASE",
    "Gpio", "Uart",
]
