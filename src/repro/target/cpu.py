"""The virtual CPU: a 32-bit stack machine engineered for interpreter speed.

This is the hottest loop in the whole framework — every benchmark, every
lockstep equivalence test and every RTOS job funnels through it — so it is
built around four rules:

1. **Decode once, one row per instruction.** :meth:`Cpu.load` turns the
   instruction list into a single array of packed ``(opcode, arg, cycles)``
   tuples: the checked loop does **one** list index plus one unpack per
   row and never looks at an :class:`~repro.target.isa.Instr`, a string,
   or a dict. Decoding is memoized per process on the program's content,
   so every board flashed with one image shares its rows.
2. **One dispatch per straight-line run.** The decoder compiles each
   straight-line run of safe rows into one block row
   (:mod:`repro.target.blocks`): a generated function that keeps the
   run's stack in locals, commits its stores once and returns the next
   pc. The fast loop (:meth:`_run_fast`) runs block rows only: it
   charges each block's static instruction, cycle, read and write counts
   in one step, after one budget check and one stack-depth check, and
   stops before any other pc.
3. **Hoist everything.** Memory cells, the stack, counters and constants
   live in locals for the duration of a run; state is written back once
   in a ``finally``.
4. **Every other pc steps the checked loop.** The fast loop contains not
   a single hook test. Watched stores are priced **once, per program and
   watch set**: every *stop pc* — a ``STORE`` to a watched address, and
   every ``STI`` (its address is dynamic) while anything is watched —
   stays a plain row of a trapped decoding, whose blocks are formed
   again with the stop pcs as boundaries. Trapped decodings are memoized
   with the program, so every board of every code-debugger rig shares
   them. When the fast loop stops before a plain row — a stop pc, an
   unsafe row such as ``STI``, a block that must decompose or an
   interior pc of a block — :meth:`run` executes exactly that one
   instruction on the checked path (:meth:`_run_debug`, where the
   memory's write hook fires with the machine state current) and
   re-enters the fast loop. Like a hardware comparator, a watchpoint
   costs nothing until a store that can hit it retires. Only the opcode
   profile runs every instruction through :meth:`_step`.

The ISA's semantics therefore exist in two places: the block templates
and :meth:`_step`, the independent reference. Blocks must be
timing-identical to :meth:`_step`; ``tests/test_superinstructions.py``
checks blocks == checked in lockstep.

Semantics are bit-identical to the reference expression interpreter
(:mod:`repro.comdes.expr`) via the shared :mod:`repro.util.intmath` rules:
signed 32-bit wraparound, C-style truncating division, 0/1 comparisons.
The blocks inline ``sdiv``/``smod`` (no call per divide); the checked
:meth:`_step` calls them, and the lockstep tests hold them together.
"""

from __future__ import annotations

import enum
from collections import OrderedDict
from typing import Callable, List, NamedTuple, Optional, Sequence, Tuple

from repro.errors import TargetFault
from repro.target.blocks import TAIL_EMIT, TAIL_HALT, form_blocks
from repro.target.isa import (
    CYCLES,
    Instr,
    OP_ADD, OP_AND, OP_BLOCK, OP_DIV, OP_DUP, OP_EMIT, OP_EQ, OP_GE, OP_GT,
    OP_HALT, OP_JMP, OP_JNZ, OP_JZ, OP_LDI, OP_LE, OP_LOAD, OP_LT, OP_MAX,
    OP_MIN, OP_MOD, OP_MUL, OP_NE, OP_NEG, OP_NOT, OP_OR, OP_POP, OP_PUSH,
    OP_STI, OP_STORE, OP_SUB, OP_SWAP,
)
from repro.util.intmath import INT_MAX, INT_MIN, sdiv, smod, wrap32

#: emit handler signature: (command kind, path id, value)
EmitHandler = Callable[[int, int, int], None]

DEFAULT_RUN_LIMIT = 1_000_000

#: cycles a folded HALT adds to its EMIT block
_HALT_CYCLES = CYCLES[OP_HALT]


class _Program:
    """One decoded program: its plain rows, its block rows and its
    trapped block rows by stop set. Shared by every CPU that loads the
    same content; read-only apart from the trapped memo."""

    __slots__ = ("rows", "brows", "blocks", "entries", "nram", "trapped")

    def __init__(self, rows: List[tuple], entries: frozenset,
                 nram: int) -> None:
        self.rows = rows
        self.brows, self.blocks = form_blocks(rows, entries, nram)
        self.entries = entries
        self.nram = nram
        self.trapped: "OrderedDict[frozenset, List[tuple]]" = OrderedDict()

    def trapped_rows(self, stops: frozenset) -> List[tuple]:
        """The block rows formed with every pc in *stops* left plain.
        Memoized per stop set."""
        found = self.trapped.get(stops)
        if found is not None:
            self.trapped.move_to_end(stops)
            return found
        found = self.trapped[stops] = form_blocks(
            self.rows, self.entries, self.nram, stops)[0]
        if len(self.trapped) > _TRAPPED_LIMIT:
            self.trapped.popitem(last=False)
        return found


#: decoded programs by content, oldest first (see :func:`_decode`)
_DECODED: "OrderedDict[tuple, _Program]" = OrderedDict()
#: programs kept decoded: a campaign job flashes one or two images (the
#: pristine one and its mutant) on every board of both debugger rigs
_DECODED_LIMIT = 4
#: trapped decodings kept per program: one per set of watched stores in
#: use (a code-debugger rig has one)
_TRAPPED_LIMIT = 8


def _decode(code: Sequence[Instr], entries: Optional[Sequence[int]],
            nram: int) -> _Program:
    """The decoded program of *code* for a RAM of *nram* words.

    Memoized on content: a program whose ``(opcode, arg)`` rows, entries
    and RAM size match one decoded before gets the same
    :class:`_Program`, whose rows callers must not mutate. The table
    keeps the :data:`_DECODED_LIMIT` most recently used programs.
    """
    content = tuple([(instr.code, instr.arg) for instr in code])
    entry_set = frozenset(entries or ())
    key = (content, entry_set, nram)
    found = _DECODED.get(key)
    if found is not None:
        _DECODED.move_to_end(key)
        return found
    rows = [(op, wrap32(arg) if op == OP_PUSH else (0 if arg is None else arg),
             CYCLES[op])
            for op, arg in content]
    found = _DECODED[key] = _Program(rows, entry_set, nram)
    if len(_DECODED) > _DECODED_LIMIT:
        _DECODED.popitem(last=False)
    return found


class StopReason(enum.Enum):
    """Why a ``run`` returned."""

    HALTED = "halted"          # executed HALT
    LIMIT = "limit"            # instruction budget exhausted


class RunResult(NamedTuple):
    """Outcome of one ``run`` call (counts are for this run only)."""

    reason: StopReason
    instructions: int
    cycles: int


_new_tuple = tuple.__new__


class Cpu:
    """Stack-machine core over a :class:`~repro.target.memory.MemoryMap`."""

    def __init__(self, memory, stack_depth: int = 128) -> None:
        if stack_depth <= 0:
            raise TargetFault(f"stack depth must be positive, got {stack_depth}")
        self.memory = memory
        self.stack_depth = stack_depth
        self.stack: List[int] = []
        self.pc = 0
        self.cycles = 0
        self.instructions = 0
        self.halted = True
        self.emit_handler: Optional[EmitHandler] = None
        self.emit_log: List[Tuple[int, int, int]] = []
        self.code: List[Instr] = []
        self._program: Optional[_Program] = None
        # decoded program: one packed (op, arg, cycles) row per pc
        self._rows: List[Tuple[int, int, int]] = []
        # block program: a block row at the head of every safe run, the
        # plain row everywhere else and blocks.END_ROW past the last pc
        # (the fast loop stops before every row but a block row)
        self._brows: List[tuple] = []
        #: number of block rows installed by the last load
        self.block_rows = 0
        # trapped block rows for the watch set in _trap_key
        self._trap_key: Optional[frozenset] = None
        self._trap_rows: List[tuple] = []

    # -- program loading ---------------------------------------------------

    def load(self, code: Sequence[Instr],
             entries: Optional[Sequence[int]] = None) -> None:
        """Decode *code* once: strings -> ints, costs precomputed.

        PUSH immediates are truncated to int32 here, like a real encoder's
        immediate field — the machine's cells-are-int32 invariant must hold
        even for hand-built (or fault-corrupted) out-of-range constants.

        A second pass compiles every straight-line run into a block row
        (:mod:`repro.target.blocks`). *entries* names task entry pcs;
        like jump targets, no block spans one (a block may start at one).
        Entries the caller forgot are still safe — interior pcs of a
        block keep their plain rows, so entering one simply steps the
        checked loop to the next block head — declared boundaries just
        compile better.

        Decoding is memoized per process on the program's content (the
        ``(opcode, arg)`` of every instruction, the entries and the RAM
        size), so every board flashed with the same image shares one set
        of rows, and one set of trapped block rows per stop set
        (:meth:`_trapped_rows`). Shared rows are read-only; an image
        edited in place keys a new entry.
        """
        self.code = list(code)
        program = self._program = _decode(self.code, entries,
                                          len(self.memory.cells))
        self._rows = program.rows
        self._brows = program.brows
        self.block_rows = program.blocks
        self.pc = 0
        self.stack.clear()
        self.halted = True
        self.cycles = 0
        self.instructions = 0
        self.emit_log.clear()
        self._trap_key = None

    def reset_task(self, entry: int) -> None:
        """Point the CPU at a task entry with an empty stack."""
        if not 0 <= entry < len(self._rows):
            raise TargetFault(f"task entry {entry} outside code", entry)
        self.pc = entry
        self.stack.clear()
        self.halted = False

    # -- execution ---------------------------------------------------------

    def run(self, max_instructions: int = DEFAULT_RUN_LIMIT,
            profile: Optional[dict] = None) -> RunResult:
        """Execute until HALT or the instruction budget.

        The fast loop runs block rows and stops before any other pc; this
        method then executes that one instruction on the checked path and
        re-enters the fast loop with the remaining budget. A watched store
        is such a pc (its block rows are trapped), so the write hook sees
        ``pc`` at the store and ``cycles`` including its charge.
        Watchpoints added while a run is in progress take effect at the
        next run.

        ``profile`` is the opcode-mix measurement hook and the one way to
        run every instruction through the checked reference loop
        (:meth:`_run_debug`): pass a dict (or ``collections.Counter``)
        and every retired instruction increments ``profile[opcode]`` —
        plain decoded opcodes (the reference stream), never block rows.
        The hook is priced once here: the fast loop carries no counting
        code.
        """
        if self.halted:
            return RunResult(StopReason.HALTED, 0, 0)
        if profile is not None:
            return self._run_debug(max_instructions, profile)
        watched = self.memory.watched
        rows = self._trapped_rows(watched) if watched else self._brows
        result = self._run_fast(rows, max_instructions)
        if result.reason is not None:
            return result
        n = result.instructions
        cycles = result.cycles
        while True:
            # the loop stopped, with budget left, before a pc it does not
            # run (no block there, or one that must decompose): retire
            # that one instruction on the checked path
            step = self._run_debug(1)
            n += 1
            cycles += step.cycles
            if step.reason is StopReason.HALTED:
                return _new_tuple(RunResult, (StopReason.HALTED, n, cycles))
            result = self._run_fast(rows, max_instructions - n)
            n += result.instructions
            cycles += result.cycles
            if result.reason is not None:
                return _new_tuple(RunResult, (result.reason, n, cycles))

    def _trapped_rows(self, watched: frozenset) -> List[tuple]:
        """The block rows with every store that can write a *watched*
        address left plain, cached until :meth:`load` or the watched set
        changes, and shared through the program by every CPU with the
        same stop pcs."""
        if watched == self._trap_key:
            return self._trap_rows
        stops = frozenset(
            pc for pc, (op, arg, _) in enumerate(self._rows)
            if op == OP_STI or (op == OP_STORE and arg in watched))
        self._trap_key = watched
        self._trap_rows = self._program.trapped_rows(stops)
        return self._trap_rows

    def _run_fast(self, rows: List[tuple], limit: int) -> RunResult:
        """The one hot loop: block rows only, no hooks, no string/dict
        dispatch.

        *rows* is the block program, possibly trapped. The loop stops
        with reason ``None`` before any pc that holds no block row, and
        before a block that could be *observably* different from the
        checked loop — the instruction budget lands inside it, the stack
        is too shallow or lacks the headroom its pushes need, or it meets
        a zero divisor or an ``LDI`` outside RAM before its commit (the
        block *decomposes*). It charges nothing for that pc; :meth:`run`
        retires it on the checked path, so budget stops land on a legal
        pc and faults surface with the exact pc and counters of
        :meth:`_step`.

        Timing identity with :meth:`_step` is the contract: a block
        charges its instructions' summed cycles, counts them and performs
        their memory accesses. A block ending in ``EMIT`` has committed
        everything when it returns; the handler then runs at the
        ``EMIT``'s pc with ``cycles`` including its charge (and not the
        charge of a folded ``HALT`` after it), as on the checked path.
        """
        memory = self.memory
        cells = memory.cells
        stack = self.stack
        depth = self.stack_depth
        emit_log = self.emit_log
        handler = self.emit_handler
        base_cycles = self.cycles
        # constants as locals: LOAD_FAST beats LOAD_GLOBAL
        BLOCK = OP_BLOCK; EMITS = TAIL_EMIT; HALTS = TAIL_HALT

        pc = self.pc
        run_cycles = 0
        n = 0
        reads = 0
        writes = 0
        reason = StopReason.LIMIT
        try:
            while n < limit:
                op, arg, cst = rows[pc]
                if op != BLOCK:
                    reason = None
                    break
                fn, count, need, peak, nread, nwrite, tail = arg
                height = len(stack)
                if (n + count > limit or height < need
                        or height + peak > depth):
                    reason = None  # decompose: run() steps this pc
                    break
                target = fn(cells, stack, emit_log)
                if target < 0:  # zero divisor / LDI outside RAM
                    reason = None
                    break
                n += count
                run_cycles += cst
                reads += nread
                writes += nwrite
                if tail:
                    if tail & EMITS and handler is not None:
                        # the handler runs at the EMIT's pc and reads
                        # self.cycles: sync before calling, without a
                        # folded HALT, which retires after it returns
                        if tail & HALTS:
                            pc = target - 2
                            n -= 1
                            run_cycles -= _HALT_CYCLES
                        else:
                            pc = target - 1
                        self.cycles = base_cycles + run_cycles
                        kind, path_id, value = emit_log[-1]
                        handler(kind, path_id, value)
                        if tail & HALTS:
                            n += 1
                            run_cycles += _HALT_CYCLES
                    if tail & HALTS:
                        self.halted = True
                        pc = target
                        reason = StopReason.HALTED
                        break
                pc = target
        finally:
            self.pc = pc
            self.cycles = base_cycles + run_cycles
            self.instructions += n
            memory.reads += reads
            memory.writes += writes
        # tuple.__new__ builds the named tuple without a Python-level call
        return _new_tuple(RunResult, (reason, n, run_cycles))

    # -- checked execution (debugger path) ----------------------------------

    def _run_debug(self, limit: int,
                   profile: Optional[dict] = None) -> RunResult:
        """The checked reference loop: every instruction through
        :meth:`_step`, counting opcodes into *profile* when given.

        Memory goes through :meth:`MemoryMap.read_word` / ``write_word`` so
        data watchpoints and access accounting behave exactly like the
        reference semantics; ``self.pc``/``self.cycles`` are kept current so
        hooks observe a consistent machine state. :meth:`run` takes it for
        a whole run when profiling, and otherwise for each single pc the
        fast loop stops before: a watched store, an unsafe row, a block
        that must decompose and the interior pcs after it.
        """
        memory = self.memory
        rows = self._rows
        ncode = len(rows)
        stack = self.stack
        depth = self.stack_depth
        start_cycles = self.cycles
        n = 0

        while n < limit:
            pc = self.pc
            if not 0 <= pc < ncode:
                raise TargetFault("pc ran outside the code", pc)
            op, arg, cst = rows[pc]
            self.cycles += cst
            self.instructions += 1
            n += 1
            if profile is not None:
                profile[op] = profile.get(op, 0) + 1
            try:
                if op == OP_HALT:
                    self.halted = True
                    self.pc = pc + 1
                    return RunResult(StopReason.HALTED, n,
                                     self.cycles - start_cycles)
                self.pc = self._step(op, arg, pc, stack, depth, memory, ncode)
            except TargetFault as fault:
                if fault.pc < 0:  # pin memory faults to this instruction
                    raise TargetFault(fault.reason, pc) from None
                raise
        return RunResult(StopReason.LIMIT, n, self.cycles - start_cycles)

    def _step(self, op: int, arg: int, pc: int, stack: List[int],
              depth: int, memory, ncode: int) -> int:
        """Execute one non-HALT instruction, returning the next pc.

        A faulting instruction leaves a defined machine: an underflow
        empties the stack, and a ``LOAD`` or ``STORE`` checks its
        address before it touches the stack.
        """

        def need(count: int) -> None:
            if len(stack) < count:
                stack.clear()
                raise TargetFault("stack underflow", pc)

        def push(value: int) -> None:
            if len(stack) >= depth:
                raise TargetFault("stack overflow", pc)
            stack.append(value)

        def jump(target: int) -> int:
            if not 0 <= target < ncode:
                raise TargetFault(f"jump target {target} outside code", pc)
            return target

        if op == OP_LOAD or op == OP_STORE:
            if not memory.contains(arg):
                raise TargetFault(f"memory access outside RAM: 0x{arg:08x}",
                                  pc)
            if op == OP_STORE:
                need(1)
                memory.write_word(arg, stack.pop())
            elif len(stack) >= depth:
                raise TargetFault("stack overflow", pc)
            else:
                stack.append(memory.read_word(arg))
        elif op == OP_PUSH:
            push(arg)
        elif op == OP_JMP:
            return jump(arg)
        elif op == OP_JZ:
            need(1)
            return jump(arg) if stack.pop() == 0 else pc + 1
        elif op == OP_JNZ:
            need(1)
            return jump(arg) if stack.pop() != 0 else pc + 1
        elif op == OP_NOT:
            need(1)
            stack.append(0 if stack.pop() != 0 else 1)
        elif op == OP_NEG:
            need(1)
            r = -stack.pop()
            stack.append(INT_MIN if r > INT_MAX else r)
        elif op == OP_DUP:
            need(1)
            push(stack[-1])
        elif op == OP_SWAP:
            need(2)
            stack[-1], stack[-2] = stack[-2], stack[-1]
        elif op == OP_POP:
            need(1)
            stack.pop()
        elif op == OP_LDI:
            need(1)
            push(memory.read_word(stack.pop()))
        elif op == OP_STI:
            need(2)
            addr = stack.pop()
            memory.write_word(addr, stack.pop())
        elif op == OP_EMIT:
            need(2)
            value = stack.pop()
            path_id = stack.pop()
            self.emit_log.append((arg, path_id, value))
            if self.emit_handler is not None:
                self.emit_handler(arg, path_id, value)
        else:
            need(2)
            b = stack.pop()
            a = stack.pop()
            if op == OP_ADD:
                r = a + b
                stack.append(r if INT_MIN <= r <= INT_MAX
                             else ((r + 0x80000000) & 0xFFFFFFFF) - 0x80000000)
            elif op == OP_SUB:
                r = a - b
                stack.append(r if INT_MIN <= r <= INT_MAX
                             else ((r + 0x80000000) & 0xFFFFFFFF) - 0x80000000)
            elif op == OP_MUL:
                r = a * b
                stack.append(r if INT_MIN <= r <= INT_MAX
                             else ((r + 0x80000000) & 0xFFFFFFFF) - 0x80000000)
            elif op == OP_EQ:
                stack.append(1 if a == b else 0)
            elif op == OP_NE:
                stack.append(1 if a != b else 0)
            elif op == OP_LT:
                stack.append(1 if a < b else 0)
            elif op == OP_LE:
                stack.append(1 if a <= b else 0)
            elif op == OP_GT:
                stack.append(1 if a > b else 0)
            elif op == OP_GE:
                stack.append(1 if a >= b else 0)
            elif op == OP_MIN:
                stack.append(a if a <= b else b)
            elif op == OP_MAX:
                stack.append(a if a >= b else b)
            elif op == OP_AND:
                stack.append(1 if (a != 0 and b != 0) else 0)
            elif op == OP_OR:
                stack.append(1 if (a != 0 or b != 0) else 0)
            elif op == OP_DIV:
                if b == 0:
                    raise TargetFault("division by zero", pc)
                stack.append(sdiv(a, b))
            elif op == OP_MOD:
                if b == 0:
                    raise TargetFault("modulo by zero", pc)
                stack.append(smod(a, b))
            else:  # pragma: no cover - decode guarantees opcode validity
                raise TargetFault(f"undecodable opcode {op}", pc)
        return pc + 1
