"""The virtual CPU: a 32-bit stack machine engineered for interpreter speed.

This is the hottest loop in the whole framework — every benchmark, every
lockstep equivalence test and every RTOS job funnels through it — so it is
built around four rules:

1. **Decode once, one row per instruction.** :meth:`Cpu.load` turns the
   instruction list into a single array of packed ``(opcode, arg, cycles)``
   tuples — direct-threaded style: the run loop does **one** list index
   plus one unpack per row and never looks at an
   :class:`~repro.target.isa.Instr`, a string, or a dict. Decoding is
   memoized per process on the program's content, so every board flashed
   with one image shares its rows.
2. **One dispatch per straight-line run.** With :attr:`Cpu.fuse` on, the
   decoder compiles each straight-line run of plain rows into one block
   row (:mod:`repro.target.blocks`): a generated function that keeps the
   run's stack in locals, commits its stores once and returns the next
   pc. The loop charges the block's static instruction, cycle, read and
   write counts in one step, after one budget check and one stack-depth
   check. Plain rows dispatch on a frequency-ordered ``if/elif`` chain of
   local int constants; the block and stop rows sit behind one
   ``op >= BLOCK`` guard ahead of it.
3. **Hoist everything.** Memory cells, the stack's bound ``append``/``pop``,
   counters and constants live in locals for the duration of a run; state
   is written back once in a ``finally``.
4. **Watched stores are rows, not tests.** The fast loop
   (:meth:`_run_fast`) contains not a single hook test. Watched stores
   are priced **once, per program and watch set**: every *stop pc* — a
   ``STORE`` to a watched address, and every ``STI`` (its address is
   dynamic) while anything is watched — gets a stop row in a trapped
   decoding, whose blocks are formed again with the stop pcs as
   boundaries. Trapped decodings are memoized with the program, so
   every board of every code-debugger rig shares them. The loop returns
   before a stop row; :meth:`run` then executes exactly that one
   instruction on the checked path (:meth:`_run_debug`, where the
   memory's write hook fires with the machine state current) and
   re-enters the fast loop. Like a hardware comparator, a watchpoint
   costs nothing until a store that can hit it retires. Only the
   opcode profile runs every instruction through :meth:`_step`. On
   plain rows, stack underflow and runaway program counters are caught
   by the ``IndexError`` of the faulting list access instead of
   per-instruction guards.

The ISA's semantics therefore exist in three places: the plain-row chain
of the fast loop (the decomposition target, and the whole program with
``fuse=False``), the block templates, and :meth:`_step`, the independent
reference. Blocks must be timing-identical to the plain rows they
replace, and plain rows to :meth:`_step`;
``tests/test_superinstructions.py`` checks blocks == plain == checked in
lockstep.

Semantics are bit-identical to the reference expression interpreter
(:mod:`repro.comdes.expr`) via the shared :mod:`repro.util.intmath` rules:
signed 32-bit wraparound, C-style truncating division, 0/1 comparisons.
The fast loop and the blocks inline ``sdiv``/``smod`` (no call per
divide); the checked :meth:`_step` calls them, and the lockstep tests
hold them together.
"""

from __future__ import annotations

import enum
from collections import OrderedDict
from typing import Callable, List, NamedTuple, Optional, Sequence, Tuple

from repro.errors import TargetFault
from repro.target.blocks import TAIL_HALT, form_blocks
from repro.target.isa import (
    CYCLES,
    Instr,
    OP_ADD, OP_AND, OP_BLOCK, OP_DIV, OP_DUP, OP_EMIT, OP_EQ, OP_GE, OP_GT,
    OP_HALT, OP_JMP, OP_JNZ, OP_JZ, OP_LDI, OP_LE, OP_LOAD, OP_LT, OP_MAX,
    OP_MIN, OP_MOD, OP_MUL, OP_NE, OP_NEG, OP_NOT, OP_OR, OP_POP, OP_PUSH,
    OP_STI, OP_STOP, OP_STORE, OP_SUB, OP_SWAP,
)
from repro.target.memory import RAM_BASE
from repro.util.intmath import INT_MAX, INT_MIN, sdiv, smod, wrap32

#: emit handler signature: (command kind, path id, value)
EmitHandler = Callable[[int, int, int], None]

DEFAULT_RUN_LIMIT = 1_000_000

_STOP_ROW = (OP_STOP, 0, 0)


class _Program:
    """One decoded program: its plain rows, its block rows (None when
    blocks are off or none formed) and its trapped decodings by stop
    set. Shared by every CPU that loads the same content; read-only
    apart from the trapped memo."""

    __slots__ = ("rows", "brows", "blocks", "entries", "nram", "trapped")

    def __init__(self, rows: List[tuple], brows: Optional[List[tuple]],
                 blocks: int, entries: frozenset, nram: int) -> None:
        self.rows = rows
        self.brows = brows
        self.blocks = blocks
        self.entries = entries
        self.nram = nram
        self.trapped: "OrderedDict[tuple, Tuple[List[tuple], List[tuple]]]" = (
            OrderedDict())

    def trapped_rows(self, blocks: bool, stops: frozenset
                     ) -> Tuple[List[tuple], List[tuple]]:
        """The (fast, plain) decodings with a stop row at every pc in
        *stops*; the fast one holds blocks formed around the stops when
        *blocks* is set. Memoized per stop set."""
        key = (blocks, stops)
        found = self.trapped.get(key)
        if found is not None:
            self.trapped.move_to_end(key)
            return found
        plain = list(self.rows)
        for pc in stops:
            plain[pc] = _STOP_ROW
        fast = plain
        if blocks:
            fast = form_blocks(plain, self.entries, self.nram)[0] or plain
        found = self.trapped[key] = (fast, plain)
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
            blocks: bool, nram: int) -> _Program:
    """The decoded program of *code* for a RAM of *nram* words.

    Memoized on content: a program whose ``(opcode, arg)`` rows, entries,
    block flag and RAM size match one decoded before gets the same
    :class:`_Program`, whose rows callers must not mutate. The table
    keeps the :data:`_DECODED_LIMIT` most recently used programs.
    """
    content = tuple([(instr.code, instr.arg) for instr in code])
    entry_set = frozenset(entries or ())
    key = (content, entry_set, nram) if blocks else (content,)
    found = _DECODED.get(key)
    if found is not None:
        _DECODED.move_to_end(key)
        return found
    rows = [(op, wrap32(arg) if op == OP_PUSH else (0 if arg is None else arg),
             CYCLES[op])
            for op, arg in content]
    brows, count = form_blocks(rows, entry_set, nram) if blocks else (None, 0)
    found = _DECODED[key] = _Program(rows, brows, count, entry_set, nram)
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

    def __init__(self, memory, stack_depth: int = 128,
                 fuse: bool = True) -> None:
        if stack_depth <= 0:
            raise TargetFault(f"stack depth must be positive, got {stack_depth}")
        self.memory = memory
        self.stack_depth = stack_depth
        #: compile straight-line runs into block rows at load time (off:
        #: plain rows only, the reference decoding)
        self.fuse = fuse
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
        # block program: same length, a block row at the head of every
        # compiled run, the plain row everywhere else (so any pc — a
        # mid-block resume, an undeclared entry — executes legally).
        # None when blocks are off or none formed.
        self._brows: Optional[List[tuple]] = None
        #: number of block rows installed by the last load
        self.block_rows = 0
        # trapped (fast, plain) rows for the watch set in _trap_key
        self._trap_key: Optional[tuple] = None
        self._trap_rows: Tuple[List[tuple], List[tuple]] = ([], [])

    # -- program loading ---------------------------------------------------

    def load(self, code: Sequence[Instr],
             entries: Optional[Sequence[int]] = None) -> None:
        """Decode *code* once: strings -> ints, costs precomputed.

        PUSH immediates are truncated to int32 here, like a real encoder's
        immediate field — the machine's cells-are-int32 invariant must hold
        even for hand-built (or fault-corrupted) out-of-range constants.

        With :attr:`fuse` on, a second pass compiles every straight-line
        run into a block row (:mod:`repro.target.blocks`). *entries* names
        task entry pcs; like jump targets, no block spans one (a block may
        start at one). Entries the caller forgot are still safe — interior
        pcs of a block keep their plain rows, so entering one simply
        executes plain rows — declared boundaries just compile better.

        Decoding is memoized per process on the program's content (the
        ``(opcode, arg)`` of every instruction, the entries, the block
        flag and the RAM size), so every board flashed with the same
        image shares one set of rows, and one set of trapped decodings
        per stop set (:meth:`_trapped_rows`). Shared rows are read-only;
        an image edited in place keys a new entry.
        """
        self.code = list(code)
        program = self._program = _decode(self.code, entries, self.fuse,
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

        Watched stores are stop pcs of the fast loop: it runs the trapped
        rows up to one, then this method executes that one instruction
        on the checked path, so the write hook sees ``pc`` at the store
        and ``cycles`` including its charge, and re-enters the fast loop
        with the remaining budget. Watchpoints added while a run is in
        progress take effect at the next run.

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
        if not watched:
            # fuse is re-consulted here so toggling it after load() (Board
            # exposes no fuse parameter) honestly selects the reference
            # decoding
            rows = self._brows
            if not self.fuse or rows is None:
                rows = self._rows
            return self._run_fast(rows, self._rows, max_instructions)
        rows, plain_rows = self._trapped_rows(watched)
        n = cycles = 0
        while True:
            result = self._run_fast(rows, plain_rows, max_instructions - n)
            n += result.instructions
            cycles += result.cycles
            if result.reason is not None:
                return _new_tuple(RunResult, (result.reason, n, cycles))
            # the loop stopped before a watched STORE or STI with budget
            # left: retire it on the checked path, where the hook fires
            n += 1
            cycles += self._run_debug(1).cycles

    def _trapped_rows(self, watched: frozenset
                      ) -> Tuple[List[tuple], List[tuple]]:
        """The (fast, plain) decodings with a stop row at every store
        that can write a *watched* address, cached until :meth:`load` or
        the watched set changes, and shared through the program by every
        CPU with the same stop pcs."""
        blocks = self.fuse and self._brows is not None
        key = (blocks, watched)
        if key == self._trap_key:
            return self._trap_rows
        stops = frozenset(
            pc for pc, (op, arg, _) in enumerate(self._rows)
            if op == OP_STI or (op == OP_STORE and arg in watched))
        self._trap_key = key
        self._trap_rows = self._program.trapped_rows(blocks, stops)
        return self._trap_rows

    def _run_fast(self, rows: List[tuple], plain_rows: List[tuple],
                  limit: int) -> RunResult:
        """The one hot loop: no hooks, no string/dict dispatch, over
        either decoding.

        *rows* is the block program or the plain decoded rows (either of
        them possibly trapped); *plain_rows* is the plain decoding a
        block decomposes onto, trapped whenever *rows* is, so
        decomposing can never run past a stop pc. Plain opcodes share
        one dispatch chain; the block and stop rows sit behind a single
        ``op >= BLOCK`` guard ahead of it, so plain rows pay one
        comparison for blocks' existence. Reaching a stop row with
        budget left ends the run before its pc with reason ``None``,
        charging nothing; :meth:`run` retires the watched store.

        Timing identity with the plain rows (and with :meth:`_step`) is
        the contract: a block charges its instructions' summed cycles,
        counts them and performs their memory accesses. Whenever it
        could be *observably* different — the instruction budget lands
        inside it, the stack is too shallow or lacks the headroom its
        pushes need, or it meets a zero divisor or an ``LDI`` outside
        RAM before its commit — the block **decomposes**: the loop swaps
        to the plain rows and re-executes the same pc, so budget stops
        land on a legal pc and faults surface with the exact
        pc/counters of the plain rows. (Interior pcs of a block always
        hold plain rows, so resuming from such a stop is legal.) A block
        ending in ``EMIT`` has committed everything when it returns; the
        handler then runs at the ``EMIT``'s pc with ``cycles`` including
        its charge, as on plain rows.
        """
        memory = self.memory
        prows = plain_rows
        ncode = len(prows)
        cells = memory.cells
        nram = len(cells)
        stack = self.stack
        append = stack.append
        pop = stack.pop
        depth = self.stack_depth
        emit_log = self.emit_log
        handler = self.emit_handler
        base_cycles = self.cycles
        int_max = INT_MAX
        int_min = INT_MIN
        ram_base = RAM_BASE
        # dispatch constants as locals: LOAD_FAST beats LOAD_GLOBAL
        BLOCK = OP_BLOCK; HALTS = TAIL_HALT
        LOAD = OP_LOAD; PUSH = OP_PUSH; STORE = OP_STORE; ADD = OP_ADD
        EQ = OP_EQ; NE = OP_NE; LT = OP_LT; LE = OP_LE; GT = OP_GT; GE = OP_GE
        JMP = OP_JMP; JZ = OP_JZ; JNZ = OP_JNZ; SUB = OP_SUB; MUL = OP_MUL
        MIN = OP_MIN; MAX = OP_MAX; AND = OP_AND; OR = OP_OR; NOT = OP_NOT
        NEG = OP_NEG; DUP = OP_DUP; MOD = OP_MOD; DIV = OP_DIV
        SWAP = OP_SWAP; POPC = OP_POP; LDI = OP_LDI; STI = OP_STI
        EMIT = OP_EMIT

        pc = self.pc
        run_cycles = 0
        n = 0
        reads = 0
        writes = 0
        in_handler = False
        reason = StopReason.LIMIT
        try:
            while n < limit:
                op, arg, cst = rows[pc]
                run_cycles += cst
                n += 1
                if op >= BLOCK:
                    if op == BLOCK:
                        fn, more, need, peak, nread, nwrite, tail = arg
                        height = len(stack)
                        if (n + more > limit or height < need
                                or height + peak > depth):
                            rows = prows  # decompose: same pc, plain rows
                            run_cycles -= cst
                            n -= 1
                            continue
                        target = fn(cells, stack, emit_log)
                        if target < 0:  # zero divisor / LDI outside RAM
                            rows = prows
                            run_cycles -= cst
                            n -= 1
                            continue
                        n += more
                        reads += nread
                        writes += nwrite
                        if tail:
                            if tail == HALTS:
                                self.halted = True
                                pc = target
                                reason = StopReason.HALTED
                                break
                            if handler is not None:
                                # the handler runs at the EMIT's pc and
                                # reads self.cycles: sync before calling
                                pc = target - 1
                                self.cycles = base_cycles + run_cycles
                                kind, path_id, value = emit_log[-1]
                                in_handler = True
                                handler(kind, path_id, value)
                                in_handler = False
                        pc = target
                    else:  # stop row: run() takes this pc
                        n -= 1
                        reason = None
                        break
                elif op == LOAD:
                    index = arg - ram_base
                    if not 0 <= index < nram:
                        raise TargetFault(
                            f"memory access outside RAM: 0x{arg:08x}", pc)
                    if len(stack) >= depth:
                        raise TargetFault("stack overflow", pc)
                    append(cells[index])
                    reads += 1
                    pc += 1
                elif op == PUSH:
                    if len(stack) >= depth:
                        raise TargetFault("stack overflow", pc)
                    append(arg)
                    pc += 1
                elif op == STORE:
                    index = arg - ram_base
                    if not 0 <= index < nram:
                        raise TargetFault(
                            f"memory access outside RAM: 0x{arg:08x}", pc)
                    cells[index] = pop()
                    writes += 1
                    pc += 1
                elif op == ADD:
                    b = pop(); a = pop()
                    r = a + b
                    if r > int_max or r < int_min:
                        r = ((r + 0x80000000) & 0xFFFFFFFF) - 0x80000000
                    append(r)
                    pc += 1
                elif op == EQ:
                    b = pop(); a = pop()
                    append(1 if a == b else 0)
                    pc += 1
                elif op == NE:
                    b = pop(); a = pop()
                    append(1 if a != b else 0)
                    pc += 1
                elif op == LT:
                    b = pop(); a = pop()
                    append(1 if a < b else 0)
                    pc += 1
                elif op == LE:
                    b = pop(); a = pop()
                    append(1 if a <= b else 0)
                    pc += 1
                elif op == GT:
                    b = pop(); a = pop()
                    append(1 if a > b else 0)
                    pc += 1
                elif op == GE:
                    b = pop(); a = pop()
                    append(1 if a >= b else 0)
                    pc += 1
                elif op == JMP:
                    if not 0 <= arg < ncode:
                        raise TargetFault(
                            f"jump target {arg} outside code", pc)
                    pc = arg
                elif op == JZ:
                    if pop() == 0:
                        if not 0 <= arg < ncode:
                            raise TargetFault(
                                f"jump target {arg} outside code", pc)
                        pc = arg
                    else:
                        pc += 1
                elif op == JNZ:
                    if pop() != 0:
                        if not 0 <= arg < ncode:
                            raise TargetFault(
                                f"jump target {arg} outside code", pc)
                        pc = arg
                    else:
                        pc += 1
                elif op == SUB:
                    b = pop(); a = pop()
                    r = a - b
                    if r > int_max or r < int_min:
                        r = ((r + 0x80000000) & 0xFFFFFFFF) - 0x80000000
                    append(r)
                    pc += 1
                elif op == MUL:
                    b = pop(); a = pop()
                    r = a * b
                    if r > int_max or r < int_min:
                        r = ((r + 0x80000000) & 0xFFFFFFFF) - 0x80000000
                    append(r)
                    pc += 1
                elif op == MIN:
                    b = pop(); a = pop()
                    append(a if a <= b else b)
                    pc += 1
                elif op == MAX:
                    b = pop(); a = pop()
                    append(a if a >= b else b)
                    pc += 1
                elif op == AND:
                    b = pop(); a = pop()
                    append(1 if (a != 0 and b != 0) else 0)
                    pc += 1
                elif op == OR:
                    b = pop(); a = pop()
                    append(1 if (a != 0 or b != 0) else 0)
                    pc += 1
                elif op == NOT:
                    append(0 if pop() != 0 else 1)
                    pc += 1
                elif op == NEG:
                    r = -pop()
                    if r > int_max:
                        r = int_min  # -INT_MIN wraps
                    append(r)
                    pc += 1
                elif op == DUP:
                    if len(stack) >= depth:
                        raise TargetFault("stack overflow", pc)
                    append(stack[-1])
                    pc += 1
                elif op == MOD or op == DIV:
                    # intmath.sdiv / smod, inline: truncating quotient,
                    # remainder a - q*b, both wrapped to int32
                    b = pop(); a = pop()
                    if b == 0:
                        raise TargetFault("modulo by zero" if op == MOD
                                          else "division by zero", pc)
                    r = a // b if (a >= 0) == (b > 0) else -(-a // b)
                    if r > int_max or r < int_min:
                        r = ((r + 0x80000000) & 0xFFFFFFFF) - 0x80000000
                    if op == MOD:
                        r = a - r * b
                        if r > int_max or r < int_min:
                            r = ((r + 0x80000000) & 0xFFFFFFFF) - 0x80000000
                    append(r)
                    pc += 1
                elif op == SWAP:
                    b = pop(); a = pop()
                    append(b)
                    append(a)
                    pc += 1
                elif op == POPC:
                    pop()
                    pc += 1
                elif op == LDI:
                    index = pop() - ram_base
                    if not 0 <= index < nram:
                        raise TargetFault("memory access outside RAM: "
                                          f"0x{index + ram_base:08x}", pc)
                    append(cells[index])
                    reads += 1
                    pc += 1
                elif op == STI:
                    index = pop() - ram_base
                    value = pop()
                    if not 0 <= index < nram:
                        raise TargetFault("memory access outside RAM: "
                                          f"0x{index + ram_base:08x}", pc)
                    cells[index] = value
                    writes += 1
                    pc += 1
                elif op == EMIT:
                    value = pop()
                    path_id = pop()
                    kind = arg
                    emit_log.append((kind, path_id, value))
                    if handler is not None:
                        # the handler reads self.cycles: sync before calling
                        self.cycles = base_cycles + run_cycles
                        in_handler = True
                        handler(kind, path_id, value)
                        in_handler = False
                    pc += 1
                else:  # HALT (the only remaining opcode)
                    self.halted = True
                    pc += 1
                    reason = StopReason.HALTED
                    break
        except IndexError:
            # The two structural faults surface as IndexError of the list
            # access itself — no per-instruction guard needed. An emit
            # handler's own IndexError propagates untouched.
            if in_handler:
                raise
            if not 0 <= pc < ncode:
                raise TargetFault("pc ran outside the code", pc) from None
            if not stack:
                raise TargetFault("stack underflow", pc) from None
            raise
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
        a whole run when profiling, and for the one watched store at each
        stop pc otherwise.
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

        A faulting instruction leaves the machine as the fast loop's
        plain rows do: an underflow has popped what there was, and a
        ``LOAD`` or ``STORE`` checks its address before it touches the
        stack.
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
