"""Block rows: each straight-line run of firmware compiled to one function.

:meth:`repro.target.cpu.Cpu.load` decodes a program into plain rows, one
``(opcode, arg, cycles)`` row per instruction. :func:`form_blocks` then
finds every maximal straight-line run of those rows and compiles it into
a Python function, installed as one **block row** at the run's first pc.
The fast loop runs only block rows: a whole block with one dispatch, one
budget check and one stack-depth check.

A run ends

* before a task entry or a jump target (a block may *start* at one: that
  keeps loop bodies compiled);
* after a branch, an ``EMIT`` or a ``HALT``, which the block includes. A
  task's closing ``EMIT; HALT`` is one block (the *fold*), unless the
  ``HALT`` is itself a jump target or a task entry;
* before any row the compiler cannot prove safe: ``STI``, a ``LOAD`` or
  ``STORE`` outside RAM, a jump outside the code, or a *stop pc* of a
  trapped decoding (every store that may hit a watched address).

Every safe run becomes a block, a one-row run included. The unsafe rows
and the interior pcs of a block keep their plain rows: the fast loop
stops before them, and the CPU retires each of them on the checked
path (``Cpu._run_debug``), so a run resumed mid-block (after a budget
stop) steps the checked loop up to the next block head.

**What a block function does.** ``fn(cells, stack, emit_log)`` keeps the
run's stack in locals and defers every RAM store to one commit at the
end, so until that commit it has changed nothing. It returns the next
pc, or ``-1`` before committing when it meets a zero divisor or an
``LDI`` outside RAM. The row carries the static counts the loop charges
in one step: instructions, cycles, RAM reads and writes, the stack depth
the run needs at entry and the headroom it needs above it. A block whose
budget, stack or divisor check fails *decomposes*: the loop stops before
it and the checked path executes the same pc, so every fault keeps its
exact pc and counters. An ``EMIT`` block commits the stack, the cells
and the ``emit_log`` entry before it returns; the loop then calls the
emit handler at the ``EMIT``'s pc with ``cycles`` including the
``EMIT`` charge and not a folded ``HALT``'s, and halts after the handler
returns (a raising handler leaves the machine unhalted at the ``EMIT``).

**Generated code.** The source is built from fixed per-opcode templates.
Every value that varies between blocks (cell indexes, immediates, pcs,
the RAM size) is a parameter ``kN`` with the value as its default, and
each value is checked to be an ``int`` before it is bound. One compiled
template therefore serves every block of the same shape (the codegen
emits few shapes, and design mutants rarely add one), and ``exec`` runs
the source with empty ``__builtins__``. Block rows are memoized on
content: an unchanged block of a mutant is never rebuilt.
"""

from __future__ import annotations

import types
from collections import OrderedDict
from typing import (AbstractSet, Dict, Iterable, List, Optional, Sequence,
                    Tuple)

from repro.target.isa import (
    CYCLES,
    OP_ADD, OP_AND, OP_BLOCK, OP_DIV, OP_DUP, OP_EMIT, OP_EQ, OP_GE,
    OP_GT, OP_HALT, OP_JMP, OP_JNZ, OP_JZ, OP_LDI, OP_LE, OP_LOAD, OP_LT,
    OP_MAX, OP_MIN, OP_MOD, OP_MUL, OP_NE, OP_NEG, OP_NOT, OP_OR, OP_POP,
    OP_PUSH, OP_STORE, OP_SUB, OP_SWAP,
)
from repro.target.memory import RAM_BASE

#: the row past the last pc of every block program: not a block, so a
#: run that falls off the end of the code stops before it, and the
#: checked loop raises the fault
END_ROW = (-1, 0, 0)

#: what the fast loop does after a block returns (last field of the row's
#: arg tuple): flags, so a folded ``EMIT; HALT`` carries both
TAIL_NONE, TAIL_EMIT, TAIL_HALT = 0, 1, 2
TAIL_EMIT_HALT = TAIL_EMIT | TAIL_HALT

_WRAP = "((({}) + 2147483648) & 4294967295) - 2147483648"
#: binary ALU templates, ``a b -- r``; DIV and MOD are built inline
_BINARY = {
    OP_ADD: _WRAP.format("{a} + {b}"),
    OP_SUB: _WRAP.format("{a} - {b}"),
    OP_MUL: _WRAP.format("{a} * {b}"),
    OP_EQ: "1 if {a} == {b} else 0",
    OP_NE: "1 if {a} != {b} else 0",
    OP_LT: "1 if {a} < {b} else 0",
    OP_LE: "1 if {a} <= {b} else 0",
    OP_GT: "1 if {a} > {b} else 0",
    OP_GE: "1 if {a} >= {b} else 0",
    OP_MIN: "{a} if {a} <= {b} else {b}",
    OP_MAX: "{a} if {a} >= {b} else {b}",
    OP_AND: "1 if {a} and {b} else 0",
    OP_OR: "1 if {a} or {b} else 0",
}
#: opcodes a block may contain (LOAD/STORE/jumps also need legal args)
_SAFE = frozenset(_BINARY) | {
    OP_LOAD, OP_PUSH, OP_STORE, OP_DIV, OP_MOD, OP_NOT, OP_NEG, OP_DUP,
    OP_SWAP, OP_POP, OP_LDI, OP_JMP, OP_JZ, OP_JNZ, OP_EMIT, OP_HALT,
}
_JUMPS = (OP_JMP, OP_JZ, OP_JNZ)
#: opcodes that end a block after themselves
_ENDS = frozenset(_JUMPS + (OP_EMIT, OP_HALT))

#: block rows by ``(start pc, RAM words, rows)``, oldest first
_BLOCKS: "OrderedDict[tuple, tuple]" = OrderedDict()
#: block rows kept: a campaign job's programs (pristine, mutant and their
#: trapped decodings) hold a few hundred blocks between them
_BLOCKS_LIMIT = 512
#: compiled templates by source, oldest first
_TEMPLATES: "OrderedDict[str, types.CodeType]" = OrderedDict()
_TEMPLATES_LIMIT = 256
#: the one globals dict of every block function: no builtins, no names
_GLOBALS: dict = {"__builtins__": {}}


def form_blocks(rows: Sequence[tuple], entries: Iterable[int], nram: int,
                stops: AbstractSet[int] = frozenset()
                ) -> Tuple[List[tuple], int]:
    """Block rows over *rows*: a copy with a block row at the head of
    every safe run and :data:`END_ROW` past the last pc, and the block
    count.

    *rows* are plain decoded rows; *entries* are task entry pcs, *nram*
    the RAM size in words and *stops* the stop pcs of a trapped
    decoding, which stay plain like every unsafe row.
    """
    ncode = len(rows)
    heads = set(entries)
    for op, arg, _ in rows:
        if (op == OP_JMP or op == OP_JZ or op == OP_JNZ) and 0 <= arg < ncode:
            heads.add(arg)
    brows = list(rows) + [END_ROW]
    count = 0
    pc = 0
    while pc < ncode:
        end = pc
        while end < ncode and (end == pc or end not in heads):
            op, arg, _ = rows[end]
            if (end in stops or op not in _SAFE
                    or ((op == OP_LOAD or op == OP_STORE)
                        and not 0 <= arg - RAM_BASE < nram)
                    or (op in _JUMPS and not 0 <= arg < ncode)):
                break
            end += 1
            # an EMIT followed by a HALT does not end the run: the HALT
            # folds into it, unless it is a head
            if op in _ENDS and not (op == OP_EMIT and end < ncode
                                    and rows[end][0] == OP_HALT):
                break
        if end > pc:
            brows[pc] = block_row(rows, pc, end, nram)
            count += 1
        pc = max(end, pc + 1)
    return brows, count


def block_row(rows: Sequence[tuple], start: int, end: int,
              nram: int) -> tuple:
    """The block row of ``rows[start:end]``, memoized on content."""
    key = (start, nram, tuple(rows[start:end]))
    row = _BLOCKS.get(key)
    if row is not None:
        _BLOCKS.move_to_end(key)
        return row
    builder = _Builder(nram)
    for pc in range(start, end):
        op, arg, _ = rows[pc]
        builder.add(op, arg, pc + 1)
    fn = builder.function(end)
    row = _BLOCKS[key] = (
        OP_BLOCK,
        (fn, end - start, builder.entries, builder.peak, builder.reads,
         builder.writes, builder.tail),
        sum(CYCLES[op] for op, _, _ in rows[start:end]))
    if len(_BLOCKS) > _BLOCKS_LIMIT:
        _BLOCKS.popitem(last=False)
    return row


class _Builder:
    """Symbolic execution of one run into Python source.

    The stack is a list of *atoms*: parameter names (immediates), locals
    (``tN`` results, ``xN`` values the run found on the stack at entry)
    and cell reads ``c[kN]``. Cells do not change before the commit, so
    a cell read stays valid as an atom until then.
    """

    def __init__(self, nram: int) -> None:
        self.nram = nram
        self.ints: List[int] = []
        self.lines: List[str] = []
        self.stack: List[str] = []
        self.cell_of: Dict[str, int] = {}        # cell-read atom -> index
        self.pending: Dict[int, Tuple[str, str]] = {}  # index -> (k, atom)
        self.entries = 0      # values taken from the stack at entry
        self.peak = 0         # most values above the entry depth
        self.reads = 0
        self.writes = 0
        self.tail = TAIL_NONE
        self.emit: Optional[Tuple[str, str, str]] = None
        self.ret = ""

    def k(self, value: int) -> str:
        """A parameter bound to *value*: the only way a value reaches
        the source."""
        if type(value) is not int:
            raise TypeError(f"block source takes ints only, got {value!r}")
        self.ints.append(value)
        return f"k{len(self.ints) - 1}"

    def temp(self, expr: str) -> str:
        name = f"t{len(self.lines)}"
        self.lines.append(f"{name} = {expr}")
        return name

    def push(self, atom: str, checked: bool = False) -> None:
        """Push *atom*; a *checked* push (LOAD, PUSH, DUP) is one the
        checked loop guards against overflow."""
        self.stack.append(atom)
        height = len(self.stack) - self.entries
        if checked and height > self.peak:
            self.peak = height

    def pop(self) -> str:
        if self.stack:
            return self.stack.pop()
        self.entries += 1
        return f"x{self.entries}"

    def local(self, atom: str) -> str:
        """*atom* as a name that is cheap to read more than once."""
        return self.temp(atom) if atom in self.cell_of else atom

    def add(self, op: int, arg: int, next_pc: int) -> None:
        if op == OP_LOAD:
            index = arg - RAM_BASE
            if index in self.pending:
                atom = self.pending[index][1]
            else:
                atom = f"c[{self.k(index)}]"
                self.cell_of[atom] = index
            self.reads += 1
            self.push(atom, checked=True)
        elif op == OP_PUSH:
            self.push(self.k(arg), checked=True)
        elif op == OP_STORE:
            index = arg - RAM_BASE
            value = self.pop()
            slot = self.pending.get(index)
            self.pending[index] = (slot[0] if slot else self.k(index), value)
            self.writes += 1
        elif op in _BINARY:
            b = self.pop()
            a = self.pop()
            if op == OP_MIN or op == OP_MAX:
                a, b = self.local(a), self.local(b)
            self.push(self.temp(_BINARY[op].format(a=a, b=b)))
        elif op == OP_DIV or op == OP_MOD:
            # intmath.sdiv / smod; a zero divisor decomposes the block
            b = self.local(self.pop())
            a = self.local(self.pop())
            self.lines.append(f"if {b} == 0: return -1")
            r = self.temp(f"{a} // {b} if ({a} >= 0) == ({b} > 0) "
                          f"else -(-{a} // {b})")
            r = self.temp(_WRAP.format(r))
            if op == OP_MOD:
                r = self.temp(_WRAP.format(f"{a} - {r} * {b}"))
            self.push(r)
        elif op == OP_NOT:
            self.push(self.temp(f"0 if {self.pop()} else 1"))
        elif op == OP_NEG:
            a = self.local(self.pop())
            self.push(self.temp(f"-2147483648 if {a} < -2147483647 "
                                f"else -{a}"))
        elif op == OP_DUP:
            a = self.pop()
            self.push(a)
            self.push(a, checked=True)
        elif op == OP_SWAP:
            b = self.pop()
            a = self.pop()
            self.push(b)
            self.push(a)
        elif op == OP_POP:
            self.pop()
        elif op == OP_LDI:
            # dynamic address: range-checked here, and a cell stored
            # earlier in the run is read from its pending value
            index = self.temp(f"{self.pop()} - {RAM_BASE}")
            self.lines.append(
                f"if not 0 <= {index} < {self.k(self.nram)}: return -1")
            expr = f"c[{index}]"
            for slot, value in self.pending.values():
                expr = f"{value} if {index} == {slot} else {expr}"
            self.reads += 1
            self.push(self.temp(expr))
        elif op == OP_EMIT:
            value = self.pop()
            path_id = self.pop()
            self.emit = (self.k(arg), path_id, value)
            self.tail = TAIL_EMIT
        elif op == OP_HALT:
            self.tail |= TAIL_HALT
        elif op == OP_JMP:
            self.ret = f"return {self.k(arg)}"
        else:  # JZ, JNZ
            cond = self.pop()
            if cond in self.cell_of:
                cond = self.temp(cond)  # read before the commit writes
            taken, fall = self.k(arg), self.k(next_pc)
            if op == OP_JZ:
                self.ret = f"return {fall} if {cond} else {taken}"
            else:
                self.ret = f"return {taken} if {cond} else {fall}"

    def function(self, end: int):
        """Commit, compile (or reuse) the template, bind the values; a
        run that did not end in a branch returns *end*."""
        if not self.ret:
            self.ret = f"return {self.k(end)}"
        lines = [f"x{i} = s[-{i}]" for i in range(1, self.entries + 1)]
        lines += self.lines
        # the stack and the emit read cells before the writes commit: the
        # run's residual stack replaces the entries it took
        residual = "".join(f"{atom}, " for atom in self.stack)
        if self.entries:
            lines.append(f"s[-{self.entries}:] = ({residual})")
        elif residual:
            lines.append(f"s += ({residual})")
        if self.emit is not None:
            lines.append(f"e.append(({', '.join(self.emit)}))")
        stores = list(self.pending.values())
        if len(stores) > 1 and any(self.cell_of.get(value) in self.pending
                                   for _, value in stores):
            # a stored value reads a cell this commit also writes:
            # evaluate every value before the first write
            lines.append(", ".join(f"c[{slot}]" for slot, _ in stores)
                         + " = " + ", ".join(value for _, value in stores))
        else:
            lines.extend(f"c[{slot}] = {value}" for slot, value in stores)
        lines.append(self.ret)
        params = "".join(f", k{i}" for i in range(len(self.ints)))
        source = (f"def block(c, s, e{params}):\n    "
                  + "\n    ".join(lines) + "\n")
        code = _TEMPLATES.get(source)
        if code is None:
            namespace: dict = {}
            exec(source, _GLOBALS, namespace)
            code = _TEMPLATES[source] = namespace["block"].__code__
            if len(_TEMPLATES) > _TEMPLATES_LIMIT:
                _TEMPLATES.popitem(last=False)
        else:
            _TEMPLATES.move_to_end(source)
        return types.FunctionType(code, _GLOBALS, "block", tuple(self.ints))
