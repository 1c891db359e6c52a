"""Instruction set of the virtual target: a 32-bit stack machine.

The design is performance-first: every opcode has a small-integer encoding
(its index in :data:`OPCODES`) that the CPU decodes **once at load time**,
so the interpreter loops never touch strings or dictionaries. The
numbering is frequency-ordered — opcodes that dominate generated firmware
(LOAD/PUSH/STORE/ADD and the compare/branch group) get the smallest codes.

See the package docstring (``repro/target/__init__.py``) for the full
opcode table with stack effects and cycle costs.
"""

from __future__ import annotations

from typing import Optional

from repro.errors import AssemblyError

#: Opcode name -> encoding is positional: OPCODES.index(name), hottest
#: first.
OPCODES = (
    "LOAD", "PUSH", "STORE", "ADD", "EQ", "NE", "LT", "LE", "GT", "GE",
    "JMP", "JZ", "JNZ", "SUB", "MUL", "MIN", "MAX", "AND", "OR", "NOT",
    "NEG", "DUP", "MOD", "DIV", "SWAP", "POP", "LDI", "STI", "EMIT", "HALT",
)

#: name -> small-int opcode, built once at import.
OP_INDEX = {name: code for code, name in enumerate(OPCODES)}

# Named encodings for the CPU's decoder and checked loop.
(OP_LOAD, OP_PUSH, OP_STORE, OP_ADD, OP_EQ, OP_NE, OP_LT, OP_LE, OP_GT,
 OP_GE, OP_JMP, OP_JZ, OP_JNZ, OP_SUB, OP_MUL, OP_MIN, OP_MAX, OP_AND,
 OP_OR, OP_NOT, OP_NEG, OP_DUP, OP_MOD, OP_DIV, OP_SWAP, OP_POP, OP_LDI,
 OP_STI, OP_EMIT, OP_HALT) = range(len(OPCODES))

#: Opcodes that carry an immediate operand (value, address, target or kind).
ARG_OPS = frozenset(("PUSH", "LOAD", "STORE", "JMP", "JZ", "JNZ", "EMIT"))

#: Opcodes whose argument is a code address resolved by the assembler.
JUMP_OPS = frozenset(("JMP", "JZ", "JNZ"))

#: Cycle cost per opcode (indexable by the small-int encoding). Costs mirror
#: a small in-order MCU: single-cycle ALU, 2-cycle memory/branches, 3-cycle
#: indirect access and multiply, a slow iterative divider, and an expensive
#: EMIT (formatting + pushing a debug command into the UART FIFO) — the
#: instrumentation overhead the paper's benchmark E7 measures.
_CYCLE_TABLE = {
    "LOAD": 2, "STORE": 2, "LDI": 3, "STI": 3,
    "PUSH": 1, "POP": 1, "DUP": 1, "SWAP": 1,
    "ADD": 1, "SUB": 1, "NEG": 1, "AND": 1, "OR": 1, "NOT": 1,
    "EQ": 1, "NE": 1, "LT": 1, "LE": 1, "GT": 1, "GE": 1,
    "MIN": 1, "MAX": 1,
    "MUL": 3, "DIV": 12, "MOD": 12,
    "JMP": 2, "JZ": 2, "JNZ": 2,
    "EMIT": 24, "HALT": 1,
}

#: cycle cost indexed by opcode int — used by the CPU's load-time decoder.
CYCLES = tuple(_CYCLE_TABLE[name] for name in OPCODES)

# -- decoded-only row id -----------------------------------------------------
#
# A row the CPU's decoder synthesizes; it is never assembled and never
# appears in an :class:`Instr`.

#: block row: one compiled straight-line run of plain rows (see
#: :mod:`repro.target.blocks`). It is architecturally invisible: it
#: charges the exact sum of its instructions' :data:`CYCLES`, counts them,
#: performs their reads and writes, and decomposes onto the checked loop
#: whenever a budget, stack or divisor check could tell the difference.
OP_BLOCK = len(OPCODES)


def profile_names(counts) -> dict:
    """An opcode-frequency profile keyed by mnemonic, hottest first.

    *counts* is the int-keyed mapping filled by ``Cpu.run(profile=...)``;
    the result is what benchmark dumps and humans read. Deterministic:
    ties break on opcode encoding.
    """
    ordered = sorted(counts.items(), key=lambda item: (-item[1], item[0]))
    return {OPCODES[op]: count for op, count in ordered}


def cycles_of(op: str) -> int:
    """Cycle cost of one *op* (by name), as accumulated by the CPU."""
    try:
        return _CYCLE_TABLE[op]
    except KeyError:
        raise AssemblyError(f"unknown opcode {op!r}") from None


class Instr:
    """One decoded instruction.

    ``__slots__`` keeps instances small (firmware images hold thousands) and
    attribute access fast. ``code`` is the small-int encoding, computed once
    here so the CPU's loader is a plain attribute read.
    """

    __slots__ = ("op", "arg", "src_path", "code")

    def __init__(self, op: str, arg: Optional[int] = None,
                 src_path: Optional[str] = None) -> None:
        code = OP_INDEX.get(op)
        if code is None:
            raise AssemblyError(f"unknown opcode {op!r}")
        if op in ARG_OPS:
            if arg is None:
                raise AssemblyError(f"{op} requires an argument")
        elif arg is not None:
            raise AssemblyError(f"{op} takes no argument, got {arg!r}")
        self.op = op
        self.arg = arg
        self.src_path = src_path
        self.code = code

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Instr):
            return NotImplemented
        return self.op == other.op and self.arg == other.arg

    def __hash__(self) -> int:
        return hash((self.op, self.arg))

    def __repr__(self) -> str:
        text = self.op if self.arg is None else f"{self.op} {self.arg}"
        return f"<Instr {text}>"
