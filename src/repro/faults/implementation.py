"""Implementation-error injectors: mutate *generated code*, model untouched.

These emulate bugs introduced during model transformation or manual glue
coding (the paper's "hybrid-coding procedure"). Mutations are applied to a
copy of a firmware image; instructions belonging to the debug
instrumentation itself are excluded so the command channel stays honest.

The copy is structural, not deep: :func:`inject_implementation_fault`
builds the mutant with the :class:`FirmwareImage` constructor, which
copies the ``code`` list and the ``entries``, ``data_init`` and
``path_table`` dicts. The mutant shares two read-only parts with its base:

* the :class:`~repro.target.firmware.SymbolTable` — only code generation
  allocates into it, and injectors only look symbols up;
* the :class:`~repro.target.isa.Instr` objects in ``code``.

So every injector follows one rule: **replace, never mutate**. It writes
a new ``Instr`` into a slot of ``firmware.code`` (or a new word into
``data_init``) and never assigns to an attribute of an existing
``Instr``. The base image is shared by every job that reuses it (the
fleet worker's per-process pristine-firmware cache), so an in-place edit
would leak one fault into every later job.
"""

from __future__ import annotations

import copy
import random
from typing import List, Optional, Tuple

from repro.errors import ReproError
from repro.faults.design import FaultDescriptor
from repro.target.firmware import FirmwareImage
from repro.target.isa import Instr

_OP_SWAPS = {
    "ADD": "SUB", "SUB": "ADD",
    "LT": "LE", "LE": "LT", "GT": "GE", "GE": "GT",
    "MIN": "MAX", "MAX": "MIN",
    "EQ": "NE", "NE": "EQ",
}


def _instrumentation_pcs(firmware: FirmwareImage) -> set:
    """Instruction indices that implement EMIT sequences (id push included)."""
    excluded = set()
    for pc, instr in enumerate(firmware.code):
        if instr.op == "EMIT":
            excluded.update({pc, pc - 1, pc - 2, pc - 3})
    return excluded


def _mutable_pcs(firmware: FirmwareImage, ops: Tuple[str, ...]) -> List[int]:
    excluded = _instrumentation_pcs(firmware)
    return [pc for pc, instr in enumerate(firmware.code)
            if instr.op in ops and pc not in excluded]


def _fault_const_corrupt(firmware: FirmwareImage,
                         rng: random.Random) -> Optional[str]:
    candidates = _mutable_pcs(firmware, ("PUSH",))
    if not candidates:
        return None
    pc = rng.choice(candidates)
    old = firmware.code[pc]
    delta = rng.choice((-2, -1, 1, 2))
    firmware.code[pc] = Instr("PUSH", old.arg + delta, src_path=old.src_path)
    return f"pc={pc}: PUSH {old.arg} corrupted to {old.arg + delta}"


def _fault_op_swap(firmware: FirmwareImage, rng: random.Random) -> Optional[str]:
    candidates = _mutable_pcs(firmware, tuple(_OP_SWAPS))
    if not candidates:
        return None
    pc = rng.choice(candidates)
    old = firmware.code[pc]
    new_op = _OP_SWAPS[old.op]
    firmware.code[pc] = Instr(new_op, src_path=old.src_path)
    return f"pc={pc}: {old.op} swapped to {new_op}"


def _fault_store_drop(firmware: FirmwareImage, rng: random.Random) -> Optional[str]:
    candidates = _mutable_pcs(firmware, ("STORE",))
    if not candidates:
        return None
    pc = rng.choice(candidates)
    old = firmware.code[pc]
    symbol = firmware.symbols.at_addr(old.arg)
    firmware.code[pc] = Instr("POP", src_path=old.src_path)
    name = symbol.name if symbol else f"0x{old.arg:08x}"
    return f"pc={pc}: STORE to {name} dropped (value discarded)"


def _fault_load_wrong_addr(firmware: FirmwareImage,
                           rng: random.Random) -> Optional[str]:
    candidates = _mutable_pcs(firmware, ("LOAD",))
    if not candidates:
        return None
    rng.shuffle(candidates)
    for pc in candidates:
        old = firmware.code[pc]
        for delta in rng.sample((-1, 1, 2, -2), 4):
            neighbour = firmware.symbols.at_addr(old.arg + delta)
            if neighbour is not None:
                firmware.code[pc] = Instr("LOAD", old.arg + delta,
                                          src_path=old.src_path)
                return f"pc={pc}: LOAD retargeted to {neighbour.name}"
    return None


def _fault_jump_offby(firmware: FirmwareImage, rng: random.Random) -> Optional[str]:
    candidates = _mutable_pcs(firmware, ("JZ", "JNZ"))
    if not candidates:
        return None
    rng.shuffle(candidates)
    for pc in candidates:
        old = firmware.code[pc]
        target = old.arg + rng.choice((-1, 1))
        if 0 <= target < len(firmware.code):
            firmware.code[pc] = Instr(old.op, target, src_path=old.src_path)
            return f"pc={pc}: {old.op} target off by one ({old.arg} -> {target})"
    return None


def _fault_inverted_branch(firmware: FirmwareImage,
                           rng: random.Random) -> Optional[str]:
    candidates = _mutable_pcs(firmware, ("JZ", "JNZ"))
    if not candidates:
        return None
    pc = rng.choice(candidates)
    old = firmware.code[pc]
    new_op = "JNZ" if old.op == "JZ" else "JZ"
    firmware.code[pc] = Instr(new_op, old.arg, src_path=old.src_path)
    return f"pc={pc}: branch inverted {old.op} -> {new_op}"


def _fault_init_corrupt(firmware: FirmwareImage,
                        rng: random.Random) -> Optional[str]:
    state_symbols = [s for s in firmware.symbols.symbols(kind="state")
                     if firmware.data_init.get(s.addr)]
    if not state_symbols:
        return None
    symbol = rng.choice(state_symbols)
    old = firmware.data_init[symbol.addr]
    firmware.data_init[symbol.addr] = old + rng.choice((-1, 1))
    return (f"data: initial value of {symbol.name} corrupted "
            f"{old} -> {firmware.data_init[symbol.addr]}")


def _fault_dead_store_zero(firmware: FirmwareImage,
                           rng: random.Random) -> Optional[str]:
    candidates = _mutable_pcs(firmware, ("STORE",))
    if not candidates:
        return None
    pc = rng.choice(candidates)
    old = firmware.code[pc]
    symbol = firmware.symbols.at_addr(old.arg)
    # Model a stuck-at-zero cell in one slot, so no address moves: the
    # STORE becomes a POP (the value is discarded and this store never
    # writes the cell) and the cell's initial value becomes 0.
    firmware.code[pc] = Instr("POP", src_path=old.src_path)
    if symbol is not None:
        firmware.data_init[symbol.addr] = 0
        name = symbol.name
    else:
        name = f"0x{old.arg:08x}"
    return f"pc={pc}: {name} behaves stuck-at-zero (store dropped, init zeroed)"


def _fault_stuck_at_signal(firmware: FirmwareImage,
                           rng: random.Random) -> Optional[str]:
    """A latched input word reads a stuck constant: one ``LOAD`` of an
    ``<actor>.in.<port>`` cell becomes ``PUSH 0|1`` — the glue-code bug
    where a driver wires a signal to a literal instead of the bus."""
    candidates = []
    for pc in _mutable_pcs(firmware, ("LOAD",)):
        symbol = firmware.symbols.at_addr(firmware.code[pc].arg)
        if symbol is not None and ".in." in symbol.name:
            candidates.append((pc, symbol))
    if not candidates:
        return None
    pc, symbol = rng.choice(candidates)
    old = firmware.code[pc]
    stuck = rng.choice((0, 1))
    firmware.code[pc] = Instr("PUSH", stuck, src_path=old.src_path)
    return f"pc={pc}: {symbol.name} reads stuck-at {stuck}"


def split_memory_patches(base: FirmwareImage, mutant: FirmwareImage
                         ) -> Tuple[FirmwareImage, List[Tuple[int, int]]]:
    """Split a firmware mutation into (code image, data memory patches).

    The returned image carries the mutant's *code* but the base's
    pristine ``data_init``; the data-word corruptions come back as
    ``(addr, value)`` patches. The campaign applies those patches to the
    live board over the debug link (one batched BLOCKWRITE transaction)
    — fault injection over JTAG, exactly how bench hardware does it —
    instead of baking them into the flashed image. End state is
    identical: patches land before the first instruction runs.
    """
    patched = copy.copy(mutant)
    patched.data_init = dict(base.data_init)
    addrs = set(base.data_init) | set(mutant.data_init)
    patches = [
        (addr, mutant.data_init.get(addr, 0))
        for addr in sorted(addrs)
        if base.data_init.get(addr, 0) != mutant.data_init.get(addr, 0)
    ]
    return patched, patches


#: kind name -> injector
IMPL_FAULT_KINDS = {
    "const_corrupt": _fault_const_corrupt,
    "op_swap": _fault_op_swap,
    "store_drop": _fault_store_drop,
    "load_wrong_addr": _fault_load_wrong_addr,
    "jump_offby": _fault_jump_offby,
    "inverted_branch": _fault_inverted_branch,
    "init_corrupt": _fault_init_corrupt,
    "stuck_at_zero": _fault_dead_store_zero,
    "stuck_at_signal": _fault_stuck_at_signal,
}


def inject_implementation_fault(firmware: FirmwareImage, kind: str,
                                seed: int
                                ) -> Tuple[Optional[FirmwareImage], Optional[FaultDescriptor]]:
    """Copy *firmware* and inject one code-level fault of *kind*."""
    if kind not in IMPL_FAULT_KINDS:
        raise ReproError(
            f"unknown implementation fault kind {kind!r}; "
            f"options: {sorted(IMPL_FAULT_KINDS)}"
        )
    mutant = FirmwareImage(firmware.name, firmware.code, firmware.entries,
                           firmware.symbols, firmware.data_init,
                           firmware.path_table)
    rng = random.Random(seed)
    description = IMPL_FAULT_KINDS[kind](mutant, rng)
    if description is None:
        return None, None
    descriptor = FaultDescriptor(
        fault_id=f"impl/{kind}/{seed}", category="implementation", kind=kind,
        location=description.split(":")[0], description=description,
    )
    return mutant, descriptor
