"""Lockstep proof that block rows are observably invisible.

``Cpu.load`` compiles each straight-line run of plain rows into one
block row (``repro.target.blocks``), and the fast loop runs nothing
else; the contract (``repro.target.cpu``) is that block execution is
**bit-identical** to the checked per-instruction loop (``_step``,
forced with ``profile={}``) at every stop: ``pc``, ``cycles``,
``instructions``, stack, RAM, ``emit_log``, read/write counters and
fault pcs — including budget stops landing inside a block, zero
divisors after a store in the same block, stacks too shallow or too
full at block entry, a task's closing ``EMIT; HALT`` folded into one
block, and what an emit handler sees. Randomized programs are
codegen-shaped: operand/operand/alu/store quads, constant and move
pairs, compare-and-branch, bounded loops, EMITs, indirect loads and
stores, stack values carried across a jump target, stack shuffles and
filler.

Watched stores are *stop pcs* of the same fast loop; the second half of
this file proves that route equal to the checked loop: identical watch
hits (pc, cycles, value, previous), identical machine state at every
stop and identical faults.
"""

from collections import OrderedDict

from hypothesis import example, given, settings, strategies as st

import pytest

from repro.codegen.instrument import InstrumentationPlan
from repro.codegen.pipeline import generate_firmware
from repro.comdes.examples import (blinker_system, cruise_control_system,
                                   production_cell_system,
                                   traffic_light_system)
from repro.debugger.gdb import SourceDebugger
from repro.errors import TargetFault
from repro.experiments.requirements import (
    cruise_code_watches,
    traffic_light_code_watches,
)
from repro.target.assembler import Assembler
from repro.faults.implementation import (IMPL_FAULT_KINDS,
                                        inject_implementation_fault)
import repro.target.blocks as blocks_module
import repro.target.cpu as cpu_module
from repro.target.board import Board
from repro.target.cpu import Cpu, StopReason
from repro.target.isa import OP_BLOCK, OP_HALT, Instr
from repro.target.memory import RAM_BASE, MemoryMap
from repro.util.intmath import INT_MAX, INT_MIN, sdiv, smod

RAM_WORDS = 12
STACK_DEPTH = 16
RUN_LIMIT = 50_000

ALU_OPS = ("ADD", "SUB", "MUL", "EQ", "NE", "LT", "LE", "GT", "GE",
           "MIN", "MAX", "AND", "OR", "DIV", "MOD")


def build(code, entries=None, ram=RAM_WORDS, depth=STACK_DEPTH):
    cpu = Cpu(MemoryMap(ram), stack_depth=depth)
    cpu.load(code, entries=entries)
    cpu.reset_task(0)
    return cpu


def snap(cpu):
    """Every architecturally observable piece of machine state."""
    memory = cpu.memory
    return {
        "pc": cpu.pc, "cycles": cpu.cycles, "instr": cpu.instructions,
        "stack": list(cpu.stack), "ram": list(memory.cells),
        "emit": list(cpu.emit_log), "halted": cpu.halted,
        "reads": memory.reads, "writes": memory.writes,
    }


def run_guarded(cpu, limit=RUN_LIMIT, checked=False):
    """Run to a stop, on the checked loop when *checked*; faults become
    part of the observable outcome."""
    try:
        result = cpu.run(max_instructions=limit,
                         profile={} if checked else None)
        return (result.reason, None)
    except TargetFault as fault:
        return ("fault", (fault.reason, fault.pc))


def blocks_match_checked(code, **build_args):
    """Run *code* to a stop on block rows and on the checked loop; both
    must observe one outcome and one machine state. Returns the block
    CPU and the outcome."""
    blocks, checked = build(code, **build_args), build(code, **build_args)
    outcome = run_guarded(blocks)
    assert outcome == run_guarded(checked, checked=True)
    assert snap(blocks) == snap(checked)
    return blocks, outcome


# -- program generator ------------------------------------------------------

addr_ix = st.integers(0, RAM_WORDS - 1)
imm = st.one_of(
    st.integers(-40, 40),
    st.sampled_from([INT_MIN, INT_MAX, INT_MIN + 1, INT_MAX - 1, 0, 1, -1]),
)
nonzero_imm = imm.filter(lambda v: v != 0)
operand = st.tuples(st.booleans(), addr_ix, imm)  # (is_load, addr, imm)

snip_alu_store = st.tuples(st.just("alu_store"), operand, operand,
                           st.sampled_from(ALU_OPS), addr_ix, nonzero_imm)
snip_const_store = st.tuples(st.just("const_store"), imm, addr_ix)
snip_move = st.tuples(st.just("move"), addr_ix, addr_ix)
snip_cmp_branch = st.tuples(st.just("cmp_branch"), operand, operand,
                            st.sampled_from(("EQ", "NE", "LT", "LE", "GT",
                                             "GE", "AND", "OR")),
                            st.booleans(), imm, addr_ix)
snip_load_branch = st.tuples(st.just("load_branch"), addr_ix, st.booleans(),
                             imm, addr_ix)
# the accumulator cell is drawn as a nonzero offset from the counter so
# the two never collide (a shared cell would make the loop immortal)
snip_loop = st.tuples(st.just("loop"), st.integers(1, 5), addr_ix,
                      st.integers(1, RAM_WORDS - 1))
snip_emit = st.tuples(st.just("emit"), st.integers(1, 5), operand,
                      st.integers(1, 6))
snip_plain = st.tuples(st.just("plain"), addr_ix, addr_ix)
# indirect store: the address is in RAM except when the last draw is 0
snip_sti = st.tuples(st.just("sti"), imm, addr_ix, st.integers(0, 7))

# a value left on the stack across a jump target: the block at the
# target starts by consuming a stack entry
snip_carry = st.tuples(st.just("carry"), imm, addr_ix, addr_ix)
# stack shuffles and unary ops inside one run
snip_shuffle = st.tuples(st.just("shuffle"), addr_ix, addr_ix, addr_ix)
# a store, then an indirect load of the same or another cell (outside
# RAM when the last draw is 0)
snip_ldi = st.tuples(st.just("ldi"), imm, addr_ix, addr_ix, addr_ix,
                     st.integers(0, 7))
# an increment, then a divide by a RAM cell (often still 0) in one run
snip_div_after_store = st.tuples(st.just("div_after_store"), addr_ix,
                                 addr_ix, addr_ix,
                                 st.sampled_from(("DIV", "MOD")))

# a cell swap, then a branch on a cell's old value that the same run
# overwrites: stored values and the condition must be read before the
# run's stores commit
snip_reorder = st.tuples(st.just("reorder"), addr_ix, addr_ix, imm,
                         st.booleans())

snippets = st.lists(
    st.one_of(snip_alu_store, snip_const_store, snip_move, snip_cmp_branch,
              snip_load_branch, snip_loop, snip_emit, snip_plain, snip_sti,
              snip_carry, snip_shuffle, snip_ldi, snip_div_after_store,
              snip_reorder),
    min_size=1, max_size=8,
)


def emit_operand(asm, opnd, nonzero_fallback=None):
    is_load, ix, value = opnd
    if is_load and nonzero_fallback is None:
        asm.emit("LOAD", RAM_BASE + ix)
    else:
        if nonzero_fallback is not None:
            value = nonzero_fallback
        asm.emit("PUSH", value)


def assemble_program(snips):
    """Lower a snippet list to codegen-shaped stack code ending in HALT."""
    asm = Assembler()
    for snip in snips:
        kind = snip[0]
        if kind == "alu_store":
            _, a, b, alu, y, safe = snip
            emit_operand(asm, a)
            # divides get a guaranteed-nonzero immediate divisor here;
            # zero-divisor fault parity has its own deterministic tests
            emit_operand(asm, b,
                         nonzero_fallback=safe if alu in ("DIV", "MOD")
                         else None)
            asm.emit(alu)
            asm.emit("STORE", RAM_BASE + y)
        elif kind == "const_store":
            _, value, y = snip
            asm.emit("PUSH", value)
            asm.emit("STORE", RAM_BASE + y)
        elif kind == "move":
            _, a, y = snip
            asm.emit("LOAD", RAM_BASE + a)
            asm.emit("STORE", RAM_BASE + y)
        elif kind == "cmp_branch":
            _, a, b, cmp, on_zero, value, y = snip
            skip = asm.fresh_label("skip")
            emit_operand(asm, a)
            emit_operand(asm, b)
            asm.emit(cmp)
            asm.emit_jump("JZ" if on_zero else "JNZ", skip)
            asm.emit("PUSH", value)
            asm.emit("STORE", RAM_BASE + y)
            asm.label(skip)
        elif kind == "load_branch":
            _, a, on_zero, value, y = snip
            skip = asm.fresh_label("skip")
            asm.emit("LOAD", RAM_BASE + a)
            asm.emit_jump("JZ" if on_zero else "JNZ", skip)
            asm.emit("PUSH", value)
            asm.emit("STORE", RAM_BASE + y)
            asm.label(skip)
        elif kind == "loop":
            _, count, counter, y_offset = snip
            y = (counter + y_offset) % RAM_WORDS
            top = asm.fresh_label("top")
            asm.emit("PUSH", count)
            asm.emit("STORE", RAM_BASE + counter)
            asm.label(top)
            asm.emit("LOAD", RAM_BASE + y)
            asm.emit("PUSH", 1)
            asm.emit("ADD")
            asm.emit("STORE", RAM_BASE + y)
            asm.emit("LOAD", RAM_BASE + counter)
            asm.emit("PUSH", 1)
            asm.emit("SUB")
            asm.emit("STORE", RAM_BASE + counter)
            asm.emit("LOAD", RAM_BASE + counter)
            asm.emit_jump("JNZ", top)
        elif kind == "emit":
            _, path_id, value, cmd_kind = snip
            asm.emit("PUSH", path_id)
            emit_operand(asm, value)
            asm.emit("EMIT", cmd_kind)
        elif kind == "sti":
            _, value, y, in_ram = snip
            asm.emit("PUSH", value)
            asm.emit("PUSH", RAM_BASE + (y if in_ram else RAM_WORDS + y))
            asm.emit("STI")
        elif kind == "carry":
            _, value, a, y = snip
            target = asm.fresh_label("carry")
            asm.emit("PUSH", value)
            asm.emit_jump("JMP", target)
            asm.label(target)
            asm.emit("LOAD", RAM_BASE + a)
            asm.emit("ADD")
            asm.emit("STORE", RAM_BASE + y)
        elif kind == "shuffle":
            _, a, b, y = snip
            asm.emit("LOAD", RAM_BASE + a)
            asm.emit("LOAD", RAM_BASE + b)
            asm.emit("SWAP")
            asm.emit("DUP")
            asm.emit("POP")
            asm.emit("SUB")
            asm.emit("NEG")
            asm.emit("DUP")
            asm.emit("MUL")
            asm.emit("STORE", RAM_BASE + y)
        elif kind == "ldi":
            _, value, a, b, y, in_ram = snip
            asm.emit("PUSH", value)
            asm.emit("STORE", RAM_BASE + a)
            asm.emit("PUSH", RAM_BASE + (b if in_ram else RAM_WORDS + b))
            asm.emit("LDI")
            asm.emit("STORE", RAM_BASE + y)
        elif kind == "div_after_store":
            _, x, d, y, alu = snip
            asm.emit("LOAD", RAM_BASE + x)
            asm.emit("PUSH", 1)
            asm.emit("ADD")
            asm.emit("STORE", RAM_BASE + x)
            asm.emit("LOAD", RAM_BASE + x)
            asm.emit("LOAD", RAM_BASE + d)
            asm.emit(alu)
            asm.emit("STORE", RAM_BASE + y)
        elif kind == "reorder":
            _, a, b, value, on_zero = snip
            skip = asm.fresh_label("skip")
            asm.emit("LOAD", RAM_BASE + a)
            asm.emit("LOAD", RAM_BASE + b)
            asm.emit("STORE", RAM_BASE + a)
            asm.emit("STORE", RAM_BASE + b)
            asm.emit("LOAD", RAM_BASE + a)
            asm.emit("PUSH", value)
            asm.emit("STORE", RAM_BASE + a)
            asm.emit_jump("JZ" if on_zero else "JNZ", skip)
            asm.emit("PUSH", 1)
            asm.emit("STORE", RAM_BASE + b)
            asm.label(skip)
        else:  # plain filler
            _, a, y = snip
            asm.emit("LOAD", RAM_BASE + a)
            asm.emit("NOT")
            asm.emit("DUP")
            asm.emit("POP")
            asm.emit("STORE", RAM_BASE + y)
    asm.emit("HALT")
    return asm.assemble()


# -- lockstep properties -----------------------------------------------------

class HandlerRaised(Exception):
    """Raised by :class:`Recorder` at its chosen call."""


class Recorder:
    """An emit handler recording what it sees of the machine on every
    call: cycles, stack, RAM and the emit log; it raises on call
    number *raise_at* (0: never)."""

    def __init__(self, cpu, raise_at=0):
        self.cpu = cpu
        self.raise_at = raise_at
        self.seen = []
        cpu.emit_handler = self

    def __call__(self, kind, path_id, value):
        cpu = self.cpu
        self.seen.append((kind, path_id, value, cpu.cycles, list(cpu.stack),
                          list(cpu.memory.cells), list(cpu.emit_log)))
        if len(self.seen) == self.raise_at:
            raise HandlerRaised(len(self.seen))


#: the two routes of the lockstep: block rows, and the checked loop (a
#: profile sends every instruction through ``_step``)
ROUTES = (False, True)


def lockstep(code, chunks=(), raise_at=0, **build_args):
    """Block rows and the checked loop through the same budget chunks,
    then to the end: one outcome, one machine state and one handler
    record at every stop, or the assertion fails. Returns the
    outcomes."""
    cpus = [build(code, **build_args) for _ in ROUTES]
    recorders = [Recorder(cpu, raise_at) for cpu in cpus]
    outcomes = []
    for limit in list(chunks) + [RUN_LIMIT]:
        step = []
        for cpu, checked in zip(cpus, ROUTES):
            try:
                step.append(run_route(cpu, limit, reference=checked))
            except HandlerRaised as raised:
                step.append(("raised", raised.args))
        assert step[0] == step[1]
        assert snap(cpus[0]) == snap(cpus[1])
        assert recorders[0].seen == recorders[1].seen
        outcomes.append(step[0])
        if cpus[0].halted or step[0][0] in ("fault", "raised"):
            break
    return outcomes


class TestLockstepProperties:
    @settings(max_examples=60, deadline=None)
    @given(snips=snippets)
    def test_fused_equals_unfused_to_halt(self, snips):
        """Blocks == checked, handler observations included."""
        lockstep(assemble_program(snips))

    @settings(max_examples=40, deadline=None)
    @given(snips=snippets,
           chunks=st.lists(st.integers(1, 7), min_size=1, max_size=24))
    def test_budget_stops_mid_sequence_are_identical(self, snips, chunks):
        """LIMIT landing anywhere — including inside a block — must
        decompose to a legal pc with identical counters, and resuming
        from that (possibly interior) pc must stay in lockstep."""
        lockstep(assemble_program(snips), chunks)

    @settings(max_examples=40, deadline=None)
    @given(snips=snippets, raise_at=st.integers(1, 3),
           depth=st.integers(1, 6))
    def test_raising_handler_and_shallow_stacks_are_identical(
            self, snips, raise_at, depth):
        """A handler that raises leaves pc, counters, stack and cells as
        the checked loop does; stack depths from 1 up put block headroom
        checks on both sides of the limit."""
        lockstep(assemble_program(snips), raise_at=raise_at, depth=depth)

    @settings(max_examples=40, deadline=None)
    @given(snips=snippets, last=snip_emit)
    @example(snips=[("const_store", 1, 0)],
             last=("emit", 2, (False, 0, 7), 3))
    def test_handler_raising_at_the_folded_closing_emit(self, snips, last):
        """Every program ends in an emit snippet, so its closing
        ``EMIT; HALT`` is one block, and the handler raises on the last
        command the checked loop sees: on a run that gets there, that is
        the folded ``EMIT``, which both routes leave unhalted."""
        code = assemble_program(snips + [last])
        probe = build(code)
        head = max(start for start, _ in block_spans(probe._brows))
        assert probe._brows[head][1][6] == blocks_module.TAIL_EMIT_HALT
        recorder = Recorder(probe)
        run_guarded(probe, checked=True)
        outcomes = lockstep(code, raise_at=len(recorder.seen))
        if probe.halted:
            assert outcomes[-1][0] == "raised"

    @settings(max_examples=40, deadline=None)
    @given(snips=snippets, data=st.data())
    def test_watched_run_matches_unwatched_fast_run(self, snips, data):
        """Watched stores at random addresses, their stop pcs possibly
        inside a block: at every budget stop the watched route, the
        checked loop and an unwatched fast run through the same budgets
        observe the same machine."""
        code = assemble_program(snips)
        watched = data.draw(watch_strategy(code))
        chunks = data.draw(st.lists(st.integers(1, 7), max_size=24))
        route, reference, fast = (build(code) for _ in range(3))
        Watcher(route, watched)
        Watcher(reference, watched)
        for limit in chunks + [RUN_LIMIT]:
            outcome = run_route(route, limit, reference=False)
            assert outcome == run_route(reference, limit, reference=True)
            assert outcome == run_route(fast, limit, reference=False)
            assert snap(route) == snap(reference) == snap(fast)
            if route.halted or outcome[0] == "fault":
                break
        assert route.halted or outcome[0] == "fault"

    @settings(max_examples=25, deadline=None)
    @given(snips=snippets)
    def test_checked_one_instruction_budgets_match_blocks(self, snips):
        """The checked loop one instruction at a time == block runs of
        budget 1 (every block of more than one row decomposes), at
        every architectural stop."""
        code = assemble_program(snips)
        checked = build(code)
        fused = build(code)
        for _ in range(RUN_LIMIT):
            step = run_route(checked, 1, reference=True)
            assert step == run_route(fused, 1, reference=False)
            assert snap(checked) == snap(fused)
            if checked.halted or step[0] == "fault":
                break


# -- signed division and remainder ----------------------------------------------

#: int32 operands where truncation, sign and overflow rules bite
DIV_EDGES = (INT_MIN, INT_MIN + 1, -7, -3, -2, -1, 0, 1, 2, 3, 7,
             INT_MAX - 1, INT_MAX)
#: cells outside int32 (a backdoor poke can leave one): wrap32 must still
#: match intmath exactly
WIDE_CELLS = (INT_MAX + 1, INT_MIN - 1, 2 ** 40 + 3, -(2 ** 40) - 5)

div_operand = st.tuples(st.booleans(), addr_ix, st.sampled_from(DIV_EDGES))
div_snip = st.tuples(st.sampled_from(("DIV", "MOD")),
                     st.sampled_from(("store", "branch", "plain")),
                     div_operand, div_operand, addr_ix)


def assemble_divisions(snips):
    """DIV/MOD feeding a store, feeding a branch, and after a SWAP pair
    (the shape the old superinstructions left plain)."""
    asm = Assembler()
    for alu, form, a, b, y in snips:
        emit_operand(asm, a)
        emit_operand(asm, b)
        if form == "plain":
            asm.emit("SWAP")
            asm.emit("SWAP")
        if form == "branch":
            skip = asm.fresh_label("skip")
            asm.emit(alu)
            asm.emit_jump("JZ", skip)
            asm.emit("PUSH", 1)
            asm.emit("STORE", RAM_BASE + y)
            asm.label(skip)
        else:
            asm.emit(alu)
            asm.emit("STORE", RAM_BASE + y)
    asm.emit("HALT")
    return asm.assemble()


def division_lockstep(code, cells):
    """Block and checked (``_step``, i.e. ``intmath``) runs of *code*
    over RAM preloaded with *cells*: one outcome and one machine state,
    or the assertion fails."""
    runs = []
    for checked in ROUTES:
        cpu = build(code)
        cpu.memory.cells[:] = cells
        runs.append((run_route(cpu, RUN_LIMIT, reference=checked),
                     snap(cpu)))
    assert runs[0] == runs[1]
    return runs[0]


class TestSignedDivisionLockstep:
    """The blocks' inline signed division and remainder against the
    checked loop's :func:`~repro.util.intmath.sdiv` / ``smod``."""

    @settings(max_examples=150, deadline=None)
    @given(st.lists(div_snip, min_size=1, max_size=6),
           st.lists(st.sampled_from(DIV_EDGES + WIDE_CELLS),
                    min_size=RAM_WORDS, max_size=RAM_WORDS))
    def test_fused_plain_and_checked_agree(self, snips, cells):
        division_lockstep(assemble_divisions(snips), cells)

    @pytest.mark.parametrize("form", ["store", "branch", "plain"])
    @pytest.mark.parametrize("alu", ["DIV", "MOD"])
    def test_every_sign_pair_and_int_min_over_minus_one(self, alu, form):
        cells = [0] * RAM_WORDS
        for a in DIV_EDGES:
            for b in DIV_EDGES:
                if b == 0:
                    continue
                code = assemble_divisions(
                    [(alu, form, (False, 0, a), (False, 0, b), 1)])
                outcome, state = division_lockstep(code, cells)
                assert outcome[0] is StopReason.HALTED
                expected = sdiv(a, b) if alu == "DIV" else smod(a, b)
                if form != "branch":
                    assert state["ram"][1] == expected, (a, b)
        code = assemble_divisions(
            [(alu, form, (False, 0, INT_MIN), (False, 0, -1), 1)])
        _, state = division_lockstep(code, cells)
        if form != "branch":
            assert state["ram"][1] == (INT_MIN if alu == "DIV" else 0)

    @pytest.mark.parametrize("value", DIV_EDGES + WIDE_CELLS)
    def test_negation_edges_agree(self, value):
        """NEG wraps only -INT_MIN (and wider cells) to INT_MIN, in a
        block and in the checked loop alike."""
        cells = [value] + [0] * (RAM_WORDS - 1)
        code = [Instr("LOAD", RAM_BASE), Instr("NEG"),
                Instr("STORE", RAM_BASE + 1), Instr("HALT")]
        _, state = division_lockstep(code, cells)
        assert state["ram"][1] == (INT_MIN if -value > INT_MAX else -value)

    @pytest.mark.parametrize("form", ["store", "branch", "plain"])
    @pytest.mark.parametrize("alu", ["DIV", "MOD"])
    def test_zero_divisor_from_ram_decomposes_and_traps(self, alu, form):
        """A block that meets a zero divisor decomposes, so the trap
        surfaces at the divide's own pc with the checked counters."""
        cells = [0] * RAM_WORDS
        code = assemble_divisions(
            [(alu, form, (False, 0, INT_MIN), (True, 3, 0), 1)])
        outcome, state = division_lockstep(code, cells)
        reason = "division by zero" if alu == "DIV" else "modulo by zero"
        divide_pc = next(pc for pc, instr in enumerate(code)
                         if instr.op == alu)
        assert outcome == ("fault", TargetFault, reason, divide_pc)
        assert state["instr"] == divide_pc + 1


# -- watched stores as stop pcs -----------------------------------------------

class Watcher:
    """Records what a data watchpoint sees, like ``SourceDebugger``:
    every hook call as (pc, cycles, value, previous)."""

    def __init__(self, cpu, addrs):
        self.cpu = cpu
        self.hits = []
        self.shadow = {addr: cpu.memory.peek(addr)
                       for addr in addrs if cpu.memory.contains(addr)}
        cpu.memory.set_write_hook(self.hook, addrs)

    def hook(self, addr, value):
        self.hits.append((addr, self.cpu.pc, self.cpu.cycles, value,
                          self.shadow.get(addr)))
        self.shadow[addr] = value


def run_route(cpu, limit, reference):
    """One run on the block rows (the stop-pc route when anything is
    watched), or on the checked reference loop (a profile sends every
    instruction through ``_step``)."""
    try:
        result = cpu.run(max_instructions=limit,
                         profile={} if reference else None)
        return (result.reason, result.instructions, result.cycles)
    except TargetFault as fault:
        return ("fault", type(fault), fault.reason, fault.pc)


def store_targets(code):
    """Addresses the program stores to: STORE operands (destinations,
    loop counters) and the immediates fed to STI."""
    targets = {instr.arg for instr in code if instr.op == "STORE"}
    for i, instr in enumerate(code):
        if instr.op == "STI" and i and code[i - 1].op == "PUSH":
            targets.add(code[i - 1].arg)
    return sorted(targets)


def watch_strategy(code):
    ram = addr_ix.map(lambda ix: RAM_BASE + ix)
    targets = store_targets(code)
    choice = st.one_of(st.sampled_from(targets), ram) if targets else ram
    return st.lists(choice, min_size=1, max_size=4, unique=True)


def drive_in_lockstep(code, watched, chunks, entries=None):
    """Run the stop-pc route and the checked reference through the same
    budget chunks (then to the end), stop for stop; returns the route's
    watch hits."""
    route, reference = build(code, entries), build(code, entries)
    watchers = [Watcher(route, watched), Watcher(reference, watched)]
    budgets = list(chunks) + [RUN_LIMIT] * RUN_LIMIT
    for limit in budgets:
        outcome = run_route(route, limit, reference=False)
        assert outcome == run_route(reference, limit, reference=True)
        assert snap(route) == snap(reference)
        assert watchers[0].hits == watchers[1].hits
        if route.halted or outcome[0] == "fault":
            return watchers[0].hits
    raise AssertionError("program did not finish")


class TestWatchLockstep:
    @settings(max_examples=80, deadline=None)
    @given(snips=snippets, data=st.data())
    def test_watched_stores_match_checked_loop(self, snips, data):
        code = assemble_program(snips)
        watched = data.draw(watch_strategy(code))
        chunks = data.draw(st.lists(st.integers(1, 7), max_size=24))
        drive_in_lockstep(code, watched, chunks)

    @settings(max_examples=30, deadline=None)
    @given(snips=snippets, data=st.data())
    def test_watched_stores_match_checked_loop_unfused(self, snips, data):
        """Every pc declared a task entry, so every block is one row
        (the finest decoding) and the trapped rows split nothing."""
        code = assemble_program(snips)
        watched = data.draw(watch_strategy(code))
        chunks = data.draw(st.lists(st.integers(1, 7), max_size=12))
        drive_in_lockstep(code, watched, chunks, entries=range(len(code)))

    def test_every_budget_lands_in_lockstep(self):
        """Budgets of 1..N land on every pc once: on the watched store
        and inside the blocks split around it."""
        code = counting_loop(4)
        total = build(code).run().instructions
        for limit in range(1, total + 1):
            hits = drive_in_lockstep(code, [RAM_BASE], [limit])
            assert [hit[3] for hit in hits] == [1, 2, 3, 4]

    def test_out_of_ram_sti_faults_identically(self):
        code = [Instr("PUSH", 3), Instr("PUSH", RAM_BASE + RAM_WORDS),
                Instr("STI"), Instr("HALT")]
        route, reference = build(code), build(code)
        Watcher(route, [RAM_BASE])
        Watcher(reference, [RAM_BASE])
        outcome = run_route(route, RUN_LIMIT, reference=False)
        assert outcome == ("fault", TargetFault,
                           f"memory access outside RAM: "
                           f"0x{RAM_BASE + RAM_WORDS:08x}", 2)
        assert outcome == run_route(reference, RUN_LIMIT, reference=True)
        assert snap(route) == snap(reference)


def firmware_jobs_in_lockstep(system, watches, change_symbol):
    """Every task job of *system*'s firmware, 25 rounds, under a
    ``SourceDebugger`` holding the requirement watches plus an any-change
    watch on *change_symbol*: stop-pc route vs the checked loop."""
    firmware = generate_firmware(system, InstrumentationPlan.full())
    boards = [Board(), Board()]
    debuggers = []
    for board in boards:
        board.load_firmware(firmware)
        debugger = SourceDebugger(board, firmware)
        for symbol, predicate, description in watches:
            debugger.watch(symbol, predicate, description)
        debugger.watch(change_symbol)
        debuggers.append(debugger)
    route, reference = boards
    for _ in range(25):
        for task in firmware.entries:
            entry = firmware.entry_of(task)
            route.cpu.reset_task(entry)
            reference.cpu.reset_task(entry)
            assert route.cpu.run() == reference.cpu.run(profile={})
            assert snap(route.cpu) == snap(reference.cpu)
    hits = [[(hit.watchpoint.symbol, hit.pc, hit.cycles, hit.value,
              hit.previous) for hit in debugger.hits]
            for debugger in debuggers]
    assert hits[0] == hits[1]
    return hits[0]


class TestFirmwareWatchParity:
    def test_cruise_code_watches(self):
        hits = firmware_jobs_in_lockstep(
            cruise_control_system(), cruise_code_watches(), "plant.out.speed")
        assert hits

    def test_traffic_light_code_watches(self):
        hits = firmware_jobs_in_lockstep(
            traffic_light_system(), traffic_light_code_watches(),
            "lights.lamp.$t")
        assert hits


# -- deterministic edges ----------------------------------------------------

def counting_loop(iterations):
    asm = Assembler()
    asm.label("top")
    asm.emit("LOAD", RAM_BASE)
    asm.emit("PUSH", 1)
    asm.emit("ADD")
    asm.emit("STORE", RAM_BASE)
    asm.emit("LOAD", RAM_BASE)
    asm.emit("PUSH", iterations)
    asm.emit("LT")
    asm.emit_jump("JNZ", "top")
    asm.emit("HALT")
    return asm.assemble()


def store_chain():
    """One straight-line run (a single block, unwatched): four
    load/add/store quads writing 1, 3, 6, 10 to cells 1..4, then HALT.
    Cell ``i + 1`` is stored at pc ``4 * i + 3``."""
    asm = Assembler()
    for i in range(4):
        asm.emit("LOAD", RAM_BASE + i)
        asm.emit("PUSH", i + 1)
        asm.emit("ADD")
        asm.emit("STORE", RAM_BASE + i + 1)
    asm.emit("HALT")
    return asm.assemble()


def block_spans(rows):
    """``(start, end)`` of every block row in *rows*."""
    return [(pc, pc + row[1][1]) for pc, row in enumerate(rows)
            if row[0] == OP_BLOCK]


#: a task's closing command: PUSH path, PUSH value, EMIT, HALT
EMIT_HALT = [Instr("PUSH", 1), Instr("PUSH", 9), Instr("EMIT", 2),
             Instr("HALT")]


class TestFusionPass:
    """Block formation: which runs ``Cpu.load`` compiles into block rows
    (fusion, in the sense of one dispatch for many instructions)."""

    def test_counting_loop_fuses_to_two_rows(self):
        # the loop body is one block ending at its JNZ; the HALT after
        # it, a run of one row, is a block of its own
        cpu = build(counting_loop(10))
        assert cpu.block_rows == 2
        assert block_spans(cpu._brows) == [(0, 8), (8, 9)]

    def test_no_fusion_spans_a_jump_target(self):
        # JMP 4 lands inside what would otherwise be one run: PUSH 9
        # alone is a one-row block and a block starts at the target
        code = [Instr("PUSH", 1), Instr("STORE", RAM_BASE),
                Instr("JMP", 4), Instr("PUSH", 9),
                Instr("STORE", RAM_BASE + 1), Instr("HALT")]
        cpu = build(code)
        assert block_spans(cpu._brows) == [(0, 3), (3, 4), (4, 6)]
        blocks_match_checked(code)

    def test_fusing_at_a_jump_target_is_allowed(self):
        cpu = build(counting_loop(10))
        assert cpu._brows[0][0] == OP_BLOCK  # loop head compiled

    def test_no_fusion_spans_a_task_entry(self):
        code = [Instr("LOAD", RAM_BASE), Instr("LOAD", RAM_BASE + 1),
                Instr("ADD"), Instr("STORE", RAM_BASE + 2), Instr("HALT")]
        assert block_spans(build(code)._brows) == [(0, 5)]
        cpu = build(code, entries=[2])
        assert block_spans(cpu._brows) == [(0, 2), (2, 5)]

    def test_undeclared_entry_mid_sequence_executes_plain_rows(self):
        code = [Instr("LOAD", RAM_BASE), Instr("LOAD", RAM_BASE + 1),
                Instr("ADD"), Instr("STORE", RAM_BASE + 2), Instr("HALT")]
        fused, checked = build(code), build(code)
        for cpu in (fused, checked):
            cpu.memory.poke(RAM_BASE + 1, 7)
            cpu.reset_task(2)        # interior pc of the block
        # both underflow identically: ADD with an empty stack
        assert run_guarded(fused) == run_guarded(checked, checked=True) == (
            "fault", ("stack underflow", 2))
        assert snap(fused) == snap(checked)

    def test_invalid_branch_target_is_not_fused(self):
        code = [Instr("LOAD", RAM_BASE), Instr("JNZ", 99), Instr("HALT")]
        cpu = build(code)
        assert block_spans(cpu._brows) == [(0, 1), (2, 3)]
        assert cpu._brows[1] == cpu._rows[1]
        fused, checked = build(code), build(code)
        fused.memory.poke(RAM_BASE, 1)
        checked.memory.poke(RAM_BASE, 1)
        assert run_guarded(fused) == run_guarded(checked, checked=True) == (
            "fault", ("jump target 99 outside code", 1))
        assert snap(fused) == snap(checked)

    def test_emit_triple_fuses_both_value_modes(self):
        # PUSH ch; PUSH v; EMIT and PUSH ch; LOAD v; EMIT each end a
        # block of their own, the second with the closing HALT folded in
        code = [Instr("PUSH", 1), Instr("PUSH", 9), Instr("EMIT", 2),
                Instr("PUSH", 3), Instr("LOAD", RAM_BASE), Instr("EMIT", 4),
                Instr("HALT")]
        assert block_spans(build(code)._brows) == [(0, 3), (3, 7)]
        fused, _ = blocks_match_checked(code)
        assert fused.emit_log == [(2, 1, 9), (4, 3, 0)]

    def test_emit_triple_does_not_span_a_branch_target(self):
        # JMP 2 lands on the LOAD inside the would-be triple
        code = [Instr("JMP", 2), Instr("PUSH", 1), Instr("LOAD", RAM_BASE),
                Instr("EMIT", 2), Instr("HALT")]
        cpu = build(code)
        assert block_spans(cpu._brows) == [(0, 1), (1, 2), (2, 5)]
        _, outcome = blocks_match_checked(code)
        assert outcome == ("fault", ("stack underflow", 3))


class TestHaltFold:
    """A task's closing ``EMIT; HALT`` is one block: the handler runs at
    the ``EMIT``'s pc with cycles through the ``EMIT``, and the machine
    halts after it returns, exactly as on the checked loop. (A handler
    raising at a folded ``EMIT`` is in
    ``TestDecomposeEdges.test_raising_handler_leaves_plain_state``.)"""

    def test_emit_halt_is_one_block(self):
        cpu = build(EMIT_HALT)
        assert block_spans(cpu._brows) == [(0, 4)]
        assert cpu._brows[0][1][6] == blocks_module.TAIL_EMIT_HALT
        recorder = Recorder(cpu)
        assert cpu.run() == (StopReason.HALTED, 4,
                             sum(row[2] for row in cpu._rows))
        assert (cpu.pc, cpu.halted) == (4, True)
        # the handler saw the EMIT's charge, not the HALT's
        assert recorder.seen[0][3] == sum(row[2] for row in cpu._rows[:3])
        lockstep(EMIT_HALT)

    def test_budget_between_emit_and_halt(self):
        """A budget of 3 retires the EMIT and stops before the HALT,
        unhalted, as the checked loop does; resuming halts. (Every
        other budget is in ``test_emit_triple_budget_decompose``.)"""
        outcomes = lockstep(EMIT_HALT, chunks=[3])
        cycles = sum(row[2] for row in build(EMIT_HALT)._rows[:3])
        assert outcomes == [(StopReason.LIMIT, 3, cycles),
                            (StopReason.HALTED, 1, 1)]
        cpu = build(EMIT_HALT)
        Recorder(cpu)
        cpu.run(max_instructions=3)
        assert (cpu.pc, cpu.instructions, cpu.cycles, cpu.halted) == (
            3, 3, cycles, False)
        assert len(cpu.emit_log) == 1

    def test_no_fold_when_the_halt_is_a_jump_target(self):
        # JNZ 5 targets the HALT: the EMIT block ends at the EMIT
        code = [Instr("LOAD", RAM_BASE), Instr("JNZ", 5)] + EMIT_HALT
        assert block_spans(build(code)._brows) == [(0, 2), (2, 5), (5, 6)]
        rows = build(code)._rows
        # the JNZ falls through: a budget of 4 stops before the EMIT
        assert lockstep(code, chunks=[4]) == [
            (StopReason.LIMIT, 4, sum(row[2] for row in rows[:4])),
            (StopReason.HALTED, 2, rows[4][2] + rows[5][2])]

    def test_no_fold_when_the_halt_is_a_task_entry(self):
        cpu = build(EMIT_HALT, entries=[3])
        assert block_spans(cpu._brows) == [(0, 3), (3, 4)]
        lockstep(EMIT_HALT, entries=[3])
        lockstep(EMIT_HALT, raise_at=1, entries=[3])


class TestBlockFormation:
    def test_unsafe_rows_end_a_block_and_stay_plain(self):
        # STI (dynamic address) and a LOAD outside RAM are never compiled
        code = [Instr("PUSH", 5), Instr("PUSH", RAM_BASE), Instr("STI"),
                Instr("PUSH", 1), Instr("PUSH", 2), Instr("ADD"),
                Instr("LOAD", RAM_BASE + RAM_WORDS), Instr("HALT")]
        cpu = build(code)
        assert block_spans(cpu._brows) == [(0, 2), (3, 6), (7, 8)]
        assert cpu._brows[2] == cpu._rows[2]
        assert cpu._brows[6] == cpu._rows[6]

    def test_ram_size_is_part_of_the_decode(self):
        # the same program on a smaller RAM leaves the far store plain
        code = [Instr("PUSH", 1), Instr("STORE", RAM_BASE + 8),
                Instr("HALT")]
        assert block_spans(build(code, ram=12)._brows) == [(0, 3)]
        small = build(code, ram=4)
        assert block_spans(small._brows) == [(0, 1), (2, 3)]
        _, outcome = blocks_match_checked(code, ram=4)
        assert outcome[0] == "fault"

    def test_block_row_charges_static_counts(self):
        cpu = build(counting_loop(10))
        op, (fn, count, need, peak, nread, nwrite, tail), cycles = \
            cpu._brows[0]
        assert (count, need, peak, nread, nwrite) == (8, 0, 2, 2, 1)
        assert cycles == sum(row[2] for row in cpu._rows[:8])

    def test_generated_code_binds_ints_only_without_builtins(self):
        builder = blocks_module._Builder(RAM_WORDS)
        with pytest.raises(TypeError):
            builder.k("0; import os")
        with pytest.raises(TypeError):
            builder.k(True)
        cpu = build(counting_loop(10))
        fn = cpu._brows[0][1][0]
        assert fn.__globals__ == {"__builtins__": {}}
        assert all(type(value) is int for value in fn.__defaults__)

    def test_one_template_serves_every_block_of_a_shape(self):
        # two loops that differ only in their constants share the
        # compiled template and bind their own values
        first = build(counting_loop(10))._brows[0][1][0]
        second = build(counting_loop(11))._brows[0][1][0]
        assert first is not second
        assert first.__code__ is second.__code__
        assert first.__defaults__ != second.__defaults__

    def test_swapping_two_cells_in_one_block(self):
        # each stored value reads the cell the other store writes
        code = [Instr("LOAD", RAM_BASE), Instr("LOAD", RAM_BASE + 1),
                Instr("STORE", RAM_BASE), Instr("STORE", RAM_BASE + 1),
                Instr("HALT")]
        cpu = build(code)
        assert cpu.block_rows == 1
        cpu.memory.cells[:2] = [3, 4]
        assert run_guarded(cpu)[0] is StopReason.HALTED
        assert cpu.memory.cells[:2] == [4, 3]

    def test_branch_on_a_cell_the_block_overwrites(self):
        # JZ tests the value LOADed before the STORE to the same cell
        code = [Instr("LOAD", RAM_BASE), Instr("PUSH", 0),
                Instr("STORE", RAM_BASE), Instr("JZ", 6),
                Instr("PUSH", 9), Instr("STORE", RAM_BASE + 1),
                Instr("HALT")]
        cpu = build(code)
        assert block_spans(cpu._brows)[0] == (0, 4)
        cpu.memory.cells[0] = 5
        assert run_guarded(cpu)[0] is StopReason.HALTED
        assert cpu.memory.cells[:2] == [0, 9]

    def test_block_caches_are_bounded(self, monkeypatch):
        for memo in ("_BLOCKS", "_TEMPLATES"):
            monkeypatch.setattr(blocks_module, memo, OrderedDict())
        monkeypatch.setattr(blocks_module, "_BLOCKS_LIMIT", 8)
        monkeypatch.setattr(blocks_module, "_TEMPLATES_LIMIT", 4)
        for size in range(2, 14):
            # size pushes, size pops: one block of a new shape each
            build([Instr("PUSH", size)] * size + [Instr("POP")] * size
                  + [Instr("HALT")])
        assert len(blocks_module._BLOCKS) <= 8
        assert len(blocks_module._TEMPLATES) <= 4


class TestDecomposeEdges:
    def test_divide_by_zero_fault_is_identical(self):
        code = [Instr("LOAD", RAM_BASE), Instr("PUSH", 0), Instr("DIV"),
                Instr("STORE", RAM_BASE + 1), Instr("HALT")]
        assert build(code).block_rows == 1
        _, outcome = blocks_match_checked(code)
        assert outcome == ("fault", ("division by zero", 2))

    def test_transient_stack_overflow_is_identical(self):
        code = [Instr("PUSH", 7), Instr("LOAD", RAM_BASE),
                Instr("LOAD", RAM_BASE + 1), Instr("ADD"),
                Instr("STORE", RAM_BASE + 2), Instr("HALT")]
        assert build(code, depth=2).block_rows == 1
        _, outcome = blocks_match_checked(code, depth=2)
        assert outcome == ("fault", ("stack overflow", 2))

    def test_store_outside_ram_fault_is_identical(self):
        code = [Instr("LOAD", RAM_BASE), Instr("PUSH", 1), Instr("ADD"),
                Instr("STORE", RAM_BASE - 1), Instr("HALT")]
        assert block_spans(build(code)._brows) == [(0, 3), (4, 5)]
        _, outcome = blocks_match_checked(code)
        assert outcome[0] == "fault" and outcome[1][1] == 3

    def test_limit_mid_quad_stops_on_legal_unfused_pc(self):
        code = counting_loop(10)
        for limit in range(1, 12):
            fused, checked = build(code), build(code)
            fused.run(max_instructions=limit)
            checked.run(max_instructions=limit, profile={})
            assert snap(fused) == snap(checked)
            assert 0 <= fused.pc < len(code)
            # and resuming completes in lockstep
            fused.run()
            checked.run(profile={})
            assert snap(fused) == snap(checked)

    def test_emit_triple_budget_decompose(self):
        # LIMIT landing on any interior instruction of the command
        # preamble must decompose to a legal pc and resume clean
        assert build(EMIT_HALT).block_rows == 1
        for limit in range(1, 5):
            lockstep(EMIT_HALT, chunks=[limit])

    def test_emit_triple_transient_overflow_decompose(self):
        # depth 1: the preamble's two pushes cannot both fit, so the
        # block must decompose and fault exactly like the checked loop
        assert build(EMIT_HALT, depth=1).block_rows == 1
        _, outcome = blocks_match_checked(EMIT_HALT, depth=1)
        assert outcome == ("fault", ("stack overflow", 1))

    def test_emit_handler_observes_identical_cycles(self):
        asm = Assembler()
        asm.emit("PUSH", 3)          # a pair feeding the emit value
        asm.emit("STORE", RAM_BASE)
        asm.emit("PUSH", 1)          # path id
        asm.emit("LOAD", RAM_BASE)
        asm.emit("EMIT", 2)
        asm.emit("HALT")
        code = asm.assemble()
        seen = {}
        for checked in ROUTES:
            cpu = build(code)
            observed = []
            cpu.emit_handler = lambda kind, pid, value: observed.append(
                (kind, pid, value, cpu.cycles))
            cpu.run(profile={} if checked else None)
            seen[checked] = observed
        assert seen[True] == seen[False]

    def test_budget_inside_a_block_resumes_at_interior_pc(self):
        code = counting_loop(3)
        for limit in range(1, 8):
            outcomes = lockstep(code, chunks=[limit])
            assert outcomes[0] == (StopReason.LIMIT, limit, sum(
                row[2] for row in build(code)._rows[:limit]))
            stopped = build(code)
            stopped.run(max_instructions=limit)
            assert stopped.pc == limit  # an interior pc of the block

    def test_stack_underflow_at_block_entry(self):
        # the block at pc 1 needs two stack entries and finds one
        code = [Instr("JMP", 1), Instr("ADD"), Instr("STORE", RAM_BASE),
                Instr("HALT")]
        assert build(code)._brows[1][1][2] == 2
        fused, checked = build(code), build(code)
        fused.stack.append(4)
        checked.stack.append(4)
        assert run_guarded(fused) == run_guarded(checked, checked=True) == (
            "fault", ("stack underflow", 1))
        assert snap(fused) == snap(checked)

    @pytest.mark.parametrize("depth", [2, 3, 4])
    def test_headroom_exactly_at_stack_depth(self, depth):
        # one value carried in, then a block that pushes two more: fits
        # at depth 3 exactly, overflows at 2 on the second LOAD
        code = [Instr("PUSH", 5), Instr("JMP", 2), Instr("LOAD", RAM_BASE),
                Instr("LOAD", RAM_BASE + 1), Instr("ADD"), Instr("ADD"),
                Instr("STORE", RAM_BASE + 2), Instr("HALT")]
        assert build(code, depth=depth)._brows[2][1][3] == 2
        outcomes = lockstep(code, depth=depth)
        if depth == 2:
            assert outcomes[-1] == ("fault", TargetFault, "stack overflow", 3)
        else:
            assert outcomes[-1][0] is StopReason.HALTED

    @pytest.mark.parametrize("alu", ["DIV", "MOD"])
    def test_zero_divisor_after_a_store_commits_nothing(self, alu):
        # an increment is stored before the divide: the block must not
        # commit it, or the checked re-execution would store it twice
        code = [Instr("LOAD", RAM_BASE), Instr("PUSH", 1), Instr("ADD"),
                Instr("STORE", RAM_BASE), Instr("PUSH", 7),
                Instr("LOAD", RAM_BASE + 1), Instr(alu),
                Instr("STORE", RAM_BASE + 2), Instr("HALT")]
        assert build(code).block_rows == 1
        reason = "division by zero" if alu == "DIV" else "modulo by zero"
        outcomes = lockstep(code)
        assert outcomes == [("fault", TargetFault, reason, 6)]
        cpu = build(code)
        run_guarded(cpu)
        assert cpu.memory.cells[0] == 1 and cpu.memory.writes == 1

    def test_emit_block_handler_sees_committed_machine(self):
        # a value below the command, a store and an EMIT in one block:
        # the handler sees the EMIT's cycles, the store, the stack left
        # below the command and the logged command
        code = [Instr("PUSH", 99), Instr("PUSH", 3),
                Instr("STORE", RAM_BASE), Instr("PUSH", 1),
                Instr("LOAD", RAM_BASE), Instr("EMIT", 2), Instr("POP"),
                Instr("HALT")]
        assert block_spans(build(code)._brows)[0] == (0, 6)
        cpu = build(code)
        recorder = Recorder(cpu)
        assert run_guarded(cpu)[0] is StopReason.HALTED
        cycles = sum(row[2] for row in cpu._rows[:6])
        assert recorder.seen == [(2, 1, 3, cycles, [99],
                                  [3] + [0] * (RAM_WORDS - 1),
                                  [(2, 1, 3)])]
        lockstep(code)

    def test_raising_handler_leaves_plain_state(self):
        # the closing EMIT; HALT folds into the block: the handler
        # raises at the EMIT, before the HALT retires
        code = [Instr("PUSH", 3), Instr("STORE", RAM_BASE),
                Instr("PUSH", 1), Instr("LOAD", RAM_BASE), Instr("EMIT", 2),
                Instr("HALT")]
        assert block_spans(build(code)._brows) == [(0, 6)]
        assert lockstep(code, raise_at=1) == [("raised", (1,))]
        cpu = build(code)
        Recorder(cpu, raise_at=1)
        with pytest.raises(HandlerRaised):
            cpu.run()
        # stopped at the EMIT, everything before it (and it) retired
        assert (cpu.pc, cpu.instructions, cpu.cycles, cpu.halted) == (
            4, 5, sum(row[2] for row in cpu._rows[:5]), False)
        assert cpu.stack == [] and cpu.memory.cells[0] == 3
        assert cpu.emit_log == [(2, 1, 3)]


class TestFirmwareIntegration:
    def test_generated_firmware_fuses_and_stays_bit_identical(self):
        """The real codegen output: block board == checked board on
        every task job, cycle for cycle."""
        firmware = generate_firmware(traffic_light_system(),
                                     InstrumentationPlan.full())
        fused_board = Board()
        checked_board = Board()
        fused_board.load_firmware(firmware)
        checked_board.load_firmware(firmware)
        assert fused_board.cpu.block_rows > 0
        for _ in range(25):
            for task in firmware.entries:
                rf = fused_board.run_task(task)
                checked_board.cpu.reset_task(firmware.entry_of(task))
                rc = checked_board.cpu.run(profile={})
                assert rf == rc
                assert snap(fused_board.cpu) == snap(checked_board.cpu)

    def test_fuse_toggle_after_load_selects_reference_loop(self):
        """Selecting the checked loop after load (``profile={}``, the
        one switch there is) never reads the block rows."""
        cpu = build(counting_loop(5))
        assert cpu.block_rows > 0
        # poisoned block rows: any fetch from them halts at once
        cpu._brows = [(OP_HALT, 0, 1)] * len(cpu._brows)
        result = cpu.run(profile={})
        blocks = build(counting_loop(5))
        assert result == blocks.run()
        assert snap(cpu) == snap(blocks)


def count_checked_runs(cpu):
    """Record the budget of every ``_run_debug`` call on *cpu*."""
    calls = []
    checked = cpu._run_debug

    def recording(limit, *args, **kwargs):
        calls.append(limit)
        return checked(limit, *args, **kwargs)
    cpu._run_debug = recording
    return calls


class TestStopRouting:
    def test_debug_stops_step_the_checked_loop_once(self):
        """A watched store costs one checked instruction per stop, never
        a checked run."""
        cpu = build(counting_loop(3))
        calls = count_checked_runs(cpu)
        Watcher(cpu, [RAM_BASE])
        assert cpu.run().reason is StopReason.HALTED
        assert calls == [1] * 3  # the three watched stores

    def test_unwatched_hook_runs_the_fast_loop_only(self):
        cpu = build(counting_loop(3))
        calls = count_checked_runs(cpu)
        Watcher(cpu, [RAM_BASE + 5])
        assert cpu.run().reason is StopReason.HALTED
        assert calls == []

    def test_profile_still_checks_every_instruction(self):
        cpu = build(counting_loop(3))
        calls = count_checked_runs(cpu)
        result = cpu.run(max_instructions=RUN_LIMIT, profile={})
        assert calls == [RUN_LIMIT]
        assert result.instructions == 3 * 8 + 1

    def test_trapped_rows_rebuild_on_load_and_watch_change(self):
        code = store_chain()
        cpu = build(code)
        memory = cpu.memory
        memory.set_write_hook(lambda addr, value: None, [RAM_BASE + 2])
        cpu.run(max_instructions=1)
        first = cpu._trap_rows
        assert first[7] == cpu._rows[7]         # the watched STORE, plain
        # the block is split around it
        assert block_spans(first) == [(0, 7), (8, 17)]
        cpu.run(max_instructions=1)
        assert cpu._trap_rows is first          # same watch set: cached
        # a new watch between runs is priced again, but no store hits
        # the new address: same stop pcs, same shared rows
        memory.set_write_hook(lambda addr, value: None,
                              [RAM_BASE + 2, RAM_BASE + 9])
        cpu.run(max_instructions=1)
        assert cpu._trap_key == {RAM_BASE + 2, RAM_BASE + 9}
        assert cpu._trap_rows is first
        # a watch on a stored cell adds a stop pc
        memory.set_write_hook(lambda addr, value: None,
                              [RAM_BASE + 2, RAM_BASE + 3])
        cpu.run(max_instructions=1)
        second = cpu._trap_rows
        assert second is not first
        assert second[11] == cpu._rows[11]
        assert block_spans(second) == [(0, 7), (8, 11), (12, 17)]
        # trapped decodings live with the decoded program: reloading it
        # (or loading it on another CPU) with the same stops shares them
        cpu.load(code)
        cpu.reset_task(0)
        cpu.run(max_instructions=1)
        assert cpu._trap_rows is second
        other = build(code)
        other.memory.set_write_hook(lambda addr, value: None,
                                    [RAM_BASE + 3, RAM_BASE + 2])
        other.run(max_instructions=1)
        assert other._trap_rows is second

    def test_code_debugger_boards_share_trapped_rows(self):
        firmware = generate_firmware(cruise_control_system(),
                                     InstrumentationPlan.full())
        trapped = []
        for _ in range(2):
            board = Board()
            board.load_firmware(firmware)
            debugger = SourceDebugger(board, firmware)
            for symbol, predicate, description in cruise_code_watches():
                debugger.watch(symbol, predicate, description)
            board.run_task(next(iter(firmware.entries)))
            trapped.append(board.cpu._trap_rows)
        assert trapped[0] is trapped[1]

    def test_two_watched_stores_inside_one_block(self):
        """A straight-line run that is one block unwatched: two watched
        stores inside it split it, and every budget stays in lockstep
        with the checked loop."""
        code = store_chain()
        assert block_spans(build(code)._brows) == [(0, 17)]
        watched = [RAM_BASE + 2, RAM_BASE + 4]
        total = build(code).run().instructions
        for limit in range(1, total + 1):
            hits = drive_in_lockstep(code, watched, [limit])
            assert [hit[3] for hit in hits] == [3, 10]
        route = build(code)
        Watcher(route, watched)
        route.run(max_instructions=1)
        assert block_spans(route._trap_rows) == [(0, 7), (8, 15), (16, 17)]

    def test_debugger_without_watchpoints_declares_nothing(self):
        firmware = generate_firmware(traffic_light_system(),
                                     InstrumentationPlan.full())
        board = Board()
        board.load_firmware(firmware)
        debugger = SourceDebugger(board, firmware)
        assert board.memory.watched == frozenset()
        debugger.watch("lights.lamp.$t")
        assert board.memory.watched == {
            firmware.symbols.addr_of("lights.lamp.$t")}

    @pytest.mark.parametrize("limit", [1, 2, 3, 4, RUN_LIMIT])
    def test_watch_inside_loop_block_stops_and_resumes(self, limit):
        """The watched ``STORE`` at interior pc 3 of the loop block:
        smaller budgets stop on legal pcs before it, the stop retires
        it on the checked loop, and the run resumes on the fast loop at
        pc 4, in lockstep with the checked reference."""
        route = build(counting_loop(3))
        reference = build(counting_loop(3))
        watchers = [Watcher(cpu, [RAM_BASE]) for cpu in (route, reference)]
        outcome = run_route(route, limit, reference=False)
        assert outcome == run_route(reference, limit, reference=True)
        assert snap(route) == snap(reference)
        assert watchers[0].hits == watchers[1].hits
        if limit == 4:
            assert route.pc == 4 and len(watchers[0].hits) == 1
        if limit == RUN_LIMIT:
            assert route.halted
            assert [hit[3] for hit in watchers[0].hits] == [1, 2, 3]


# -- decode memo ---------------------------------------------------------------

def comparable(rows):
    """*rows* with each block function replaced by its compiled
    template and bound values, so decodes compare by content."""
    return [(op, (arg[0].__code__, arg[0].__defaults__) + arg[1:], cst)
            if op == OP_BLOCK else (op, arg, cst)
            for op, arg, cst in rows]


def decoded(cpu):
    return cpu._rows, comparable(cpu._brows), cpu.block_rows


def fresh_rows(code, entries):
    """Decode *code* with the memos emptied first (the uncached path)."""
    memos = (cpu_module._DECODED, blocks_module._BLOCKS,
             blocks_module._TEMPLATES)
    saved = [dict(memo) for memo in memos]
    for memo in memos:
        memo.clear()
    try:
        cpu = Cpu(MemoryMap(4096))
        cpu.load(code, entries=entries)
        return decoded(cpu)
    finally:
        for memo, entries_before in zip(memos, saved):
            memo.clear()
            memo.update(entries_before)


def cruise_firmware():
    return generate_firmware(cruise_control_system(),
                             InstrumentationPlan.full())


class TestDecodeMemo:
    def test_boards_share_rows_equal_to_a_fresh_decode(self):
        firmware = cruise_firmware()
        first, second = Board(), Board()
        first.load_firmware(firmware)
        second.load_firmware(firmware)
        assert first.cpu._rows is second.cpu._rows
        assert first.cpu._brows is second.cpu._brows
        entries = firmware.entries.values()
        assert decoded(first.cpu) == fresh_rows(firmware.code, entries)

    def test_code_edited_in_place_never_gets_stale_rows(self):
        """A mutant that rewrites the loaded image's own list and its
        own Instr objects (instead of copying) still decodes afresh."""
        firmware = cruise_firmware()
        entries = firmware.entries.values()
        pristine = Board()
        pristine.load_firmware(firmware)
        rows_before = list(pristine.cpu._rows)
        push = next(pc for pc, instr in enumerate(firmware.code)
                    if instr.op == "PUSH")
        store = next(pc for pc, instr in enumerate(firmware.code)
                     if instr.op == "STORE")
        firmware.code[push].arg += 1          # the Instr object itself
        firmware.code[store] = Instr("POP")   # the image's own list
        mutant = Board()
        mutant.load_firmware(firmware)
        assert decoded(mutant.cpu) == fresh_rows(firmware.code, entries)
        assert mutant.cpu._rows[push][1] == rows_before[push][1] + 1
        assert mutant.cpu._rows[store] != rows_before[store]
        # the shared rows of the pristine board were not touched
        assert pristine.cpu._rows == rows_before

    def test_implementation_mutants_run_like_fresh_decodes(self):
        """Every injector's mutant, loaded after its pristine image, runs
        each task exactly like a board whose rows were decoded afresh."""
        firmware = cruise_firmware()
        Board().load_firmware(firmware)
        for kind in sorted(IMPL_FAULT_KINDS):
            mutant, _ = inject_implementation_fault(firmware, kind, 1)
            if mutant is None:
                continue
            cached = Board()
            cached.load_firmware(mutant)
            rows = fresh_rows(mutant.code, mutant.entries.values())
            assert decoded(cached.cpu) == rows, kind

    def test_memo_is_bounded(self):
        for value in range(cpu_module._DECODED_LIMIT + 3):
            build([Instr("PUSH", value), Instr("HALT")])
        assert len(cpu_module._DECODED) <= cpu_module._DECODED_LIMIT


EXAMPLE_SYSTEMS = {"blinker": blinker_system,
                   "traffic": traffic_light_system,
                   "cruise": cruise_control_system,
                   "cell": production_cell_system}


def board_outcome(board, task):
    try:
        result = board.cpu.run(max_instructions=5_000,
                               profile=getattr(board, "profile", None))
        return (result.reason, result.instructions, result.cycles)
    except TargetFault as fault:
        return ("fault", fault.reason, fault.pc)


class TestMutantLockstep:
    """Implementation mutants of all four example systems (constant
    corruption, swapped operators, dropped stores, wrong addresses,
    off-by-one jumps): blocks == checked on every task job, with the
    emit handler's observations."""

    @pytest.mark.parametrize("system", sorted(EXAMPLE_SYSTEMS))
    def test_mutants_run_in_lockstep(self, system):
        firmware = generate_firmware(EXAMPLE_SYSTEMS[system](),
                                     InstrumentationPlan.full())
        images = [firmware]
        for kind in sorted(IMPL_FAULT_KINDS):
            for seed in (1, 2, 3):
                mutant, _ = inject_implementation_fault(firmware, kind, seed)
                if mutant is not None:
                    images.append(mutant)
        for image in images:
            boards = []
            for checked in ROUTES:
                board = Board()
                board.load_firmware(image)
                board.profile = {} if checked else None
                boards.append(board)
            recorders = [Recorder(board.cpu) for board in boards]
            for _ in range(12):
                for task in image.entries:
                    outcomes = []
                    for board in boards:
                        board.cpu.reset_task(image.entry_of(task))
                        outcomes.append(board_outcome(board, task))
                    assert outcomes[0] == outcomes[1], task
                    states = [snap(board.cpu) for board in boards]
                    assert states[0] == states[1], task
            assert recorders[0].seen == recorders[1].seen
