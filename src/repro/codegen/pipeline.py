"""End-to-end firmware generation and a lockstep execution harness.

``generate_firmware`` is the model transformation of Fig 1: COMDES system in,
firmware image out (optionally instrumented with the active command
interface). ``run_firmware_lockstep`` executes that firmware with the same
synchronous semantics as :meth:`System.lockstep_run`, which is how the test
suite proves generated code equals the reference interpreter.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence

from repro.codegen.instrument import InstrumentationPlan
from repro.codegen.lower_blocks import GenContext, NetworkCodegen
from repro.comdes.system import System
from repro.comdes.validate import validate_system
from repro.comm.protocol import CommandKind
from repro.target.board import Board
from repro.target.firmware import FirmwareImage


def generate_firmware(system: System,
                      plan: Optional[InstrumentationPlan] = None,
                      name: Optional[str] = None) -> FirmwareImage:
    """Lower *system* to a firmware image, one task per actor.

    Raises :class:`~repro.errors.ValidationError` for a system that
    :func:`~repro.comdes.validate.validate_system` rejects.
    """
    validate_system(system)
    plan = plan if plan is not None else InstrumentationPlan()
    ctx = GenContext(plan)
    entries: Dict[str, int] = {}

    # Declaration pass: actor I/O words first (stable low addresses help
    # when eyeballing memory dumps), then per-network symbols.
    generators: Dict[str, NetworkCodegen] = {}
    for actor in system.actors.values():
        input_symbols: Dict[str, str] = {}
        for port, signal in sorted(actor.inputs.items()):
            sym = f"{actor.name}.in.{port}"
            ctx.alloc(sym, "input", init=system.signals[signal].init)
            input_symbols[port] = sym
        for port, signal in sorted(actor.outputs.items()):
            ctx.alloc(f"{actor.name}.out.{port}", "output",
                      init=system.signals[signal].init)
        gen = NetworkCodegen(ctx, actor.network, actor.name, "", input_symbols)
        gen.declare()
        generators[actor.name] = gen
        if plan.task_markers:
            ctx.alloc(f"{actor.name}.~job", "scratch")
        if plan.signal_update:
            for port in sorted(actor.outputs):
                ctx.alloc(f"{actor.name}.~chg.{port}", "scratch")

    # Emission pass: one task per actor.
    for actor in system.actors.values():
        asm = ctx.asm
        gen = generators[actor.name]
        actor_path = f"actor:{actor.name}"
        entries[actor.name] = asm.position

        if plan.task_markers:
            job_addr = ctx.symbols.addr_of(f"{actor.name}.~job")
            asm.emit("LOAD", job_addr, src_path=actor_path)
            asm.emit("PUSH", 1, src_path=actor_path)
            asm.emit("ADD", src_path=actor_path)
            asm.emit("STORE", job_addr, src_path=actor_path)
            ctx.emit_command(CommandKind.TASK_START, actor_path,
                             value_addr=job_addr, src_path=actor_path)

        gen.emit_step()

        for port, signal in sorted(actor.outputs.items()):
            out_addr = ctx.symbols.addr_of(f"{actor.name}.out.{port}")
            src_addr = ctx.symbols.addr_of(gen.output_symbol(port))
            signal_path = f"signal:{signal}"
            if plan.signal_update:
                chg_addr = ctx.symbols.addr_of(f"{actor.name}.~chg.{port}")
                skip = asm.fresh_label(f"{actor.name}_{port}_skip")
                asm.emit("LOAD", out_addr, src_path=signal_path)   # previous
                asm.emit("LOAD", src_addr, src_path=signal_path)   # new
                asm.emit("NE", src_path=signal_path)
                asm.emit("STORE", chg_addr, src_path=signal_path)
                asm.emit("LOAD", src_addr, src_path=signal_path)
                asm.emit("STORE", out_addr, src_path=signal_path)
                asm.emit("LOAD", chg_addr, src_path=signal_path)
                asm.emit_jump("JZ", skip, src_path=signal_path)
                ctx.emit_command(CommandKind.SIG_UPDATE, signal_path,
                                 value_addr=out_addr, src_path=signal_path)
                asm.label(skip)
            else:
                asm.emit("LOAD", src_addr, src_path=signal_path)
                asm.emit("STORE", out_addr, src_path=signal_path)

        if plan.task_markers:
            job_addr = ctx.symbols.addr_of(f"{actor.name}.~job")
            ctx.emit_command(CommandKind.TASK_END, actor_path,
                             value_addr=job_addr, src_path=actor_path)
        asm.emit("HALT", src_path=actor_path)

    return FirmwareImage(
        name=name or f"{system.name}_fw",
        code=ctx.asm.assemble(),
        entries=entries,
        symbols=ctx.symbols,
        data_init=ctx.data_init,
        path_table=ctx.paths.table(),
    )


def run_firmware_lockstep(
    system: System,
    firmware: FirmwareImage,
    rounds: int,
    board: Optional[Board] = None,
    overrides: Mapping[str, Sequence[int]] = None,
) -> List[Dict[str, int]]:
    """Execute firmware with lockstep semantics matching ``System.lockstep_run``.

    Each round: write latched inputs from the signal board snapshot, run each
    actor's task on the CPU (priority order), then publish all outputs. The
    returned per-round signal histories are directly comparable with the
    reference interpreter's.
    """
    overrides = overrides or {}
    board = board if board is not None else Board()
    board.load_firmware(firmware)
    signal_board = system.initial_board()
    order = sorted(system.actors.values(), key=lambda a: (a.task.priority, a.name))
    history: List[Dict[str, int]] = []

    for round_index in range(rounds):
        for signal_name, values in overrides.items():
            if round_index < len(values):
                signal_board[signal_name] = values[round_index]
        snapshot = dict(signal_board)
        pending: Dict[str, int] = {}
        for actor in order:
            for port, signal in actor.inputs.items():
                addr = firmware.symbols.addr_of(f"{actor.name}.in.{port}")
                board.memory.poke(addr, snapshot[signal])
            board.run_task(actor.name)
            for port, signal in actor.outputs.items():
                addr = firmware.symbols.addr_of(f"{actor.name}.out.{port}")
                pending[signal] = board.memory.peek(addr)
        signal_board.update(pending)
        history.append(dict(signal_board))
    return history
