"""Network and block lowering.

Generated code replays the interpreter's three phases in the same order
(Moore outputs, Mealy blocks in combinational order, Moore state advances),
so firmware and reference interpreter stay step-for-step equivalent — the
precondition for the paper's premise that a *correct* code generator leaves
only design errors for the model debugger to find.
"""

from __future__ import annotations

from typing import Dict, Tuple

from repro.comdes.blocks import (
    DelayFB,
    FunctionBlock,
    GainFB,
    IntegratorFB,
    PiFB,
    SequenceFB,
    StateMachineFB,
    SubFB,
    ThresholdFB,
)
from repro.comdes.composite import CompositeFB
from repro.comdes.dataflow import ComponentNetwork
from repro.comdes.modal import ModalFB
from repro.codegen.lower_expr import lower_expr
from repro.comm.protocol import CommandKind
from repro.errors import CodegenError
from repro.target.assembler import Assembler
from repro.target.firmware import SymbolTable


class PathRegistry:
    """Assigns compact numeric ids to model-element paths for the wire."""

    def __init__(self) -> None:
        self._by_path: Dict[str, int] = {}
        self._by_id: Dict[int, str] = {}

    def id_of(self, path: str) -> int:
        """Return (allocating if needed) the id of *path*."""
        if path not in self._by_path:
            next_id = len(self._by_path) + 1
            self._by_path[path] = next_id
            self._by_id[next_id] = path
        return self._by_path[path]

    def table(self) -> Dict[int, str]:
        """id -> path mapping for the firmware image."""
        return dict(self._by_id)


class GenContext:
    """Shared state of one firmware generation run."""

    def __init__(self, plan) -> None:
        self.asm = Assembler()
        self.symbols = SymbolTable()
        self.paths = PathRegistry()
        self.plan = plan
        self.data_init: Dict[int, int] = {}

    def alloc(self, name: str, kind: str, init: int = 0) -> int:
        """Allocate a symbol, record its initial value, return its address."""
        symbol = self.symbols.allocate(name, kind)
        if init != 0:
            self.data_init[symbol.addr] = init
        return symbol.addr

    def emit_command(self, kind: CommandKind, path: str,
                     value_already_on_stack: bool = False,
                     value_addr: int = None, value_imm: int = None,
                     src_path: str = None) -> None:
        """Emit the EMIT sequence: PUSH id, <value>, EMIT kind."""
        self.asm.emit("PUSH", self.paths.id_of(path), src_path=src_path)
        if value_already_on_stack:
            # id must be below the value: the caller left the value on top,
            # so swap after pushing the id.
            self.asm.emit("SWAP", src_path=src_path)
        elif value_addr is not None:
            self.asm.emit("LOAD", value_addr, src_path=src_path)
        else:
            self.asm.emit("PUSH", value_imm or 0, src_path=src_path)
        self.asm.emit("EMIT", int(kind), src_path=src_path)


class NetworkCodegen:
    """Lowers one component network (recursively for modal/composite blocks).

    ``input_symbols`` maps each network-level input port to the RAM symbol
    holding its value (for the top-level network these are the actor's
    latched input words).
    """

    def __init__(self, ctx: GenContext, network: ComponentNetwork,
                 actor_name: str, scope: str,
                 input_symbols: Dict[str, str]) -> None:
        self.ctx = ctx
        self.network = network
        self.actor_name = actor_name
        self.scope = scope
        self.input_symbols = dict(input_symbols)
        missing = set(network.input_ports) - set(self.input_symbols)
        if missing:
            raise CodegenError(
                f"network {network.name}: no input symbols for {sorted(missing)}"
            )
        self._resolution: Dict[Tuple[str, str], str] = {}
        self._children: Dict[str, "NetworkCodegen"] = {}
        self._declared = False

    # -- naming ------------------------------------------------------------

    def _prefix(self) -> str:
        return (f"{self.actor_name}.{self.scope}" if self.scope
                else self.actor_name)

    def port_symbol(self, block: str, port: str) -> str:
        """Symbol name of a block output port."""
        return f"{self._prefix()}.{block}.{port}"

    def state_symbol(self, block: str, var: str) -> str:
        """Symbol name of a block state variable."""
        return f"{self._prefix()}.{block}.${var}"

    def scratch_symbol(self, block: str, tag: str) -> str:
        """Symbol name of a compiler temporary."""
        return f"{self._prefix()}.{block}.~{tag}"

    def block_scope(self, block: FunctionBlock) -> str:
        """Scope string matching :mod:`repro.comdes.reflect` path conventions."""
        return f"{self.scope}.{block.name}" if self.scope else block.name

    def output_symbol(self, net_port: str) -> str:
        """Symbol holding a network output port's value after a step."""
        ref = self.network.output_ports[net_port]
        return self.port_symbol(ref.block, ref.port)

    def input_driver(self, block: FunctionBlock, port: str) -> str:
        """Symbol feeding a block input port."""
        try:
            return self._resolution[(block.name, port)]
        except KeyError:
            raise CodegenError(
                f"network {self.network.name}: no driver for "
                f"{block.name}.{port}"
            ) from None

    def _addr(self, symbol_name: str) -> int:
        return self.ctx.symbols.addr_of(symbol_name)

    # -- declaration pass ---------------------------------------------------

    def declare(self) -> None:
        """Allocate all symbols (recursively) before any code references them."""
        if self._declared:
            raise CodegenError(f"network {self.network.name} declared twice")
        self._declared = True

        for conn in self.network.connections:
            self._resolution[(conn.dst.block, conn.dst.port)] = (
                self.port_symbol(conn.src.block, conn.src.port)
            )
        for net_port, dsts in self.network.input_ports.items():
            for dst in dsts:
                self._resolution[(dst.block, dst.port)] = (
                    self.input_symbols[net_port]
                )

        for block in self.network.blocks:
            self._declare_block(block)

    def _declare_block(self, block: FunctionBlock) -> None:
        ctx = self.ctx
        persistent_outputs = isinstance(block, (StateMachineFB, ModalFB))
        out_kind = "state" if persistent_outputs else "scratch"
        for port in block.outputs:
            ctx.alloc(self.port_symbol(block.name, port), out_kind)

        if isinstance(block, StateMachineFB):
            machine = block.machine
            ctx.alloc(self.state_symbol(block.name, "_state"), "state",
                      init=machine.states.index(machine.initial))
            for var, init in machine.variables.items():
                ctx.alloc(self.state_symbol(block.name, var), "state", init=init)
        elif isinstance(block, ModalFB):
            ctx.alloc(self.scratch_symbol(block.name, "idx"), "scratch")
            for mode in block.modes:
                inner_inputs = {
                    port: self.input_driver(block, port)
                    for port in block.data_inputs
                }
                child = NetworkCodegen(
                    ctx, mode.network, self.actor_name,
                    f"{self.block_scope(block)}.{mode.name}", inner_inputs,
                )
                child.declare()
                self._children[f"{block.name}.{mode.name}"] = child
        elif isinstance(block, CompositeFB):
            inner_inputs = {
                port: self.input_driver(block, port) for port in block.inputs
            }
            child = NetworkCodegen(
                ctx, block.network, self.actor_name,
                self.block_scope(block), inner_inputs,
            )
            child.declare()
            self._children[block.name] = child
        elif isinstance(block, DelayFB):
            ctx.alloc(self.state_symbol(block.name, "z"), "state", init=block.init)
        elif isinstance(block, SequenceFB):
            ctx.alloc(self.state_symbol(block.name, "idx"), "state")
            for i, value in enumerate(block.values):
                ctx.alloc(f"{self._prefix()}.{block.name}.#{i}", "state",
                          init=value)
        elif isinstance(block, ThresholdFB):
            ctx.alloc(self.state_symbol(block.name, "on"), "state")
        elif isinstance(block, IntegratorFB):
            ctx.alloc(self.state_symbol(block.name, "acc"), "state",
                      init=block.init)
        elif isinstance(block, PiFB):
            ctx.alloc(self.state_symbol(block.name, "acc"), "state")

    # -- emission pass ----------------------------------------------------

    def emit_step(self) -> None:
        """Emit code for one synchronous step of this network."""
        if not self._declared:
            raise CodegenError(f"network {self.network.name}: declare() first")
        moore = sorted((b for b in self.network.blocks if b.is_moore),
                       key=lambda b: b.name)
        for block in moore:
            self._emit_moore_output(block)
        for block in self.network._topo:
            self._emit_mealy(block)
        for block in moore:
            self._emit_moore_advance(block)

    # Moore phase ----------------------------------------------------------

    def _emit_moore_output(self, block: FunctionBlock) -> None:
        asm = self.ctx.asm
        src = f"block:{self.actor_name}.{self.block_scope(block)}"
        y_addr = self._addr(self.port_symbol(block.name, "y"))
        if isinstance(block, DelayFB):
            asm.emit("LOAD", self._addr(self.state_symbol(block.name, "z")),
                     src_path=src)
            asm.emit("STORE", y_addr, src_path=src)
        elif isinstance(block, SequenceFB):
            base = self._addr(f"{self._prefix()}.{block.name}.#0")
            asm.emit("LOAD", self._addr(self.state_symbol(block.name, "idx")),
                     src_path=src)
            asm.emit("PUSH", base, src_path=src)
            asm.emit("ADD", src_path=src)
            asm.emit("LDI", src_path=src)
            asm.emit("STORE", y_addr, src_path=src)
        else:
            raise CodegenError(f"no Moore-output lowering for {block.kind!r}")

    def _emit_moore_advance(self, block: FunctionBlock) -> None:
        asm = self.ctx.asm
        src = f"block:{self.actor_name}.{self.block_scope(block)}"
        if isinstance(block, DelayFB):
            asm.emit("LOAD", self._addr(self.input_driver(block, "u")),
                     src_path=src)
            asm.emit("STORE", self._addr(self.state_symbol(block.name, "z")),
                     src_path=src)
        elif isinstance(block, SequenceFB):
            idx_addr = self._addr(self.state_symbol(block.name, "idx"))
            asm.emit("LOAD", idx_addr, src_path=src)
            asm.emit("PUSH", 1, src_path=src)
            asm.emit("ADD", src_path=src)
            if block.repeat:
                asm.emit("PUSH", len(block.values), src_path=src)
                asm.emit("MOD", src_path=src)
            else:
                asm.emit("PUSH", len(block.values) - 1, src_path=src)
                asm.emit("MIN", src_path=src)
            asm.emit("STORE", idx_addr, src_path=src)
        else:
            raise CodegenError(f"no Moore-advance lowering for {block.kind!r}")

    # Mealy phase ------------------------------------------------------------

    def _emit_mealy(self, block: FunctionBlock) -> None:
        if isinstance(block, StateMachineFB):
            self._emit_state_machine(block)
        elif isinstance(block, ModalFB):
            self._emit_modal(block)
        elif isinstance(block, CompositeFB):
            self._emit_composite(block)
        else:
            self._emit_basic(block)

    def _emit_basic(self, block: FunctionBlock) -> None:
        asm = self.ctx.asm
        src = f"block:{self.actor_name}.{self.block_scope(block)}"
        y_addr = self._addr(self.port_symbol(block.name, "y"))

        def load(port: str) -> None:
            asm.emit("LOAD", self._addr(self.input_driver(block, port)),
                     src_path=src)

        if isinstance(block, GainFB):
            load("u")
            asm.emit("PUSH", block.num, src_path=src)
            asm.emit("MUL", src_path=src)
            asm.emit("PUSH", block.den, src_path=src)
            asm.emit("DIV", src_path=src)
        elif isinstance(block, SubFB):
            load("a")
            load("b")
            asm.emit("SUB", src_path=src)
        elif isinstance(block, ThresholdFB):
            on_addr = self._addr(self.state_symbol(block.name, "on"))
            load("u")
            asm.emit("PUSH", block.limit, src_path=src)
            asm.emit("LOAD", on_addr, src_path=src)
            asm.emit("PUSH", block.hysteresis, src_path=src)
            asm.emit("MUL", src_path=src)
            asm.emit("SUB", src_path=src)      # limit - on*hysteresis
            asm.emit("GE", src_path=src)
            asm.emit("DUP", src_path=src)
            asm.emit("STORE", on_addr, src_path=src)
        elif isinstance(block, IntegratorFB):
            acc_addr = self._addr(self.state_symbol(block.name, "acc"))
            asm.emit("LOAD", acc_addr, src_path=src)
            load("u")
            asm.emit("PUSH", block.num, src_path=src)
            asm.emit("MUL", src_path=src)
            asm.emit("PUSH", block.den, src_path=src)
            asm.emit("DIV", src_path=src)
            asm.emit("ADD", src_path=src)
            asm.emit("PUSH", block.lo, src_path=src)
            asm.emit("MAX", src_path=src)
            asm.emit("PUSH", block.hi, src_path=src)
            asm.emit("MIN", src_path=src)
            asm.emit("DUP", src_path=src)
            asm.emit("STORE", acc_addr, src_path=src)
        elif isinstance(block, PiFB):
            acc_addr = self._addr(self.state_symbol(block.name, "acc"))
            # acc' = clamp(acc + e*ki)
            asm.emit("LOAD", acc_addr, src_path=src)
            load("e")
            asm.emit("PUSH", block.ki_num, src_path=src)
            asm.emit("MUL", src_path=src)
            asm.emit("PUSH", block.ki_den, src_path=src)
            asm.emit("DIV", src_path=src)
            asm.emit("ADD", src_path=src)
            asm.emit("PUSH", block.lo, src_path=src)
            asm.emit("MAX", src_path=src)
            asm.emit("PUSH", block.hi, src_path=src)
            asm.emit("MIN", src_path=src)
            asm.emit("DUP", src_path=src)
            asm.emit("STORE", acc_addr, src_path=src)
            # y = clamp(e*kp + acc')
            load("e")
            asm.emit("PUSH", block.kp_num, src_path=src)
            asm.emit("MUL", src_path=src)
            asm.emit("PUSH", block.kp_den, src_path=src)
            asm.emit("DIV", src_path=src)
            asm.emit("ADD", src_path=src)
            asm.emit("PUSH", block.lo, src_path=src)
            asm.emit("MAX", src_path=src)
            asm.emit("PUSH", block.hi, src_path=src)
            asm.emit("MIN", src_path=src)
        else:
            raise CodegenError(f"no lowering for block kind {block.kind!r}")
        asm.emit("STORE", y_addr, src_path=src)

    # state machine ---------------------------------------------------------

    def _emit_state_machine(self, block: StateMachineFB) -> None:
        asm = self.ctx.asm
        plan = self.ctx.plan
        machine = block.machine
        scope = self.block_scope(block)
        state_addr = self._addr(self.state_symbol(block.name, "_state"))

        def resolve(name: str) -> int:
            if name in machine.inputs:
                return self._addr(self.input_driver(block, name))
            if name in machine.outputs:
                return self._addr(self.port_symbol(block.name, name))
            return self._addr(self.state_symbol(block.name, name))

        label_done = asm.fresh_label(f"{block.name}_done")
        state_labels = {
            state: asm.fresh_label(f"{block.name}_{state}")
            for state in machine.states
        }

        # Dispatch on the current state index.
        for index, state in enumerate(machine.states):
            src = f"sm:{self.actor_name}.{scope}"
            asm.emit("LOAD", state_addr, src_path=src)
            asm.emit("PUSH", index, src_path=src)
            asm.emit("EQ", src_path=src)
            asm.emit_jump("JNZ", state_labels[state], src_path=src)
        asm.emit_jump("JMP", label_done)

        indexed = list(enumerate(machine.transitions))
        for state in machine.states:
            asm.label(state_labels[state])
            for t_index, transition in indexed:
                if transition.source != state:
                    continue
                t_path = (f"trans:{self.actor_name}.{scope}."
                          f"{t_index}.{transition.source}->{transition.target}")
                label_next = asm.fresh_label(f"{block.name}_t{t_index}_next")
                lower_expr(asm, transition.guard, resolve, src_path=t_path)
                asm.emit_jump("JZ", label_next, src_path=t_path)
                for action in transition.actions:
                    lower_expr(asm, action.expr, resolve, src_path=t_path)
                    asm.emit("STORE", resolve(action.target), src_path=t_path)
                target_index = machine.states.index(transition.target)
                asm.emit("PUSH", target_index, src_path=t_path)
                asm.emit("STORE", state_addr, src_path=t_path)
                if plan.transitions:
                    self.ctx.emit_command(
                        CommandKind.TRANS_FIRED, t_path,
                        value_imm=t_index, src_path=t_path,
                    )
                is_self_loop = transition.target == transition.source
                if plan.state_enter and (plan.self_loops or not is_self_loop):
                    target_path = (f"state:{self.actor_name}.{scope}."
                                   f"{transition.target}")
                    self.ctx.emit_command(
                        CommandKind.STATE_ENTER, target_path,
                        value_imm=target_index, src_path=t_path,
                    )
                asm.emit_jump("JMP", label_done, src_path=t_path)
                asm.label(label_next)
            asm.emit_jump("JMP", label_done)
        asm.label(label_done)

    # modal / composite -----------------------------------------------------

    def _emit_modal(self, block: ModalFB) -> None:
        asm = self.ctx.asm
        src = f"block:{self.actor_name}.{self.block_scope(block)}"
        idx_addr = self._addr(self.scratch_symbol(block.name, "idx"))
        sel_addr = self._addr(self.input_driver(block, "mode"))

        asm.emit("LOAD", sel_addr, src_path=src)
        asm.emit("PUSH", 0, src_path=src)
        asm.emit("MAX", src_path=src)
        asm.emit("PUSH", len(block.modes) - 1, src_path=src)
        asm.emit("MIN", src_path=src)
        asm.emit("STORE", idx_addr, src_path=src)

        label_end = asm.fresh_label(f"{block.name}_end")
        mode_labels = {
            mode.name: asm.fresh_label(f"{block.name}_{mode.name}")
            for mode in block.modes
        }
        for index, mode in enumerate(block.modes):
            asm.emit("LOAD", idx_addr, src_path=src)
            asm.emit("PUSH", index, src_path=src)
            asm.emit("EQ", src_path=src)
            asm.emit_jump("JNZ", mode_labels[mode.name], src_path=src)
        asm.emit_jump("JMP", label_end, src_path=src)

        for mode in block.modes:
            asm.label(mode_labels[mode.name])
            child = self._children[f"{block.name}.{mode.name}"]
            child.emit_step()
            for port in block.outputs:
                asm.emit("LOAD", self._addr(child.output_symbol(port)),
                         src_path=src)
                asm.emit("STORE",
                         self._addr(self.port_symbol(block.name, port)),
                         src_path=src)
            asm.emit_jump("JMP", label_end, src_path=src)
        asm.label(label_end)

    def _emit_composite(self, block: CompositeFB) -> None:
        asm = self.ctx.asm
        src = f"block:{self.actor_name}.{self.block_scope(block)}"
        child = self._children[block.name]
        child.emit_step()
        for port in block.outputs:
            asm.emit("LOAD", self._addr(child.output_symbol(port)),
                     src_path=src)
            asm.emit("STORE", self._addr(self.port_symbol(block.name, port)),
                     src_path=src)
