"""Debug sessions: the prototype's execution flow (paper Fig 6).

The five numbered steps:

1. input prerequisites become available (meta-model, model, executable code);
2. the input files are selected;
3. the abstraction guide sets up the model mapping;
4. command reaction information is added;
5. the GDM is created and a communication channel to the embedded
   controller is established — the debugger enters its initial state,
   waiting for commands.

Then the GDM "continuously interacts with code execution at runtime".
:class:`DebugSession` drives those steps against the simulated target and
keeps the numbered workflow log as the Fig 6 artifact.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.codegen.instrument import InstrumentationPlan
from repro.codegen.pipeline import generate_firmware
from repro.comdes.blocks import FunctionBlock, StateMachineFB
from repro.comdes.composite import CompositeFB
from repro.comdes.dataflow import ComponentNetwork
from repro.comdes.modal import ModalFB
from repro.comdes.reflect import system_to_model
from repro.comdes.system import System
from repro.comdes.validate import validate_system
from repro.comm.channel import (
    ActiveChannel,
    CompositeChannel,
    PassiveChannel,
    WatchSpec,
)
from repro.comm.jtag import JtagProbe, TapController
from repro.comm.link import DebugLink, JtagLink
from repro.comm.rs232 import Rs232Link
from repro.comm.usb import UsbTransport
from repro.engine.engine import DebuggerEngine
from repro.engine.stepping import StepController
from repro.engine.timing_diagram import TimingDiagram
from repro.errors import DebuggerError
from repro.gdm.command_setup import CommandSetupDialog
from repro.gdm.guide import AbstractionGuide
from repro.gdm.mapping import MappingTable, default_comdes_table
from repro.gdm.model import CommandBinding, GdmModel
from repro.gdm.scenegen import gdm_to_scene
from repro.meta.registry import MetamodelRegistry
from repro.render.ascii_art import scene_to_ascii
from repro.render.svg import scene_to_svg
from repro.rtos.kernel import DtmKernel
from repro.sim.kernel import Simulator
from repro.target.board import DebugPort


def iter_blocks_with_scope(network: ComponentNetwork,
                           scope: str = "") -> List[Tuple[str, FunctionBlock]]:
    """All blocks (recursively) with their reflect-convention scope strings."""
    found: List[Tuple[str, FunctionBlock]] = []
    for block in network.blocks:
        block_scope = f"{scope}.{block.name}" if scope else block.name
        found.append((block_scope, block))
        if isinstance(block, ModalFB):
            for mode in block.modes:
                found.extend(iter_blocks_with_scope(
                    mode.network, f"{block_scope}.{mode.name}"))
        elif isinstance(block, CompositeFB):
            found.extend(iter_blocks_with_scope(block.network, block_scope))
    return found


def default_watches(system: System, node: str) -> List[WatchSpec]:
    """Monitored-variable selection for a node: state vars + output signals.

    This is the paper's "the user needs to select one or more monitored
    variables that are considered to be critical (e.g. variable s is
    critical if it saves state information in a state machine model)".
    """
    watches: List[WatchSpec] = []
    for actor in system.actors.values():
        if actor.node != node:
            continue
        for block_scope, block in iter_blocks_with_scope(actor.network):
            if isinstance(block, StateMachineFB):
                watches.append(WatchSpec.state_machine(
                    actor.name, block_scope, block.machine))
        for port, signal in sorted(actor.outputs.items()):
            watches.append(WatchSpec.signal(actor.name, port, signal))
    return watches


class DebugSession:
    """One GMDF debugging session over a simulated target."""

    CHANNEL_KINDS = ("active", "passive")

    def __init__(self, system: System, channel_kind: str = "active",
                 plan: Optional[InstrumentationPlan] = None,
                 latched: bool = True, net_delay_us: int = 100,
                 baud: int = 115200, poll_period_us: int = 500,
                 tck_hz: int = 4_000_000) -> None:
        if channel_kind not in self.CHANNEL_KINDS:
            raise DebuggerError(
                f"channel_kind must be one of {self.CHANNEL_KINDS}, "
                f"got {channel_kind!r}"
            )
        validate_system(system)
        self.system = system
        self.channel_kind = channel_kind
        # Active debugging needs instrumented code; passive debugging works
        # on clean production code (that is its selling point).
        if plan is None:
            plan = (InstrumentationPlan() if channel_kind == "active"
                    else InstrumentationPlan.none())
        self.plan = plan
        self.latched = latched
        self.net_delay_us = net_delay_us
        self.baud = baud
        self.poll_period_us = poll_period_us
        self.tck_hz = tck_hz

        self.sim = Simulator()
        self.registry = MetamodelRegistry()
        self.workflow_log: List[str] = []

        self.model = None
        self.firmware = None
        self.guide: Optional[AbstractionGuide] = None
        self.command_dialog: Optional[CommandSetupDialog] = None
        self.gdm: Optional[GdmModel] = None
        self.kernel: Optional[DtmKernel] = None
        self.engine: Optional[DebuggerEngine] = None
        self.stepper: Optional[StepController] = None
        self.channel = None
        self.probes: Dict[str, JtagProbe] = {}
        #: one DebugLink per node — the transport every debug byte crosses
        self.links: Dict[str, DebugLink] = {}

    def _log(self, step: int, message: str) -> None:
        self.workflow_log.append(f"[{step}] {message}")

    # -- Fig 6 steps -------------------------------------------------------

    def step1_provide_inputs(self) -> "DebugSession":
        """Prerequisites: input meta-model, input model, executable code."""
        self.model = system_to_model(self.system)
        self.firmware = generate_firmware(self.system, self.plan)
        self._log(1, (
            f"inputs ready: metamodel '{self.model.metamodel.name}', "
            f"model '{self.model.name}' ({len(self.model)} objects), "
            f"executable '{self.firmware.name}' "
            f"({self.firmware.instruction_count()} instructions, "
            f"{'instrumented' if self.plan.any_enabled else 'clean'})"
        ))
        return self

    def step2_select_inputs(self) -> "DebugSession":
        """Select the input files (metamodel registration + model pick)."""
        self._require(self.model is not None, "run step1_provide_inputs first")
        self.registry.register(self.model.metamodel)
        self._log(2, (
            f"selected metamodel '{self.model.metamodel.name}' and model "
            f"file '{self.model.name}.model'"
        ))
        return self

    def step3_abstraction(self,
                          table: Optional[MappingTable] = None) -> "DebugSession":
        """Run the abstraction guide and generate the initial GDM."""
        self._require(self.model is not None, "run step1_provide_inputs first")
        self.guide = AbstractionGuide(self.model)
        if table is None:
            table = default_comdes_table(self.model.metamodel)
        self.guide.use_table(table)
        self.gdm = self.guide.finish()
        self._log(3, (
            f"abstraction finished: {len(self.gdm.elements)} elements, "
            f"{len(self.gdm.links)} links from "
            f"{len(table.pairings())} pairings"
        ))
        return self

    def step4_command_setup(self,
                            extra_bindings: Sequence[CommandBinding] = ()
                            ) -> "DebugSession":
        """Add command reaction information through the command-setting
        dialog: the abstraction's default bindings stay, each user
        binding goes in with :meth:`CommandSetupDialog.add`, and
        ``finish()`` closes the dialog, kept as :attr:`command_dialog`."""
        self._require(self.gdm is not None, "run step3_abstraction first")
        dialog = self.command_dialog = CommandSetupDialog(self.gdm)
        for binding in extra_bindings:
            dialog.add(binding.command_kind, binding.path_selector,
                       binding.reaction)
        dialog.finish()
        self._log(4, (
            f"command setup complete: {len(self.gdm.bindings)} bindings "
            f"({len(extra_bindings)} user-defined)"
        ))
        return self

    def step5_connect(self) -> "DebugSession":
        """Create the GDM runtime and the communication channel."""
        self._require(self.gdm is not None, "run step3_abstraction first")
        self.kernel = DtmKernel(
            self.system, self.firmware, sim=self.sim,
            latched=self.latched, net_delay_us=self.net_delay_us,
        )
        composite = CompositeChannel()
        for node in self.system.nodes():
            board = self.kernel.board_of(node)
            if self.channel_kind == "active":
                channel = ActiveChannel(self.sim, board, self.firmware,
                                        link=Rs232Link(self.baud))
                channel.debug_link.label = "active"
                self.links[node] = channel.debug_link
                self.kernel.add_job_hook(node, channel.begin_job)
                composite.add(channel)
            else:
                tap = TapController(DebugPort(board))
                probe = JtagProbe(tap, tck_hz=self.tck_hz,
                                  transport=UsbTransport())
                self.probes[node] = probe
                link = JtagLink(probe)
                link.label = "passive"
                self.links[node] = link
                watches = default_watches(self.system, node)
                if watches:
                    channel = PassiveChannel(
                        self.sim, probe, self.firmware, watches,
                        poll_period_us=self.poll_period_us,
                        link=link,
                    )
                    channel.start()
                    composite.add(channel)
        self.channel = composite
        self.engine = DebuggerEngine(self.gdm, channel=composite)
        self.stepper = StepController(self.engine)
        self._log(5, (
            f"GDM created and {self.channel_kind} communication established "
            f"({len(composite.children)} node channel(s)); engine "
            f"{self.engine.state.name}"
        ))
        return self

    def setup(self, table: Optional[MappingTable] = None,
              extra_bindings: Sequence[CommandBinding] = ()) -> "DebugSession":
        """Run all five workflow steps with defaults."""
        return (self.step1_provide_inputs()
                .step2_select_inputs()
                .step3_abstraction(table)
                .step4_command_setup(extra_bindings)
                .step5_connect())

    @staticmethod
    def _require(condition: bool, message: str) -> None:
        if not condition:
            raise DebuggerError(message)

    # -- runtime ------------------------------------------------------------

    def run(self, duration_us: int) -> "DebugSession":
        """Advance the simulated world to *duration_us*.

        The kernel drives every node, channel poll and command delivery
        up to that instant; each node link's transport books
        (:meth:`DebugLink.stats`) accumulate across runs.
        """
        self._require(self.kernel is not None, "run step5_connect first")
        self.kernel.run(duration_us)
        return self

    def run_for(self, delta_us: int) -> "DebugSession":
        """Advance by *delta_us* from the current instant."""
        return self.run(self.sim.now + delta_us)

    # -- views --------------------------------------------------------------

    @property
    def trace(self):
        """The engine's execution trace."""
        self._require(self.engine is not None, "run step5_connect first")
        return self.engine.trace

    def snapshot_ascii(self) -> str:
        """ASCII rendering of the debug model's current display state."""
        return scene_to_ascii(gdm_to_scene(self.gdm))

    def snapshot_svg(self) -> str:
        """SVG rendering of the debug model's current display state."""
        return scene_to_svg(gdm_to_scene(self.gdm))

    def timing_diagram(self) -> TimingDiagram:
        """Timing diagram of everything traced so far."""
        return TimingDiagram(self.trace)

    def workflow_text(self) -> str:
        """The numbered Fig 6 workflow log."""
        return "\n".join(self.workflow_log)
