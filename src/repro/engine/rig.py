"""The debugger rig: a simulated target and the debuggers attached to it.

Paper Fig 6 step 5 ("the GDM is created and a communication channel to
the embedded controller is established"), and the one place where a
debugger attaches to a :class:`~repro.rtos.kernel.DtmKernel`: a
:class:`~repro.engine.session.DebugSession` and both debugger runs of a
campaign job (:mod:`repro.faults.campaign`) build on a :class:`Rig`.
"""

from __future__ import annotations

from typing import Callable, Dict, Mapping, Optional, Sequence, Tuple

from repro.comdes.system import System
from repro.comm.channel import (ActiveChannel, CompositeChannel,
                                PassiveChannel, WatchSpec)
from repro.comm.chaos import ChaosConfig, ChaosLink
from repro.comm.jtag import JtagProbe, TapController
from repro.comm.link import DebugLink, JtagLink, write_patches
from repro.comm.rs232 import Rs232Link
from repro.comm.usb import UsbTransport
from repro.debugger.gdb import HW_WATCHPOINT_SLOTS, SourceDebugger, WatchHit
from repro.engine.engine import DebuggerEngine
from repro.engine.trace import ExecutionTrace
from repro.errors import RunSettled, TargetFault
from repro.gdm.model import GdmModel
from repro.rtos.kernel import DtmKernel
from repro.target.board import DebugPort
from repro.target.firmware import FirmwareImage
from repro.util.seeds import derive_seed

#: code-level watch: (symbol, predicate-or-None, description)
CodeWatchSpec = Tuple[str, Optional[Callable[[int], bool]], str]

#: memory patches ``(addr, value)`` written before the run starts
MemoryPatches = Sequence[Tuple[int, int]]


def _patch_boards(kernel: DtmKernel, patches: MemoryPatches) -> None:
    """Write *patches* to every node board over a throwaway JTAG link:
    contiguous runs ride the TAP's BLOCKWRITE auto-increment, the path
    bench hardware uses to corrupt RAM without reflashing."""
    for node in kernel.system.nodes():
        board = kernel.board_of(node)
        write_patches(JtagLink(JtagProbe(TapController(DebugPort(board)))),
                      patches)


class Rig:
    """A fresh kernel (own simulator and boards) with *memory_patches*
    written before any observer is attached: a code watch reads its word
    when installed, and its write hook would see a later patch.

    :attr:`channel` fans the node channels into one command stream;
    :attr:`links` and :attr:`probes` hold each node's debug link and
    (passive) JTAG probe. Attach the channels before the engine.
    """

    def __init__(self, system: System, firmware: FirmwareImage,
                 memory_patches: MemoryPatches = ()) -> None:
        self.system = system
        self.firmware = firmware
        self.kernel = DtmKernel(system, firmware)
        self.sim = self.kernel.sim
        if memory_patches:
            _patch_boards(self.kernel, memory_patches)
        self.channel = CompositeChannel()
        self.links: Dict[str, DebugLink] = {}
        self.probes: Dict[str, JtagProbe] = {}

    def attach_active(self, baud: int = 115200,
                      chaos: Optional[ChaosConfig] = None) -> None:
        """An RS-232 channel per node, re-anchored at each job; with
        *chaos*, behind a :class:`ChaosLink` seeded per node."""
        for node in self.system.nodes():
            channel = ActiveChannel(self.sim, self.kernel.board_of(node),
                                    self.firmware, link=Rs232Link(baud))
            if chaos is not None:
                channel.debug_link = ChaosLink(
                    channel.debug_link,
                    chaos.with_seed(derive_seed(chaos.seed, "node", node)))
            self.links[node] = channel.debug_link
            self.kernel.add_job_hook(node, channel.begin_job)
            self.channel.add(channel)

    def attach_passive(self, watches: Mapping[str, Sequence[WatchSpec]],
                       poll_period_us: int) -> None:
        """A JTAG probe over USB per node, and a polling channel on each
        node with *watches*; its polls are scheduled ahead of the
        kernel's releases."""
        for node in self.system.nodes():
            probe = self.probes[node] = JtagProbe(
                TapController(DebugPort(self.kernel.board_of(node))),
                transport=UsbTransport())
            link = self.links[node] = JtagLink(probe)
            if watches.get(node):
                channel = PassiveChannel(self.sim, probe, self.firmware,
                                         watches[node], poll_period_us,
                                         link=link)
                channel.start()
                self.channel.add(channel)

    def attach_engine(self, gdm: GdmModel, capture_frames: bool,
                      spill: Optional[object] = None) -> DebuggerEngine:
        """The GDM engine on :attr:`channel`; with *spill* (a trace
        store) every trace event is written through to it."""
        return DebuggerEngine(gdm, channel=self.channel,
                              capture_frames=capture_frames,
                              trace=ExecutionTrace(spill=spill))

    def watch_code(self, watch_specs: Sequence[CodeWatchSpec],
                   on_hit: Callable[[WatchHit], None]) -> None:
        """A source debugger per node watching the first
        :data:`~repro.debugger.gdb.HW_WATCHPOINT_SLOTS` specs whose
        symbol the firmware has; *on_hit* sees every hit."""
        specs = [spec for spec in watch_specs
                 if self.firmware.symbols.has(spec[0])]
        for node in self.system.nodes():
            debugger = SourceDebugger(self.kernel.board_of(node),
                                      self.firmware)
            for spec in specs[:HW_WATCHPOINT_SLOTS]:
                debugger.watch(*spec)
            debugger.on_hit = on_hit


def run_to_verdict(kernel: DtmKernel, duration_us: int,
                   engine: Optional[DebuggerEngine] = None) -> Optional[int]:
    """Run a rig to *duration_us* or its verdict, then close its kernel
    and engine, which breaks the rig's reference cycles.

    Returns the simulated time of a :class:`TargetFault`, or ``None`` at
    the horizon or when an observer raised :class:`RunSettled` at its
    first detection (the caller reads it off its monitors or hits).
    Neither exception is kept, so no traceback holds the rig's frames.
    """
    try:
        kernel.run(duration_us)
    except TargetFault:
        return kernel.sim.now
    except RunSettled:
        pass
    finally:
        kernel.close()
        if engine is not None:
            engine.close()
    return None
