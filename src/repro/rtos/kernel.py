"""The DTM kernel: periodic actor tasks over boards, schedulers and the bus.

Semantics per actor job:

1. **Release** at ``offset + k*period``. If the target is stalled by the
   debugger, the job is skipped (the paper's model-level breakpoint pauses
   the application).
2. **Input latching**: consumed signals are read from the node's bus view
   and written into the actor's latched input words.
3. **Functional execution** on the node's board (generated code). The job's
   CPU demand is the measured cycle count.
4. **Completion** is computed by the node's preemptive fixed-priority
   scheduler (interference from other jobs delays it).
5. **Output publication**: with ``latched=True`` the outputs captured at
   completion become visible exactly at the deadline instant (DTM); with
   ``latched=False`` they become visible at completion (the jitter
   ablation). Deadline misses publish at completion and are counted.

Each actor's release plan is resolved once, when the kernel is built:
its task entry, and input ``(cell, signal)`` and output ``(signal, cell)``
port tables that hold RAM cell indexes (not addresses) next to the live
bus view of the actor's node. A release therefore latches inputs with
``cells[cell] = view[signal]`` and captures outputs with ``cells[cell]``,
with no symbol lookup and no call through the memory's checked backdoor
(:meth:`~repro.target.memory.MemoryMap.poke` / ``peek``) or
:meth:`~repro.rtos.network.SignalBus.read`. The checks those calls made
move to construction: a firmware image missing an actor's entry or port
symbols, a port outside RAM, or an input signal the node has no view of
is refused there.
"""

from __future__ import annotations

from functools import partial
from typing import Callable, Dict, List, Optional, Tuple

from repro.comdes.actor import Actor
from repro.comdes.system import System
from repro.errors import ModelError, SchedulerError, TargetFault
from repro.obs.runtime import OBS
from repro.rtos.jitter import JitterMeter
from repro.rtos.network import SignalBus
from repro.rtos.scheduler import NodeScheduler
from repro.rtos.task import ActiveJob, JobRecord, LoadTask
from repro.sim.kernel import Simulator
from repro.target.board import Board
from repro.target.firmware import FirmwareImage, SymbolTable
from repro.target.memory import RAM_BASE, MemoryMap

#: hook called before a job's functional execution, with its release time
#: (``ActiveChannel.begin_job`` is one)
JobHook = Callable[[int], None]


def _cell_of(memory: MemoryMap, symbols: SymbolTable, symbol: str) -> int:
    """RAM cell index of a port *symbol* in *memory*."""
    addr = symbols.addr_of(symbol)
    if not memory.contains(addr):
        raise TargetFault(f"memory access outside RAM: 0x{addr:08x}")
    return addr - RAM_BASE


class _NodeRuntime:
    """Board + scheduler of one computation node."""

    def __init__(self, sim: Simulator, node: str, firmware: FirmwareImage,
                 board: Optional[Board]) -> None:
        self.node = node
        self.board = board if board is not None else Board()
        self.board.load_firmware(firmware)
        self.scheduler = NodeScheduler(sim, node)
        self.job_hooks: List[JobHook] = []


class DtmKernel:
    """Executes a COMDES system under Distributed Timed Multitasking.

    Every actor job leaves one :class:`~repro.rtos.task.JobRecord` in
    :attr:`records`, a plain list holding the whole run: completed jobs
    at their completion, skipped ones at their release.

    Lifetime: the simulator's pending events, the schedulers' active
    jobs, the job hooks and the boards' emit and write hooks all point
    back at the objects that own this kernel, so a finished kernel sits
    in reference cycles until :meth:`close` drops them. Whoever runs
    the kernel to a verdict closes it (campaign jobs do, in
    :mod:`repro.faults.campaign`); results stay readable after
    :meth:`close`, but a closed kernel cannot start or run again.
    """

    def __init__(
        self,
        system: System,
        firmware: FirmwareImage,
        sim: Optional[Simulator] = None,
        latched: bool = True,
        net_delay_us: int = 100,
        boards: Optional[Dict[str, Board]] = None,
    ) -> None:
        """Build one board and scheduler per node of *system*, all on
        one simulator and one signal bus; ``boards`` supplies prebuilt
        boards by node name.
        """
        self.system = system
        self.firmware = firmware
        self.sim = sim if sim is not None else Simulator()
        self.latched = latched
        self._nodes: Dict[str, _NodeRuntime] = {}
        for node in system.nodes():
            board = (boards or {}).get(node)
            self._nodes[node] = _NodeRuntime(self.sim, node, firmware, board)
        self.bus = SignalBus(self.sim, system.nodes(),
                             system.initial_board(), net_delay_us)
        self.jitter = JitterMeter()
        self.records: List[JobRecord] = []
        self.deadline_misses = 0
        self.jobs_skipped = 0
        if OBS.metrics is not None:
            # scheduler health as kernel.* registry series, read once
            # per snapshot — the release/complete paths stay untouched
            OBS.metrics.bind_stats(
                "kernel",
                lambda: {"deadline_misses": self.deadline_misses,
                         "jobs_skipped": self.jobs_skipped},
                owner=self)
        self._job_index: Dict[str, int] = {name: 0 for name in system.actors}
        # per-actor release plans, resolved once: the release path
        # latches inputs and captures outputs by RAM cell index, with no
        # symbol lookup and no checked backdoor call per port
        self._plans: Dict[str, Tuple[_NodeRuntime, Dict[str, int], int,
                                     Tuple[Tuple[int, str], ...],
                                     Tuple[Tuple[str, int], ...]]] = {}
        symbols = firmware.symbols
        for name, actor in system.actors.items():
            runtime = self._nodes[actor.node]
            view = self.bus.view(actor.node)
            for signal in actor.inputs.values():
                if signal not in view:
                    raise ModelError(f"no view of signal {signal!r} on node "
                                     f"{actor.node!r}")
            memory = runtime.board.memory
            self._plans[name] = (
                runtime, view, firmware.entry_of(name),
                tuple((_cell_of(memory, symbols, f"{name}.in.{port}"), signal)
                      for port, signal in actor.inputs.items()),
                tuple((signal, _cell_of(memory, symbols, f"{name}.out.{port}"))
                      for port, signal in actor.outputs.items()),
            )
        self._load_tasks: List[LoadTask] = []
        self._started = False
        self._closed = False

    # -- configuration -----------------------------------------------------

    def board_of(self, node: str) -> Board:
        """The board hosting *node*'s actors."""
        try:
            return self._nodes[node].board
        except KeyError:
            raise SchedulerError(f"unknown node {node!r}") from None

    def add_job_hook(self, node: str, hook: JobHook) -> None:
        """Call *hook(t_release)* before each job on *node* runs."""
        if node not in self._nodes:
            raise SchedulerError(f"job hook on unknown node {node!r}")
        self._nodes[node].job_hooks.append(hook)

    def add_load_task(self, load: LoadTask) -> None:
        """Register a synthetic interference task (jitter experiments)."""
        if load.node not in self._nodes:
            raise SchedulerError(f"load task on unknown node {load.node!r}")
        self._load_tasks.append(load)

    # -- execution --------------------------------------------------------

    def start(self) -> None:
        """Schedule all periodic releases (idempotent-guarded)."""
        if self._closed:
            raise SchedulerError("kernel is closed")
        if self._started:
            raise SchedulerError("kernel already started")
        self._started = True
        for actor in self.system.actors.values():
            self.sim.every(actor.task.period_us, self._release_actor, actor,
                           start=actor.task.offset_us)
        for load in self._load_tasks:
            self.sim.every(load.period_us, self._release_load, load,
                           start=load.offset_us)

    def run(self, duration_us: int) -> None:
        """Start (if needed) and simulate until *duration_us*."""
        if self._closed:
            raise SchedulerError("kernel is closed")
        if not self._started:
            self.start()
        self.sim.run_until(duration_us)

    def close(self) -> None:
        """Drop the back-references that tie this rig into cycles.

        Clears the simulator's pending events, the schedulers' active
        jobs, the job hooks and every board's emit handler and write
        hook, so the rig is freed by reference counting once its owner
        lets go. Records, counters, the bus and the boards stay
        readable; a closed kernel cannot run again.
        """
        self._closed = True
        self.sim.clear()
        for runtime in self._nodes.values():
            runtime.scheduler.close()
            runtime.job_hooks = []
            runtime.board.cpu.emit_handler = None
            runtime.board.memory.set_write_hook(None)

    # -- actor jobs ----------------------------------------------------------

    def _release_actor(self, actor: Actor) -> None:
        now = self.sim.now
        name = actor.name
        runtime, view, entry, inputs, outputs_at = self._plans[name]
        index = self._job_index[name]
        self._job_index[name] = index + 1
        deadline_abs = now + actor.task.deadline_us
        board = runtime.board

        if board.stalled:
            self.jobs_skipped += 1
            self.records.append(JobRecord(
                name, index, now, None, deadline_abs, 0, skipped=True))
            return

        cells = board.memory.cells
        # Input latching at the release instant.
        for cell, signal in inputs:
            cells[cell] = view[signal]

        for hook in runtime.job_hooks:
            hook(now)

        cpu = board.cpu
        cpu.reset_task(entry)
        cycles = cpu.run().cycles
        # Board.cycles_to_us, inline: rounded up to whole microseconds
        clock_hz = board.clock_hz
        demand_us = (cycles * 1_000_000 + clock_hz - 1) // clock_hz

        # Outputs are captured now (they are functions of latched inputs);
        # visibility is deferred to completion/deadline below.
        outputs: Dict[str, int] = {}
        for signal, cell in outputs_at:
            outputs[signal] = cells[cell]

        runtime.scheduler.release(ActiveJob(
            name, actor.task.priority, now, deadline_abs, demand_us,
            on_complete=partial(self._on_job_complete, actor, index, outputs,
                                now, deadline_abs, demand_us),
        ))

    def _on_job_complete(self, actor: Actor, index: int,
                         outputs: Dict[str, int], release: int,
                         deadline_abs: int, demand_us: int,
                         t_done: int) -> None:
        record = JobRecord(actor.name, index, release, t_done, deadline_abs,
                           demand_us)
        self.records.append(record)
        if record.missed:
            self.deadline_misses += 1
        if self.latched and not record.missed:
            # DTM: publish exactly at the deadline instant.
            self.sim.schedule_at(deadline_abs, self._publish, actor, release,
                                 outputs)
        else:
            self._publish(actor, release, outputs)

    def _publish(self, actor: Actor, release: int,
                 outputs: Dict[str, int]) -> None:
        self.bus.publish(actor.node, outputs)
        self.jitter.record(outputs, release, self.sim.now)

    # -- load jobs --------------------------------------------------------

    def _release_load(self, load: LoadTask) -> None:
        now = self.sim.now
        runtime = self._nodes[load.node]
        job = ActiveJob(load.name, load.priority, now,
                        now + load.period_us, load.demand_us)
        runtime.scheduler.release(job)

    # -- queries ------------------------------------------------------------

    def signal_value(self, node: str, signal: str) -> int:
        """Current bus view of *signal* on *node*."""
        return self.bus.read(node, signal)
