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

**One heap entry per instant.** Actors with equal period, offset and
deadline form a group (any other actor is a group of one), and one
simulator entry releases a group's members in the system's actor order
(:meth:`DtmKernel._release_group`). When every node of the group runs
only the group's jobs, is idle at the instant, outputs are latched, no
job misses its deadline, no actor job is held by a node scheduler and
no release of any group falls between the instant and the group's last
completion, the completions are computed inline: each node runs its
jobs back to back in priority order, with no completion event, and one
deadline entry publishes every job's outputs in completion order, with
one bus update per remote node. Otherwise, on a node of its own that
was idle, the instant's jobs go to :meth:`NodeScheduler.admit
<repro.rtos.scheduler.NodeScheduler.admit>` after the last release, in
the position the last release's completion event would have taken. On
a shared or busy node, or with ``latched=False``, each member is
released to its node scheduler as it runs.

Three same-instant orders stay those of a periodic release per actor
and a completion event per job:

* releases at T come before the publications at T (with deadline =
  period, a consumer released at T sees what was published at T only at
  T + period);
* :attr:`DtmKernel.records`, the jitter samples and the schedulers'
  ``preemptions`` and ``jobs_completed`` follow completion order, ties
  broken as the completion events' positions would break them. An inline
  completion is recorded once the clock reaches it, so a job that ends
  past the ``run_until`` horizon stays out of the records;
* a foreign event at the instant (a frame delivery, a breakpoint halt
  that stalls the board) keeps its place relative to each member's
  release: every member after the first holds the position its own
  release would have taken (by advancing :attr:`Simulator.seq
  <repro.sim.kernel.Simulator.seq>`), and the group re-enters at that
  position when such an event comes first.
"""

from __future__ import annotations

from collections import deque
from functools import partial
from typing import Callable, Deque, Dict, List, Tuple

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

    def __init__(self, sim: Simulator, node: str,
                 firmware: FirmwareImage) -> None:
        self.node = node
        self.board = Board()
        self.board.load_firmware(firmware)
        self.scheduler = NodeScheduler(sim, node)
        self.job_hooks: List[JobHook] = []


#: ``(name, runtime, view, entry, inputs, outputs, priority)``: an actor's
#: release plan, resolved once when the kernel is built
_Member = Tuple[str, _NodeRuntime, Dict[str, int], int,
                Tuple[Tuple[int, str], ...], Tuple[Tuple[str, int], ...], int]


def _node_plans(entries: List[Tuple[_NodeRuntime, int]]
                ) -> List[Tuple[_NodeRuntime, List[int], List[int], int]]:
    """Per node of the ``(runtime, priority)`` release *entries*, in
    order of first appearance: the node's entry positions in release
    order, the same in priority order (FIFO among equals), and how many
    of its releases preempt, each outranking every job released before
    it (a scheduler counts those at the release)."""
    by_node: Dict[_NodeRuntime, List[int]] = {}
    for position, (runtime, _) in enumerate(entries):
        by_node.setdefault(runtime, []).append(position)
    plans = []
    for runtime, positions in by_node.items():
        best = entries[positions[0]][1]
        preemptions = 0
        for position in positions:
            if entries[position][1] < best:
                best = entries[position][1]
                preemptions += 1
        ordered = sorted(positions, key=lambda position: entries[position][1])
        plans.append((runtime, positions, ordered, preemptions))
    return plans


class _Group:
    """Actors released together: equal period, offset and deadline.

    Any actor whose timing no other actor shares is a group of one. One
    heap entry per instant releases the whole group
    (:meth:`DtmKernel._release_group`); :attr:`marks` holds the
    positions the members after the first would have taken with
    releases of their own.
    """

    __slots__ = ("members", "period", "offset", "deadline", "plans",
                 "others", "inline", "last_at", "next_at", "marks", "current",
                 "deferred", "jobs")

    def __init__(self, period: int, offset: int, deadline: int) -> None:
        #: release plans, in the system's actor order
        self.members: List[_Member] = []
        self.period = period
        self.offset = offset
        self.deadline = deadline
        #: :func:`_node_plans` of all members (set once they are known)
        self.plans: List[Tuple[_NodeRuntime, List[int], List[int], int]] = []
        #: every other group (set at start)
        self.others: Tuple[_Group, ...] = ()
        #: whether completions may ever run inline (set at start)
        self.inline = False
        #: the group's last and next release instants
        self.last_at = -1
        self.next_at = offset
        #: held positions of members 1.. at the next instant, and at
        #: the instant being released
        self.marks: List[int] = []
        self.current: List[int] = []
        #: the instant's mode and its deferred jobs
        self.deferred = False
        self.jobs: List[Tuple[int, int, int, Dict[str, int], int, int]] = []


class DtmKernel:
    """Executes a COMDES system under Distributed Timed Multitasking.

    Every actor job leaves one :class:`~repro.rtos.task.JobRecord` in
    :attr:`records`, a plain list holding the whole run: completed jobs
    at their completion, skipped ones at their release.

    Lifetime: the simulator's pending events, the schedulers' active
    jobs, the job hooks and the boards' emit and write hooks all point
    back at the objects that own this kernel, so a finished kernel sits
    in reference cycles until :meth:`close` drops them. Whoever runs
    the kernel to a verdict closes it (:func:`repro.engine.rig.run_to_verdict`
    does); results stay readable after :meth:`close`, but a closed
    kernel cannot start or run again.
    """

    def __init__(self, system: System, firmware: FirmwareImage,
                 latched: bool = True) -> None:
        """Build one board and scheduler per node of *system*, all on
        one simulator of the kernel's own (:attr:`sim`) and one signal
        bus.
        """
        self.system = system
        self.firmware = firmware
        self.sim = Simulator()
        self.latched = latched
        self._nodes: Dict[str, _NodeRuntime] = {}
        for node in system.nodes():
            self._nodes[node] = _NodeRuntime(self.sim, node, firmware)
        self.bus = SignalBus(self.sim, system.nodes(), system.initial_board())
        self.jitter = JitterMeter()
        self._records: List[JobRecord] = []
        #: inline completions not yet reached: ``(t_done, record,
        #: scheduler)`` in completion order
        self._done: Deque[Tuple[int, JobRecord, NodeScheduler]] = deque()
        #: actor jobs held by the node schedulers
        self._scheduled = 0
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
        self._groups: List[_Group] = []
        self._group_of: Dict[str, _Group] = {}
        by_timing: Dict[Tuple[int, int, int], _Group] = {}
        symbols = firmware.symbols
        for name, actor in system.actors.items():
            runtime = self._nodes[actor.node]
            view = self.bus.view(actor.node)
            for signal in actor.inputs.values():
                if signal not in view:
                    raise ModelError(f"no view of signal {signal!r} on node "
                                     f"{actor.node!r}")
            memory = runtime.board.memory
            task = actor.task
            timing = (task.period_us, task.offset_us, task.deadline_us)
            group = by_timing.get(timing)
            if group is None:
                group = by_timing[timing] = _Group(*timing)
                self._groups.append(group)
            group.members.append((
                name, runtime, view, firmware.entry_of(name),
                tuple((_cell_of(memory, symbols, f"{name}.in.{port}"), signal)
                      for port, signal in actor.inputs.items()),
                tuple((signal, _cell_of(memory, symbols, f"{name}.out.{port}"))
                      for port, signal in actor.outputs.items()),
                task.priority,
            ))
            self._group_of[name] = group
        for group in self._groups:
            group.plans = _node_plans([(member[1], member[6])
                                       for member in group.members])
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

    # -- results ----------------------------------------------------------

    @property
    def records(self) -> List[JobRecord]:
        """Every job record so far, in completion order (skipped jobs at
        their release); an inline completion appears once the clock
        reaches it."""
        if self._done:
            self._reach(self.sim.now)
        return self._records

    @property
    def releases(self) -> int:
        """Actor releases so far, skipped ones included."""
        return sum(self._job_index.values())

    # -- execution --------------------------------------------------------

    def start(self) -> None:
        """Schedule all periodic releases (idempotent-guarded)."""
        if self._closed:
            raise SchedulerError("kernel is closed")
        if self._started:
            raise SchedulerError("kernel already started")
        self._started = True
        loaded = {load.node for load in self._load_tasks}
        hosts: Dict[str, int] = {}
        for group in self._groups:
            for plan in group.plans:
                hosts[plan[0].node] = hosts.get(plan[0].node, 0) + 1
        for group in self._groups:
            group.others = tuple(other for other in self._groups
                                 if other is not group)
            # inline completion needs latched outputs and nodes that run
            # this group's jobs and nothing else
            group.inline = self.latched and all(
                plan[0].node not in loaded and hosts[plan[0].node] == 1
                for plan in group.plans)
        # the first member's position carries the group's entry; every
        # other member holds the position its own release would take
        sim = self.sim
        for name in self.system.actors:
            group = self._group_of[name]
            if group.members[0][0] == name:
                sim.schedule_at(group.offset, self._release_group, group)
            else:
                sim.seq += 1
                group.marks.append(sim.seq)
        for load in self._load_tasks:
            sim.every(load.period_us, self._release_load, load,
                      start=load.offset_us)

    def run(self, duration_us: int) -> None:
        """Start (if needed) and simulate until *duration_us*."""
        if self._closed:
            raise SchedulerError("kernel is closed")
        if not self._started:
            self.start()
        try:
            self.sim.run_until(duration_us)
        finally:
            if self._done:
                self._reach(self.sim.now)

    def close(self) -> None:
        """Drop the back-references that tie this rig into cycles.

        Clears the simulator's pending events, the schedulers' active
        jobs, the job hooks and every board's emit handler and write
        hook, so the rig is freed by reference counting once its owner
        lets go. Records, counters, the bus and the boards stay
        readable; a closed kernel cannot run again.
        """
        self._closed = True
        if self._done:
            self._reach(self.sim.now)
            self._done.clear()
        self.sim.clear()
        for runtime in self._nodes.values():
            runtime.scheduler.close()
            runtime.job_hooks = []
            runtime.board.cpu.emit_handler = None
            runtime.board.memory.set_write_hook(None)

    # -- actor jobs ----------------------------------------------------------

    def _release_group(self, group: _Group, first: int = 0) -> None:
        """Release *group*'s members at this instant, from *first* on.

        Each member latches, runs and captures as a release of its own
        would. Before member k, a live event at this instant that holds
        an earlier position than member k's (a frame delivery, a halt)
        must run first: the routine then re-enters at member k's held
        position and returns. At the group's first member it schedules
        the next instant; every later member holds its position there.
        """
        sim = self.sim
        now = sim.now
        if first == 0:
            group.last_at = now
            group.next_at = now + group.period
            group.current, group.marks = group.marks, []
            group.jobs = []
            # the group's nodes run only its jobs, so they are idle
            # unless some actor job is held by a scheduler
            group.deferred = deferred = (group.inline
                                         and self._scheduled == 0)
        else:
            deferred = group.deferred
        members = group.members
        queue = sim.queue
        marks = group.current
        held = group.marks
        jobs = group.jobs
        job_index = self._job_index
        deadline_abs = now + group.deadline
        for k in range(first, len(members)):
            if k and queue:
                # the head may be a tombstone: re-entering for one costs
                # an entry and changes no order
                head = queue[0]
                mark = marks[k - 1]
                if head[0] == now and head[1] < mark:
                    sim.schedule_seq(now, mark, self._release_group, group, k)
                    return
            name, runtime, view, entry, inputs, outputs_at, priority = \
                members[k]
            index = job_index[name]
            job_index[name] = index + 1
            board = runtime.board
            if board.stalled:
                if self._done:
                    self._reach(now)
                self.jobs_skipped += 1
                self._records.append(JobRecord(
                    name, index, now, None, deadline_abs, 0, skipped=True))
            else:
                cells = board.memory.cells
                # Input latching at the release instant.
                for cell, signal in inputs:
                    cells[cell] = view[signal]
                for hook in runtime.job_hooks:
                    hook(now)
                cpu = board.cpu
                cpu.reset_task(entry)
                cycles = cpu.run().cycles
                # Board.cycles_to_us, inline: rounded up to whole
                # microseconds
                clock_hz = board.clock_hz
                demand_us = (cycles * 1_000_000 + clock_hz - 1) // clock_hz
                # Outputs are captured now (they are functions of latched
                # inputs); visibility is deferred to the deadline.
                outputs: Dict[str, int] = {}
                for signal, cell in outputs_at:
                    outputs[signal] = cells[cell]
                if deferred:
                    # the position this release's completion event takes
                    sim.seq = seq = sim.seq + 1
                    jobs.append((k, index, demand_us, outputs, seq,
                                 priority))
                else:
                    self._scheduled += 1
                    runtime.scheduler.release(ActiveJob(
                        name, priority, now, deadline_abs, demand_us,
                        on_complete=partial(
                            self._on_job_complete, name, runtime.node,
                            index, outputs, now, deadline_abs, demand_us),
                    ))
            if k:
                sim.seq = seq = sim.seq + 1
                held.append(seq)
            else:
                sim.schedule_at(group.next_at, self._release_group, group)
        if jobs:
            self._complete_group(group, now, deadline_abs)

    def _complete_group(self, group: _Group, now: int,
                        deadline_abs: int) -> None:
        """Complete the instant's deferred jobs inline, or hand them to
        the node schedulers.

        Inline needs a quiet window: no job that misses its deadline,
        and no release of this or any other group from this instant
        until the last job completes. Then each node runs its jobs back
        to back in priority order with no completion event, and one
        deadline entry publishes them all. (No actor job was held by a
        scheduler when the instant began, or the group would not have
        deferred its jobs; only a release at this instant could add one
        since, and so could only an earlier inline window reach here.)
        """
        jobs = group.jobs
        members = group.members
        if len(jobs) == len(members):
            plans = group.plans
        else:
            plans = _node_plans([(members[job[0]][1], job[5])
                                 for job in jobs])
        inline = True
        t_last = now
        for _, positions, _, _ in plans:
            t_done = now
            for position in positions:
                demand_us = jobs[position][2]
                if demand_us <= 0:
                    inline = False
                t_done += demand_us
            if t_done > t_last:
                t_last = t_done
        if t_last > deadline_abs or t_last >= group.next_at:
            inline = False
        for other in group.others:
            if other.last_at == now or other.next_at <= t_last:
                inline = False
        if not inline:
            for runtime, positions, _, _ in plans:
                active = []
                for position in positions:
                    k, index, demand_us, outputs, _, priority = jobs[position]
                    name = members[k][0]
                    active.append(ActiveJob(
                        name, priority, now, deadline_abs, demand_us,
                        on_complete=partial(
                            self._on_job_complete, name, runtime.node,
                            index, outputs, now, deadline_abs, demand_us)))
                self._scheduled += len(active)
                runtime.scheduler.admit(active, jobs[positions[-1]][4])
            return
        # Each node runs its jobs back to back in priority order. Across
        # nodes, completion events order by (time, seq): a node's first
        # was scheduled at its last release, each later one when the one
        # before it completed. So a first completion sorts by its
        # release's seq, and a later one after every first completion at
        # its instant, then as the completion before it sorted.
        completions = []
        for runtime, positions, ordered, preemptions in plans:
            runtime.scheduler.preemptions += preemptions
            t_done = now
            key = jobs[positions[-1]][4]
            later = 0
            for position in ordered:
                t_done += jobs[position][2]
                key = (t_done, later, key)
                later = 1
                completions.append((key, position, runtime))
        completions.sort()
        done = self._done
        publications = []
        for (t_done, _, _), position, runtime in completions:
            k, index, demand_us, outputs, _, _ = jobs[position]
            done.append((t_done, JobRecord(
                members[k][0], index, now, t_done, deadline_abs, demand_us),
                runtime.scheduler))
            publications.append((runtime.node, outputs))
        self.sim.schedule_at(deadline_abs, self._publish_group, now,
                             publications)

    def _publish_group(self, release: int,
                       publications: List[Tuple[str, Dict[str, int]]]) -> None:
        """DTM: publish an inline group's outputs at its deadline, in
        completion order."""
        self.bus.publish_all(publications)
        self.jitter.record_all(publications, release, self.sim.now)

    def _reach(self, now: int) -> None:
        """Record every inline completion at or before *now*."""
        done = self._done
        records = self._records
        while done and done[0][0] <= now:
            _, record, scheduler = done.popleft()
            records.append(record)
            scheduler.jobs_completed += 1

    def _on_job_complete(self, name: str, node: str, index: int,
                         outputs: Dict[str, int], release: int,
                         deadline_abs: int, demand_us: int,
                         t_done: int) -> None:
        self._scheduled -= 1
        if self._done:
            self._reach(t_done)
        record = JobRecord(name, index, release, t_done, deadline_abs,
                           demand_us)
        self._records.append(record)
        if record.missed:
            self.deadline_misses += 1
        if self.latched and not record.missed:
            # DTM: publish exactly at the deadline instant.
            self.sim.schedule_at(deadline_abs, self._publish, node, release,
                                 outputs)
        else:
            self._publish(node, release, outputs)

    def _publish(self, node: str, release: int,
                 outputs: Dict[str, int]) -> None:
        self.bus.publish(node, outputs)
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
