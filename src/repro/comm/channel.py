"""Debug channels: how commands travel from the target to the GDM.

Both of the paper's command-interface solutions implement the same
:class:`DebugChannel` contract, so the runtime engine is agnostic:

* :class:`ActiveChannel` — instrumented code EMITs; frames cross an RS-232
  link with UART FIFO accounting; the cost is target cycles per command.
  Only a wire that can corrupt carries frame bytes: behind a
  :class:`~repro.comm.chaos.ChaosLink` or on a noisy line each command is
  encoded and fed to the channel's :class:`~repro.comm.frames.FrameDecoder`.
  On a clean serial line the fields go to the host as they are, with the
  same bytes charged and the same counters kept.
* :class:`PassiveChannel` — a JTAG probe polls monitored variables and
  synthesizes commands on change; zero target cost, latency bounded by the
  poll period plus scan time.

The active channel accounts the UART TX FIFO without rescanning it: the
frames still on the line sit in a min-heap on the instant the line
finishes them, next to a running count of their bytes, so a frame costs
one push and each retirement one pop. An emission first
retires every frame the line has finished by its timestamp, then admits
its own frame only if it fits the FIFO (an overrun drops it). This is
exactly the occupancy of the older full rescan, which kept every frame
with ``t_done > t_emit``: a retired frame stays retired even when the
next job's ``t_emit`` is earlier (two jobs released at one instant).

Neither channel talks to a transport directly: all host <-> target I/O
routes through a :class:`~repro.comm.link.DebugLink`, which owns the cost
model and the transaction batching. A passive poll is **one** link
transaction regardless of watch count — the poll plan (addresses resolved,
contiguous runs grouped) is compiled once at :meth:`PassiveChannel.start`.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Callable, List, Optional, Sequence, Tuple

from repro.comdes.fsm import StateMachine
from repro.comm.frames import (FRAME_LEN, MAX_PATH_ID, FrameDecoder,
                               check_fields, encode_frame)
from repro.comm.jtag import JtagProbe, group_runs
from repro.comm.link import DebugLink, JtagLink, SerialLink
from repro.comm.protocol import Command, CommandKind
from repro.comm.rs232 import Rs232Link
from repro.errors import CommError
from repro.obs.runtime import OBS
from repro.sim.kernel import Simulator
from repro.target.board import Board
from repro.target.firmware import FirmwareImage

CommandHandler = Callable[[Command], None]

#: wire discriminator -> kind (unknown bytes still raise via CommandKind)
_KINDS = {kind.value: kind for kind in CommandKind}

#: the VALUE field's sign bit: the wire carries the low 32 bits, signed
_SIGN = 0x80000000


class DebugChannel:
    """Base class: fan-out of decoded commands to subscribers."""

    def __init__(self) -> None:
        # copy-on-subscribe: deliver iterates the tuple current at its start
        self._handlers: Tuple[CommandHandler, ...] = ()
        self.commands_delivered = 0

    def subscribe(self, handler: CommandHandler) -> None:
        """Register a command consumer (the engine, trace recorders...)."""
        self._handlers += (handler,)

    def deliver(self, command: Command) -> None:
        """Hand a command to every subscriber."""
        self.commands_delivered += 1
        for handler in self._handlers:
            handler(command)

    def close(self) -> None:
        """Unsubscribe every handler (subscribers often point back here)."""
        self._handlers = ()

    # Target control used by model-level breakpoints; channel-specific.
    def halt_target(self) -> None:
        raise NotImplementedError

    def resume_target(self) -> None:
        raise NotImplementedError


class CompositeChannel(DebugChannel):
    """Fans several channels (one per node) into one engine-facing channel."""

    def __init__(self) -> None:
        super().__init__()
        self.children: List[DebugChannel] = []

    def add(self, child: DebugChannel) -> DebugChannel:
        """Attach a child channel; its commands flow through this one."""
        self.children.append(child)
        child.subscribe(self.deliver)
        return child

    def close(self) -> None:
        """Unsubscribe every handler here and in every child."""
        super().close()
        for child in self.children:
            child.close()

    def halt_target(self) -> None:
        """Stall every node."""
        for child in self.children:
            child.halt_target()

    def resume_target(self) -> None:
        """Release every node."""
        for child in self.children:
            child.resume_target()


class ActiveChannel(DebugChannel):
    """Active command interface: EMIT -> UART FIFO -> RS-232 -> decoder.

    The RTOS (or any job runner) must call :meth:`begin_job` with the job's
    release time before executing target code, so emission timestamps can be
    derived from the CPU cycle counter.

    Every emission decides its path from :attr:`debug_link` as it stands
    (a campaign swaps in a :class:`~repro.comm.chaos.ChaosLink` after
    construction):

    * **clean wire** — the link is a plain
      :class:`~repro.comm.link.SerialLink` whose line has
      ``byte_error_rate`` 0. Nothing can alter the frame, so none is
      made: ``kind`` and ``path_id`` are range-checked (the same
      :class:`~repro.comm.frames.FrameError`), ``FRAME_LEN`` bytes are
      charged to the UART FIFO, the line and the link books, the value
      is wrapped to signed 32 bits as the decode does, and
      ``decoder.frames_decoded`` counts the frame at delivery.
    * **byte path** — any ``ChaosLink`` (a disabled config included) or a
      noisy line: the frame is encoded, carried by ``transmit_frame`` and
      parsed back by :attr:`decoder`, the reference the clean wire
      matches.
    """

    def __init__(self, sim: Simulator, board: Board, firmware: FirmwareImage,
                 link: Optional[Rs232Link] = None) -> None:
        super().__init__()
        self.sim = sim
        self.board = board
        self.firmware = firmware
        self.debug_link = SerialLink(link, board)
        self.decoder = FrameDecoder()
        self.frames_sent = 0
        self.frames_dropped = 0
        self._job_base_cycles = 0
        self._job_base_time = 0
        # frames on the line: min-heap of (t_done, nbytes), and their bytes
        self._inflight: List[Tuple[int, int]] = []
        self._pending_bytes = 0
        self._paths = firmware.path_table
        board.cpu.emit_handler = self._on_emit

    @property
    def link(self) -> Rs232Link:
        """The underlying serial line (swap it to model a different cable)."""
        return self.debug_link.line

    @link.setter
    def link(self, line: Rs232Link) -> None:
        self.debug_link.line = line

    def begin_job(self, t_release: int) -> None:
        """Anchor subsequent emissions to this job's release instant."""
        self._job_base_cycles = self.board.cpu.cycles
        self._job_base_time = t_release

    def _on_emit(self, kind: int, path_id: int, value: int) -> None:
        board = self.board
        clock_hz = board.clock_hz
        # Board.cycles_to_us of the cycles since the job began, inline
        t_emit = self._job_base_time + (
            (board.cpu.cycles - self._job_base_cycles) * 1_000_000
            + clock_hz - 1) // clock_hz
        link = self.debug_link
        clean = (link.__class__ is SerialLink
                 and link.line.byte_error_rate == 0.0)
        if clean:
            if not (0 <= kind <= 0xFF and 0 <= path_id <= MAX_PATH_ID):
                check_fields(kind, path_id)  # raises encode_frame's error
            nbytes = FRAME_LEN
        else:
            frame = encode_frame(kind, path_id, value)
            nbytes = len(frame)

        # UART FIFO occupancy: bytes whose transmission has not finished.
        inflight = self._inflight
        pending = self._pending_bytes
        while inflight and inflight[0][0] <= t_emit:
            pending -= heappop(inflight)[1]
        self._pending_bytes = pending
        uart = board.uart
        if pending + nbytes > uart.fifo_depth:
            uart.overruns += 1
            self.frames_dropped += 1
            return

        if clean:
            t_done, t_arrive = link.charge_frame(t_emit, nbytes)
        else:
            wire_frame, t_done, t_arrive = link.transmit_frame(t_emit, frame)
        heappush(inflight, (t_done, nbytes))
        self._pending_bytes = pending + nbytes
        uart.bytes_sent += nbytes
        self.frames_sent += 1
        sim = self.sim
        if t_arrive < sim.now:
            t_arrive = sim.now
        if clean:
            sim.schedule_at(t_arrive, self._deliver_fields, kind, path_id,
                            ((value + _SIGN) & 0xFFFFFFFF) - _SIGN, t_emit)
        else:
            sim.schedule_at(t_arrive, self._deliver_frame, wire_frame, t_emit)

    def _deliver_frame(self, frame: bytes, t_emit: int) -> None:
        paths = self._paths
        t_host = self.sim.now
        for kind, path_id, value in self.decoder.feed(frame):
            command = Command(
                _KINDS.get(kind) or CommandKind(kind),
                paths.get(path_id) or self.firmware.path_of_id(path_id),
                value, t_emit, t_host,
            )
            self.deliver(command)

    def _deliver_fields(self, kind: int, path_id: int, value: int,
                        t_emit: int) -> None:
        """Deliver a clean wire's frame: what the decoder reads back."""
        self.decoder.frames_decoded += 1
        self.deliver(Command(
            _KINDS.get(kind) or CommandKind(kind),
            self._paths.get(path_id) or self.firmware.path_of_id(path_id),
            value, t_emit, self.sim.now,
        ))

    def halt_target(self) -> None:
        """Stall the target (debug-agent request carried over the serial RX)."""
        self.debug_link.halt_target()

    def resume_target(self) -> None:
        """Release the target."""
        self.debug_link.resume_target()


class WatchSpec:
    """One monitored variable for the passive channel.

    ``make_command(value)`` maps a newly observed value to the command to
    synthesize, or returns None to suppress (e.g. out-of-range state index).
    """

    def __init__(self, symbol: str,
                 make_command: Callable[[int], Optional[Tuple[CommandKind, str, int]]]) -> None:
        self.symbol = symbol
        self.make_command = make_command

    @classmethod
    def signal(cls, producer_actor: str, port: str, signal_name: str) -> "WatchSpec":
        """Watch an actor output word as a signal update."""
        path = f"signal:{signal_name}"
        return cls(f"{producer_actor}.out.{port}",
                   lambda value: (CommandKind.SIG_UPDATE, path, value))

    @classmethod
    def state_machine(cls, actor_name: str, block_scope: str,
                      machine: StateMachine) -> "WatchSpec":
        """Watch a state variable; values map to STATE_ENTER commands."""
        states = list(machine.states)

        def make(value: int) -> Optional[Tuple[CommandKind, str, int]]:
            if not (0 <= value < len(states)):
                return None
            path = f"state:{actor_name}.{block_scope}.{states[value]}"
            return (CommandKind.STATE_ENTER, path, value)

        return cls(f"{actor_name}.{block_scope}.$_state", make)

    def __repr__(self) -> str:
        return f"<WatchSpec {self.symbol}>"


class PollPlan:
    """A compiled passive poll: addresses resolved, contiguous runs grouped.

    Built once at :meth:`PassiveChannel.start`; every subsequent poll just
    replays it. ``addrs[i]`` is the RAM address of watch *i*; ``runs`` is
    the block-transfer plan the link executes in one transaction.
    """

    __slots__ = ("addrs", "runs")

    def __init__(self, addrs: Sequence[int]) -> None:
        self.addrs = list(addrs)
        self.runs = group_runs(self.addrs)

    def __repr__(self) -> str:
        return (f"<PollPlan {len(self.addrs)} watch(es) in "
                f"{len(self.runs)} run(s)>")


class PassiveChannel(DebugChannel):
    """Passive command interface: periodic JTAG scan of monitored variables.

    Every poll executes the precompiled :class:`PollPlan` as **one** link
    transaction (block reads riding the TAP's BLOCKREAD auto-increment),
    synthesizing a command for each changed word. Between polls the target
    runs completely undisturbed — and the poll itself never touches it.
    """

    def __init__(self, sim: Simulator, probe: Optional[JtagProbe],
                 firmware: FirmwareImage, watches: Sequence[WatchSpec],
                 poll_period_us: int = 500,
                 link: Optional[DebugLink] = None) -> None:
        super().__init__()
        if poll_period_us <= 0:
            raise CommError(f"poll period must be positive, got {poll_period_us}")
        if not watches:
            raise CommError("passive channel needs at least one watch")
        if link is None:
            if probe is None:
                raise CommError("passive channel needs a probe or a link")
            link = JtagLink(probe)
        self.sim = sim
        self.link = link
        self.probe = probe if probe is not None else getattr(link, "probe", None)
        self.firmware = firmware
        self.watches = list(watches)
        self.poll_period_us = poll_period_us
        self.polls = 0
        self.scan_us_total = 0
        if OBS.metrics is not None:
            # the channel's poll books become poll.* registry series
            # (read once per snapshot; the poll path stays untouched)
            OBS.metrics.bind_stats(
                "poll",
                lambda: {"polls": self.polls,
                         "scan_us_total": self.scan_us_total,
                         "watches": len(self.watches)},
                owner=self)
        self.plan: Optional[PollPlan] = None
        self._last: List[int] = []
        for watch in self.watches:
            firmware.symbols.lookup(watch.symbol)  # fail fast on bad names

    def start(self) -> None:
        """Compile the poll plan, baseline all watches, poll periodically.

        Symbol resolution happens here, exactly once per watch — polls
        never consult the symbol table again.
        """
        if self.plan is not None:
            raise CommError("passive channel already started")
        symbols = self.firmware.symbols
        self.plan = PollPlan([symbols.addr_of(w.symbol)
                              for w in self.watches])
        self._last, _ = self.link.read_scatter(self.plan.addrs)
        self.sim.every(self.poll_period_us, self._poll)

    def _poll(self) -> None:
        self.polls += 1
        t_poll = self.sim.now
        values, scan_cost = self.link.read_scatter(self.plan.addrs)
        self.scan_us_total += scan_cost
        last = self._last
        for index, value in enumerate(values):
            if value == last[index]:
                continue
            last[index] = value
            made = self.watches[index].make_command(value)
            if made is None:
                continue
            kind, path, mapped = made
            self.sim.schedule(scan_cost, self._deliver_change,
                              kind, path, mapped, t_poll)

    def _deliver_change(self, kind: CommandKind, path: str, value: int,
                        t_poll: int) -> None:
        self.deliver(Command(kind, path, value,
                             t_target=t_poll, t_host=self.sim.now))

    def halt_target(self) -> None:
        """Stall the target through the TAP HALT instruction."""
        self.link.halt_target()

    def resume_target(self) -> None:
        """Release the target through the TAP RESUME instruction."""
        self.link.resume_target()
