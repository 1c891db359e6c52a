"""The debug link layer: transaction-accounted host <-> target transport.

Every byte that moves between the debugger host and the embedded target
crosses a :class:`DebugLink`. The link owns the *transport cost model* —
what a transaction costs, how many words or frames it carried — so the
layers above it (:class:`~repro.comm.channel.PassiveChannel`,
:class:`~repro.comm.channel.ActiveChannel`, the fault injectors) never
price I/O themselves and never issue more transactions than the
link hands them.

Two concrete links cover the framework's access paths:

* :class:`JtagLink` — scan-chain access through a
  :class:`~repro.comm.jtag.JtagProbe`: TCK-rate cost per shifted bit,
  plus one USB round trip per *transaction* (not per word — block and
  scatter reads ride the TAP's BLOCKREAD auto-increment so a whole poll
  is a single transaction).
* :class:`SerialLink` — the active interface's RS-232 line: per-byte
  line time, store-and-forward queueing, optional corruption, and a
  fixed host-side latency per received frame. :meth:`SerialLink.charge_frame`
  is its one frame accounting, with or without the frame's bytes.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.comm.jtag import JtagProbe
from repro.comm.rs232 import Rs232Link
from repro.errors import CommError
from repro.obs.runtime import OBS
from repro.target.board import Board


class DebugLink:
    """Base transport: transaction accounting shared by every link kind.

    A *transaction* is one host <-> target round trip, whatever it
    carries. Cost is modeled microseconds. Subclasses implement the
    operations they physically support and raise :class:`CommError`
    for the rest (a serial command stream cannot read memory).
    """

    kind = "abstract"

    def __init__(self) -> None:
        #: attribution channel this link's traffic is booked under in
        #: per-channel transport accounting ("passive", "active", ...);
        #: defaults to the transport kind until a layer claims it.
        self.label = type(self).kind
        self.transactions = 0
        self.words_read = 0
        self.words_written = 0
        self.frames_carried = 0
        self.cost_us_total = 0
        if OBS.metrics is not None:
            # stats() IS the registry series (repro.obs unification):
            # every key folds into a link.* counter labeled by the
            # dict's own kind/label fields, read at snapshot time so
            # wrapper kinds ("chaos[serial]") and later channel label
            # claims land correctly. Wrappers mirror their inner
            # link's counters, so each series is one link's honest
            # books — a total takes the outermost links only, not the
            # sum of every link.* kind.
            OBS.metrics.bind_stats("link", self.stats, owner=self,
                                   label_keys=("kind", "label"))

    def _account(self, cost_us: int, words_read: int = 0,
                 words_written: int = 0, frames: int = 0) -> int:
        self.transactions += 1
        self.words_read += words_read
        self.words_written += words_written
        self.frames_carried += frames
        self.cost_us_total += cost_us
        return cost_us

    # -- memory-access contract (JTAG-class links) -------------------------

    def read_word(self, addr: int) -> Tuple[int, int]:
        """Read one word; returns ``(value, cost_us)``. One transaction."""
        raise CommError(f"{self.kind} link cannot read target memory")

    def read_scatter(self, addrs: Sequence[int]) -> Tuple[List[int], int]:
        """Read arbitrary words batched into runs. One transaction."""
        raise CommError(f"{self.kind} link cannot read target memory")

    def write_block(self, base: int, values: Sequence[int]) -> int:
        """Write consecutive words starting at *base*. One transaction."""
        raise CommError(f"{self.kind} link cannot write target memory")

    # -- frame contract (serial-class links) -------------------------------

    def transmit_frame(self, t_ready: int,
                       frame: bytes) -> Tuple[bytes, int, int]:
        """Carry one frame; returns ``(wire_frame, t_line_done, t_host_arrival)``."""
        raise CommError(f"{self.kind} link cannot carry command frames")

    # -- run control -------------------------------------------------------

    def halt_target(self) -> None:
        raise CommError(f"{self.kind} link cannot control the target")

    def resume_target(self) -> None:
        raise CommError(f"{self.kind} link cannot control the target")

    # -- introspection -----------------------------------------------------

    def stats(self) -> Dict[str, int]:
        """Accounting snapshot: transactions, words, frames, total cost."""
        return {
            "kind": self.kind,
            "label": self.label,
            "transactions": self.transactions,
            "words_read": self.words_read,
            "words_written": self.words_written,
            "frames_carried": self.frames_carried,
            "cost_us_total": self.cost_us_total,
        }

    def __repr__(self) -> str:
        return (f"<{type(self).__name__} {self.transactions} txn, "
                f"{self.cost_us_total}us>")


class JtagLink(DebugLink):
    """Scan-chain access: one USB transaction per operation, never per word."""

    kind = "jtag"

    def __init__(self, probe: JtagProbe) -> None:
        super().__init__()
        self.probe = probe

    def read_word(self, addr: int) -> Tuple[int, int]:
        value, cost = self.probe.read_word_timed(addr)
        return value, self._account(cost, words_read=1)

    def read_scatter(self, addrs: Sequence[int]) -> Tuple[List[int], int]:
        values, cost = self.probe.read_scatter_timed(addrs)
        return values, self._account(cost, words_read=len(addrs))

    def write_block(self, base: int, values: Sequence[int]) -> int:
        cost = self.probe.write_block_timed(base, values)
        return self._account(cost, words_written=len(values))

    def halt_target(self) -> None:
        self.probe.halt_target()

    def resume_target(self) -> None:
        self.probe.resume_target()


class SerialLink(DebugLink):
    """The active interface's transport: RS-232 line + host receive latency.

    Owns the line model and the fixed per-frame host latency that used to
    live inside the channel; the channel only decides *what* to send and
    *when* the target made it ready.
    """

    kind = "serial"
    #: fixed host-side receive latency of every frame
    host_latency_us = 50

    def __init__(self, line: Optional[Rs232Link] = None,
                 board: Optional[Board] = None) -> None:
        super().__init__()
        self.line = line if line is not None else Rs232Link()
        self.board = board

    def transmit_frame(self, t_ready: int,
                       frame: bytes) -> Tuple[bytes, int, int]:
        """Serialize one frame; returns the (possibly corrupted) wire bytes,
        the instant the line finishes, and the host-side arrival instant.
        """
        t_done, t_arrive = self.charge_frame(t_ready, len(frame))
        line = self.line
        # a clean line returns the frame as is: skip the noise model
        wire = frame if line.byte_error_rate == 0.0 else line.corrupt(frame)
        return bytes(wire), t_done, t_arrive

    def charge_frame(self, t_ready: int, nbytes: int) -> Tuple[int, int]:
        """Charge one *nbytes* frame to the line and to this link's books;
        returns the instant the line finishes and the host-side arrival
        instant. :meth:`transmit_frame` charges every frame here, and so
        does an :class:`~repro.comm.channel.ActiveChannel` that hands a
        clean wire's fields on without making the frame's bytes.

        Cost charged to the link is what this frame's transport really
        costs — line time plus host latency — not the queueing wait
        behind earlier frames (that is congestion, not transport).
        """
        t_start, t_done = self.line.transmit(t_ready, nbytes)
        latency = self.host_latency_us
        # _account(cost, frames=1), inline
        self.transactions += 1
        self.frames_carried += 1
        self.cost_us_total += t_done - t_start + latency
        return t_done, t_done + latency

    def halt_target(self) -> None:
        """Debug-agent halt request carried over the serial RX line."""
        if self.board is None:
            raise CommError("serial link is not attached to a board")
        self.board.stalled = True

    def resume_target(self) -> None:
        if self.board is None:
            raise CommError("serial link is not attached to a board")
        self.board.stalled = False


def write_patches(link: DebugLink, patches: Sequence[Tuple[int, int]]) -> int:
    """Apply ``(addr, value)`` memory patches through *link*, batched.

    The write-side scatter planner: patches are grouped into maximal
    contiguous address runs and every run becomes one
    :meth:`DebugLink.write_block` call — on a JTAG link that is one
    MEMADDR + BLOCKWRITE sequence per run and one USB transaction each,
    instead of a round trip per patched word. Later duplicates of an
    address win (the order fault injectors produce). Returns the total
    modeled cost in microseconds.
    """
    if not patches:
        return 0
    by_addr = {addr: value for addr, value in patches}
    cost = 0
    run_base: Optional[int] = None
    run_values: List[int] = []
    for addr in sorted(by_addr):
        if run_base is not None and addr == run_base + len(run_values):
            run_values.append(by_addr[addr])
            continue
        if run_base is not None:
            cost += link.write_block(run_base, run_values)
        run_base, run_values = addr, [by_addr[addr]]
    cost += link.write_block(run_base, run_values)
    return cost
