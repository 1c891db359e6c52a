"""On-chip peripherals: the debug UART.

The UART models only what the active command interface needs to be honest
about: a bounded TX FIFO and overrun accounting, which benchmark E7 and
the FIFO-overrun tests read back. The FIFO's occupancy lives with its one
writer, :meth:`repro.comm.channel.ActiveChannel._on_emit`, which keeps the
bytes in flight on the wire and admits each frame **atomically** (a frame
either fits entirely or is dropped entirely — half-queued debug frames
would corrupt the wire protocol).
"""

from __future__ import annotations

from repro.errors import TargetFault


class Uart:
    """The debug UART's transmit side: FIFO depth, overruns, bytes sent."""

    __slots__ = ("fifo_depth", "overruns", "bytes_sent")

    def __init__(self, fifo_depth: int = 64) -> None:
        if fifo_depth <= 0:
            raise TargetFault(f"UART FIFO depth must be positive, got {fifo_depth}")
        self.fifo_depth = fifo_depth
        self.overruns = 0
        self.bytes_sent = 0
