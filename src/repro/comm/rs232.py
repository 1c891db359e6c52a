"""RS-232 serial link model.

Models the prototype's active interface transport: 8N1 framing (10 line bits
per byte) at a configurable baud rate, with store-and-forward serialization —
a frame queued while the line is busy waits for the line to free up. The
model works at frame granularity but with exact per-byte line time, which
preserves bandwidth and queueing behaviour without simulating edges.

An optional per-byte error probability models a noisy cable: corrupted
frames fail their checksum at the decoder and are dropped (counted) — the
failure mode the frame protocol's resynchronization exists for.
"""

from __future__ import annotations

import random
from typing import Tuple

from repro.errors import CommError

#: standard baud rates accepted without warning (others allowed, just unusual)
STANDARD_BAUDS = (9600, 19200, 38400, 57600, 115200, 230400)

LINE_BITS_PER_BYTE = 10  # start + 8 data + stop


class Rs232Link:
    """A one-directional serial line with busy tracking."""

    def __init__(self, baud: int = 115200, byte_error_rate: float = 0.0,
                 seed: int = 0) -> None:
        if baud <= 0:
            raise CommError(f"baud must be positive, got {baud}")
        if not (0.0 <= byte_error_rate < 1.0):
            raise CommError(
                f"byte_error_rate must be in [0, 1), got {byte_error_rate}"
            )
        self.baud = baud
        self.byte_error_rate = byte_error_rate
        self._rng = random.Random(seed)
        self._free_at = 0
        self.bytes_carried = 0
        self.bytes_corrupted = 0
        self.busy_us = 0

    def byte_time_us(self) -> float:
        """Line time of one byte in microseconds (exact rational)."""
        return LINE_BITS_PER_BYTE * 1_000_000 / self.baud

    def transmit(self, t_ready: int, nbytes: int) -> Tuple[int, int]:
        """Send *nbytes* that become ready at *t_ready*.

        Returns ``(t_start, t_done)`` in microseconds. Serialization is
        FIFO: transmission starts when both the data is ready and the line
        is free.
        """
        if nbytes <= 0:
            raise CommError(f"nbytes must be positive, got {nbytes}")
        t_start = max(t_ready, self._free_at)
        # nbytes * byte_time_us(), inline
        duration = round(nbytes * (LINE_BITS_PER_BYTE * 1_000_000 / self.baud))
        t_done = t_start + max(1, duration)
        self._free_at = t_done
        self.bytes_carried += nbytes
        self.busy_us += t_done - t_start
        return t_start, t_done

    def corrupt(self, data: bytes) -> bytes:
        """Apply line noise: each byte flips one random bit with probability
        ``byte_error_rate``. Returns the (possibly altered) bytes."""
        if self.byte_error_rate == 0.0:
            return data
        out = bytearray(data)
        for index in range(len(out)):
            if self._rng.random() < self.byte_error_rate:
                out[index] ^= 1 << self._rng.randrange(8)
                self.bytes_corrupted += 1
        return bytes(out)

    @property
    def free_at(self) -> int:
        """Earliest time the line can start a new transmission."""
        return self._free_at
