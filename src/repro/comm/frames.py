"""Wire format of debug command frames.

A frame is 10 bytes::

    SOF(0x7E)  LEN  KIND  PATH_ID(2, LE)  VALUE(4, LE signed)  CHECKSUM

``LEN`` counts the bytes between itself and the checksum (always 7 here but
kept on the wire for forward compatibility). The checksum is the modulo-256
sum of LEN..VALUE. The decoder is a resynchronizing state machine: garbage
and corrupted frames are counted and skipped, never fatal — a debugger must
survive a noisy serial line.

Only a wire that can corrupt still makes and parses these bytes: an
:class:`~repro.comm.channel.ActiveChannel` behind a
:class:`~repro.comm.chaos.ChaosLink` (any config) or on a noisy line
encodes every frame and feeds the wire bytes to its
:class:`FrameDecoder`. On a clean serial line the channel hands the
fields on directly: it range-checks them as :func:`check_fields` does
(the same :class:`FrameError`), charges :data:`FRAME_LEN` bytes, wraps
the value to signed 32 bits as the decode does and counts the frame in
``frames_decoded`` at delivery, so its books read as if this decoder
had parsed the frame.
"""

from __future__ import annotations

import struct
from typing import List, Tuple

from repro.errors import CommError

SOF = 0x7E
PAYLOAD_LEN = 7  # KIND(1) + PATH_ID(2) + VALUE(4)
FRAME_LEN = 10   # SOF + LEN + payload + checksum

MAX_PATH_ID = 0xFFFF

#: SOF, LEN, KIND, PATH_ID, VALUE as sent (everything but the checksum)
_HEAD = struct.Struct("<BBBHI")
#: KIND, PATH_ID, VALUE as decoded (the value read back signed)
_PAYLOAD = struct.Struct("<BHi")


class FrameError(CommError):
    """A frame could not be encoded (bad field ranges)."""


def check_fields(kind: int, path_id: int) -> None:
    """Raise :class:`FrameError` unless *kind* and *path_id* fit the wire."""
    if not (0 <= kind <= 0xFF):
        raise FrameError(f"kind {kind} out of byte range")
    if not (0 <= path_id <= MAX_PATH_ID):
        raise FrameError(f"path id {path_id} out of range 0..{MAX_PATH_ID}")


def encode_frame(kind: int, path_id: int, value: int) -> bytes:
    """Encode one command frame."""
    check_fields(kind, path_id)
    head = _HEAD.pack(SOF, PAYLOAD_LEN, kind, path_id, value & 0xFFFFFFFF)
    # checksum: modulo-256 sum of LEN..VALUE
    return head + bytes(((sum(head) - SOF) & 0xFF,))


class FrameDecoder:
    """Streaming decoder; feed() bytes in any chunking."""

    def __init__(self) -> None:
        self._buffer = bytearray()
        self.frames_decoded = 0
        self.checksum_errors = 0
        self.framing_errors = 0

    def feed(self, data: bytes) -> List[Tuple[int, int, int]]:
        """Consume *data*; return decoded (kind, path_id, value) tuples."""
        buffer = self._buffer
        buffer.extend(data)
        out: List[Tuple[int, int, int]] = []
        while True:
            # Resynchronize on SOF — one find() instead of a byte-at-a-
            # time pop loop, so a garbage burst costs O(n), not O(n^2).
            sof = buffer.find(SOF)
            if sof < 0:
                self.framing_errors += len(buffer)
                buffer.clear()
            elif sof:
                self.framing_errors += sof
                del buffer[:sof]
            if len(buffer) < FRAME_LEN:
                return out
            if (buffer[1] != PAYLOAD_LEN
                    or sum(buffer[1:FRAME_LEN - 1]) & 0xFF
                    != buffer[FRAME_LEN - 1]):
                # Corrupt: drop the SOF and rescan (classic resync).
                del buffer[0]
                self.checksum_errors += 1
                continue
            out.append(_PAYLOAD.unpack_from(buffer, 2))
            del buffer[:FRAME_LEN]
            self.frames_decoded += 1
