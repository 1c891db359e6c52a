"""One segment: a run of consecutive records in one file, written once.

A :class:`SegmentWriter` owns the open file of the store's *active*
segment; when the store rotates, the writer closes and its
:class:`SegmentInfo` (the index row) is frozen. Reading never needs the
writer — :func:`read_segment` streams any segment file, live or closed,
and :func:`read_segment_payloads` streams the same records as raw
canonical payloads. Every write goes through
:meth:`SegmentWriter.append_payload`, the one place a payload is framed
as a line.
"""

from __future__ import annotations

import json
import os
from typing import Iterator

from repro.errors import TraceStoreError
from repro.tracedb.format import read_header, write_header


class SegmentInfo:
    """The per-segment index row: seq extent and placement."""

    __slots__ = ("name", "first_seq", "last_seq", "count", "byte_size")

    def __init__(self, name: str, first_seq: int, last_seq: int,
                 count: int, byte_size: int) -> None:
        self.name = name
        self.first_seq = first_seq
        self.last_seq = last_seq
        self.count = count
        self.byte_size = byte_size

    def intersects_seq(self, lo: int, hi: int) -> bool:
        """Whether this segment can hold seqs in [lo, hi] (inclusive)."""
        return bool(self.count) and self.last_seq >= lo and self.first_seq <= hi

    def to_dict(self) -> dict:
        return {"name": self.name, "first_seq": self.first_seq,
                "last_seq": self.last_seq,
                "count": self.count, "byte_size": self.byte_size}

    @classmethod
    def from_dict(cls, data: dict) -> "SegmentInfo":
        return cls(data["name"], data["first_seq"], data["last_seq"],
                   data["count"], data["byte_size"])

    def __repr__(self) -> str:
        return (f"<SegmentInfo {self.name} seq {self.first_seq}.."
                f"{self.last_seq} ({self.count} records)>")


class SegmentWriter:
    """Appends records to one segment file, tracking its index extents."""

    def __init__(self, root: str, name: str, first_seq: int) -> None:
        self.name = name
        self.path = os.path.join(root, name)
        self.first_seq = first_seq
        self.last_seq = first_seq - 1
        self.count = 0
        self._fh = open(self.path, "wb")
        self.byte_size = write_header(self._fh)

    def append_payload(self, seq: int, payload: bytes) -> None:
        """Write one record given as its canonical payload — the one
        segment write path. *seq* is the payload's own top-level seq;
        the caller guarantees seq order."""
        if self._fh is None:
            raise TraceStoreError(f"segment {self.name} is closed")
        self.last_seq = seq
        self.count += 1
        framed = payload + b"\n"
        self._fh.write(framed)
        self.byte_size += len(framed)

    def flush(self) -> None:
        """Push buffered bytes to the OS so readers see every record."""
        if self._fh is not None:
            self._fh.flush()

    def info(self) -> SegmentInfo:
        """The current index row (valid for live and closed segments)."""
        return SegmentInfo(self.name, self.first_seq, self.last_seq,
                           self.count, self.byte_size)

    def close(self) -> SegmentInfo:
        """Close the file; returns the frozen index row."""
        if self._fh is not None:
            self._fh.close()
            self._fh = None
        return self.info()


def read_segment_payloads(path: str) -> Iterator[bytes]:
    """Stream every record's canonical payload, undecoded."""
    with open(path, "rb") as fh:
        read_header(fh)
        for line in fh:
            line = line.strip()
            if line:
                yield line


def read_segment(path: str) -> Iterator[dict]:
    """Stream every record of the segment file at *path*."""
    return map(json.loads, read_segment_payloads(path))

