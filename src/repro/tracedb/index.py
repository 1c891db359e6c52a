"""The store index: which segment holds which seq/time range, and where
the checkpoints are.

The index is tiny (one row per segment, one per checkpoint) and lives in
``index.json`` at the store root. Every query starts here: seq-range
lookups scan the in-memory rows (cheap — rows, not files) and open only
the segments that can contain matches; checkpoint lookup bisects a
sorted key list because it sits on the per-seek hot path.
"""

from __future__ import annotations

import json
import os
from bisect import bisect_right
from typing import List, Optional

from repro.errors import TraceStoreError
from repro.tracedb.segment import SegmentInfo

INDEX_NAME = "index.json"
INDEX_VERSION = 1


class CheckpointInfo:
    """Index row for one checkpoint: where seek can restart from."""

    __slots__ = ("seq", "t_host", "file")

    def __init__(self, seq: int, t_host: int, file: str) -> None:
        self.seq = seq
        self.t_host = t_host
        self.file = file

    def to_dict(self) -> dict:
        return {"seq": self.seq, "t_host": self.t_host, "file": self.file}

    @classmethod
    def from_dict(cls, data: dict) -> "CheckpointInfo":
        return cls(data["seq"], data["t_host"], data["file"])

    def __repr__(self) -> str:
        return f"<CheckpointInfo seq={self.seq} t={self.t_host}us {self.file}>"


class StoreIndex:
    """All segment and checkpoint rows of one store, ordered by seq."""

    def __init__(self, codec_name: str, segment_events: int,
                 checkpoint_every: Optional[int] = None) -> None:
        self.codec_name = codec_name
        self.segment_events = segment_events
        #: store config like codec/segment_events: persisted so attaching
        #: to an existing store resumes live checkpointing at the same
        #: interval instead of silently disabling it
        self.checkpoint_every = checkpoint_every
        self.segments: List[SegmentInfo] = []
        self.checkpoints: List[CheckpointInfo] = []
        self._event_count = 0  # running total: append must stay O(1)
        self._ckpt_keys: List[int] = []  # sorted seqs, parallel to checkpoints

    # -- bookkeeping -------------------------------------------------------

    def add_segment(self, info: SegmentInfo) -> None:
        if self.segments and info.first_seq != self.segments[-1].last_seq + 1:
            raise TraceStoreError(
                f"segment {info.name} starts at seq {info.first_seq}, "
                f"expected {self.segments[-1].last_seq + 1} (gap or overlap)")
        self.segments.append(info)
        self._event_count += info.count

    def add_checkpoint(self, info: CheckpointInfo) -> None:
        """Insert a checkpoint row, keeping rows sorted by seq.

        Insertion order is free (an offline :func:`build_checkpoints`
        pass may fill gaps *below* live-recorded checkpoints); only a
        duplicate seq is an error. The parallel sorted key list keeps
        this (and :meth:`nearest_checkpoint`) off the O(n)-rebuild path
        — live checkpointing sits on the engine's per-command loop.
        """
        pos = bisect_right(self._ckpt_keys, info.seq)
        if pos and self._ckpt_keys[pos - 1] == info.seq:
            raise TraceStoreError(
                f"checkpoint at seq {info.seq} already exists")
        self._ckpt_keys.insert(pos, info.seq)
        self.checkpoints.insert(pos, info)

    @property
    def event_count(self) -> int:
        """Total sealed records — O(1): read on every single append."""
        return self._event_count

    # -- queries -----------------------------------------------------------
    # (seq-range pruning itself lives on SegmentInfo.intersects_seq —
    # TraceStore applies it over sealed + live segments, which this
    # index cannot see)

    def nearest_checkpoint(self, seq: int) -> Optional[CheckpointInfo]:
        """The latest checkpoint at or before *seq*, or None."""
        pos = bisect_right(self._ckpt_keys, seq)
        return self.checkpoints[pos - 1] if pos else None

    # -- persistence -------------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "version": INDEX_VERSION,
            "codec": self.codec_name,
            "segment_events": self.segment_events,
            "checkpoint_every": self.checkpoint_every,
            "event_count": self.event_count,
            "segments": [s.to_dict() for s in self.segments],
            "checkpoints": [c.to_dict() for c in self.checkpoints],
        }

    def save(self, root: str) -> None:
        path = os.path.join(root, INDEX_NAME)
        tmp = path + ".tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(self.to_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")
        os.replace(tmp, path)  # readers never see a half-written index

    @classmethod
    def load(cls, root: str) -> "StoreIndex":
        path = os.path.join(root, INDEX_NAME)
        try:
            with open(path, encoding="utf-8") as fh:
                data = json.load(fh)
        except FileNotFoundError:
            raise TraceStoreError(f"no trace store at {root!r} "
                                  f"({INDEX_NAME} missing)") from None
        except ValueError as exc:
            raise TraceStoreError(f"corrupt index at {path}: {exc}") from exc
        if data.get("version") != INDEX_VERSION:
            raise TraceStoreError(
                f"unsupported index version {data.get('version')!r}")
        index = cls(data["codec"], data["segment_events"],
                    data.get("checkpoint_every"))
        for row in data["segments"]:
            index.add_segment(SegmentInfo.from_dict(row))
        for row in data["checkpoints"]:
            index.add_checkpoint(CheckpointInfo.from_dict(row))
        return index
