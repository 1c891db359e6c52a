"""The spill-to-disk trace store and its trace-shaped read adapter.

:class:`TraceStore` is an append-only, segmented record store rooted at
one directory::

    root/
      index.json             segment + checkpoint index (atomic rewrite)
      seg-000000000000.trc   records [0, segment_events)
      seg-000000001024.trc   records [1024, ...)
      ckpt/ckpt-...json      model-state checkpoints (seek restart points)

Records are dicts with a mandatory contiguous 0-based ``seq`` (stamped if
absent) and an optional ``t_target``. The one query, :meth:`events`,
streams every record or a seq range segment by segment; it never
materializes the whole history, so memory stays bounded by one segment
no matter how long the run was.

:class:`StoredTrace` wraps a store in the read API of
:class:`~repro.engine.trace.ExecutionTrace` (len / index / iterate), so
:class:`~repro.engine.replay.ReplayPlayer` and
:class:`~repro.engine.timing_diagram.TimingDiagram` replay and plot
straight from disk, bit-identically to an in-memory trace.
"""

from __future__ import annotations

import os
from typing import Dict, Iterator, List, Optional, Tuple

from repro.errors import TraceStoreError
from repro.obs.runtime import OBS
from repro.tracedb.checkpoint import Checkpoint, load_checkpoint, save_checkpoint
from repro.tracedb.format import codec_named, encode_record, read_header
from repro.tracedb.index import CheckpointInfo, StoreIndex
from repro.tracedb.segment import (
    SegmentInfo,
    SegmentWriter,
    read_segment,
    read_segment_payloads,
    salvage_segment,
)

DEFAULT_SEGMENT_EVENTS = 1024
DEFAULT_CODEC = "jsonl"
CKPT_DIR = "ckpt"


class TraceStore:
    """Append-only segmented record store with checkpointed seek support."""

    def __init__(self, root: str, segment_events: int = DEFAULT_SEGMENT_EVENTS,
                 codec: str = DEFAULT_CODEC,
                 checkpoint_every: Optional[int] = None) -> None:
        """Create a store at *root*, or attach to the one already there.

        Attaching resumes appending after the last stored record.
        ``segment_events`` and ``codec`` are then ignored in favor of
        the existing index (a store has one format), and the stored
        ``checkpoint_every`` is resumed unless explicitly overridden
        here — so a reattached recorder keeps checkpointing at the same
        interval and seeks stay O(interval) across the resumed region.
        """
        if segment_events <= 0:
            raise TraceStoreError(
                f"segment_events must be positive, got {segment_events}")
        if checkpoint_every is not None and checkpoint_every <= 0:
            raise TraceStoreError(
                f"checkpoint_every must be positive, got {checkpoint_every}")
        self.root = root
        os.makedirs(os.path.join(root, CKPT_DIR), exist_ok=True)
        index_path = os.path.join(root, "index.json")
        if os.path.exists(index_path):
            self._index = StoreIndex.load(root)
            if checkpoint_every is not None:
                self._index.checkpoint_every = checkpoint_every
        else:
            self._index = StoreIndex(codec_named(codec).name, segment_events,
                                     checkpoint_every)
            self._index.save(root)
        self.checkpoint_every = self._index.checkpoint_every
        self.codec = codec_named(self._index.codec_name)
        self.segment_events = self._index.segment_events
        self._writer: Optional[SegmentWriter] = None
        self._closed = False
        # I/O books: plain int adds (noise next to the codec/file work
        # they count), surfaced as tracedb.* registry series via
        # io_stats() when telemetry is on
        self.appends = 0
        self.segments_sealed = 0
        self.checkpoints_written = 0
        self.segments_read = 0
        if OBS.metrics is not None:
            OBS.metrics.bind_stats("tracedb", self.io_stats, owner=self)
        self._recover_after_crash()

    def _recover_after_crash(self) -> None:
        """Adopt on-disk state a dead recorder left unindexed.

        A recorder that flushed but never closed leaves (a) an active
        segment file with no index row — silently opening a new writer
        over that filename would zero its records — and (b) checkpoint
        files whose index rows were never published. Both are recovered:
        the orphan segment's intact records are rewritten as a sealed
        segment (a torn tail record from a crash mid-append is dropped),
        and orphan checkpoint files are re-indexed.
        """
        recovered = False
        while True:  # a dead recorder may have rotated unindexed segments
            expected = (self._index.segments[-1].last_seq + 1
                        if self._index.segments else 0)
            name = f"seg-{expected:012d}.trc"
            path = os.path.join(self.root, name)
            if not os.path.exists(path):
                break
            if os.path.getsize(path) == 0:
                # a recorder killed before its first flush leaves the
                # buffered header unwritten: provably no records, safe
                # to drop (refusing would brick every future attach)
                os.unlink(path)
                break
            records = salvage_segment(path)
            if not records:
                # distinguish "recorder died before its first append"
                # (valid header, nothing else — safe to drop) from a
                # corrupted header hiding recoverable records: deleting
                # the latter would destroy the history this recovery
                # exists to save
                with open(path, "rb") as fh:
                    try:
                        read_header(fh)
                    except TraceStoreError as exc:
                        raise TraceStoreError(
                            f"orphan segment {name} has an unreadable "
                            f"header ({exc}); refusing to attach — "
                            f"recover or remove it manually") from exc
                os.unlink(path)
                break
            if [r["seq"] for r in records] != list(
                    range(expected, expected + len(records))):
                raise TraceStoreError(
                    f"orphan segment {name} holds non-contiguous seqs; "
                    f"refusing to adopt it")
            writer = SegmentWriter(self.root, name + ".recover",
                                   self.codec, expected)
            for record in records:
                writer.append(record)
            info = writer.close()
            os.replace(writer.path, path)
            info.name = name
            self._index.add_segment(info)
            recovered = True
        indexed_segments = {s.name for s in self._index.segments}
        leftovers = sorted(
            f for f in os.listdir(self.root)
            if f.startswith("seg-") and f.endswith(".trc")
            and f not in indexed_segments)
        if leftovers:
            raise TraceStoreError(
                f"segment file(s) {leftovers} are unreachable from the "
                f"recovered index (a gap precedes them); refusing to "
                f"attach and overwrite them")
        indexed = {c.file for c in self._index.checkpoints}
        known_seqs = {c.seq for c in self._index.checkpoints}
        for filename in sorted(os.listdir(os.path.join(self.root, CKPT_DIR))):
            file = os.path.join(CKPT_DIR, filename)
            if not filename.endswith(".json") or file in indexed:
                continue
            checkpoint = load_checkpoint(os.path.join(self.root, file))
            if checkpoint.seq in known_seqs:
                continue  # index row already exists; the file is fine
            if checkpoint.seq >= self.next_seq:
                # Its event died with the crash. Deleting now matters:
                # left behind, a future recovery (after new events reuse
                # that seq) would adopt this stale payload and seek would
                # restore a dead run's model state.
                os.unlink(os.path.join(self.root, file))
                continue
            self._index.add_checkpoint(
                CheckpointInfo(checkpoint.seq, checkpoint.t_host, file))
            recovered = True
        if recovered:
            self._index.save(self.root)

    @classmethod
    def open(cls, root: str) -> "TraceStore":
        """Attach to an existing store (raises if *root* has none)."""
        if not os.path.exists(os.path.join(root, "index.json")):
            raise TraceStoreError(f"no trace store at {root!r}")
        return cls(root)

    # -- write path --------------------------------------------------------

    @property
    def next_seq(self) -> int:
        """The seq the next appended record will carry."""
        live = self._writer.count if self._writer is not None else 0
        return self._index.event_count + live

    @property
    def event_count(self) -> int:
        """Total records stored (closed segments + the active one)."""
        return self.next_seq

    def append(self, record: dict) -> int:
        """Append one record; returns its seq.

        ``record["seq"]`` must equal the store's next seq when present
        (stores are contiguous and 0-based — that is what makes
        ``seq == index`` hold for :class:`StoredTrace`); it is stamped
        when absent. The record is shallow-copied before stamping.
        """
        if self._closed:
            raise TraceStoreError(f"store at {self.root} is closed")
        expected = self.next_seq
        seq = record.get("seq")
        if seq is None:
            record = dict(record)
            record["seq"] = seq = expected
        elif seq != expected:
            raise TraceStoreError(
                f"out-of-order append: record seq {seq}, store expects "
                f"{expected} (stores are contiguous and 0-based)")
        self._append_payload(seq, record.get("t_target", 0),
                             encode_record(record))
        return seq

    def _append_payload(self, seq: int, t_target, payload: bytes) -> None:
        """Write one canonical payload as record *seq* (the caller has
        checked that *seq* is :attr:`next_seq`); shared by :meth:`append`
        and the campaign merge, which splices payloads without decoding."""
        if self._writer is None:
            self._writer = SegmentWriter(
                self.root, f"seg-{seq:012d}.trc", self.codec, seq)
        self._writer.append_payload(seq, t_target, payload)
        self.appends += 1
        if self._writer.count >= self.segment_events:
            self._rotate()

    def _rotate(self) -> None:
        # In-memory index only: rewriting index.json here would put an
        # O(segments) file rewrite on the append hot path. The on-disk
        # index is published at flush()/close() — in-process queries
        # always read the live in-memory index.
        self._index.add_segment(self._writer.close())
        self._writer = None
        self.segments_sealed += 1

    def _flush_bytes(self) -> None:
        """Push buffered segment bytes to the OS (the read-path flush:
        queries must never *write* — a store opened read-only from an
        unwritable location stays queryable)."""
        if self._writer is not None:
            self._writer.flush()

    def flush(self) -> None:
        """Publish appended bytes to the OS and sealed-segment/checkpoint
        index rows to ``index.json``.

        In-process readers (every query method, :class:`StoredTrace`)
        always see the complete live state; the on-disk index gains the
        active segment's row only when it seals — cross-process readers
        open stores after :meth:`close`, which completes the index.
        """
        self._flush_bytes()
        self._index.save(self.root)

    def close(self) -> None:
        """Seal the active segment and persist the final index."""
        if self._closed:
            return
        if self._writer is not None:
            # a writer only exists once it has held >= 1 record
            self._rotate()
        self._index.save(self.root)
        self._closed = True

    def __enter__(self) -> "TraceStore":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- checkpoints -------------------------------------------------------

    def wants_checkpoint(self, seq: int) -> bool:
        """Whether the recording side should checkpoint after event *seq*."""
        return (self.checkpoint_every is not None
                and (seq + 1) % self.checkpoint_every == 0)

    def add_checkpoint(self, seq: int, t_host: int, payload: dict) -> None:
        """Persist a model-state checkpoint taken *after applying* event
        *seq* (the invariant every seek relies on)."""
        if seq >= self.next_seq:
            raise TraceStoreError(
                f"checkpoint at seq {seq} is ahead of the store "
                f"(next seq {self.next_seq})")
        filename = os.path.join(CKPT_DIR, f"ckpt-{seq:012d}.json")
        save_checkpoint(os.path.join(self.root, filename),
                        Checkpoint(seq, t_host, payload))
        # index row stays in memory until the next flush()/close() —
        # checkpointing sits on the engine's per-command hot path
        self._index.add_checkpoint(CheckpointInfo(seq, t_host, filename))
        self.checkpoints_written += 1

    def checkpoints(self) -> List[CheckpointInfo]:
        """Index rows of every stored checkpoint, oldest first."""
        return list(self._index.checkpoints)

    def nearest_checkpoint(self, seq: int) -> Optional[Checkpoint]:
        """Latest checkpoint at or before *seq*, payload loaded; or None."""
        info = self._index.nearest_checkpoint(seq)
        if info is None:
            return None
        return load_checkpoint(os.path.join(self.root, info.file))

    # -- read path ---------------------------------------------------------

    def _all_segments(self) -> List[SegmentInfo]:
        self._flush_bytes()
        segments = list(self._index.segments)
        if self._writer is not None and self._writer.count:
            segments.append(self._writer.info())
        return segments

    def _segments_for_seq(self, lo: int, hi: int) -> List[SegmentInfo]:
        return [s for s in self._all_segments() if s.intersects_seq(lo, hi)]

    def read_segment_records(self, info: SegmentInfo) -> List[dict]:
        """Decode one whole segment (bounded by ``segment_events``)."""
        self._flush_bytes()
        self.segments_read += 1
        return list(read_segment(os.path.join(self.root, info.name)))

    def _payloads(self) -> Iterator[bytes]:
        """Stream every record's canonical payload, undecoded, one
        segment at a time (the campaign merge's read path)."""
        for info in self._all_segments():
            self.segments_read += 1
            yield from read_segment_payloads(
                os.path.join(self.root, info.name))

    def events(self, seq_range: Optional[Tuple[int, int]] = None
               ) -> Iterator[dict]:
        """Stream records, optionally only seqs in [lo, hi] inclusive."""
        if seq_range is None:
            for info in self._all_segments():
                yield from self.read_segment_records(info)
            return
        lo, hi = seq_range
        for info in self._segments_for_seq(lo, hi):
            for record in self.read_segment_records(info):
                if lo <= record["seq"] <= hi:
                    yield record

    def io_stats(self) -> Dict[str, int]:
        """Store I/O books: appends, segment seal/read counts, checkpoints.

        Counted since *this* handle opened (not recovered from disk) —
        they measure I/O work done, not store contents.
        """
        return {
            "appends": self.appends,
            "segments_sealed": self.segments_sealed,
            "checkpoints_written": self.checkpoints_written,
            "segments_read": self.segments_read,
        }

    def __len__(self) -> int:
        return self.event_count

    def __repr__(self) -> str:
        return (f"<TraceStore {self.root} {self.event_count} events, "
                f"{len(self._index.segments)} sealed segment(s), "
                f"{len(self._index.checkpoints)} checkpoint(s)>")


class StoredTrace:
    """Read-only, trace-shaped view over a :class:`TraceStore`.

    Implements the slice of the :class:`~repro.engine.trace.ExecutionTrace`
    API that replay and the timing diagram consume — ``len()``, indexing,
    iteration — decoding at most two segments at a time
    (current + previous), so replaying an arbitrarily long history runs
    at flat memory. ``seq == index`` holds because stores are contiguous
    and 0-based.
    """

    _CACHE_SEGMENTS = 2

    def __init__(self, store: TraceStore) -> None:
        from repro.engine.trace import TraceEvent  # one-way dependency
        self._event_cls = TraceEvent
        self.store = store
        self._cache: Dict[int, List[dict]] = {}  # segment first_seq -> records

    def __len__(self) -> int:
        return self.store.event_count

    def __iter__(self):
        for record in self.store.events():
            yield self._event_cls.from_dict(record)

    def __getitem__(self, index: int):
        count = len(self)
        if index < 0:
            index += count
        if not 0 <= index < count:
            raise IndexError(f"trace index {index} out of range")
        return self._event_cls.from_dict(self._record_at(index))

    def _record_at(self, seq: int) -> dict:
        for first_seq, records in self._cache.items():
            if first_seq <= seq < first_seq + len(records):
                return records[seq - first_seq]
        infos = self.store._segments_for_seq(seq, seq)
        if not infos:
            raise TraceStoreError(f"no segment holds seq {seq}")
        info = infos[0]
        records = self.store.read_segment_records(info)
        if len(self._cache) >= self._CACHE_SEGMENTS:
            self._cache.pop(next(iter(self._cache)))
        self._cache[info.first_seq] = records
        return records[seq - info.first_seq]

    # -- checkpoint passthrough (what makes seek(t) fast) ------------------

    def nearest_checkpoint(self, seq: int) -> Optional[Checkpoint]:
        """Latest checkpoint at or before *seq* (see :class:`TraceStore`)."""
        return self.store.nearest_checkpoint(seq)

    def __repr__(self) -> str:
        return f"<StoredTrace over {self.store!r}>"
