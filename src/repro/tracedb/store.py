"""The spill-to-disk trace store and its trace-shaped read adapter.

:class:`TraceStore` is a segmented record store rooted at one
directory, written once::

    root/
      index.json             segment + checkpoint index (atomic rewrite)
      seg-000000000000.trc   records [0, segment_events)
      seg-000000001024.trc   records [1024, ...)
      ckpt/ckpt-...json      model-state checkpoints (seek restart points)

A writer creates a fresh store, appends
:class:`~repro.engine.trace.TraceEvent` records with a contiguous 0-based
``seq`` (a spilling :class:`~repro.engine.trace.ExecutionTrace` appends
its events as they are, and the store writes their payloads without
building their dicts) and seals it with :meth:`TraceStore.close`. A
reader opens a sealed store with :meth:`TraceStore.open` and writes
nothing. The one query, :meth:`events`,
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
from repro.tracedb.format import encode_event
from repro.tracedb.index import INDEX_NAME, CheckpointInfo, StoreIndex
from repro.tracedb.segment import (
    SegmentInfo,
    SegmentWriter,
    read_segment,
    read_segment_payloads,
)

DEFAULT_SEGMENT_EVENTS = 1024
CKPT_DIR = "ckpt"


class TraceStore:
    """Segmented record store, written once, with checkpointed seek.

    A writer creates a store (``TraceStore(root)``), appends
    :class:`~repro.engine.trace.TraceEvent` records and checkpoints, and seals
    it with :meth:`close`. A reader opens a sealed store
    (:meth:`open`) and writes nothing.
    """

    def __init__(self, root: str, segment_events: int = DEFAULT_SEGMENT_EVENTS,
                 checkpoint_every: Optional[int] = None) -> None:
        """Create a new, empty store at *root*; refuses a *root* that
        already holds a store."""
        if segment_events <= 0:
            raise TraceStoreError(
                f"segment_events must be positive, got {segment_events}")
        if checkpoint_every is not None and checkpoint_every <= 0:
            raise TraceStoreError(
                f"checkpoint_every must be positive, got {checkpoint_every}")
        if os.path.exists(os.path.join(root, INDEX_NAME)):
            raise TraceStoreError(
                f"a trace store already exists at {root!r}; a store is "
                f"written once")
        os.makedirs(os.path.join(root, CKPT_DIR), exist_ok=True)
        self.root = root
        self._index = StoreIndex(segment_events, checkpoint_every)
        self._index.save(root)
        self._closed = False
        self._setup()

    def _setup(self) -> None:
        """The handle state a writer and a reader share."""
        self.checkpoint_every = self._index.checkpoint_every
        self.segment_events = self._index.segment_events
        self._writer: Optional[SegmentWriter] = None
        # I/O books: plain int adds (noise next to the encode/file work
        # they count), surfaced as tracedb.* registry series via
        # io_stats() when telemetry is on
        self.appends = 0
        self.segments_sealed = 0
        self.checkpoints_written = 0
        self.segments_read = 0
        if OBS.metrics is not None:
            OBS.metrics.bind_stats("tracedb", self.io_stats, owner=self)

    @classmethod
    def open(cls, root: str) -> "TraceStore":
        """Open the sealed store at *root* for reading.

        The handle is closed from the start: it refuses appends and
        checkpoints, and opening writes nothing. A segment file the
        index does not list means the writer never sealed the store;
        that is refused rather than read short.
        """
        store = cls.__new__(cls)
        store.root = root
        store._index = StoreIndex.load(root)
        indexed = {s.name for s in store._index.segments}
        unsealed = sorted(
            f for f in os.listdir(root)
            if f.startswith("seg-") and f.endswith(".trc")
            and f not in indexed)
        if unsealed:
            raise TraceStoreError(
                f"segment file(s) {unsealed} at {root!r} are not in its "
                f"index: the store was never sealed")
        store._closed = True
        store._setup()
        return store

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

    def append(self, event) -> int:
        """Append one :class:`~repro.engine.trace.TraceEvent`; returns
        its seq, which must equal the store's next seq (stores are
        contiguous and 0-based — that is what makes ``seq == index``
        hold for :class:`StoredTrace`). The event is written as
        :func:`~repro.tracedb.format.encode_event`, the bytes of its
        ``to_dict()``.
        """
        if self._closed:
            raise TraceStoreError(f"store at {self.root} is closed")
        try:
            seq = event.seq
        except AttributeError:
            raise TraceStoreError(
                f"a trace store holds TraceEvents, not "
                f"{type(event).__name__}") from None
        expected = self.next_seq
        if seq != expected:
            raise TraceStoreError(
                f"out-of-order append: event seq {seq}, store expects "
                f"{expected} (stores are contiguous and 0-based)")
        self._append_payload(seq, encode_event(event))
        return seq

    def _append_payload(self, seq: int, payload: bytes) -> None:
        """Write one canonical payload as record *seq* (the caller has
        checked that *seq* is :attr:`next_seq`); shared by :meth:`append`
        and the campaign merge, which splices payloads without decoding."""
        if self._writer is None:
            self._writer = SegmentWriter(
                self.root, f"seg-{seq:012d}.trc", seq)
        self._writer.append_payload(seq, payload)
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
        index rows to ``index.json`` (a writer's call: a closed store
        refuses it).

        In-process readers (every query method, :class:`StoredTrace`)
        always see the complete live state; the on-disk index gains the
        active segment's row only when it seals — cross-process readers
        open stores after :meth:`close`, which completes the index.
        """
        if self._closed:
            raise TraceStoreError(f"store at {self.root} is closed")
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
        if self._closed:
            raise TraceStoreError(f"store at {self.root} is closed")
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

        Counted since *this* handle opened (not read from disk) —
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
