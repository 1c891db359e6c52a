"""``repro.tracedb`` — the spill-to-disk trace store.

The paper's GDM animation "always make[s] a record of the execution
trace" so behavior can be replayed against a timing diagram (§III).
An in-memory :class:`~repro.engine.trace.ExecutionTrace` holds that
record whole; ``ExecutionTrace(spill=TraceStore(...))`` writes each
event through to a store on disk instead, so a run of any length keeps
its whole record at flat memory and replays in full through
:class:`StoredTrace`.

Store layout
============

A store is a directory::

    root/
      index.json             StoreIndex: segment + checkpoint rows
      seg-000000000000.trc   segment: header line + records
      seg-000000001024.trc
      ckpt/ckpt-...json      model-state checkpoints

Segment format (``format.py``)
------------------------------

Every segment opens with one UTF-8 JSON header line naming the magic,
the format version and the record codec — ``jsonl`` (one canonical JSON
object per line) or ``binary`` (4-byte big-endian length prefix + the
same canonical JSON payload). The writer chooses the codec; readers
trust only the header. Canonical encoding (sorted keys, no whitespace)
makes segment bytes a pure function of the records, which is what lets
fleet-vs-serial parity be checked with a file compare.

Invariants
----------

* **Contiguous 0-based seq.** ``record["seq"]`` equals the record's
  ordinal position in the store; appends are rejected out of order.
  Consequence: ``StoredTrace[i].seq == i``, and the per-segment index
  rows (``first_seq``/``last_seq`` and the ``t_target`` extent) prune
  seq-range reads to the segments that hold them.
* **Append-only.** Segments are sealed at ``segment_events`` records and
  never rewritten; ``index.json`` is replaced atomically.
* **Checkpoint semantics.** A checkpoint at seq ``k`` is the model's
  complete dynamic state (element + link styles) captured *after
  applying* event ``k``. Therefore ``seek(p)`` = restore the nearest
  checkpoint with ``seq <= p - 1``, then step events ``seq+1 .. p-1`` —
  identical to replay-from-zero at every event boundary, in
  O(checkpoint interval) instead of O(p). Live checkpoints (written by
  the engine while spilling) and offline ones
  (:func:`~repro.tracedb.checkpoint.build_checkpoints`) coincide because
  live animation and replay apply the same reactions.
* **Flat memory.** Queries stream; replay decodes at most two segments
  at a time. Peak memory is independent of event count
  (``benchmarks/perf_trace.py`` enforces this).

Fleet collection (``collect.py``)
---------------------------------

Workers spill per-job stores and hand back paths; the parent merges them
in canonical job order into one campaign store (original seqs preserved
as ``job_seq``) by splicing each canonical payload at the byte level —
no record is decoded or re-encoded. Serial and parallel campaigns
produce byte-identical campaign stores.
"""

from repro.tracedb.checkpoint import Checkpoint, build_checkpoints
from repro.tracedb.collect import (
    campaign_store_root,
    collect_campaign_store,
    ensure_fresh_trace_dir,
    job_store_root,
    merge_job_stores,
    open_job_store,
)
from repro.tracedb.format import CODECS, encode_record
from repro.tracedb.index import CheckpointInfo, StoreIndex
from repro.tracedb.segment import SegmentInfo, read_segment
from repro.tracedb.store import (
    DEFAULT_SEGMENT_EVENTS,
    StoredTrace,
    TraceStore,
)

__all__ = [
    "CODECS",
    "Checkpoint",
    "CheckpointInfo",
    "DEFAULT_SEGMENT_EVENTS",
    "SegmentInfo",
    "StoreIndex",
    "StoredTrace",
    "TraceStore",
    "build_checkpoints",
    "campaign_store_root",
    "collect_campaign_store",
    "encode_record",
    "ensure_fresh_trace_dir",
    "job_store_root",
    "merge_job_stores",
    "open_job_store",
    "read_segment",
]
