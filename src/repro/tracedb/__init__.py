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
the format version and the record framing, ``jsonl``: then one canonical
JSON object per line. Readers refuse a header or index that names any
other framing. Canonical encoding (sorted keys, no whitespace, every
newline escaped) makes segment bytes a pure function of the records,
which is what lets fleet-vs-serial parity be checked with a file
compare.

Invariants
----------

* **Contiguous 0-based seq.** ``record["seq"]`` equals the record's
  ordinal position in the store; appends are rejected out of order.
  Consequence: ``StoredTrace[i].seq == i``, and the per-segment index
  rows (``first_seq``/``last_seq``) prune seq-range reads to the segments that hold them.
* **Written once.** A writer creates a fresh store (an existing one at
  its root is refused), appends trace events and checkpoints, and seals
  it with ``close()``; a reader opens only a sealed store, writes
  nothing to it, and refuses one with a segment file its index does not
  list (a writer that never sealed). No store is reattached or resumed.
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
as ``job_seq``) by splicing each canonical trace-event payload at the
byte level — no record is decoded or re-encoded, and a payload of any
other shape is refused. Serial and parallel campaigns
produce byte-identical campaign stores.
"""
