"""Fleet trace collection: per-job stores merged into one campaign store.

Workers never pickle traces across the process boundary — each job spills
its model-debugger trace into its own store under the campaign's
``trace_dir`` and hands back only the **path**
(:attr:`~repro.fleet.jobs.JobResult.trace_path`). The parent merges the
per-job stores into one campaign store in *canonical job order* (the
corpus enumeration order, never execution order): records are
re-sequenced 0.., their original per-job seq preserved as ``job_seq``
and stamped with ``job_id``/``job_index``. Because payloads are
canonical and merge order is canonical, a fleet-collected campaign store
is byte-identical to the serial runner's — the same parity the result
merge already guarantees for detection tables.

The splice contract
===================

Job stores hold :class:`~repro.engine.trace.TraceEvent` payloads only,
and the merge splices that one shape. It never decodes a record into a
dict and never re-encodes one. Each per-job payload is canonical JSON
(sorted keys, no whitespace; see :mod:`repro.tracedb.format`) with
exactly the eight top-level keys of ``TraceEvent.to_dict()``, and the
campaign payload is the same object with exactly two edits:

* ``"job_id":…,"job_index":…,"job_seq":k,`` inserted before ``"kind"``,
  the first top-level key that sorts after ``"job_seq"``;
* the top-level ``"seq":k`` rewritten to the campaign seq.

Every other byte is copied, so the result equals
``encode_record({**record, "job_id": …, "job_index": …, "job_seq": k,
"seq": n})`` — the decode/re-encode merge — byte for byte: sorted-key
output places the three provenance keys exactly there, nested values are
already canonical, and ``"seq"`` keeps its place because only its value
changes. Per record the merge matches the event shape to find those two
positions (see :func:`_splice`).

A payload of any other shape has no faithful merge and is refused with
:class:`~repro.errors.TraceStoreError` rather than rewritten: one that
is not a canonical object, whose top-level keys are not the event's
(a provenance key among them), or whose ``seq`` is not its position in
the job store (a corrupt store would otherwise yield a wrong
``job_seq``).
"""

from __future__ import annotations

import json
import os
import re
import shutil
from typing import NamedTuple, Optional, Sequence

from repro.errors import TraceStoreError
from repro.tracedb.store import DEFAULT_SEGMENT_EVENTS, TraceStore


def job_store_root(trace_dir: str, index: int) -> str:
    """Where job *index* spills its trace (shared by worker and merge)."""
    return os.path.join(trace_dir, f"job-{index:05d}")


def open_job_store(trace_dir: str, index: int) -> TraceStore:
    """Create the per-job spill store a worker records into.

    A per-job store is a *product* of running the job and a store is
    written once, so an existing store at this root is removed first:
    the pool's crash-containment retry legitimately re-runs a job whose
    first attempt already sealed segments. (Re-running a whole campaign
    over an old ``trace_dir`` is caught before any job runs, by
    :func:`ensure_fresh_trace_dir`.)
    """
    root = job_store_root(trace_dir, index)
    if os.path.isdir(root):
        shutil.rmtree(root)
    return TraceStore(root)


#: a JSON scalar as canonical JSON writes it (strings ASCII-escaped)
_SCALAR = (r'(?:"[^"\\]*(?:\\.[^"\\]*)*"'
           r'|-?(?:0|[1-9]\d*)(?:\.\d+)?(?:[eE][-+]?\d+)?'
           r'|true|false|null|NaN|-?Infinity)')
_REACTION = r'\{"detail":S,"element":S,"kind":S,"path":S,"t_us":S\}'
#: a TraceEvent payload up to its last value, ``value``: the group
#: ``kind`` is empty and sits where the provenance keys go, and ``seq``
#: is the top-level seq's text
_EVENT = re.compile(
    (r'\{"engine_state":S,(?P<kind>)"kind":S,"path":S,'
     r'"reactions":\[(?:R(?:,R)*)?\],"seq":(?P<seq>0|[1-9]\d*),'
     r'"t_host":S,"t_target":S,"value":')
    .replace("R", _REACTION).replace("S", _SCALAR))
_scan_value = json.JSONDecoder().scan_once


class _Stamp(NamedTuple):
    """One job's provenance as canonical JSON text (encoded once per
    job, never per record)."""

    job_id: str
    prefix: str  # '"job_id":<json>,"job_index":<json>,"job_seq":'

    @classmethod
    def of(cls, job_id: str, index: int) -> "_Stamp":
        return cls(job_id, f'"job_id":{json.dumps(job_id)},'
                           f'"job_index":{json.dumps(index)},"job_seq":')


def _splice(line: str, position: int, seq: int, stamp: _Stamp) -> str:
    """The campaign payload of one per-job payload.

    *line* is the canonical per-job record at *position* in its job
    store. Matches it against the TraceEvent shape (:data:`_EVENT`, then
    the one JSON value of ``value`` and the closing brace) to find where
    ``"kind"`` and the ``"seq"`` value sit; raises
    :class:`~repro.errors.TraceStoreError` on a payload of any other
    shape or whose ``seq`` is not *position*.
    """
    match = _EVENT.match(line)
    try:
        if match is None:
            raise ValueError("not the event keys and scalars")
        _, end = _scan_value(line, match.end())
        if line[end:] != "}":
            raise ValueError(f"expected the closing brace at {end}")
    except (ValueError, StopIteration) as exc:
        raise TraceStoreError(
            f"job {stamp.job_id!r} record at position {position} is not "
            f"a canonical trace event ({exc}): {line[:120]!r}") from None
    record_seq = int(match["seq"])
    if record_seq != position:
        raise TraceStoreError(
            f"job {stamp.job_id!r} record at position {position} carries "
            f"seq {record_seq}; a job store's seqs are its positions")
    kind_at, seq_at, seq_stop = match.start("kind"), *match.span("seq")
    return (f"{line[:kind_at]}{stamp.prefix}{position},"
            f"{line[kind_at:seq_at]}{seq}{line[seq_stop:]}")


def merge_job_stores(results: Sequence[object], dest_root: str,
                     segment_events: int = DEFAULT_SEGMENT_EVENTS) -> TraceStore:
    """Fold every job's store into one canonically-ordered campaign store.

    *results* are :class:`~repro.fleet.jobs.JobResult`-shaped objects;
    they are processed sorted by canonical ``index``. Skipped: results
    without a ``trace_path`` (no collection, or failed before the store
    existed) and **failed** results — a half-recorded trace folded into
    the campaign store would be indistinguishable from a complete one
    and would break serial/parallel byte parity; the failure result
    still carries its sealed ``trace_path`` for post-mortems. Streams
    payload by payload — the merge holds one source and one destination
    segment file open, never a decoded segment.

    Raises :class:`~repro.errors.TraceStoreError` when *dest_root*
    already holds a store (the trace_dir looks reused) or a per-job
    record is not a trace event whose ``seq`` is its position in the
    job store.
    """
    try:
        dest = TraceStore(dest_root, segment_events=segment_events)
    except TraceStoreError as exc:
        raise TraceStoreError(
            f"{exc} — the trace_dir looks reused; give every campaign run "
            f"a fresh trace_dir") from None
    seq = 0
    try:
        for result in sorted(results, key=lambda r: r.index):
            path = getattr(result, "trace_path", "")
            if not path or getattr(result, "failed", False):
                continue
            stamp = _Stamp.of(result.job_id, result.index)
            source = TraceStore.open(path)
            for position, payload in enumerate(source._payloads()):
                line = _splice(payload.decode("utf-8"), position, seq, stamp)
                dest._append_payload(seq, line.encode("utf-8"))
                seq += 1
    except BaseException:
        if dest._writer is not None:  # close, but never index, a refused merge
            dest._writer.close()
        raise
    dest.close()
    return dest


def campaign_store_root(trace_dir: str) -> str:
    """Where the merged campaign store lives under a ``trace_dir``."""
    return os.path.join(trace_dir, "campaign")


def ensure_fresh_trace_dir(trace_dir: str) -> None:
    """Refuse a ``trace_dir`` that already holds campaign artifacts.

    Called *before* any job is dispatched: catching the reuse only at
    merge time would first spend the whole campaign's compute and
    replace every old per-job store. Both reuse shapes are refused — a
    finished run (merged campaign store present) and a run that died
    before its merge (stray per-job stores, which a smaller re-run would
    otherwise leave interleaved with its own, indistinguishably).
    """
    root = campaign_store_root(trace_dir)
    if os.path.exists(os.path.join(root, "index.json")):
        raise TraceStoreError(
            f"trace_dir {trace_dir!r} already holds a merged campaign "
            f"store at {root}; give every campaign run a fresh trace_dir")
    if os.path.isdir(trace_dir):
        stale = sorted(e for e in os.listdir(trace_dir)
                       if e.startswith("job-"))
        if stale:
            raise TraceStoreError(
                f"trace_dir {trace_dir!r} already contains per-job "
                f"store(s) from a previous (unmerged) run "
                f"({stale[0]}..{stale[-1]}, {len(stale)} total); give "
                f"every campaign run a fresh trace_dir")


def collect_campaign_store(results: Sequence[object],
                           trace_dir: str) -> Optional[TraceStore]:
    """Merge all collected per-job stores under *trace_dir*.

    Returns None when no result carried a trace (collection was off).
    """
    if not any(getattr(r, "trace_path", "") for r in results):
        return None
    return merge_job_stores(results, campaign_store_root(trace_dir))
