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

The merge never decodes a record into a dict and never re-encodes one.
Each per-job payload is canonical JSON (sorted keys, no whitespace; see
:mod:`repro.tracedb.format`), and the campaign payload is the same
object with exactly two edits:

* ``"job_id":…,"job_index":…,"job_seq":k,`` inserted before the first
  top-level key that sorts after ``"job_seq"`` (each of the three at its
  own sorted place if some key sorts among them);
* the top-level ``"seq":k`` rewritten to the campaign seq.

Every other byte is copied, so the result equals
``encode_record({**record, "job_id": …, "job_index": …, "job_seq": k,
"seq": n})`` — the decode/re-encode merge — byte for byte: sorted-key
output places the three provenance keys exactly there, nested values are
already canonical, and ``"seq"`` keeps its place because only its value
changes. Per record the merge only locates those two positions (see
:func:`_splice`). Payloads off the fast path's shape — a key sorting
among the provenance keys, a nested ``"seq"`` after the top-level one —
take an exact top-level walk (:func:`_splice_walk`), still without
re-encoding.

Two inputs have no faithful merge and are refused with
:class:`~repro.errors.TraceStoreError` rather than silently rewritten: a
per-job record that already carries ``job_id``, ``job_index`` or
``job_seq``, and a record whose ``seq`` is not its position in the job
store (a corrupt store would otherwise yield a wrong ``job_seq``).
"""

from __future__ import annotations

import json
import os
import shutil
from typing import NamedTuple, Optional, Sequence

from repro.errors import TraceStoreError
from repro.tracedb.store import DEFAULT_SEGMENT_EVENTS, TraceStore


def job_store_root(trace_dir: str, index: int) -> str:
    """Where job *index* spills its trace (shared by worker and merge)."""
    return os.path.join(trace_dir, f"job-{index:05d}")


def open_job_store(trace_dir: str, index: int) -> TraceStore:
    """Create the per-job spill store a worker records into.

    A per-job store is a *product* of running the job, so an existing
    store at this root is replaced, not resumed: the pool's
    crash-containment retry legitimately re-runs a job whose first
    attempt already sealed segments, and attaching would collide the
    retry's seq-0 appends with the stale tail. (Re-running a whole
    campaign over an old ``trace_dir`` is caught at the merge root,
    which refuses to overwrite a finished campaign store.)
    """
    root = job_store_root(trace_dir, index)
    if os.path.isdir(root):
        shutil.rmtree(root)
    return TraceStore(root)


#: the three provenance keys the merge stamps, in sort order
_PROVENANCE = ("job_id", "job_index", "job_seq")
#: ``,"seq":`` cannot occur inside a JSON string (its quote would have
#: to be escaped), so every occurrence in a payload is a key
_SEQ_TOKEN = ',"seq":'
_scan_key = json.decoder.scanstring
_scan_value = json.JSONDecoder().scan_once


class _Stamp(NamedTuple):
    """One job's provenance as canonical JSON texts (encoded once per
    job, never per record)."""

    job_id: str
    id_item: str     # '"job_id":<json>'
    index_item: str  # '"job_index":<json>'
    prefix: str      # both items and the '"job_seq":' key, comma-joined

    @classmethod
    def of(cls, job_id: str, index: int) -> "_Stamp":
        id_item = f'"job_id":{json.dumps(job_id)}'
        index_item = f'"job_index":{json.dumps(index)}'
        return cls(job_id, id_item, index_item,
                   f'{id_item},{index_item},"job_seq":')


def _splice(line: str, position: int, seq: int, stamp: _Stamp) -> str:
    """The campaign payload of one per-job payload.

    *line* is the canonical per-job record at *position* in its job
    store. Fast path: walk the top-level keys up to the first one at or
    after ``"job_id"`` (the insertion point; trace records have one key
    before it), then find the top-level ``"seq"`` as the last
    ``,"seq":`` — which sits at top level exactly when the rest of the
    payload parses as one object (a nested token leaves unbalanced
    closing brackets). Any payload off that shape takes
    :func:`_splice_walk`, the exact top-level walk.
    """
    at = 1
    try:
        while True:
            if line[at] != '"':
                return _splice_walk(line, position, seq, stamp)
            key, end = _scan_key(line, at + 1)
            if key >= "job_id":
                break
            _, at = _scan_value(line, end + 1)
            if line[at] != ",":
                return _splice_walk(line, position, seq, stamp)
            at += 1
    except (ValueError, StopIteration, IndexError):
        return _splice_walk(line, position, seq, stamp)
    if key <= "job_seq":  # a provenance key, or one sorting among them
        return _splice_walk(line, position, seq, stamp)
    cut = at - 1 if key == "seq" else line.rfind(_SEQ_TOKEN)
    if cut < at - 1:
        return _splice_walk(line, position, seq, stamp)
    rest = "{" + line[cut + 1:]
    try:
        tail, end = _scan_value(rest, 0)
    except (ValueError, StopIteration):
        end = -1
    if end != len(rest):  # the last token was nested
        return _splice_walk(line, position, seq, stamp)
    _check_seq(tail["seq"], position, stamp)
    job_seq = str(position)
    start = cut + len(_SEQ_TOKEN)
    return (f"{line[:at]}{stamp.prefix}{job_seq},{line[at:start]}{seq}"
            f"{line[start + len(job_seq):]}")


def _splice_walk(line: str, position: int, seq: int, stamp: _Stamp) -> str:
    """:func:`_splice` by walking every top-level item: the raw item
    texts (``"seq"`` rewritten) plus the three provenance items, joined
    in key order — what ``sort_keys`` would emit."""
    items = [("job_id", stamp.id_item), ("job_index", stamp.index_item),
             ("job_seq", f'"job_seq":{position}')]
    record_seq = None
    try:
        at = 1
        while line[at] == '"':
            key, end = _scan_key(line, at + 1)
            value, stop = _scan_value(line, end + 1)
            if key in _PROVENANCE:
                raise TraceStoreError(
                    f"job {stamp.job_id!r} record seq {position} already "
                    f"carries {key!r}; the merge will not overwrite it")
            if key == "seq":
                record_seq = value
                items.append((key, f'"seq":{seq}'))
            else:
                items.append((key, line[at:stop]))
            if line[stop] == "}":
                break
            if line[stop] != ",":
                raise ValueError(f"expected ',' at {stop}")
            at = stop + 1
        else:
            if line[at] != "}":
                raise ValueError(f"expected a key at {at}")
    except (ValueError, StopIteration, IndexError) as exc:
        raise TraceStoreError(
            f"job {stamp.job_id!r} record at position {position} is not "
            f"a canonical JSON object ({exc!r})") from None
    _check_seq(record_seq, position, stamp)
    items.sort()
    return "{" + ",".join(text for _, text in items) + "}"


def _check_seq(record_seq, position: int, stamp: _Stamp) -> None:
    if type(record_seq) is not int or record_seq != position:
        raise TraceStoreError(
            f"job {stamp.job_id!r} record at position {position} carries "
            f"seq {record_seq!r}; a job store's seqs are its positions")


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

    Raises :class:`~repro.errors.TraceStoreError` when a per-job record
    already carries a provenance key or its ``seq`` is not its position
    in the job store.
    """
    dest = TraceStore(dest_root, segment_events=segment_events)
    if dest.event_count:
        raise TraceStoreError(
            f"campaign store at {dest_root} already holds "
            f"{dest.event_count} event(s) — the trace_dir looks reused; "
            f"give every campaign run a fresh trace_dir")
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
