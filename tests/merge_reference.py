"""Reference implementation of the campaign trace-store merge.

:func:`repro.tracedb.collect.merge_job_stores` splices each per-job
payload at the byte level. This module keeps the straightforward form it
replaced, as it was before the splice, so tests can prove the two
byte-identical: decode every per-job record into a dict, stamp
``job_id``/``job_index``/``job_seq`` on it, and write its canonical
re-encoding to the campaign store.

Unlike the splice, the reference accepts any record shape, silently
overwrites a record's own provenance keys and trusts its ``seq``;
comparisons therefore use per-job stores of trace events, the one
shape job stores hold. A campaign store's records are not events, so
the reference writes each canonical payload straight into the segment
(the store's ``append`` takes events only).
"""

from __future__ import annotations

from typing import Sequence

from repro.tracedb.format import encode_record
from repro.tracedb.store import DEFAULT_SEGMENT_EVENTS, TraceStore


def reference_merge_job_stores(results: Sequence[object], dest_root: str,
                               segment_events: int = DEFAULT_SEGMENT_EVENTS
                               ) -> TraceStore:
    """Fold every job's store into one canonically-ordered campaign store
    by decoding and re-encoding every record."""
    dest = TraceStore(dest_root, segment_events=segment_events)
    for result in sorted(results, key=lambda r: r.index):
        path = getattr(result, "trace_path", "")
        if not path or getattr(result, "failed", False):
            continue
        source = TraceStore.open(path)
        for record in source.events():
            merged = dict(record)
            merged["job_seq"] = merged.pop("seq")
            merged["job_id"] = result.job_id
            merged["job_index"] = result.index
            merged["seq"] = dest.next_seq
            dest._append_payload(merged["seq"], encode_record(merged))
    dest.close()
    return dest
