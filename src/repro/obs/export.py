"""Chrome trace-event (Perfetto-compatible) export of trace stores.

Renders a recorded :class:`~repro.tracedb.store.TraceStore` (per-job
or merged campaign) into the Trace Event JSON format that
``chrome://tracing`` and https://ui.perfetto.dev open directly. Every
stored record is an engine trace event and becomes a slice (``ph:"X"``)
on the command lane of its job's process. Timestamps are the model's
microseconds verbatim — the format's ``ts``/``dur`` unit *is*
microseconds, so no scaling happens and a slice you measure in Perfetto
is a modeled cost you can assert on in a test. A metrics snapshot,
when given, rides along in ``otherData``.

Determinism: pid assignment is by job index (never dict or arrival
order), events are emitted under a total sort, and the JSON is
canonical (sorted keys, fixed separators) — so same seed ⇒ byte-identical
export, which ``BENCH_obs.json``'s determinism fingerprint gates in CI.

CLI::

    python -m repro.obs.export --campaign <store-root> -o trace.json
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.obs.metrics import MetricsSnapshot
from repro.tracedb.store import TraceStore


def _slice(pid: int, tid: int, name: str, cat: str, ts: int, dur: int,
           args: Dict[str, Any]) -> Dict[str, Any]:
    return {"ph": "X", "pid": pid, "tid": tid, "name": name,
            "cat": cat or "repro", "ts": ts, "dur": max(0, dur),
            "args": args}


def _meta(pid: int, tid: int, what: str, name: str) -> Dict[str, Any]:
    # thread_name / process_name metadata events label the lanes
    return {"ph": "M", "pid": pid, "tid": tid, "name": what,
            "args": {"name": name}}


def _store_events(store: TraceStore) -> List[Dict[str, Any]]:
    """Render every stored record as a slice, lanes assigned canonically.

    Processes are jobs: a merged campaign store's ``job_index``/
    ``job_id`` stamps pick the pid (job_index + 1); a single-session
    store (no stamps) is pid 1, "session". Each process has one lane,
    the command lane (tid 1), so a campaign opens as one row per job.
    """
    records = list(store.events())
    jobs: Dict[Tuple[int, str], None] = {}
    for rec in records:
        jobs.setdefault((rec.get("job_index", 0),
                         str(rec.get("job_id", "session"))), None)
    events: List[Dict[str, Any]] = []
    for key in sorted(jobs):
        pid = key[0] + 1
        events.append(_meta(pid, 0, "process_name", key[1]))
        events.append(_meta(pid, 1, "thread_name", "commands"))
    for rec in records:
        # engine trace event: host observation of one debug command
        ts = rec.get("t_target", 0)
        dur = rec.get("t_host", ts) - ts
        events.append(_slice(
            rec.get("job_index", 0) + 1, 1,
            f"{rec.get('kind', 'EVENT')} {rec.get('path', '')}",
            "command", ts, dur,
            {"value": rec.get("value"),
             "engine_state": rec.get("engine_state"),
             "seq": rec.get("seq", rec.get("job_seq"))}))
    return events


def chrome_trace(store: TraceStore,
                 metrics: Optional[MetricsSnapshot] = None,
                 title: str = "repro campaign") -> Dict[str, Any]:
    """Build one Trace Event JSON document from *store*.

    Metric snapshots ride in ``otherData`` (Perfetto shows it in trace
    info) — counters have no timeline, so they annotate rather than
    draw.
    """
    events = _store_events(store)
    events.sort(key=lambda e: (e["ph"] != "M", e["pid"], e["tid"],
                               e.get("ts", -1), e["name"]))
    doc: Dict[str, Any] = {
        "displayTimeUnit": "ms",
        "otherData": {"title": title, "timeUnit": "modeled microseconds"},
        "traceEvents": events,
    }
    if metrics is not None:
        doc["otherData"]["metrics"] = metrics.to_dict()
    return doc


def render_bytes(doc: Dict[str, Any]) -> bytes:
    """Canonical encoding: the byte-identity surface CI fingerprints."""
    return (json.dumps(doc, sort_keys=True, separators=(",", ":"))
            + "\n").encode("ascii")


def export_campaign(store_root: str, out_path: Optional[str] = None,
                    metrics: Optional[MetricsSnapshot] = None,
                    title: str = "repro campaign") -> bytes:
    """Export the store at *store_root* to canonical trace JSON bytes,
    optionally writing them to *out_path*."""
    store = TraceStore.open(store_root)
    data = render_bytes(chrome_trace(store, metrics=metrics, title=title))
    if out_path:
        with open(out_path, "wb") as fh:
            fh.write(data)
    return data


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs.export",
        description="Export a tracedb store as Chrome trace-event JSON "
                    "(open it at https://ui.perfetto.dev).")
    parser.add_argument("--campaign", metavar="STORE_ROOT", required=True,
                        help="root directory of a tracedb store (a merged "
                             "campaign store or a single per-job store)")
    parser.add_argument("-o", "--out", default=None, metavar="PATH",
                        help="output file (default: stdout)")
    parser.add_argument("--title", default="repro campaign")
    opts = parser.parse_args(argv)
    data = export_campaign(opts.campaign, opts.out, title=opts.title)
    if opts.out:
        slices = data.count(b'"ph":"X"')
        sys.stderr.write(f"wrote {opts.out}: {len(data)} bytes, "
                         f"{slices} slice(s)\n")
    else:
        sys.stdout.write(data.decode("ascii"))
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via main() in tests
    raise SystemExit(main())
