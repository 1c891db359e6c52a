"""Chrome trace-event (Perfetto-compatible) export of trace stores.

Renders a recorded :class:`~repro.tracedb.store.TraceStore` (per-job
or merged campaign) into the Trace Event JSON format that
``chrome://tracing`` and https://ui.perfetto.dev open directly. Every
stored record becomes a slice (``ph:"X"``): engine trace events on the
command lane of their job's process, kernel
:class:`~repro.rtos.task.JobRecord` spills as activation slices on
their actor's lane. Timestamps are the model's microseconds verbatim —
the format's ``ts``/``dur`` unit *is* microseconds, so no scaling
happens and a slice you measure in Perfetto is a modeled cost you can
assert on in a test. A metrics snapshot, when given, rides along in
``otherData``.

Determinism: pid/tid assignment is by sorted lane name (never dict or
arrival order), events are emitted under a total sort, and the JSON is
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
    store (no stamps) is pid 1, "session". Within a process, engine
    command events share the command lane (tid 1) and kernel job
    records get one lane per actor (tid 2..), so a campaign opens as
    one row of boards with their activations and commands side by side.
    """
    records = list(store.events())
    # -- canonical pid per job ------------------------------------------
    jobs: Dict[Tuple[int, str], None] = {}
    for rec in records:
        jobs.setdefault((rec.get("job_index", 0),
                         str(rec.get("job_id", "session"))), None)
    pid_of = {key: key[0] + 1 for key in jobs}
    # -- canonical tid per lane within each job -------------------------
    actors: Dict[Tuple[int, str], List[str]] = {}
    for rec in records:
        if "actor" in rec:
            key = (rec.get("job_index", 0),
                   str(rec.get("job_id", "session")))
            lane = actors.setdefault(key, [])
            if rec["actor"] not in lane:
                lane.append(rec["actor"])
    tid_of: Dict[Tuple[int, str, str], int] = {}
    events: List[Dict[str, Any]] = []
    for key in sorted(jobs):
        pid = pid_of[key]
        events.append(_meta(pid, 0, "process_name", key[1]))
        events.append(_meta(pid, 1, "thread_name", "commands"))
        for tid, actor in enumerate(sorted(actors.get(key, ())), start=2):
            tid_of[(key[0], key[1], actor)] = tid
            events.append(_meta(pid, tid, "thread_name", actor))
    for rec in records:
        key = (rec.get("job_index", 0), str(rec.get("job_id", "session")))
        pid = pid_of[key]
        if "actor" in rec:  # kernel JobRecord spill: an activation slice
            ts = rec.get("release", rec.get("t_target", 0))
            done = rec.get("completion")
            dur = 0 if done is None else done - ts
            events.append(_slice(
                pid, tid_of[(key[0], key[1], rec["actor"])],
                rec["actor"], "activation", ts, dur,
                {"index": rec.get("index"),
                 "deadline_abs": rec.get("deadline_abs"),
                 "skipped": bool(rec.get("skipped", False)),
                 "seq": rec.get("seq", rec.get("job_seq"))}))
            continue
        # engine trace event: host observation of one debug command
        ts = rec.get("t_target", 0)
        dur = rec.get("t_host", ts) - ts
        events.append(_slice(
            pid, 1, f"{rec.get('kind', 'EVENT')} {rec.get('path', '')}",
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
