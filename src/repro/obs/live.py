"""The live telemetry plane: heartbeats, windowed aggregation, recorder.

PR 8's observability is retrospective — registry snapshots read at
campaign end. This module makes the same books *streamable while the
campaign runs*, without giving up one bit of determinism:

* :class:`HeartbeatEmitter` (worker side) — hooks the ``OBS.live``
  slot. Instrumented sites feed it modeled time (kernel activation
  releases, session runs); the fleet worker feeds it job lifecycle.
  Every time modeled time crosses a window boundary it publishes the
  *delta* of the worker's registry since the last publish (small
  messages, associative merge), plus ``start``/``finish`` lifecycle
  events and periodic liveness beacons, through any callable sink — a
  multiprocessing queue's ``put`` in fleet workers,
  :meth:`LiveAggregator.feed` directly under the serial runner.
* :class:`LiveAggregator` (parent side) — merges deltas via the
  canonical :class:`~repro.obs.metrics.MetricsSnapshot` merge into
  per-job, per-window rollups; exposes ``current()`` (the running
  merged snapshot), ``history()`` (canonically-ordered windows),
  windowed rates and histogram percentiles, and evaluates
  :mod:`repro.obs.health` rules into the deterministic alert
  transcript.
* :class:`FlightRecorder` — a bounded ring of the last K aggregated
  windows, attachable to post-mortems (the *trajectory into death*)
  and serializable to a canonical JSON file the dashboard and the
  Perfetto exporter (``--flight-recorder``) can replay.

Determinism contract (the part worth being paranoid about): window
indexes are **modeled-µs buckets**, so which window a delta lands in is
decided by simulation time, never the wall clock. Campaign experiments
restart modeled time per phase, so the emitter clamps its clock
monotonically within a job. Worker registry series for *finished* jobs
are constant (bound stats anchors stay alive), so per-window deltas
isolate exactly the active job's changes — identically whether one
process runs every job (serial) or each worker runs a slice (fleet).
Worker pids and queue arrival order exist only as dashboard lane
decoration; everything canonical keys on ``(job_index, window_index)``.
Result: same master seed ⇒ byte-identical ``history()``, alerts and
transcript, serial vs fleet — gated by tests against the committed
``artifacts/obs_live_alerts.txt`` exemplar.

Dashboard::

    python -m repro.obs.live --demo                # run + render live
    python -m repro.obs.live --recorder flight.json  # replay a recording
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import OrderedDict
from typing import (Any, Callable, Dict, Iterable, List, Optional,
                    Sequence, Tuple)

from repro.obs import health
from repro.obs.metrics import MetricsSnapshot, percentile
from repro.obs.runtime import OBS

__all__ = ["HeartbeatConfig", "HeartbeatEmitter", "LiveAggregator",
           "FlightRecorder", "Window", "render_dashboard"]

#: lane index the emitter uses for modeled work outside any fleet job
#: (e.g. a long-lived DebugSession ticking the live plane directly)
AMBIENT_INDEX = -1


class HeartbeatConfig:
    """Cadence policy for the emitter (and window width for windows).

    * ``period_us`` — the aggregation window width in modeled
      microseconds; the emitter flushes a delta whenever modeled time
      crosses a ``period_us`` boundary (plus a residual flush at job
      finish). This is the one knob both sides must agree on — the
      aggregator's window indexes are ``t // period_us``.
    * ``every_jobs`` — liveness beacon cadence in *completed jobs*.
      Beacons carry no metric data (they feed wall-clock-ish worker
      lane status only), so any cadence is safe for determinism.
    """

    __slots__ = ("period_us", "every_jobs")

    def __init__(self, period_us: int = 250_000,
                 every_jobs: int = 1) -> None:
        if period_us < 1:
            raise ValueError(f"period_us must be >= 1, got {period_us}")
        if every_jobs < 1:
            raise ValueError(f"every_jobs must be >= 1, got {every_jobs}")
        self.period_us = period_us
        self.every_jobs = every_jobs

    def __repr__(self) -> str:
        return (f"<HeartbeatConfig period={self.period_us}us "
                f"every_jobs={self.every_jobs}>")


class HeartbeatEmitter:
    """Worker-side publisher living in the ``OBS.live`` slot.

    Messages are picklable plain tuples (kind first)::

        ("start",  source, job_index, job_id)
        ("window", source, job_index, job_id, window, t_us, delta)
        ("finish", source, job_index, job_id, window, t_us, status,
                   error_type, delta_or_None)
        ("beacon", source, jobs_done)

    ``delta`` is ``registry.snapshot().diff(last_published)`` — empty
    deltas are skipped (emptiness is itself deterministic, so serial
    and fleet skip the same windows). ``source`` identifies the
    publishing process for dashboard lanes and is never part of any
    canonical output. Modeled time is clamped monotone within a job
    because campaign experiments run two fresh simulators (model phase,
    then code phase) whose clocks both start at zero.
    """

    __slots__ = ("config", "sink", "source", "_last", "_job_index",
                 "_job_id", "_last_t", "_flushed", "_jobs_done")

    def __init__(self, config: HeartbeatConfig,
                 sink: Callable[[tuple], Any],
                 source: Any = None) -> None:
        self.config = config
        self.sink = sink
        if source is None:
            import os
            source = os.getpid()
        self.source = source
        self._last = MetricsSnapshot()
        self._job_index: Optional[int] = None
        self._job_id = ""
        self._last_t = 0
        self._flushed = -1     # highest window index already flushed
        self._jobs_done = 0

    # -- delta protocol ----------------------------------------------------

    def _delta(self) -> Optional[MetricsSnapshot]:
        registry = OBS.metrics
        if registry is None:
            return None
        snapshot = registry.snapshot()
        delta = snapshot.diff(self._last)
        self._last = snapshot
        return None if delta.empty() else delta

    def _rebaseline(self) -> None:
        registry = OBS.metrics
        self._last = (registry.snapshot() if registry is not None
                      else MetricsSnapshot())

    # -- lifecycle ---------------------------------------------------------

    def job_start(self, index: int, job_id: str) -> None:
        """A job begins: close any ambient lane, re-baseline, announce."""
        if self._job_index is not None:
            # an ambient lane (or an unfinished job — defensive) yields
            self.job_finish(self._job_index, self._job_id, "open")
        # changes between jobs are nobody's: attribute from here on only
        self._rebaseline()
        self._job_index = index
        self._job_id = job_id
        self._last_t = 0
        self._flushed = -1
        self.sink(("start", self.source, index, job_id))

    def tick(self, t_us: int) -> None:
        """Modeled time advanced; flush every newly-completed window.

        Ambient ticks (no job active) open the ambient lane so a plain
        instrumented session can stream without fleet plumbing.
        """
        if self._job_index is None:
            self.job_start(AMBIENT_INDEX, "ambient")
        if t_us > self._last_t:
            self._last_t = t_us
        done = self._last_t // self.config.period_us - 1
        if done > self._flushed:
            delta = self._delta()
            self._flushed = done
            if delta is not None:
                self.sink(("window", self.source, self._job_index,
                           self._job_id, done, self._last_t, delta))

    def job_finish(self, index: int, job_id: str, status: str,
                   error_type: str = "") -> None:
        """A job ended: publish the residual delta and the outcome."""
        delta = self._delta()
        window = self._last_t // self.config.period_us
        self.sink(("finish", self.source, index, job_id, window,
                   self._last_t, status, error_type, delta))
        self._job_index = None
        self._job_id = ""
        self._last_t = 0
        self._flushed = -1
        self._jobs_done += 1
        if self._jobs_done % self.config.every_jobs == 0:
            self.sink(("beacon", self.source, self._jobs_done))

    def close(self) -> None:
        """Flush any open (ambient) lane; the emitter can be reused."""
        if self._job_index is not None:
            self.job_finish(self._job_index, self._job_id, "open")


class Window:
    """One aggregated modeled-time bucket of one job's telemetry."""

    __slots__ = ("job_index", "job_id", "index", "t_start_us", "t_end_us",
                 "delta")

    def __init__(self, job_index: int, job_id: str, index: int,
                 t_start_us: int, t_end_us: int,
                 delta: MetricsSnapshot) -> None:
        self.job_index = job_index
        self.job_id = job_id
        self.index = index
        self.t_start_us = t_start_us
        self.t_end_us = t_end_us
        self.delta = delta

    def counter_total(self, name: str) -> int:
        return self.delta.counter_total(name)

    def percentile(self, name: str, q: float, **labels: Any
                   ) -> Optional[float]:
        """Windowed histogram percentile (None when the series is
        absent this window)."""
        return self.delta.histogram_percentile(name, q, **labels)

    def to_dict(self) -> Dict[str, Any]:
        return {"job_index": self.job_index, "job_id": self.job_id,
                "index": self.index, "t_start_us": self.t_start_us,
                "t_end_us": self.t_end_us, "delta": self.delta.to_dict()}

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "Window":
        return cls(data["job_index"], data["job_id"], data["index"],
                   data["t_start_us"], data["t_end_us"],
                   MetricsSnapshot.from_dict(data["delta"]))

    def __repr__(self) -> str:
        return (f"<Window job #{self.job_index} {self.job_id} "
                f"[{self.t_start_us}..{self.t_end_us})us>")


class _Lane:
    """Per-job aggregation state (internal)."""

    __slots__ = ("job_index", "job_id", "windows", "started", "finished",
                 "status", "error_type", "last_t_us", "start_rank",
                 "source")

    def __init__(self, job_index: int, job_id: str) -> None:
        self.job_index = job_index
        self.job_id = job_id
        self.windows: Dict[int, MetricsSnapshot] = {}
        self.started = False
        self.finished = False
        self.status = ""
        self.error_type = ""
        self.last_t_us = 0
        self.start_rank = 0
        self.source: Any = None


class FlightRecorder:
    """Bounded ring of the last *capacity* aggregated windows.

    Keyed by ``(job_index, window_index)`` — a window updated twice
    (periodic flush, then the finish residual) occupies one slot with
    the latest aggregate. Ring recency follows feed order, so with more
    windows than capacity the *surviving set* can differ between serial
    and fleet runs (arrival order is wall-clock there); size capacity
    to the campaign (windows ≤ capacity) when byte-stable post-mortems
    matter. Serialization is canonical JSON: windows in
    ``(job_index, window_index)`` order, sorted keys, ASCII.
    """

    __slots__ = ("capacity", "period_us", "alerts", "_ring")

    def __init__(self, capacity: int = 256,
                 period_us: int = 0) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self.period_us = period_us
        self.alerts: List[health.Alert] = []
        self._ring: "OrderedDict[Tuple[int, int], Window]" = OrderedDict()

    def push(self, window: Window) -> None:
        key = (window.job_index, window.index)
        self._ring.pop(key, None)
        self._ring[key] = window
        while len(self._ring) > self.capacity:
            self._ring.popitem(last=False)

    def windows(self) -> List[Window]:
        """Ring contents in recency order (oldest first)."""
        return list(self._ring.values())

    def history(self) -> List[Window]:
        """Ring contents in canonical ``(job, window)`` order."""
        return [self._ring[key] for key in sorted(self._ring)]

    def for_job(self, job_index: int) -> List[Window]:
        """This job's surviving windows, in window order."""
        return [self._ring[key] for key in sorted(self._ring)
                if key[0] == job_index]

    def current(self) -> MetricsSnapshot:
        """Merged snapshot over every surviving window."""
        out = MetricsSnapshot()
        for window in self.history():
            out = out.merge(window.delta)
        return out

    def evaluate(self) -> List[health.Alert]:
        """The alerts stamped at close time (already canonical)."""
        return list(self.alerts)

    def lanes(self) -> List[Dict[str, Any]]:
        rows: Dict[int, Dict[str, Any]] = {}
        for window in self.history():
            row = rows.setdefault(window.job_index, {
                "job_index": window.job_index, "job_id": window.job_id,
                "windows": 0, "last_t_us": 0, "status": "recorded",
                "source": "-"})
            row["windows"] += 1
            row["last_t_us"] = max(row["last_t_us"], window.t_end_us)
        return [rows[key] for key in sorted(rows)]

    # -- canonical file form ----------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        return {"version": 1, "capacity": self.capacity,
                "period_us": self.period_us,
                "windows": [w.to_dict() for w in self.history()],
                "alerts": [a.to_dict() for a in self.alerts]}

    def to_bytes(self) -> bytes:
        return (json.dumps(self.to_dict(), sort_keys=True,
                           separators=(",", ":")) + "\n").encode("ascii")

    def save(self, path: str) -> None:
        with open(path, "wb") as fh:
            fh.write(self.to_bytes())

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "FlightRecorder":
        recorder = cls(capacity=max(1, int(data.get("capacity", 256))),
                       period_us=int(data.get("period_us", 0)))
        for row in data.get("windows", ()):
            recorder.push(Window.from_dict(row))
        recorder.alerts = [health.Alert.from_dict(row)
                           for row in data.get("alerts", ())]
        return recorder

    @classmethod
    def load(cls, path: str) -> "FlightRecorder":
        with open(path, "rb") as fh:
            return cls.from_dict(json.loads(fh.read().decode("ascii")))

    def __repr__(self) -> str:
        return (f"<FlightRecorder {len(self._ring)}/{self.capacity} "
                f"window(s), {len(self.alerts)} alert(s)>")


class LiveAggregator:
    """Parent-side merge of heartbeat streams into windows + alerts.

    Feed it messages (:meth:`feed`, or :meth:`drain` over a
    multiprocessing queue); read ``current()`` / ``history()`` /
    ``evaluate()`` at any point — evaluation is a pure function of the
    canonical window set, so reading early never perturbs the final
    transcript. :meth:`close` finalizes: stall detection runs, alerts
    are stamped onto the flight recorder, and the transcript string is
    returned (idempotent).
    """

    def __init__(self, config: Optional[HeartbeatConfig] = None,
                 rules: Sequence[health.Rule] = health.DEFAULT_RULES,
                 recorder: Optional[FlightRecorder] = None,
                 stall_budget: int = 4,
                 on_update: Optional[Callable[["LiveAggregator"], None]]
                 = None) -> None:
        self.config = config if config is not None else HeartbeatConfig()
        self.rules = tuple(rules)
        self.recorder = (recorder if recorder is not None
                         else FlightRecorder())
        self.recorder.period_us = self.config.period_us
        #: a started-but-unfinished job is stalled once this many other
        #: jobs finished after its start heartbeat
        self.stall_budget = stall_budget
        self.on_update = on_update
        self._lanes: Dict[int, _Lane] = {}
        self._sources: Dict[Any, Dict[str, Any]] = {}
        self._merged = MetricsSnapshot()
        self._dirty = False
        self._finish_rank = 0
        self.messages = 0
        self.windows_fed = 0
        self._closed: Optional[str] = None

    # -- ingest ------------------------------------------------------------

    def _lane(self, job_index: int, job_id: str) -> _Lane:
        lane = self._lanes.get(job_index)
        if lane is None:
            lane = self._lanes[job_index] = _Lane(job_index, job_id)
        return lane

    def _source_row(self, source: Any) -> Dict[str, Any]:
        row = self._sources.get(source)
        if row is None:
            row = self._sources[source] = {
                "source": source, "jobs_done": 0, "current": "",
                "messages": 0}
        return row

    def _ingest_window(self, lane: _Lane, index: int, t_us: int,
                       delta: MetricsSnapshot) -> None:
        cur = lane.windows.get(index)
        lane.windows[index] = delta if cur is None else cur.merge(delta)
        lane.last_t_us = max(lane.last_t_us, t_us)
        if not self._dirty:
            self._merged.absorb(delta)
        self.windows_fed += 1
        period = self.config.period_us
        self.recorder.push(Window(
            lane.job_index, lane.job_id, index, index * period,
            (index + 1) * period, lane.windows[index]))

    def feed(self, msg: tuple) -> None:
        """Ingest one emitter message (any worker, any order)."""
        if self._closed is not None:
            raise RuntimeError("LiveAggregator is closed")
        kind = msg[0]
        self.messages += 1
        if kind == "window":
            _, source, job_index, job_id, index, t_us, delta = msg
            row = self._source_row(source)
            row["messages"] += 1
            row["current"] = job_id
            self._ingest_window(self._lane(job_index, job_id), index,
                                t_us, delta)
        elif kind == "start":
            _, source, job_index, job_id = msg
            lane = self._lane(job_index, job_id)
            if lane.windows and not lane.finished:
                # a retried job restarts from scratch: drop the partial
                # stream so it cannot double-count, recompute lazily
                lane.windows.clear()
                self._dirty = True
            lane.started = True
            lane.finished = False
            lane.source = source
            lane.start_rank = self._finish_rank
            row = self._source_row(source)
            row["messages"] += 1
            row["current"] = job_id
        elif kind == "finish":
            (_, source, job_index, job_id, index, t_us, status,
             error_type, delta) = msg
            lane = self._lane(job_index, job_id)
            if delta is not None:
                self._ingest_window(lane, index, t_us, delta)
            lane.finished = True
            lane.status = status
            lane.error_type = error_type
            lane.last_t_us = max(lane.last_t_us, t_us)
            self._finish_rank += 1
            row = self._source_row(source)
            row["messages"] += 1
            row["current"] = ""
        elif kind == "beacon":
            _, source, jobs_done = msg
            row = self._source_row(source)
            row["messages"] += 1
            row["jobs_done"] = jobs_done
        else:
            raise ValueError(f"unknown heartbeat message kind {kind!r}")
        if self.on_update is not None:
            self.on_update(self)

    def drain(self, queue: Any) -> int:
        """Ingest everything currently buffered on a mp queue."""
        import queue as _queue
        count = 0
        while True:
            try:
                msg = queue.get_nowait()
            except _queue.Empty:
                break
            self.feed(msg)
            count += 1
        return count

    # -- reads -------------------------------------------------------------

    def current(self) -> MetricsSnapshot:
        """The running merge of every ingested delta (updated in place
        as later deltas arrive)."""
        if self._dirty:
            merged = MetricsSnapshot()
            for window in self.history():
                merged = merged.merge(window.delta)
            self._merged = merged
            self._dirty = False
        return self._merged

    def history(self) -> List[Window]:
        """Every aggregated window in canonical (job, window) order."""
        period = self.config.period_us
        out: List[Window] = []
        for job_index in sorted(self._lanes):
            lane = self._lanes[job_index]
            for index in sorted(lane.windows):
                out.append(Window(job_index, lane.job_id, index,
                                  index * period, (index + 1) * period,
                                  lane.windows[index]))
        return out

    def lanes(self) -> List[Dict[str, Any]]:
        """Per-job lane rows for the dashboard, canonical order."""
        rows = []
        for job_index in sorted(self._lanes):
            lane = self._lanes[job_index]
            status = (lane.status if lane.finished
                      else "running" if lane.started else "?")
            if lane.error_type:
                status += f"({lane.error_type})"
            rows.append({"job_index": job_index, "job_id": lane.job_id,
                         "windows": len(lane.windows),
                         "last_t_us": lane.last_t_us, "status": status,
                         "source": lane.source})
        return rows

    def sources(self) -> List[Dict[str, Any]]:
        """Per-worker rows (lane decoration only — never canonical)."""
        return [self._sources[key]
                for key in sorted(self._sources, key=repr)]

    def _stalled(self) -> List[Tuple[int, str, str]]:
        stalled = []
        for job_index in sorted(self._lanes):
            lane = self._lanes[job_index]
            if (job_index >= 0 and lane.started and not lane.finished
                    and self._finish_rank - lane.start_rank
                    >= self.stall_budget):
                behind = self._finish_rank - lane.start_rank
                stalled.append((
                    job_index, lane.job_id,
                    f"no finish heartbeat while {behind} other job(s) "
                    f"completed (budget {self.stall_budget})"))
        return stalled

    def evaluate(self) -> List[health.Alert]:
        """Rules over the current canonical window set (pure read)."""
        return health.evaluate(self.history(), self.rules,
                               stalled=self._stalled())

    def transcript(self) -> str:
        """The canonical alert transcript for the current state."""
        jobs = sum(1 for idx in self._lanes if idx >= 0)
        return health.render_transcript(self.evaluate(),
                                        windows=len(self.history()),
                                        jobs=jobs)

    def close(self) -> str:
        """Finalize: stamp alerts onto the recorder, return transcript."""
        if self._closed is None:
            alerts = self.evaluate()
            self.recorder.alerts = alerts
            jobs = sum(1 for idx in self._lanes if idx >= 0)
            self._closed = health.render_transcript(
                alerts, windows=len(self.history()), jobs=jobs)
        return self._closed

    def __repr__(self) -> str:
        return (f"<LiveAggregator {len(self._lanes)} lane(s) "
                f"{self.windows_fed} window(s) fed, "
                f"{self.messages} message(s)>")


# -- plain-text dashboard --------------------------------------------------

def _rate_rows(source, top: int) -> List[str]:
    windows = source.history()
    if not windows:
        return ["  (no windows yet)"]
    merged = source.current()
    span = max(1, len(windows))
    rows = []
    for name in merged.counters:
        total = merged.counter_total(name)
        rows.append((-abs(total), name, total))
    rows.sort()
    out = []
    for _, name, total in rows[:top]:
        out.append(f"  {name:<34} {total:>12} total "
                   f"{total / span:>10.1f}/window")
    for name in sorted(merged.histograms):
        for labels_key in sorted(merged.histograms[name]):
            h = merged.histograms[name][labels_key]
            p50 = percentile(h, 50)
            p95 = percentile(h, 95)
            tag = ",".join(f"{k}={v}" for k, v in labels_key)
            label = f"{name}{{{tag}}}" if tag else name
            out.append(f"  {label:<34} p50={p50:.1f} p95={p95:.1f} "
                       f"n={h['count']}")
    return out or ["  (no counter series yet)"]


def render_dashboard(source, top: int = 8) -> str:
    """Plain-text dashboard over a :class:`LiveAggregator` or a loaded
    :class:`FlightRecorder` (both expose history/current/evaluate/lanes).
    """
    windows = source.history()
    alerts = source.evaluate()
    lanes = source.lanes()
    rule = "-" * 72
    lines = [f"LIVE TELEMETRY  {len(lanes)} lane(s)  "
             f"{len(windows)} window(s)  {len(alerts)} alert(s)", rule]
    lines.append("lanes:")
    if not lanes:
        lines.append("  (no heartbeats yet)")
    for row in lanes:
        lines.append(f"  job #{row['job_index']:>3} {row['job_id']:<32} "
                     f"{row['windows']:>3} window(s)  "
                     f"t={row['last_t_us']:>9}us  {row['status']}")
    workers = getattr(source, "sources", None)
    if workers is not None:
        rows = workers()
        if rows:
            lines.append("workers:")
            for row in rows:
                current = row["current"] or "idle"
                lines.append(f"  {str(row['source']):<12} "
                             f"{row['jobs_done']:>3} job(s) done  "
                             f"{row['messages']:>4} msg(s)  {current}")
    lines.append(f"top {top} series by windowed rate:")
    lines.extend(_rate_rows(source, top))
    lines.append("active alerts:")
    if not alerts:
        lines.append("  (none)")
    else:
        lines.extend("  " + alert.line() for alert in alerts)
    return "\n".join(lines) + "\n"


# -- CLI -------------------------------------------------------------------

def _demo(window_us: int, workers: int, duration_us: int,
          save_recorder: str) -> str:
    """A small deterministic heartbeat campaign rendered live."""
    from repro.comdes.examples import traffic_light_system
    from repro.experiments import (
        traffic_light_code_watches,
        traffic_light_monitor_suite,
    )
    from repro.faults import run_campaign
    from repro.fleet import FleetRunner, SerialRunner

    aggregator = LiveAggregator(HeartbeatConfig(period_us=window_us))
    if workers > 1:
        runner = FleetRunner(workers=workers, live=aggregator)
    else:
        runner = SerialRunner(live=aggregator)
    run_campaign(
        traffic_light_system, traffic_light_monitor_suite,
        traffic_light_code_watches, runner=runner,
        design_kinds=("wrong_target",), impl_kinds=("inverted_branch",),
        comm_kinds=("frame_loss",), seeds=(1,), duration_us=duration_us)
    transcript = aggregator.close()
    if save_recorder:
        aggregator.recorder.save(save_recorder)
    return render_dashboard(aggregator) + "\n" + transcript


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs.live",
        description="Plain-text live-telemetry dashboard: render a "
                    "recorded flight-recorder file, or run the built-in "
                    "deterministic demo campaign with heartbeats on.")
    parser.add_argument("--recorder", metavar="FILE", default=None,
                        help="render a saved flight-recorder JSON file")
    parser.add_argument("--demo", action="store_true",
                        help="run the demo campaign and render it")
    parser.add_argument("--window-us", type=int, default=250_000,
                        help="aggregation window width in modeled µs "
                             "(demo; default 250000)")
    parser.add_argument("--workers", type=int, default=1,
                        help="demo fleet size (1 = serial runner)")
    parser.add_argument("--duration-us", type=int, default=1_000_000,
                        help="demo experiment horizon in modeled µs")
    parser.add_argument("--save-recorder", metavar="FILE", default="",
                        help="with --demo: also save the flight "
                             "recorder to FILE")
    opts = parser.parse_args(argv)
    if opts.recorder is None and not opts.demo:
        parser.error("pass --recorder FILE and/or --demo")
    if opts.recorder is not None:
        recorder = FlightRecorder.load(opts.recorder)
        sys.stdout.write(render_dashboard(recorder))
    if opts.demo:
        sys.stdout.write(_demo(opts.window_us, opts.workers,
                               opts.duration_us, opts.save_recorder))
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via main()
    raise SystemExit(main())
