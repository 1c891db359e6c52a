"""repro.obs — unified observability: metrics, spans, export, post-mortems.

Every subsystem in this framework already keeps books — link
transaction accounting, chaos frame-fault counters, session
transport totals, tracedb segment I/O. This package is the layer that
makes those books *one surface*: a labeled metrics registry they all
publish into, a span tracer that turns modeled time into renderable
slices, a Perfetto-compatible exporter, flame-style calltrace rollups,
and automated post-mortems for failed campaign jobs. Raw event streams
only become debugging leverage once they are aggregated, rendered and
scriptable — that is the job here.

Invariants (each one gated, not aspirational):

* **Modeled-time spans.** Span timestamps and durations come from the
  simulation/transport/CPU cost model (``sim.now``, link ``cost_us``,
  ``t_target``/``t_host``) — never the wall clock. A span you measure
  in Perfetto is a modeled cost you can assert on in a test.
* **Determinism at a fixed seed.** Same seed ⇒ byte-identical
  metrics snapshots, span lists, and exported trace JSON: lane
  assignment is by sorted name, snapshots sort every level, the JSON
  encoding is canonical. ``BENCH_obs.json`` exports two same-seed
  campaigns and FLOORS.json (``BENCH_obs_determinism``) floors the
  byte comparison at exact equality.
* **Zero cost when unused.** Telemetry off means the holder slots in
  :mod:`repro.obs.runtime` are ``None`` and every instrumentation
  site pays one attribute load + ``is not None`` — no allocation, no
  call, and nothing at all inside the per-instruction interpreter
  loops (instrumentation sits at transaction/activation granularity,
  never per instruction). Ceilings in FLOORS.json (``BENCH_obs`` on
  ``overhead.poll_disabled_ratio``, ``BENCH_obs_interp`` on
  ``overhead.interp_disabled_ratio``) keep it true.
* **Canonical snapshot merge.** Metrics snapshots and span lists are
  picklable plain data; merging is associative and order-independent
  (counters/histograms sum, spans re-sort, gauges last-write-wins as
  documented) — the same discipline as ``fleet.merge`` and the
  tracedb campaign merge, so fleet workers ship telemetry upward
  without breaking parallel == serial.
* **Existing stats APIs are unchanged.** ``DebugLink.stats()``,
  ``ChaosLink.stats()`` and ``DebugSession.transport_stats()`` keep
  their exact keys and values;
  the registry *binds* them
  (:meth:`~repro.obs.metrics.MetricsRegistry.bind_stats`) and reads
  them once per snapshot, so they became the registry's series
  without their hot paths learning anything new.

Quick start::

    from repro.obs import observed
    with observed() as (registry, tracer):
        session = ...   # build + run the stack under telemetry
        session.run(50_000)
        snap = registry.snapshot()
    print(snap.counter_total("link.transactions"))

Export a campaign store for https://ui.perfetto.dev::

    python -m repro.obs.export --campaign runs/trace_dir/campaign -o t.json
"""

from repro.obs.metrics import MetricsRegistry, MetricsSnapshot, merge_snapshots
from repro.obs.runtime import OBS, disable, enable, enabled, observed
from repro.obs.spans import Span, SpanTracer, merge_spans, span_order

__all__ = [
    "OBS",
    "MetricsRegistry",
    "MetricsSnapshot",
    "Span",
    "SpanTracer",
    "disable",
    "enable",
    "enabled",
    "merge_snapshots",
    "merge_spans",
    "observed",
    "span_order",
]
