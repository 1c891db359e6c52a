"""repro.obs — unified observability: metrics, export, post-mortems.

Every subsystem in this framework already keeps books — link
transaction accounting, chaos frame-fault counters, kernel and poll
counters, tracedb segment I/O. This package is the layer that makes
those books *one surface*: a labeled counter registry they all publish
into, a Perfetto-compatible exporter of the recorded trace stores and
automated post-mortems for failed campaign jobs. Raw event streams
only become debugging leverage once they are aggregated, rendered and
scriptable — that is the job here.

Invariants (each one gated, not aspirational):

* **Modeled time only.** Exported timestamps and durations are the
  stored records' own modeled microseconds (``t_target``/``t_host``,
  release/completion) — never the wall clock. A slice you measure in
  Perfetto is a modeled cost you can assert on in a test.
* **Determinism at a fixed seed.** Same seed ⇒ byte-identical
  metrics snapshots and exported trace JSON: lane assignment is by
  sorted name, snapshots sort every level, the JSON encoding is
  canonical. ``BENCH_obs.json`` exports two same-seed campaigns and
  FLOORS.json (``BENCH_obs_determinism``) floors the byte comparison
  at exact equality.
* **Zero cost when unused.** Telemetry off means the holder slot in
  :mod:`repro.obs.runtime` is ``None`` and every instrumentation
  site pays one attribute load + ``is not None`` — no allocation, no
  call, and nothing at all inside the interpreter loops
  (instrumentation sits at transaction/activation granularity, never
  per instruction). Call-count ceilings in FLOORS.json (``BENCH_obs``
  on ``overhead.poll_extra_calls``, ``BENCH_obs_interp`` on
  ``overhead.interp_extra_calls``) keep it true.
* **Existing stats APIs are unchanged.** ``DebugLink.stats()`` and
  ``ChaosLink.stats()`` keep their exact keys and values; the
  registry *binds* them
  (:meth:`~repro.obs.metrics.MetricsRegistry.bind_stats`) and reads
  them once per snapshot, so they became the registry's series
  without their hot paths learning anything new.

Quick start::

    from repro.obs.runtime import observed
    with observed() as registry:
        session = ...   # build + run the stack under telemetry
        session.run(50_000)
        snap = registry.snapshot()
    print(snap.to_dict()["counters"]["link.transactions"])

Export a campaign store for https://ui.perfetto.dev::

    python -m repro.obs.export --campaign runs/trace_dir/campaign -o t.json
"""
