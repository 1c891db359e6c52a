"""repro.fleet — scheduled execution of fault-campaign jobs.

Parson's observation (*Extension Language Automation of Embedded System
Debugging*) is that a debugger becomes an experimentation platform the
moment its runs can be scripted and batched. This package is that batch
layer: a fault campaign runs the whole debug loop once per fault, and
those jobs stop serializing on one interpreter and fan out over worker
processes, so scenario count scales with cores instead of wall-clock.

Architecture — policy shells around one scheduler core::

    merge.py     results -> CampaignResult       canonical order, loud failures
    pool.py      SerialRunner / FleetRunner      policy shells: backend,
                                                 worker count, retry budget
    sched.py     ElasticScheduler                THE event loop: one FIFO job
                 Inline/Process backends         queue, one job per slot,
                                                 per-job deadlines,
                                                 non-blocking retry
    worker.py    run_job                         the job entry point
    jobs.py      JobSpec / JobResult             picklable recipes

Both runners hand their specs, in canonical order, to
:class:`~repro.fleet.sched.ElasticScheduler`: each idle slot takes the
head of the queue, per-job deadlines are enforced, and crash/timeout
retries fold into the same loop as dispatch.

The load-bearing design rules:

* **Recipes cross processes, objects never do.** A ``JobSpec`` carries
  ``"module:qualname"`` references plus ``(category, kind, seed)`` fault
  coordinates; the worker rebuilds system, firmware and fault locally.
  No live ``Board``, monitor lambda or half-run simulator is ever
  pickled, so results cannot depend on which process ran the job.
* **One path, one answer.** Every campaign runs through a runner
  (``run_campaign(runner=None)`` means ``SerialRunner``), every job
  through ``run_job`` and one experiment function, and results key on
  the canonical corpus index — so any worker count or completion order
  produces a ``CampaignResult`` and campaign trace store byte-identical
  to ``SerialRunner`` at the same master seed (hypothesis-forced in
  ``tests/test_sched.py``).
* **Failures are data, and they are contained.** A slot holds one job
  at a time, so a crash or deadline kill costs exactly that job; it
  retries on a backoff *deadline* (never a blocking sleep) until its
  budget produces a structured ``WorkerCrashed``/``JobTimeout``
  failure. The merge refuses to fabricate a detection table from a
  corpus with holes unless explicitly asked (``strict=False``).

Entry points:

* campaigns — ``run_campaign(..., runner=FleetRunner(workers=4))`` in
  :mod:`repro.faults.campaign`; on a core-starved host keep the default
  (``SerialRunner``) — process scale-out cannot win there;
* scoreboard — ``benchmarks/perf_fleet.py`` (BENCH_fleet.json) tracks
  campaign throughput and parity; ``benchmarks/perf_sched.py``
  (BENCH_sched.json) floors the FIFO queue's speedup over static
  thirds on a skewed corpus and schedule parity, and records
  stranded-recovery wall time.
"""
