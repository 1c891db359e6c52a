"""Process-wide observability switch: one holder, one None check.

Instrumented code across the stack (links, channels, sessions, the
fleet, the tracedb store) all asks the same question on its hot path:
*is telemetry on?* The answer has to be cheap enough to ask millions of
times per second when the answer is no — the repo's zero-cost-when-
unused discipline (see ``repro.obs``'s package docstring and the
``obs.*_disabled_ratio`` ceilings in benchmarks/FLOORS.json).

The mechanism is a single module-global holder, :data:`OBS`, with
two slots: ``metrics`` (a :class:`~repro.obs.metrics.MetricsRegistry`
or ``None``) and ``spans`` (a :class:`~repro.obs.spans.SpanTracer` or
``None``). Disabled means the slot is ``None``, so the guard
an instrumentation site pays is one attribute load and an
``is not None`` test — no dict lookup, no call, no allocation:

    from repro.obs.runtime import OBS
    ...
    if OBS.metrics is not None:
        OBS.metrics.counter("chaos.fault", plane="frame", fault=fault).inc()

Scope and lifetime:

* The holder is **per process**. Fleet pool workers start with
  telemetry off unless the worker enables it in-process; parent-side
  fleet instrumentation (job lifecycle in ``fleet/pool.py``) covers the
  multiprocess path, and picklable snapshots merge worker-side data
  back when a runner opts in (``SerialRunner`` runs in the caller's
  process, so its telemetry lands directly).
* Components *bind* their stats surfaces at construction time
  (``MetricsRegistry.bind_stats``), so enable telemetry **before**
  building the stack you want observed. ``observed()`` scopes this
  naturally.
* The registry/tracer hold strong references to what they observe;
  scope them to a run (the context manager) rather than a process
  lifetime when observing throwaway stacks.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator, Optional, Tuple

from repro.obs.metrics import MetricsRegistry
from repro.obs.spans import SpanTracer


class _ObsState:
    """The holder. One per process; both slots ``None`` when disabled."""

    __slots__ = ("metrics", "spans")

    def __init__(self) -> None:
        self.metrics: Optional[MetricsRegistry] = None
        self.spans: Optional[SpanTracer] = None


#: The process-wide telemetry holder. Import the *holder* (module
#: attribute rebinding would go stale); test ``OBS.metrics is not None``
#: on hot paths.
OBS = _ObsState()


def enable(metrics: bool = True, spans: bool = True,
           registry: Optional[MetricsRegistry] = None,
           tracer: Optional[SpanTracer] = None
           ) -> Tuple[Optional[MetricsRegistry], Optional[SpanTracer]]:
    """Turn telemetry on; returns ``(registry, tracer)`` (None if off).

    Passing an existing *registry*/*tracer* resumes into it (e.g. a
    worker continuing a parent-provided registry); otherwise fresh
    instances are created for the enabled facets.
    """
    OBS.metrics = (registry if registry is not None
                   else MetricsRegistry()) if metrics else None
    OBS.spans = (tracer if tracer is not None
                 else SpanTracer()) if spans else None
    return OBS.metrics, OBS.spans


def disable() -> None:
    """Turn all telemetry off (hot paths go back to one None check)."""
    OBS.metrics = None
    OBS.spans = None


def enabled() -> bool:
    """True if any telemetry facet is currently on."""
    return OBS.metrics is not None or OBS.spans is not None


@contextmanager
def observed(metrics: bool = True, spans: bool = True
             ) -> Iterator[Tuple[Optional[MetricsRegistry],
                                 Optional[SpanTracer]]]:
    """Scope telemetry to a block; restores the prior state on exit.

        with observed() as (reg, tracer):
            session = build_session(...)   # binds into reg
            session.run(10_000)
        snap = reg.snapshot()
    """
    prior = (OBS.metrics, OBS.spans)
    try:
        yield enable(metrics=metrics, spans=spans)
    finally:
        OBS.metrics, OBS.spans = prior
