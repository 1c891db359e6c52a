"""Process-wide observability switch: one holder, one None check.

Instrumented code across the stack (links, channels, the kernel, the
fleet, the tracedb store) all asks the same question on its hot path:
*is telemetry on?* The answer has to be cheap enough to ask millions of
times per second when the answer is no — the repo's zero-cost-when-
unused discipline (see ``repro.obs``'s package docstring and the
``BENCH_obs`` call-count ceilings in benchmarks/FLOORS.json).

The mechanism is a single module-global holder, :data:`OBS`, with one
slot: ``metrics``, a :class:`~repro.obs.metrics.MetricsRegistry` or
``None``. Disabled means the slot is ``None``, so the guard an
instrumentation site pays is one attribute load and an ``is not None``
test — no dict lookup, no call, no allocation:

    from repro.obs.runtime import OBS
    ...
    if OBS.metrics is not None:
        OBS.metrics.counter("chaos.fault", plane="frame", fault=fault).inc()

Scope and lifetime:

* The holder is **per process**. Fleet pool workers start with
  telemetry off unless the worker enables it in-process; parent-side
  fleet instrumentation (job lifecycle in ``fleet/pool.py``) covers the
  multiprocess path, and ``SerialRunner`` runs in the caller's
  process, so its telemetry lands directly.
* Components *bind* their stats surfaces at construction time
  (``MetricsRegistry.bind_stats``), so enable telemetry **before**
  building the stack you want observed. ``observed()`` scopes this
  naturally.
* The registry holds strong references to what it observes until a
  binding is released; scope it to a run (the context manager) rather
  than a process lifetime when observing throwaway stacks.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator, Optional

from repro.obs.metrics import MetricsRegistry


class _ObsState:
    """The holder. One per process; the slot is ``None`` when disabled."""

    __slots__ = ("metrics",)

    def __init__(self) -> None:
        self.metrics: Optional[MetricsRegistry] = None


#: The process-wide telemetry holder. Import the *holder* (module
#: attribute rebinding would go stale); test ``OBS.metrics is not None``
#: on hot paths.
OBS = _ObsState()


def enable() -> MetricsRegistry:
    """Turn telemetry on with a fresh registry and return it."""
    OBS.metrics = MetricsRegistry()
    return OBS.metrics


def disable() -> None:
    """Turn telemetry off (hot paths go back to one None check)."""
    OBS.metrics = None


@contextmanager
def observed() -> Iterator[MetricsRegistry]:
    """Scope telemetry to a block; restores the prior state on exit.

        with observed() as reg:
            session = build_session(...)   # binds into reg
            session.run(10_000)
        snap = reg.snapshot()
    """
    prior = OBS.metrics
    try:
        yield enable()
    finally:
        OBS.metrics = prior
