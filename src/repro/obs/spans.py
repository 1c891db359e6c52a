"""Deterministic span tracer: modeled-time slices, byte-identical at a seed.

A span is one timed slice of modeled work — a passive poll scan, an
actor activation, a whole ``DebugSession.run`` window. The tracer's one
hard rule is **no wall clock**: timestamps and durations come from the
simulation/transport/CPU cost model (``sim.now``, link ``cost_us``,
command ``t_target``/``t_host``), so the same seed produces the same
spans byte for byte, and a trace diff is a *behavior* diff, never
host-load noise. That determinism is gated: ``BENCH_obs.json`` records
an export fingerprint across two identical runs and FLOORS.json floors
it at exact equality.

Spans live on a *track*, a ``(process-ish, thread-ish)`` string pair —
``("node", "sensor")``, ``("comm", "passive")`` — which maps directly
onto Chrome trace-event pid/tid lanes in :mod:`repro.obs.export`.

Emission is one tuple append; the tracer does no aggregation (that is
:mod:`repro.obs.metrics`'s job) and no I/O. Snapshots are picklable
plain tuples under a canonical sort, so fleet workers can ship spans
upward and merged traces are arrival-order independent.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, NamedTuple, Optional, Tuple


class Span(NamedTuple):
    """One complete slice of modeled time on a track."""

    track: Tuple[str, str]   # (process-ish, thread-ish) lane
    name: str                # what the slice is ("poll", actor name, ...)
    cat: str                 # coarse category ("comm", "activation", ...)
    ts_us: int               # modeled start, microseconds
    dur_us: int              # modeled duration, microseconds (0 = instant)
    args: Tuple[Tuple[str, Any], ...]  # sorted key/value detail pairs


def _canon_args(args: Optional[Dict[str, Any]]) -> Tuple[Tuple[str, Any], ...]:
    if not args:
        return ()
    return tuple(sorted(args.items()))


def span_order(span: Span) -> tuple:
    """Total-order sort key: modeled time first, then every field.

    Plain tuple comparison on :class:`Span` is *not* a total order —
    two spans tying on ``(track, name, cat, ts, dur)`` compare their
    ``args`` values, which may be mixed-type (``None`` vs int vs str)
    and raise ``TypeError`` mid-sort, and which key on ``track`` before
    time so merged timelines interleave lanes. This key starts at
    ``ts_us`` (a trace reads in time order) and breaks every tie
    through the full field tuple with args values rendered via
    ``repr``, so sorting is defined for every span pair and merged
    lists are byte-stable regardless of arrival order.
    """
    return (span.ts_us, span.dur_us, span.track, span.name, span.cat,
            tuple((k, repr(v)) for k, v in span.args))


class SpanTracer:
    """Collects :class:`Span`s; emission is append-only and allocation-light.

    There is deliberately no begin/end pairing state: every emit site in
    this codebase already knows its start *and* duration from the cost
    model at the moment the work completes, so spans are emitted whole
    (``ph:"X"`` complete events in Chrome trace terms). That keeps the
    tracer stateless and the disabled path a single None check upstream.
    """

    def __init__(self) -> None:
        self.spans: List[Span] = []

    def emit(self, name: str, ts_us: int, dur_us: int = 0,
             track: Tuple[str, str] = ("repro", "main"), cat: str = "",
             args: Optional[Dict[str, Any]] = None) -> None:
        """Record one complete span with modeled timestamps.

        *ts_us*/*dur_us* must come from the cost model (``sim.now``,
        link costs, ``t_target``/``t_host``) — never ``time.*`` — or
        the byte-identity guarantee dies.
        """
        self.spans.append(Span(track, name, cat, ts_us, dur_us,
                               _canon_args(args)))

    def snapshot(self) -> List[Span]:
        """Canonical picklable form: spans under the :func:`span_order`
        total order (modeled time, then the full field tuple).

        The sort makes merged multi-source traces deterministic even
        when emit interleaving differs (e.g. spans shipped from
        workers in completion order).
        """
        return sorted(self.spans, key=span_order)

    def clear(self) -> None:
        self.spans.clear()


def merge_spans(parts: Iterable[Iterable[Span]]) -> List[Span]:
    """Merge span snapshots from many sources into one canonical list.

    Sorted under :func:`span_order` — a genuine total order — so the
    merged list is byte-stable no matter which worker's spans arrive
    first (concurrent workers deliver in wall-clock completion order,
    which must never show in the output).
    """
    merged: List[Span] = []
    for part in parts:
        merged.extend(Span(*s) for s in part)
    merged.sort(key=span_order)
    return merged
