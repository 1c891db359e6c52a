"""Deterministic health watchdogs over aggregated telemetry windows.

The live plane (:mod:`repro.obs.live`) turns a running campaign into a
stream of per-job, per-modeled-time-window metric deltas. This module
is the judgment layer on top: declarative :class:`Rule`s evaluated
against every aggregated window, producing :class:`Alert`s and a
canonical plain-text transcript.

The one hard requirement is **determinism at a fixed seed**. Every
input a rule sees is modeled-time data (window indexes are modeled-µs
buckets, series values are registry deltas), evaluation walks windows
in canonical ``(job_index, window_index)`` order, matched series are
visited in sorted-name order, and the resulting alert list carries a
total order — so the same master seed produces a byte-identical
transcript whether the campaign ran serial or fanned out over a fleet,
and the committed ``artifacts/obs_live_alerts.txt`` exemplar can be
regenerated in tests. Anything wall-clock-shaped (worker pids, arrival
order, queue timing) is structurally unable to reach a rule.

Built-in :data:`DEFAULT_RULES` watch the failure shapes this stack
actually exhibits: transport retry storms (``retry.*``), chaos fault
bursts on the wire (``chaos.fault``), degradation-ladder descent
(``session.degradation``), kernel deadline misses and spill-ring
record drops. Worker stalls — a job that heartbeat its start but never
its finish while the rest of the fleet kept completing — are detected
at aggregation close from lifecycle events, not from a series, and
surface through the same transcript.
"""

from __future__ import annotations

from fnmatch import fnmatchcase
from typing import Any, Callable, Dict, Iterable, List, Sequence, Tuple

#: alert severities, mildest first (transcript lines tag them verbatim)
SEVERITIES = ("info", "warn", "error")

_RULE_LINE = "-" * 72


class Alert:
    """One rule firing on one window of one job — plain, orderable data."""

    __slots__ = ("job_index", "job_id", "window_index", "t_start_us",
                 "t_end_us", "rule", "severity", "series", "value",
                 "detail")

    def __init__(self, job_index: int, job_id: str, window_index: int,
                 t_start_us: int, t_end_us: int, rule: str, severity: str,
                 series: str, value: int, detail: str = "") -> None:
        self.job_index = job_index
        self.job_id = job_id
        self.window_index = window_index
        self.t_start_us = t_start_us
        self.t_end_us = t_end_us
        self.rule = rule
        self.severity = severity
        self.series = series
        self.value = value
        self.detail = detail

    def order(self) -> tuple:
        """Canonical total order: job, window, rule, series."""
        return (self.job_index, self.window_index, self.rule,
                self.series, self.severity, self.value, self.detail)

    def line(self) -> str:
        """One transcript line (fixed-width severity tag)."""
        window = (f"window {self.window_index} "
                  f"[{self.t_start_us}..{self.t_end_us})us"
                  if self.window_index >= 0 else "no heartbeat")
        text = (f"[{self.severity:<5}] job #{self.job_index} "
                f"{self.job_id}  {window}  {self.rule}: "
                f"{self.series}={self.value}")
        if self.detail:
            text += f"  ({self.detail})"
        return text

    def to_dict(self) -> Dict[str, Any]:
        return {name: getattr(self, name) for name in self.__slots__}

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "Alert":
        return cls(**{name: data[name] for name in cls.__slots__})

    def __repr__(self) -> str:
        return f"<Alert {self.line()}>"


class Rule:
    """One declarative watchdog: glob over series names + a predicate.

    ``series_glob`` matches counter series names in a window's delta
    (``fnmatch`` syntax: ``retry.*``, ``*records_dropped``); the
    per-window value a predicate sees is the series' delta summed
    across its label sets. ``predicate(value, window)`` returning true
    raises an alert at ``severity``. ``debounce`` suppresses re-firing
    for the same ``(rule, job)`` until that many windows have passed —
    1 means every offending window alerts, 3 means at most one alert
    per three windows per job, so a sustained storm reads as a beat,
    not a wall of lines.
    """

    __slots__ = ("name", "series_glob", "predicate", "severity",
                 "debounce", "description", "_glob_hits")

    def __init__(self, name: str, series_glob: str,
                 predicate: Callable[[int, Any], bool],
                 severity: str = "warn", debounce: int = 1,
                 description: str = "") -> None:
        if severity not in SEVERITIES:
            raise ValueError(f"unknown severity {severity!r}; "
                             f"options: {SEVERITIES}")
        if debounce < 1:
            raise ValueError(f"debounce must be >= 1, got {debounce}")
        self.name = name
        self.series_glob = series_glob
        self.predicate = predicate
        self.severity = severity
        self.debounce = debounce
        self.description = description
        #: series name -> whether the glob matches it, resolved once
        self._glob_hits: Dict[str, bool] = {}

    def matches(self, window) -> List[Tuple[str, int]]:
        """``(series, value)`` hits in this window, sorted by name."""
        hits: List[Tuple[str, int]] = []
        glob_hits = self._glob_hits
        counters = window.delta.counters
        for name in sorted(counters):
            hit = glob_hits.get(name)
            if hit is None:
                hit = glob_hits[name] = fnmatchcase(name, self.series_glob)
            if not hit:
                continue
            value = sum(counters[name].values())
            if self.predicate(value, window):
                hits.append((name, value))
        return hits

    def __repr__(self) -> str:
        return (f"<Rule {self.name} {self.series_glob!r} "
                f"{self.severity} debounce={self.debounce}>")


def threshold(n: int) -> Callable[[int, Any], bool]:
    """Predicate factory: fire when the windowed delta reaches *n*."""
    def at_least(value: int, window) -> bool:
        return value >= n
    at_least.threshold = n  # introspectable for reprs/docs
    return at_least


#: The built-in watchdog set, evaluated in this (fixed) order. Globs
#: name real registry series bound in PR 8; thresholds are per window
#: (one aggregation period of modeled time), tuned so a healthy control
#: run is silent and the chaos fault kinds raise a readable beat.
DEFAULT_RULES: Tuple[Rule, ...] = (
    Rule("retry-storm", "retry.*", threshold(8), "warn", debounce=2,
         description="transport retry-layer events spiking in one window"),
    Rule("comm-fault-storm", "chaos.fault", threshold(2), "warn",
         debounce=2,
         description="injected wire faults bursting on the chaos link"),
    Rule("degradation-descent", "session.degradation", threshold(1),
         "warn",
         description="the session stepped down the degradation ladder"),
    Rule("deadline-miss", "kernel.deadline_misses", threshold(1), "error",
         description="the modeled scheduler missed an actor deadline"),
    Rule("spill-pressure", "*records_dropped", threshold(1), "warn",
         description="a spill ring dropped records instead of spilling"),
)


def evaluate(windows: Iterable[Any],
             rules: Sequence[Rule] = DEFAULT_RULES,
             stalled: Iterable[Tuple[int, str, str]] = ()) -> List[Alert]:
    """Run every rule over every window; returns alerts in total order.

    *windows* must already be in canonical ``(job_index, window_index)``
    order (:meth:`repro.obs.live.LiveAggregator.history` provides it) —
    debounce counts windows per job, so order is semantic here, not
    just cosmetic. *stalled* adds close-time worker-stall alerts as
    ``(job_index, job_id, detail)`` rows (window index -1: the job has
    no windows to point at — that is the finding).
    """
    alerts: List[Alert] = []
    last_fired: Dict[Tuple[str, int], int] = {}
    for window in windows:
        for rule in rules:
            hits = rule.matches(window)
            if not hits:
                continue
            key = (rule.name, window.job_index)
            prev = last_fired.get(key)
            if prev is not None and window.index - prev < rule.debounce:
                continue
            last_fired[key] = window.index
            for series, value in hits:
                alerts.append(Alert(
                    window.job_index, window.job_id, window.index,
                    window.t_start_us, window.t_end_us,
                    rule.name, rule.severity, series, value,
                    detail=rule.description))
    for job_index, job_id, detail in stalled:
        alerts.append(Alert(job_index, job_id, -1, 0, 0, "worker-stall",
                            "error", "heartbeat", 0, detail=detail))
    alerts.sort(key=Alert.order)
    return alerts


def render_transcript(alerts: Sequence[Alert], windows: int = 0,
                      jobs: int = 0) -> str:
    """The canonical alert transcript: headline, rule, one line each.

    Byte-identical for byte-identical alert lists — this is the string
    the ``artifacts/obs_live_alerts.txt`` exemplar pins and the
    serial-vs-fleet identity tests compare.
    """
    headline = (f"HEALTH TRANSCRIPT: {len(alerts)} alert(s) "
                f"over {windows} window(s), {jobs} job(s)")
    lines = [headline, _RULE_LINE]
    if not alerts:
        lines.append("no alerts: every window stayed inside thresholds")
    else:
        lines.extend(alert.line() for alert in alerts)
    return "\n".join(lines) + "\n"
