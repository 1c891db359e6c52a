"""I/O jitter instrumentation.

The DTM claim (paper §III): latching outputs at the deadline instant
eliminates I/O jitter. The meter records, per signal, when each job was
released and when its output actually became visible; jitter is the spread
of that phase across jobs.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple


class JitterMeter:
    """Records output publication instants per signal."""

    def __init__(self) -> None:
        self._records: Dict[str, List[Tuple[int, int]]] = {}

    def record(self, signals: Iterable[str], release: int,
               t_publish: int) -> None:
        """Note that the job released at *release* published each of
        *signals* (signal names, not one name) at *t_publish*."""
        records = self._records
        for signal in signals:
            records.setdefault(signal, []).append((release, t_publish))

    def record_all(self, publications: Iterable[Tuple[str, Dict[str, int]]],
                   release: int, t_publish: int) -> None:
        """:meth:`record` the signals of each ``(node, outputs)`` of
        *publications* (as :meth:`SignalBus.publish_all
        <repro.rtos.network.SignalBus.publish_all>` takes them), every
        job released at *release* and published at *t_publish*."""
        records = self._records
        sample = (release, t_publish)
        for _, outputs in publications:
            for signal in outputs:
                records.setdefault(signal, []).append(sample)

    def export_records(self) -> Dict[str, List[Tuple[int, int]]]:
        """Plain-data copy of all samples, per signal in record order."""
        return {signal: list(samples)
                for signal, samples in self._records.items()}

    def signals(self) -> List[str]:
        """Signals with at least one record."""
        return sorted(self._records)

    def phases(self, signal: str, skip: int = 0) -> List[int]:
        """Publication phase (publish - release) of each job, after *skip*."""
        return [pub - rel for rel, pub in self._records.get(signal, [])[skip:]]

    def jitter_us(self, signal: str, skip: int = 0) -> Optional[int]:
        """Peak-to-peak phase variation; None if fewer than 2 samples."""
        phases = self.phases(signal, skip)
        if len(phases) < 2:
            return None
        return max(phases) - min(phases)

    def mean_phase_us(self, signal: str, skip: int = 0) -> Optional[float]:
        """Average publication phase."""
        phases = self.phases(signal, skip)
        if not phases:
            return None
        return sum(phases) / len(phases)

    def inter_publication_jitter_us(self, signal: str, skip: int = 0) -> Optional[int]:
        """Peak-to-peak variation of the interval between publications."""
        pubs = [pub for _, pub in self._records.get(signal, [])[skip:]]
        if len(pubs) < 3:
            return None
        intervals = [b - a for a, b in zip(pubs, pubs[1:])]
        return max(intervals) - min(intervals)
