"""Fixed-priority preemptive scheduling of one node's CPU.

Event-driven: the scheduler only acts at releases and completions. Between
events the running job's remaining demand drains linearly, so a tentative
completion event is kept for the current job and re-planned whenever the
job set changes — the textbook technique for exact preemptive simulation.
"""

from __future__ import annotations

from typing import List, Optional

from repro.errors import SchedulerError
from repro.rtos.task import ActiveJob
from repro.sim.kernel import ScheduledEvent, Simulator


class NodeScheduler:
    """Preemptive fixed-priority scheduler for one node."""

    def __init__(self, sim: Simulator, node: str) -> None:
        self.sim = sim
        self.node = node
        self._jobs: List[ActiveJob] = []
        self._running: Optional[ActiveJob] = None
        self._last_update: int = 0
        self._completion_event: Optional[ScheduledEvent] = None
        self.preemptions = 0
        self.jobs_completed = 0

    def close(self) -> None:
        """Drop the active jobs and the pending completion (their
        ``on_complete`` callbacks point back at the owner)."""
        self._jobs = []
        self._running = None
        self._completion_event = None

    def release(self, job: ActiveJob) -> None:
        """Admit a job at the current simulation time."""
        now = self.sim.now
        if job.release != now:
            raise SchedulerError(
                f"job {job.name} released at t={now} but stamped "
                f"{job.release}"
            )
        if not self._jobs:
            # idle node: nothing runs to charge or preempt, so the new
            # job simply starts (what _update_progress + _replan do here)
            self._jobs.append(job)
            self._running = job
            self._last_update = now
            self._completion_event = self.sim.schedule(
                job.remaining_us, self._complete, job)
            return
        self._update_progress()
        self._jobs.append(job)
        self._replan()

    def admit(self, jobs: List[ActiveJob], seq: int) -> None:
        """Release *jobs*, all stamped now and in release order, as
        :meth:`release` would one at a time; the running job's completion
        event takes the position *seq*, held earlier by advancing
        :attr:`Simulator.seq <repro.sim.kernel.Simulator.seq>`.

        The DTM kernel hands a same-instant group here when it cannot
        complete the group inline: *seq* is the position the last of
        these releases would have scheduled the completion in, so the
        event orders exactly as if each job had been released on its own.
        """
        now = self.sim.now
        self._update_progress()
        active = self._jobs
        running = self._running
        for job in jobs:
            if job.release != now:
                raise SchedulerError(
                    f"job {job.name} released at t={now} but stamped "
                    f"{job.release}"
                )
            active.append(job)
            best = min(active, key=ActiveJob.sort_key)
            if running is not None and best is not running:
                self.preemptions += 1
            running = best
        if running is None:
            return
        if self._completion_event is not None:
            self._completion_event.cancel()
        self._running = running
        self._last_update = now
        self._completion_event = self.sim.schedule_seq(
            now + running.remaining_us, seq, self._complete, running)

    def _update_progress(self) -> None:
        now = self.sim.now
        if self._running is not None:
            elapsed = now - self._last_update
            self._running.remaining_us -= elapsed
            if self._running.remaining_us < 0:
                raise SchedulerError(
                    f"job {self._running.name} overran its demand accounting"
                )
        self._last_update = now

    def _replan(self) -> None:
        """Pick the highest-priority job and (re)schedule its completion."""
        if self._completion_event is not None:
            self._completion_event.cancel()
            self._completion_event = None
        if not self._jobs:
            self._running = None
            return
        best = min(self._jobs, key=ActiveJob.sort_key)
        if self._running is not None and best is not self._running:
            self.preemptions += 1
        self._running = best
        self._last_update = self.sim.now
        self._completion_event = self.sim.schedule(
            best.remaining_us, self._complete, best
        )

    def _complete(self, job: ActiveJob) -> None:
        # only the running job has a completion event pending
        now = self.sim.now
        job.remaining_us -= now - self._last_update
        self._last_update = now
        if job.remaining_us != 0:
            raise SchedulerError(
                f"job {job.name} completed with {job.remaining_us}us remaining"
            )
        jobs = self._jobs
        jobs.remove(job)
        self._completion_event = None
        self._running = None
        job.completion = now
        self.jobs_completed += 1
        if job.on_complete is not None:
            job.on_complete(now)
        if jobs:
            self._replan()
