"""Test-only scheduler backend: forced completion orders for ``test_sched.py``."""

from typing import Any, Callable, Dict, List, Sequence

from repro.errors import FleetError


class SteppedInlineBackend:
    """N virtual workers, one of which finishes its job per poll.

    ``choose(busy_slots, step)`` picks which busy slot completes next,
    so a hypothesis test can force *any* completion order across
    virtual workers. Execution is still the real *execute* path,
    in-process — which is what makes "any schedule is byte-identical to
    serial" a provable property rather than a race.
    """

    supports_kill = False

    def __init__(self, slot_count: int,
                 choose: Callable[[Sequence[int], int], int],
                 execute: Callable[[Any], Any]) -> None:
        if slot_count < 1:
            raise FleetError(f"slot_count must be >= 1, got {slot_count}")
        self.slot_count = slot_count
        self.choose = choose
        self.execute = execute
        self._busy: Dict[int, tuple] = {}  # slot -> (uid, item)
        self._step = 0

    def dispatch(self, slot: int, uid: int, items: Sequence[Any]) -> None:
        assert slot not in self._busy, f"slot {slot} already has a job"
        (item,) = items
        self._busy[slot] = (uid, item)

    def poll(self, timeout_s) -> List[tuple]:
        busy = tuple(sorted(self._busy))
        if not busy:
            return []
        slot = self.choose(busy, self._step)
        self._step += 1
        if slot not in self._busy:
            raise FleetError(f"choose() picked idle slot {slot}; "
                             f"busy: {busy}")
        uid, item = self._busy.pop(slot)
        return [("result", slot, uid, self.execute(item))]

    def close(self) -> None:
        pass
