"""Test-only scheduler backend: forced interleavings for ``test_sched.py``."""

from typing import Any, Callable, Dict, List, Sequence

from repro.errors import FleetError


class SteppedInlineBackend:
    """N virtual workers advanced one item per poll — the test harness.

    ``choose(busy_slots, step)`` picks which busy slot executes its next
    item, so a hypothesis test can force *any* interleaving of units
    across virtual workers. Steal requests are honored exactly like a
    real worker would: the chosen slot yields its untouched remainder
    (never before its first item). Execution is still the real
    *execute* path, in-process — which is what makes "any schedule is
    byte-identical to serial" a provable property rather than a race.
    """

    supports_steal = True
    supports_kill = False

    def __init__(self, slot_count: int,
                 choose: Callable[[Sequence[int], int], int],
                 execute: Callable[[Any], Any]) -> None:
        if slot_count < 1:
            raise FleetError(f"slot_count must be >= 1, got {slot_count}")
        self.slot_count = slot_count
        self.choose = choose
        self.execute = execute
        self._busy: Dict[int, list] = {}  # slot -> [uid, items, done]
        self._steal: set = set()
        self._step = 0

    def dispatch(self, slot: int, uid: int, items: Sequence[Any]) -> None:
        self._busy[slot] = [uid, list(items), 0]

    def steal(self, slot: int, uid: int) -> None:
        self._steal.add(uid)

    def poll(self, timeout_s) -> List[tuple]:
        busy = tuple(sorted(self._busy))
        if not busy:
            return []
        slot = self.choose(busy, self._step)
        self._step += 1
        if slot not in self._busy:
            raise FleetError(f"choose() picked idle slot {slot}; "
                             f"busy: {busy}")
        uid, items, done = self._busy[slot]
        if uid in self._steal and 0 < done < len(items):
            # exactly a real worker's window: between items, never
            # before the first (yields always make progress)
            self._steal.discard(uid)
            del self._busy[slot]
            return [("yield", slot, uid, done)]
        result = self.execute(items[done])
        self._busy[slot][2] = done + 1
        events = [("result", slot, uid, result)]
        if done + 1 == len(items):
            del self._busy[slot]
            self._steal.discard(uid)
            events.append(("done", slot, uid))
        return events

    def close(self) -> None:
        pass
