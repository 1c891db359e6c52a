"""The spill-ring: persist-first / overwrite-at-head, in one place.

Two recorders keep a bounded in-memory window over an optionally
spill-backed history: :class:`~repro.engine.trace.ExecutionTrace`
(debugger events) and :class:`~repro.rtos.kernel.DtmKernel` (job
records). Their semantics are deliberately identical —

1. **Persist first.** With a spill store attached, every item is
   appended to the store *before* it enters the ring, so a later
   eviction only discards the cached in-memory copy; the authoritative
   copy is already on disk and ``dropped`` stays 0.
2. **Overwrite at head.** At capacity the oldest item (at ``head``) is
   overwritten in place and ``head`` advances — the ring is a plain
   list plus an index, so indexed access stays O(1) and sequential
   replay over the window is linear, not quadratic.
3. **Count what was destroyed.** Without a spill store, each eviction
   increments ``dropped`` — sequence numbers keep telling the truth
   about how much history existed.
4. **Continue the store's seq line.** A ring over a resumed
   (reattached) store starts numbering at ``store.next_seq``, not 0.

— and used to be *mirrored by convention* in both call sites. This
class makes the mirror structural: both recorders now hold a
:class:`SpillRing`, so the eviction policy cannot silently drift
(``tests/test_spillring.py`` locks the sharing in).
"""

from __future__ import annotations

from typing import Any, Callable, Iterator, List, Optional


class SpillRing:
    """Bounded newest-N window with persist-first spill semantics.

    ``capacity=None`` keeps everything (plain append-only list);
    ``capacity=N`` keeps the newest N items. ``spill`` is any object
    with ``append(dict)`` and (optionally) ``next_seq`` — in practice a
    :class:`~repro.tracedb.store.TraceStore`.
    """

    __slots__ = ("capacity", "spill", "items", "head", "dropped", "next_seq")

    def __init__(self, capacity: Optional[int] = None,
                 spill: Optional[object] = None) -> None:
        if capacity is not None and capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.capacity = capacity
        self.spill = spill
        #: raw ring storage; oldest item at :attr:`head` once wrapped
        self.items: List[Any] = []
        self.head = 0
        self.dropped = 0
        #: the seq the next appended item will carry (read-only for
        #: callers); a ring over a resumed store continues its seq line
        self.next_seq = (getattr(spill, "next_seq", 0)
                         if spill is not None else 0)

    # -- recording ---------------------------------------------------------

    def resume_seq(self, seq: int) -> None:
        """Continue numbering at *seq* (deserialization support)."""
        self.next_seq = seq

    def append(self, item: Any,
               encode: Optional[Callable[[Any], dict]] = None) -> None:
        """Append *item*: persist first (when spilling), then ring-insert.

        ``encode(item)`` produces the spill record; it is only called
        when a spill store is attached, so recorders pay no
        serialization cost while running purely in memory. The store
        stamps/validates the record's seq against its own contiguous
        line — which this ring's :attr:`next_seq` mirrors.
        """
        if self.spill is not None:
            self.spill.append(encode(item) if encode is not None else item)
        self.next_seq += 1
        if self.capacity is not None and len(self.items) == self.capacity:
            self.items[self.head] = item
            self.head = (self.head + 1) % self.capacity
            if self.spill is None:
                self.dropped += 1
        else:
            self.items.append(item)

    # -- reading -----------------------------------------------------------

    def __len__(self) -> int:
        return len(self.items)

    def __iter__(self) -> Iterator[Any]:
        items = self.items
        if self.head == 0:
            return iter(items)
        return iter(items[self.head:] + items[:self.head])

    def at(self, index: int) -> Any:
        """Item at *index* in oldest-first order — O(1), ring-aware."""
        items = self.items
        if self.head == 0:
            return items[index]
        if index < 0:
            index += len(items)
        if not 0 <= index < len(items):
            raise IndexError(f"ring index {index} out of range")
        return items[(self.head + index) % len(items)]

    def snapshot(self) -> List[Any]:
        """The window as a list, oldest surviving item first."""
        return list(self)

    def __repr__(self) -> str:
        spilling = "spilling" if self.spill is not None else "in-memory"
        return (f"<SpillRing {len(self.items)}/{self.capacity} {spilling}, "
                f"dropped={self.dropped}, next_seq={self.next_seq}>")
