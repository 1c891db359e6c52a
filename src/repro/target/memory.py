"""The target's data memory: one flat word-addressed RAM bank.

Two access planes with different accounting, mirroring real silicon:

* **Target plane** — :meth:`MemoryMap.read_word` / :meth:`write_word`: what
  the CPU (and anything pretending to be the CPU) uses. Counted in
  :attr:`reads` / :attr:`writes`. Writes to a declared address set fire
  the optional write hook: :meth:`MemoryMap.set_write_hook` installs the
  hook together with :attr:`watched`, the addresses the debug unit's
  data-watchpoint comparators match. A write anywhere else is not seen,
  so a hook with an empty set observes nothing and costs nothing — the
  CPU's fast loop only has to stop at the instructions that can store to
  a watched address (see :mod:`repro.target.cpu`).
* **Backdoor plane** — :meth:`peek` / :meth:`poke`: DMA-style access used
  by the JTAG debug port and the test harness. Never counted, never hooks —
  which is exactly why passive monitoring costs the target nothing.

The CPU's hot loop bypasses the method layer entirely and indexes
:attr:`cells` directly (with the same bounds/accounting semantics inlined);
the methods here are the reference implementation of those semantics.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, Optional

from repro.errors import TargetFault

#: Base address of RAM in the target's address space (Cortex-M style SRAM).
RAM_BASE = 0x2000_0000

WriteHook = Callable[[int, int], None]


class MemoryMap:
    """Word-addressed RAM of ``words`` cells starting at :data:`RAM_BASE`."""

    __slots__ = ("cells", "reads", "writes", "write_hook", "watched",
                 "_init_image")

    def __init__(self, words: int = 4096) -> None:
        if words <= 0:
            raise TargetFault(f"RAM must have at least one word, got {words}")
        self.cells = [0] * words
        self.reads = 0
        self.writes = 0
        self.write_hook: Optional[WriteHook] = None
        #: addresses whose target writes fire :attr:`write_hook`
        self.watched: frozenset = frozenset()
        self._init_image: Dict[int, int] = {}

    # -- geometry -----------------------------------------------------------

    def __len__(self) -> int:
        return len(self.cells)

    def contains(self, addr: int) -> bool:
        """Whether *addr* falls inside the RAM window."""
        return 0 <= addr - RAM_BASE < len(self.cells)

    def _index(self, addr: int) -> int:
        index = addr - RAM_BASE
        if 0 <= index < len(self.cells):
            return index
        raise TargetFault(f"memory access outside RAM: 0x{addr:08x}")

    # -- target plane (counted, hooked) ------------------------------------

    def read_word(self, addr: int) -> int:
        """A target-side read: counted."""
        value = self.cells[self._index(addr)]
        self.reads += 1
        return value

    def write_word(self, addr: int, value: int) -> None:
        """A target-side write: counted; fires the write hook when *addr*
        is watched."""
        self.cells[self._index(addr)] = value
        self.writes += 1
        if addr in self.watched:
            self.write_hook(addr, value)

    def set_write_hook(self, hook: Optional[WriteHook],
                       addrs: Iterable[int] = ()) -> None:
        """Install (or clear, with None) the data-watchpoint hook: it fires
        for target writes to the addresses in *addrs* and no others."""
        self.write_hook = hook
        self.watched = frozenset(addrs) if hook is not None else frozenset()

    # -- backdoor plane (debug port, harness) -------------------------------

    def peek(self, addr: int) -> int:
        """Debug read: not counted, invisible to the target."""
        return self.cells[self._index(addr)]

    def poke(self, addr: int, value: int) -> None:
        """Debug write: not counted, does not fire the write hook."""
        self.cells[self._index(addr)] = value

    # -- images and reset ---------------------------------------------------

    def load_init_image(self, image: Dict[int, int]) -> None:
        """Record the firmware's initialised-data image; :meth:`reset`
        applies it."""
        for addr in image:
            self._index(addr)  # validate before committing anything
        self._init_image = dict(image)

    def reset(self) -> None:
        """Zero all of RAM, reapply the init image, clear access counters."""
        self.cells[:] = [0] * len(self.cells)  # in place: keep identity
        for addr, value in self._init_image.items():
            self.cells[addr - RAM_BASE] = value
        self.reads = 0
        self.writes = 0
