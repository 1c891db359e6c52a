"""Deterministic transport fault injection: ChaosLink.

Real debug transports lose, flip, double and delay frames; the rest of
this framework assumed a perfect wire. :class:`ChaosLink` wraps a
serial :class:`~repro.comm.link.DebugLink` and injects faults into its
command-frame stream (``transmit_frame``) on a **seeded, deterministic**
schedule: every frame draws its fault decisions from a
:class:`random.Random` seeded by :func:`~repro.util.seeds.derive_seed`
over ``(seed, "frame", op_index)``, so two runs at the same seed
produce byte-identical fault schedules, transcripts and transport
accounting — chaos experiments replay exactly.

Fault classes (all independently rated, all off by default): frame loss
(the wire delivers nothing), byte corruption (one bit flip, surfacing as
a checksum failure in the :class:`~repro.comm.frames.FrameDecoder`),
duplication (the frame arrives twice) and reordering (delivery delayed
past later frames).

Invariants:

* **determinism** — the schedule is a pure function of ``(seed,
  op_index)``; concurrency, wall clock and host state never enter it;
* **zero overhead when disabled** — with every rate at 0.0 each frame
  is a straight delegate: no RNG construction, no hashing, no draws;
* **transparent accounting** — the wrapper mirrors the inner link's
  counter deltas, so its ``stats()`` reads as one link with honest
  books.
"""

from __future__ import annotations

import random
from typing import Dict, Optional, Tuple

from repro.comm.link import DebugLink
from repro.errors import CommError
from repro.obs.runtime import OBS
from repro.util.seeds import derive_seed


class ChaosConfig:
    """Fault rates for one :class:`ChaosLink`.

    All rates are probabilities in ``[0, 1]`` per frame. A config with
    every rate at zero is *disabled*: the link adds no overhead and never
    constructs an RNG. ``seed`` is the master chaos seed;
    :meth:`with_seed` derives per-link copies so multi-node rigs give
    every link an independent (but reproducible) schedule.
    """

    __slots__ = ("seed", "frame_loss", "frame_corrupt", "frame_reorder",
                 "reorder_delay_us", "frame_duplicate")

    _RATES = ("frame_loss", "frame_corrupt", "frame_reorder",
              "frame_duplicate")

    def __init__(self, seed: int = 0,
                 frame_loss: float = 0.0,
                 frame_corrupt: float = 0.0,
                 frame_reorder: float = 0.0,
                 reorder_delay_us: int = 2000,
                 frame_duplicate: float = 0.0) -> None:
        for name, value in (("frame_loss", frame_loss),
                            ("frame_corrupt", frame_corrupt),
                            ("frame_reorder", frame_reorder),
                            ("frame_duplicate", frame_duplicate)):
            if not (0.0 <= value <= 1.0):
                raise CommError(f"{name} must be a probability in [0, 1], "
                                f"got {value}")
        if reorder_delay_us < 0:
            raise CommError("chaos delays must be non-negative")
        self.seed = seed
        self.frame_loss = frame_loss
        self.frame_corrupt = frame_corrupt
        self.frame_reorder = frame_reorder
        self.reorder_delay_us = reorder_delay_us
        self.frame_duplicate = frame_duplicate

    @property
    def enabled(self) -> bool:
        """Whether any fault can ever fire (the fast-path gate)."""
        return any(getattr(self, rate) > 0.0 for rate in self._RATES)

    def with_seed(self, seed: int) -> "ChaosConfig":
        """A copy of this config under a different (derived) seed."""
        clone = ChaosConfig.__new__(ChaosConfig)
        for slot in self.__slots__:
            setattr(clone, slot, getattr(self, slot))
        clone.seed = seed
        return clone

    def __repr__(self) -> str:
        active = [f"{rate}={getattr(self, rate)}" for rate in self._RATES
                  if getattr(self, rate) > 0.0]
        return (f"<ChaosConfig seed={self.seed} "
                f"{' '.join(active) or 'disabled'}>")


class ChaosLink(DebugLink):
    """Seeded frame-fault injection over a serial :class:`DebugLink`.

    Unknown attributes (``line``, ``board``, ``host_latency_us``...)
    delegate to the wrapped link, so a wrapped transport stays a drop-in
    replacement for channel code that reaches through. Accounting does
    **not** delegate: the wrapper keeps its own books, fed by mirroring
    the inner link's counter deltas.
    """

    kind = "chaos"

    def __init__(self, inner: DebugLink,
                 config: Optional[ChaosConfig] = None) -> None:
        super().__init__()
        self.inner = inner
        self.label = inner.label
        self.kind = f"{type(self).kind}[{inner.kind}]"
        self.config = config if config is not None else ChaosConfig()
        self._frame_ops = 0
        # chaos accounting, surfaced via stats()
        self.frames_lost = 0
        self.frames_corrupted = 0
        self.frames_duplicated = 0
        self.frames_reordered = 0

    def __getattr__(self, name: str):
        # only reached for attributes missing on the wrapper itself;
        # guard against recursion while self.inner is not yet set
        try:
            inner = object.__getattribute__(self, "inner")
        except AttributeError:
            raise AttributeError(name) from None
        return getattr(inner, name)

    def halt_target(self) -> None:
        self.inner.halt_target()

    def resume_target(self) -> None:
        self.inner.resume_target()

    def _record(self, fault: str) -> None:
        # every injected fault funnels through here, so this is the one
        # telemetry tap for chaos outcomes: a chaos.fault series per
        # fault kind. The aggregate counters stay on stats() (bound as
        # link.* series by DebugLink).
        if OBS.metrics is not None:
            OBS.metrics.counter("chaos.fault", plane="frame",
                                fault=fault).inc()

    def transmit_frame(self, t_ready: int,
                       frame: bytes) -> Tuple[bytes, int, int]:
        op_index = self._frame_ops
        self._frame_ops += 1
        inner = self.inner
        # mirror the inner link's counter deltas into this link's books
        transactions = inner.transactions
        words_read = inner.words_read
        words_written = inner.words_written
        frames_carried = inner.frames_carried
        cost_us_total = inner.cost_us_total
        wire, t_done, t_arrive = inner.transmit_frame(t_ready, frame)
        self.transactions += inner.transactions - transactions
        self.words_read += inner.words_read - words_read
        self.words_written += inner.words_written - words_written
        self.frames_carried += inner.frames_carried - frames_carried
        self.cost_us_total += inner.cost_us_total - cost_us_total
        cfg = self.config
        if not (cfg.frame_loss or cfg.frame_corrupt or cfg.frame_duplicate
                or cfg.frame_reorder):  # cfg.enabled, inline
            return wire, t_done, t_arrive
        rng = random.Random(derive_seed(cfg.seed, "frame", op_index))
        r_loss = rng.random()
        r_corrupt = rng.random()
        r_duplicate = rng.random()
        r_reorder = rng.random()
        if r_loss < cfg.frame_loss:
            # the line time was spent; the frame never arrives
            self.frames_lost += 1
            self._record("loss")
            return b"", t_done, t_arrive
        if r_corrupt < cfg.frame_corrupt and wire:
            mutated = bytearray(wire)
            mutated[rng.randrange(len(mutated))] ^= 1 << rng.randrange(8)
            wire = bytes(mutated)
            self.frames_corrupted += 1
            self._record("corrupt")
        if r_duplicate < cfg.frame_duplicate:
            wire = wire + wire
            self.frames_duplicated += 1
            self._record("duplicate")
        if r_reorder < cfg.frame_reorder:
            t_arrive += cfg.reorder_delay_us
            self.frames_reordered += 1
            self._record("reorder")
        return wire, t_done, t_arrive

    def stats(self) -> Dict[str, int]:
        snapshot = super().stats()
        snapshot.update({
            "frames_lost": self.frames_lost,
            "frames_corrupted": self.frames_corrupted,
            "frames_duplicated": self.frames_duplicated,
            "frames_reordered": self.frames_reordered,
        })
        return snapshot
