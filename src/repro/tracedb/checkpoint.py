"""Model-state checkpoints: the restart points that make seek cheap.

A checkpoint is the debug model's complete dynamic state
(:meth:`~repro.gdm.model.GdmModel.dynamic_state` — element *and* link
styles) captured **after applying the event with seq** ``seq``. The
invariant every seek relies on:

    restore(checkpoint at seq k)  ==  replay events [0, k] from reset

so ``seek(position)`` becomes "restore the nearest checkpoint at
``seq <= position - 1``, then step the tail" — O(checkpoint interval)
instead of O(position).

Checkpoints are written two ways:

* **live** — :class:`~repro.engine.engine.DebuggerEngine` captures one
  every ``checkpoint_every`` events while spilling (zero extra replay);
* **offline** — :func:`build_checkpoints` replays a finished store once
  and persists the same snapshots (for stores recorded without them).

Both produce identical checkpoints, because live animation and replay
apply the same reactions to the same model (the E10 fidelity property).
"""

from __future__ import annotations

import json
import os
from typing import Optional

from repro.errors import TraceStoreError


class Checkpoint:
    """One restart point: seq, host time, and the model-state payload."""

    __slots__ = ("seq", "t_host", "payload")

    def __init__(self, seq: int, t_host: int, payload: dict) -> None:
        self.seq = seq
        self.t_host = t_host
        self.payload = payload

    def to_dict(self) -> dict:
        return {"seq": self.seq, "t_host": self.t_host,
                "payload": self.payload}

    @classmethod
    def from_dict(cls, data: dict) -> "Checkpoint":
        return cls(data["seq"], data["t_host"], data["payload"])

    def __repr__(self) -> str:
        return f"<Checkpoint seq={self.seq} t={self.t_host}us>"


def save_checkpoint(path: str, checkpoint: Checkpoint) -> None:
    """Write one checkpoint file (canonical JSON, atomic rename)."""
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        # one-shot dumps: json.dump's pure-Python encoder leaves a
        # closure cycle behind on every call
        fh.write(json.dumps(checkpoint.to_dict(), sort_keys=True,
                            separators=(",", ":")))
    os.replace(tmp, path)


def load_checkpoint(path: str) -> Checkpoint:
    """Read one checkpoint file."""
    try:
        with open(path, encoding="utf-8") as fh:
            return Checkpoint.from_dict(json.load(fh))
    except FileNotFoundError:
        raise TraceStoreError(f"checkpoint file missing: {path}") from None
    except ValueError as exc:
        raise TraceStoreError(f"corrupt checkpoint {path}: {exc}") from exc


def build_checkpoints(store, gdm, every: int,
                      limit: Optional[int] = None) -> int:
    """Replay *store* onto *gdm* once, persisting a checkpoint every
    *every* events; returns how many were written.

    For stores recorded without live checkpointing. Skips seqs that
    already have one (idempotent), so re-running after appending more
    events only fills in the new tail.
    """
    if every <= 0:
        raise TraceStoreError(f"checkpoint interval must be positive, "
                              f"got {every}")
    from repro.engine.replay import ReplayPlayer  # avoid import cycle
    from repro.tracedb.store import StoredTrace
    existing = {info.seq for info in store.checkpoints()}
    # state-only pass: capturing frames would hold one snapshot per
    # event, breaking flat memory on exactly the long histories this
    # offline build exists for
    player = ReplayPlayer(StoredTrace(store), gdm, capture_frames=False)
    player.start()
    written = 0
    while True:
        event = player.step()
        if event is None:
            break
        if (event.seq + 1) % every == 0 and event.seq not in existing:
            store.add_checkpoint(event.seq, event.command.t_host,
                                 gdm.dynamic_state())
            written += 1
            if limit is not None and written >= limit:
                break
    store.flush()  # publish the new index rows to index.json
    return written
