"""Deterministic seed derivation shared by every stochastic subsystem.

:func:`derive_seed` is the one seed expander in the codebase: a stable
63-bit value derived from ``(master_seed, *parts)`` via SHA-256 —
independent of process, hash randomization and Python version.
Fault campaigns (:mod:`repro.fleet`) and transport chaos injection
(:mod:`repro.comm.chaos`) both consume it, which is what makes "one
master seed describes the whole experiment" true across layers: the
fleet derives per-job seeds, each job derives per-link chaos seeds, and
every derived stream is reproducible from the coordinates alone.
"""

from __future__ import annotations

import hashlib
from typing import Tuple

from repro.errors import ReproError


def derive_seed(master_seed: int, *parts: object) -> int:
    """A stable 63-bit seed from a master seed and identity parts."""
    text = repr((int(master_seed),) + tuple(str(p) for p in parts))
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") >> 1


def seed_stream(master_seed: int, label: str, count: int) -> Tuple[int, ...]:
    """*count* derived seeds for one fault kind / corpus label."""
    if count < 0:
        raise ReproError(f"seed count must be non-negative, got {count}")
    return tuple(derive_seed(master_seed, label, i) for i in range(count))
