"""Passive-poll throughput and modeled scan cost vs. watch count.

The scoreboard for the transaction-batched debug transport: at 1, 8 and
64 watches it measures

* **host polls/sec** — wall-clock rate of executing the compiled poll
  plan (one scatter read over the bit-banged TAP) on this machine;
* **modeled scan µs/poll** — what the link's cost model charges per poll
  (TCK-rate scan time + one USB transaction), next to two reference
  models: the *prior poll loop* this PR replaced (a full MEMADDR+MEMREAD
  round trip per watched word, USB already amortized to one transaction
  per poll) and the *unbatched per-word probe* (what plain
  ``read_word_timed`` clients pay: a USB transaction for every word);
* **USB transactions/poll** — must be exactly 1 at every watch count.

Writes ``BENCH_poll.json`` next to this file so the transport's perf
trajectory is tracked across PRs.

Usage::

    python benchmarks/perf_poll.py           # full run
    python benchmarks/perf_poll.py --quick   # CI smoke
"""

from __future__ import annotations

import json
import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                os.pardir, "src"))

from repro.comm.jtag import JtagProbe, TapController
from repro.comm.link import JtagLink
from repro.comm.usb import UsbTransport
from repro.target.board import Board, DebugPort
from repro.target.memory import RAM_BASE

WATCH_COUNTS = (1, 8, 64)
TCK_HZ = 4_000_000
FULL_REPS = 40
QUICK_REPS = 5


def watch_addrs(count: int):
    """A realistic watch set: one long contiguous run plus a stray pair.

    Codegen allocates data words sequentially, so most watches are
    neighbours; the stray run keeps the scatter planner honest.
    """
    if count <= 2:
        return [RAM_BASE + i for i in range(count)]
    main = [RAM_BASE + i for i in range(count - 2)]
    return main + [RAM_BASE + 1000, RAM_BASE + 1001]


def make_link():
    board = Board()
    probe = JtagProbe(TapController(DebugPort(board)), tck_hz=TCK_HZ,
                      transport=UsbTransport())
    return JtagLink(probe)


def measure(count: int, reps: int):
    addrs = watch_addrs(count)
    link = make_link()

    # Deterministic modeled costs (independent of wall clock).
    _, scan_us_batched = link.read_scatter(addrs)
    txn_per_poll = link.probe.transport.transactions  # that was one poll
    # Prior poll loop: per-word MEMADDR+MEMREAD scans (priced by a probe
    # with no transport), one amortized USB transaction of 2 words per
    # watch — the exact pre-BLOCKREAD model.
    scan_only = JtagProbe(TapController(DebugPort(Board())), tck_hz=TCK_HZ)
    scan_us_prior_poll = sum(
        scan_only.read_word_timed(addr)[1] for addr in addrs
    ) + UsbTransport().transaction_cost_us(2 * count)
    # Unbatched probe: every word its own USB round trip (read_word_timed
    # default), what a naive host-side variable view pays.
    per_word_us = make_link().read_word(addrs[0])[1]
    scan_us_per_word_probe = per_word_us * count

    # Wall-clock poll rate: best-of over reps rides out scheduler noise.
    best_rate = 0.0
    for _ in range(reps):
        start = time.perf_counter()
        link.read_scatter(addrs)
        elapsed = time.perf_counter() - start
        best_rate = max(best_rate, 1.0 / elapsed)

    return {
        "polls_per_sec": round(best_rate, 1),
        "scan_us_batched": scan_us_batched,
        "scan_us_prior_poll": scan_us_prior_poll,
        "scan_us_per_word_probe": scan_us_per_word_probe,
        "usb_transactions_per_poll": txn_per_poll,
    }


def main() -> None:
    quick = "--quick" in sys.argv
    reps = QUICK_REPS if quick else FULL_REPS
    measure(8, 1)  # warm up caches and the allocator

    results = {
        "tck_hz": TCK_HZ,
        "usb_latency_us": UsbTransport().latency_us,
        "watches": {str(n): measure(n, reps) for n in WATCH_COUNTS},
        "quick": quick,
    }
    for n, row in results["watches"].items():
        assert row["usb_transactions_per_poll"] == 1, (n, row)

    name = "BENCH_poll_quick.json" if quick else "BENCH_poll.json"
    out = os.path.join(os.path.dirname(os.path.abspath(__file__)), name)
    with open(out, "w", encoding="utf-8") as handle:
        json.dump(results, handle, indent=2)
        handle.write("\n")
    for n in WATCH_COUNTS:
        row = results["watches"][str(n)]
        print(f"{n:3d} watches: {row['polls_per_sec']:>8} polls/sec, "
              f"{row['scan_us_batched']:>5}us/poll batched "
              f"(prior poll loop: {row['scan_us_prior_poll']}us, "
              f"per-word probe: {row['scan_us_per_word_probe']}us)")
    print(f"-> {out}")


if __name__ == "__main__":
    main()
