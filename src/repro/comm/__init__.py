"""Communication substrate: the host <-> target debug transport stack.

The paper defines two ways the target reaches the Graphical Debugger Model:

* **active** — generated code contains extra EMIT instructions that send
  command frames over a serial line (RS-232 in the prototype);
* **passive** — a JTAG probe (IEEE 1149.1) scans monitored variables out of
  the running chip over a USB/PCI host transport, with **zero** target-code
  modification.

Both are implemented behind the common :class:`~repro.comm.channel.DebugChannel`
interface the runtime engine consumes. The stack, top to bottom::

    DebugChannel        what the engine sees: decoded Command fan-out
      ActiveChannel     EMIT -> UART FIFO -> frames        (instrumented;
                        bytes only on a wire that can corrupt them)
      PassiveChannel    compiled PollPlan -> scatter read  (clean code)
    DebugLink           transaction batching + the whole cost model
      SerialLink        RS-232 line time + host receive latency
      JtagLink          TCK-rate scan cost + one USB round trip per txn
    wire models         Rs232Link / TapController+JtagProbe / UsbTransport

TAP instruction register map (:mod:`repro.comm.jtag`):

========== ======= ====================================================
IDCODE     0b0001  32-bit device identification (capture)
MEMADDR    0b0010  32-bit memory address register (update)
MEMREAD    0b0011  capture loads RAM[address] for shifting out
MEMWRITE   0b0100  update stores the shifted value to RAM[address]
HALT       0b0101  update-IR stalls the target's task dispatching
RESUME     0b0110  update-IR releases the stall
BLOCKREAD  0b0111  MEMREAD with capture-time address auto-increment
BLOCKWRITE 0b1000  MEMWRITE with update-time address auto-increment
BYPASS     0b1111  single-bit bypass register
========== ======= ====================================================

**Link-layer cost model.** A link *transaction* is one host round trip;
its cost is what the wire charges (scan bits at TCK rate for JTAG, line
bits at baud rate for serial) plus the per-round-trip transport latency
(USB frame scheduling, host receive path) paid **once per transaction**,
not per word. BLOCKREAD is what makes that amortization real on the scan
chain: N watched words are grouped into contiguous runs
(:func:`~repro.comm.jtag.group_runs`) and move as block transfers inside
a single transaction, so passive-poll cost grows sublinearly in watch
count while the target still pays exactly zero cycles. BLOCKWRITE is the
mirror-image write path: bulk memory patches (fault injection over JTAG,
state restoration) are grouped into contiguous runs by
:func:`~repro.comm.link.write_patches` and each run moves as one
MEMADDR + BLOCKWRITE sequence inside a single transaction.

**Comm faults.** Real serial wires lose, corrupt, duplicate and delay
command frames. :class:`~repro.comm.chaos.ChaosLink` wraps an active
channel's serial link and injects those four frame faults on a schedule
that is a pure function of the chaos seed and the frame index
(:func:`repro.util.seeds.derive_seed`), so two runs at the same seed
produce byte-identical command transcripts and link ``stats()``.
With every rate at 0.0 the wrapper draws no randomness. The campaign's
comm-fault plane (:mod:`repro.faults.comm`) is its one user.
"""
