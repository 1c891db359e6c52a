"""Fault injection for the detection experiments.

The paper distinguishes two bug classes a runtime model debugger can find:

* **design errors** — inconsistencies between requirements and the system
  model (injected here by mutating the model before code generation);
* **implementation errors** — introduced during model transformation
  (injected by mutating the generated code while the model stays correct).

A third plane targets the debugger itself rather than the system under
debug:

* **comm faults** — seeded wire faults (frame loss, reordering,
  corruption) on the transport the model debugger observes through,
  injected by wrapping the serial link in a
  :class:`~repro.comm.chaos.ChaosLink`. They measure observability
  robustness: a degraded wire must degrade detection gracefully, never
  crash the debugger.

:mod:`repro.faults.campaign` runs both debuggers (model-level GMDF and the
code-level baseline) against each faulty variant and scores detection.
"""
