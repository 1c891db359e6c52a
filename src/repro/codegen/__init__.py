"""Model-to-code transformation (the MDD "model transformation" box, Fig 1).

Lowers a COMDES system to firmware for the virtual target. The generator can
weave in the **active command interface**: EMIT instructions that send debug
commands (state entries, signal updates, task markers) over the UART, as
selected by an :class:`~repro.codegen.instrument.InstrumentationPlan`. With
an empty plan the generated code is byte-identical to production firmware —
the baseline for the instrumentation-overhead experiment (E7).
"""
