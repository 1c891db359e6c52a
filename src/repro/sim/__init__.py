"""Discrete-event simulation kernel.

Everything time-dependent in the reproduction — the virtual target board, the
RS-232/JTAG links, the RTOS scheduler, the debugger engine — runs on this
kernel. Time is integer microseconds (see :mod:`repro.util.timeunits`).
"""
