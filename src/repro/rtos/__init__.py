"""Distributed Timed Multitasking (DTM) runtime.

COMDES's execution model: actors run as periodic tasks under fixed-priority
preemptive scheduling; **inputs are latched at task release** and **outputs
become visible exactly at the deadline instant**, which removes I/O jitter
at both task and transaction level (paper §III). The ``latched`` switch
exists so the jitter-elimination claim can be measured as an ablation (E8).
"""
