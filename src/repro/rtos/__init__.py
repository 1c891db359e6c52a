"""Distributed Timed Multitasking (DTM) runtime.

COMDES's execution model: actors run as periodic tasks under fixed-priority
preemptive scheduling; **inputs are latched at task release** and **outputs
become visible exactly at the deadline instant**, which removes I/O jitter
at both task and transaction level (paper §III). The ``latched`` switch
exists so the jitter-elimination claim can be measured as an ablation (E8).
"""

from repro.rtos.task import ActiveJob, JobRecord, LoadTask
from repro.rtos.scheduler import NodeScheduler
from repro.rtos.network import SignalBus
from repro.rtos.jitter import JitterMeter
from repro.rtos.kernel import DtmKernel

__all__ = [
    "ActiveJob", "JobRecord", "LoadTask",
    "NodeScheduler",
    "SignalBus",
    "JitterMeter",
    "DtmKernel",
]
