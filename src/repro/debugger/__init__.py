"""Code-level baseline debugger (the GDB/DDD of the paper's related work).

GMDF's value proposition is debugging at the *model* level; the natural
baseline is a source-level debugger over the generated code, here reduced
to what the comparison uses: hardware watchpoints on firmware variables.
The detection experiment (E9) and the fault campaign run both debuggers
against the same injected faults.
"""

from repro.debugger.gdb import SourceDebugger, WatchHit
from repro.debugger.watch import Watchpoint

__all__ = ["SourceDebugger", "WatchHit", "Watchpoint"]
