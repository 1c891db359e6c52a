"""Per-layer attribution, measured from outside the program.

Every number here comes from wrapping a layer's public entry point (or a
``repro.faults.campaign`` phase function) at run time; nothing under
``src/`` is edited. A wrapper either opens a *span* (wall time, with the
time of nested spans subtracted to give the layer's self time) or only
*counts* calls. Spans nest on one stack per process; fleet workers are
forked from the campaign process and so inherit the installed wrappers.

A function is patched where it is defined and at every ``repro.*`` module
binding of the same object (``from x import f`` copies), so a call through
any of them is seen. Wraps come in layer groups named like the first part
of the metrics they feed (``engine`` feeds ``engine.*``). An entry point
that is missing drops its group, and so those metrics, with a warning on
stderr instead of failing the run.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import json
import os
import pickle
import sys
import time
from collections import Counter, defaultdict
from typing import Callable, Dict, List, Optional, Tuple

clock = time.perf_counter

def _warn(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)


def _resolve(path: str) -> Optional[Tuple[object, str, Callable]]:
    """``"module:Owner.attr"`` -> (owner, attr, current value) or None."""
    module_name, _, qualname = path.partition(":")
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *parents, attr = qualname.split(".")
    for part in parents:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    value = owner.__dict__.get(attr) if isinstance(owner, type) \
        else getattr(owner, attr, None)
    if value is None:
        return None
    return owner, attr, value


def _rebind(owner, attr: str, original, wrapper) -> None:
    """Install *wrapper* on *owner* and on every ``repro.*`` module that
    imported the same function object by name."""
    setattr(owner, attr, wrapper)
    if isinstance(owner, type):
        return
    for name, module in list(sys.modules.items()):
        if (name == "repro" or name.startswith("repro.")) \
                and module is not None \
                and module.__dict__.get(attr) is original:
            setattr(module, attr, wrapper)


def patch(path: str, make_wrapper: Callable[[Callable], Callable]) -> bool:
    """Wrap the entry point at *path*; False when it does not exist."""
    found = _resolve(path)
    if found is None:
        return False
    owner, attr, original = found
    wrapper = make_wrapper(original)
    functools.update_wrapper(wrapper, original)
    _rebind(owner, attr, original, wrapper)
    return True


class Tracer:
    """Span stack plus per-layer self time, call counts and work counts."""

    def __init__(self) -> None:
        self.stack: List[list] = []
        #: campaign phase of the innermost open phase span
        self.phase = ""
        self.self_s: Dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        #: fingerprint of (system, rounds, overrides) per model replay
        self.ref_keys: List[str] = []

    def reset(self) -> None:
        """Clear in place: wrappers hold references to these containers."""
        self.self_s.clear()
        self.calls.clear()
        self.counts.clear()
        self.ref_keys.clear()

    def export(self) -> dict:
        return {"self_s": dict(self.self_s), "calls": dict(self.calls),
                "counts": dict(self.counts), "ref_keys": list(self.ref_keys)}

    def exclude(self, seconds: float) -> None:
        """Charge *seconds* of probe work to no layer."""
        if self.stack:
            self.stack[-1][0] += seconds

    def span(self, fn: Callable, layer, phase: str = "",
             before: Optional[Callable] = None,
             after: Optional[Callable] = None) -> Callable:
        """Wrap *fn* in a span of *layer* (a name, or ``tracer -> name``
        where None means pass through untimed)."""
        stack = self.stack
        tracer = self

        def wrapper(*args, **kwargs):
            name = layer(tracer) if callable(layer) else layer
            if name is None:
                return fn(*args, **kwargs)
            saved = tracer.phase
            if phase:
                tracer.phase = phase
            token = before(args) if before is not None else None
            frame = [0.0]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - t0
                stack.pop()
                tracer.phase = saved
                tracer.self_s[name] += elapsed - frame[0]
                tracer.calls[name] += 1
                if stack:
                    stack[-1][0] += elapsed
                if after is not None:
                    after(args, token, name)

        return wrapper

    def counter(self, fn: Callable, key: str) -> Callable:
        """Wrap *fn* so each call bumps ``counts[key]``, untimed."""
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper


class JobSink:
    """One JSON line per finished job, one file per process.

    Fleet workers are forked mid-campaign, so the file is (re)opened
    whenever the pid changes; each line is flushed because a worker exits
    without running interpreter cleanup.
    """

    def __init__(self, directory: str) -> None:
        self.directory = directory
        self._pid = 0
        self._file = None

    def write(self, record: dict) -> None:
        pid = os.getpid()
        if pid != self._pid:
            self._pid = pid
            self._file = open(os.path.join(self.directory,
                                           f"jobs-{pid}.jsonl"), "a")
        self._file.write(json.dumps(record) + "\n")
        self._file.flush()

    def read_all(self) -> List[dict]:
        records = []
        for name in sorted(os.listdir(self.directory)):
            if name.startswith("jobs-") and name.endswith(".jsonl"):
                with open(os.path.join(self.directory, name)) as handle:
                    records.extend(json.loads(line) for line in handle)
        return records


#: iterations of the host-speed calibration kernel
CAL_ITERATIONS = 5000
#: CPU time of calibration_kernel() on the reference host (2 vCPU cloud
#: VM, quiet); a campaign's times are scaled by CAL_REF_S / its mean
#: kernel time, so host-speed swings cancel and a faster program still shows
CAL_REF_S = 0.0011


def calibration_kernel(iterations: int = CAL_ITERATIONS) -> int:
    """Fixed interpreter work whose duration tracks the host's speed now.

    Shared cloud cores change speed by up to ~1.8x within seconds. The
    CPU time of this kernel, run right after every job in the process that
    ran the job, gives each job a host-speed factor to normalize its time
    with. CPU time, not wall time: a process that takes the core away (the
    fleet's parent, the other worker) slows the job but not the reading,
    so the program cannot hide its own CPU use in the factor.
    """
    table: Dict[int, int] = {}
    recent: List[tuple] = []
    acc = 0
    for i in range(iterations):
        acc = (acc * 31 + i) & 0xFFFF
        key = acc & 1023
        table[key] = table.get(key, 0) + 1
        recent.append((key, i))
        if len(recent) > 64:
            recent.clear()
    return acc


def _fixed_work(seconds: float) -> None:
    """Work that takes *seconds* on the reference host.

    Like the program's own work, it takes longer on a slower host, so its
    normalized cost is *seconds* whatever the host speed.
    """
    calibration_kernel(round(seconds / CAL_REF_S * CAL_ITERATIONS))


#: campaign phase -> the faults.campaign function that runs it
PHASES = {
    "model": "repro.faults.campaign:_run_model_debugger",
    "code": "repro.faults.campaign:_run_code_debugger",
}

#: sensitivity-test hooks: name -> entry point that gets fixed extra work
DELAY_POINTS = {
    "classify_bug": "repro.engine.classify:classify_bug",
    "TraceStore.append": "repro.tracedb.store:TraceStore.append",
    # parent side of the fleet: runs while the workers run their jobs
    "ProcessBackend.poll": "repro.fleet.sched:ProcessBackend.poll",
}


class Probe:
    """Installs the campaign's wrappers and collects what they see.

    Always: per-job wall time around ``run_job`` (where the job runs) and
    capture of ``merge_results``' specs and results for the output
    checks. With ``trace=True``: the full per-layer wrap list.
    """

    def __init__(self, work_dir: str, trace: bool, delay: str = "") -> None:
        import repro.faults.campaign  # noqa: F401 - bind before patching
        import repro.fleet.merge  # noqa: F401
        import repro.fleet.pool  # noqa: F401
        import repro.fleet.worker  # noqa: F401
        self.trace = trace
        self.tracer = Tracer()
        self.sink = JobSink(work_dir)
        self.dropped: List[str] = []
        self.merged: List[tuple] = []  # (specs, results) per merge call
        self.dispatched: Dict[int, float] = {}
        self.steals = 0
        self.spawns = 0
        if delay:
            # innermost, so the traced run charges it to the delayed layer
            name, _, seconds = delay.rpartition(":")
            self._inject_delay(name, float(seconds))
        self._install_job_timer()
        self._install_merge_capture()
        if trace:
            self._install_layers()

    # -- always on -----------------------------------------------------------

    def _install_job_timer(self) -> None:
        tracer, sink, trace = self.tracer, self.sink, self.trace

        def make(run_job):
            def timed_run_job(spec):
                tracer.reset()
                frame = [0.0]
                tracer.stack.append(frame)
                start = time.monotonic()
                t0 = clock()
                try:
                    result = run_job(spec)
                finally:
                    elapsed = clock() - t0
                    tracer.stack.pop()
                t1, c1 = clock(), time.thread_time()
                calibration_kernel()
                record = {"index": spec.index, "category": spec.category,
                          "status": result.status, "pid": os.getpid(),
                          "start": start, "wall_s": elapsed,
                          "cal_s": clock() - t1,
                          "cal_cpu_s": time.thread_time() - c1,
                          "retries": result.retries}
                if trace:
                    tracer.self_s["campaign"] += elapsed - frame[0]
                    record["layers"] = tracer.export()
                sink.write(record)
                tracer.reset()
                return result
            return timed_run_job

        if not patch("repro.fleet.worker:run_job", make):
            raise SystemExit("perfbench: repro.fleet.worker.run_job is "
                             "missing; jobs cannot be timed")

    def _install_merge_capture(self) -> None:
        merged, tracer, trace = self.merged, self.tracer, self.trace

        def make(merge_results):
            inner = (tracer.span(merge_results, "fleet.merge", phase="merge")
                     if trace else merge_results)

            def capturing_merge(specs, results, *args, **kwargs):
                merged.append((list(specs), list(results)))
                return inner(specs, results, *args, **kwargs)
            return capturing_merge

        if not patch("repro.fleet.merge:merge_results", make):
            raise SystemExit("perfbench: repro.fleet.merge.merge_results is "
                             "missing; outputs cannot be checked")

    def _inject_delay(self, name: str, seconds: float) -> None:
        """Add fixed work to one entry point (sensitivity test)."""
        def make(fn):
            def delayed(*args, **kwargs):
                _fixed_work(seconds)
                return fn(*args, **kwargs)
            return delayed

        if not patch(DELAY_POINTS[name], make):
            raise SystemExit(f"perfbench: delay point {name} is missing")

    # -- the traced run's wrap list ------------------------------------------

    def _group(self, group: str, wraps: List[Tuple[str, Callable]],
               requires: Tuple[str, ...] = ()) -> None:
        """Install a layer group all-or-nothing; *requires* names entry
        points the group's wrappers depend on without wrapping them."""
        paths = [path for path, _ in wraps] + list(requires)
        missing = [path for path in paths if _resolve(path) is None]
        if missing:
            self.dropped.append(group)
            _warn(f"entry point(s) {', '.join(missing)} missing; "
                  f"dropping the {group} layer metrics")
            return
        for path, make in wraps:
            patch(path, make)

    def _install_layers(self) -> None:
        t = self.tracer
        counts = t.counts

        def span(layer, **kw):
            return lambda fn: t.span(fn, layer, **kw)

        def phase(name):
            return span("campaign", phase=name)

        def while_phase(phases: Dict[str, str]):
            return lambda tracer: phases.get(tracer.phase)

        # campaign phases: their own self time is unattributed work
        self._group("campaign", [(path, phase(name))
                                 for name, path in PHASES.items()])

        def instructions_before(args):
            return args[0].instructions

        def instructions_after(args, before, layer):
            counts[layer + ".instructions"] += args[0].instructions - before

        # target time is split by campaign phase; CPU work inside the
        # classifier's firmware replay stays in classify.firmware
        self._group("target", [
            ("repro.target.cpu:Cpu.run",
             span(while_phase({"model": "target.model",
                               "code": "target.code"}),
                  before=instructions_before, after=instructions_after)),
        ], requires=tuple(PHASES.values()))

        def events_before(args):
            return args[0].sim.executed_events

        def events_after(args, before, _):
            counts["rtos.events"] += args[0].sim.executed_events - before

        self._group("rtos", [
            ("repro.rtos.kernel:DtmKernel.run",
             span("rtos", before=events_before, after=events_after)),
        ])

        def commands_after(args, _, __):
            counts["engine.commands"] += 1

        checks = importlib.import_module("repro.engine.checks")
        monitors = [cls for cls in vars(checks).values()
                    if isinstance(cls, type)
                    and issubclass(cls, checks.Monitor)
                    and "inspect" in cls.__dict__]
        self._group("engine", [
            ("repro.engine.engine:DebuggerEngine.on_command",
             span("engine", after=commands_after)),
        ] + [(f"repro.engine.checks:{cls.__name__}.inspect",
              span("engine.checks")) for cls in monitors])

        def frame_after(args, _, __):
            counts["comm.frames"] += 1

        def chaos_faults(link) -> int:
            return (link.frames_lost + link.frames_corrupted
                    + link.frames_duplicated + link.frames_reordered)

        def chaos_after(args, before, _):
            counts["comm.retries"] += chaos_faults(args[0]) - before

        self._group("comm", [
            ("repro.comm.link:SerialLink.transmit_frame",
             span("comm", after=frame_after)),
            ("repro.comm.chaos:ChaosLink.transmit_frame",
             span("comm", before=lambda args: chaos_faults(args[0]),
                  after=chaos_after)),
            ("repro.comm.frames:FrameDecoder.feed", span("comm")),
            ("repro.comm.channel:DebugChannel.deliver", span("comm")),
        ])

        self._group("gdm", [
            ("repro.gdm.abstraction:AbstractionEngine.build",
             span("gdm.build")),
        ])
        self._group("comdes", [
            ("repro.comdes.reflect:system_to_model", span("comdes.reflect")),
        ])
        self._group("debugger", [
            ("repro.debugger.watch:Watchpoint.check",
             lambda fn: t.counter(fn, "debugger.watch_hits")),
        ])

        def ref_before(args):
            # fingerprinting is probe work: keep it out of every layer
            t0 = clock()
            system, rounds = args[0], args[1]
            overrides = args[2] if len(args) > 2 else None
            key = pickle.dumps((system, rounds, overrides))
            t.ref_keys.append(hashlib.sha1(key).hexdigest())
            t.exclude(clock() - t0)

        self._group("classify", [
            ("repro.engine.classify:classify_bug",
             span("classify", phase="classify")),
            ("repro.comdes.system:System.lockstep_run",
             span(while_phase({"classify": "classify.model_ref"}),
                  before=ref_before)),
            ("repro.engine.classify:run_firmware_lockstep",
             span(while_phase({"classify": "classify.firmware"}))),
        ])
        self._group("faults", [
            ("repro.faults.campaign:inject_design_fault",
             span("faults.inject")),
            ("repro.faults.campaign:inject_implementation_fault",
             span("faults.inject")),
            ("repro.faults.campaign:split_memory_patches",
             span("faults.inject")),
            ("repro.faults.campaign:_patch_boards", span("faults.inject")),
        ])
        self._group("codegen", [
            ("repro.codegen.pipeline:generate_firmware", span("codegen")),
        ])

        # the merge's own store writes are tracedb.merge self time
        def outside_merge(layer):
            return lambda tracer: None if tracer.phase == "merge" else layer

        def append_after(args, _, __):
            counts["tracedb.events"] += 1

        self._group("tracedb", [
            ("repro.tracedb.store:TraceStore.append",
             span(outside_merge("tracedb.append"), after=append_after)),
            ("repro.tracedb.store:TraceStore.add_checkpoint",
             span(outside_merge("tracedb.append"))),
            ("repro.tracedb.store:TraceStore.close",
             span(outside_merge("tracedb.close"))),
            ("repro.tracedb.collect:collect_campaign_store",
             span("tracedb.merge", phase="merge")),
        ])

        dispatched = self.dispatched
        probe = self

        def make_dispatch(fn):
            def dispatch(backend, slot, uid, items):
                now = time.monotonic()
                for item in items:
                    dispatched[item.index] = now
                return fn(backend, slot, uid, items)
            return dispatch

        def make_close(fn):
            def close(backend):
                probe.spawns += backend.spawns
                return fn(backend)
            return close

        def make_sched_run(fn):
            def run(scheduler, units):
                try:
                    return fn(scheduler, units)
                finally:
                    # queue steals plus in-flight partial-unit steals
                    probe.steals += scheduler.steals + scheduler.preemptions
            return run

        self._group("fleet", [
            ("repro.fleet.sched:InlineBackend.dispatch", make_dispatch),
            ("repro.fleet.sched:ProcessBackend.dispatch", make_dispatch),
            ("repro.fleet.sched:ProcessBackend.close", make_close),
            ("repro.fleet.sched:ElasticScheduler.run", make_sched_run),
        ])
