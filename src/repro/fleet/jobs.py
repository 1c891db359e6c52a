"""Declarative, picklable job descriptions for fleet workers.

A :class:`JobSpec` never carries a live :class:`~repro.target.board.Board`,
firmware image, monitor suite or lambda across the process boundary — it
carries *recipes*: importable callable references plus the fault
coordinates ``(category, kind, seed)``. The worker rebuilds the whole
experiment (system, firmware, fault, debuggers) from those inputs, so a
job produces the same result no matter which process or machine
executes it. That property is what makes the parallel campaign equal to
the serial one bit for bit.

Callable references are ``"module:qualname"`` strings resolved with
:func:`resolve_ref`. :func:`callable_ref` derives (and validates) the
reference of a module-level callable; lambdas and closures are rejected
up front with an actionable error instead of a pickling crash deep inside
a worker.
"""

from __future__ import annotations

import importlib
import multiprocessing
from typing import Callable, List, Optional, Sequence

from repro.codegen.instrument import InstrumentationPlan
from repro.errors import FleetError

#: the control experiment always sits at canonical index 0
CONTROL_INDEX = 0

#: categories a JobSpec may carry
CATEGORIES = ("control", "design", "implementation", "comm")


def default_mp_context() -> str:
    """The start-method policy shared by every fleet process layer.

    Fork where the platform offers it (workers inherit the parent's
    imported modules and sys.path, so test-module refs resolve), spawn
    everywhere else.
    """
    return ("fork" if "fork" in multiprocessing.get_all_start_methods()
            else "spawn")


def callable_ref(fn: Callable) -> str:
    """The importable ``"module:qualname"`` reference of *fn*.

    Raises :class:`FleetError` for anything a worker process could not
    re-import by name (lambdas, closures, instance methods, callables
    whose name does not resolve back to the same object).
    """
    module = getattr(fn, "__module__", None)
    qualname = getattr(fn, "__qualname__", None)
    if not module or not qualname:
        raise FleetError(f"{fn!r} has no importable module/qualname")
    if "<lambda>" in qualname or "<locals>" in qualname:
        raise FleetError(
            f"{module}:{qualname} is not importable by name; fleet jobs "
            f"need module-level callables (no lambdas or closures)"
        )
    ref = f"{module}:{qualname}"
    if resolve_ref(ref) is not fn:
        raise FleetError(
            f"{ref} does not resolve back to {fn!r}; pass the module-level "
            f"callable itself, not a wrapper"
        )
    return ref


def resolve_ref(ref: str) -> Callable:
    """Import the callable behind a ``"module:qualname"`` reference."""
    module_name, sep, qualname = ref.partition(":")
    if not sep or not module_name or not qualname:
        raise FleetError(f"malformed callable reference {ref!r} "
                         f"(expected 'module:qualname')")
    try:
        obj = importlib.import_module(module_name)
    except ImportError as exc:
        raise FleetError(f"cannot import module of {ref!r}: {exc}") from exc
    for part in qualname.split("."):
        try:
            obj = getattr(obj, part)
        except AttributeError:
            raise FleetError(f"{module_name!r} has no attribute chain "
                             f"{qualname!r}") from None
    if not callable(obj):
        raise FleetError(f"{ref!r} resolves to non-callable {obj!r}")
    return obj


class JobSpec:
    """One campaign experiment, described declaratively.

    Everything is a plain value: strings, ints and an
    :class:`InstrumentationPlan` (itself attribute-only). ``index`` is
    the job's canonical position in the corpus — merge order, never
    execution order. A non-empty ``trace_dir`` asks the worker to spill
    the model debugger's execution trace into a per-job
    :class:`~repro.tracedb.store.TraceStore` under that directory and
    hand the path back (never the trace itself) on the result.
    """

    __slots__ = ("index", "category", "kind", "seed", "duration_us",
                 "system_ref", "monitor_ref", "watch_ref", "plan",
                 "trace_dir")

    def __init__(self, index: int, category: str, kind: str, seed: int,
                 duration_us: int, system_ref: str, monitor_ref: str,
                 watch_ref: str, plan: InstrumentationPlan,
                 trace_dir: str = "") -> None:
        if category not in CATEGORIES:
            raise FleetError(f"unknown job category {category!r}; "
                             f"options: {CATEGORIES}")
        if duration_us <= 0:
            raise FleetError(f"job duration must be positive, got {duration_us}")
        self.index = index
        self.category = category
        self.kind = kind
        self.seed = seed
        self.duration_us = duration_us
        self.system_ref = system_ref
        self.monitor_ref = monitor_ref
        self.watch_ref = watch_ref
        self.plan = plan
        self.trace_dir = trace_dir

    @property
    def job_id(self) -> str:
        """Stable human-readable identity (also the log/merge key)."""
        if self.category == "control":
            return "control"
        return f"{self.category}/{self.kind}/{self.seed}"

    def __repr__(self) -> str:
        return f"<JobSpec #{self.index} {self.job_id}>"


class JobResult:
    """What a worker hands back for one :class:`JobSpec`.

    Exactly one of three shapes:

    * executed — ``outcome`` holds the job's
      :class:`~repro.faults.campaign.FaultOutcome` (its ``fault`` is
      ``None`` for the control job);
    * declined — the injector reported the kind does not apply
      (``outcome`` and ``error`` both ``None``);
    * failed — the worker caught an exception (or died); ``error`` holds
      the structured failure ``{"type", "message", "traceback"}``.

    ``trace_path`` is the path-based trace handoff: the root of the
    per-job store the worker spilled into (empty when the job did not
    collect traces). Paths cross the process boundary; traces never do.

    ``retries`` counts how many isolated retry attempts the runner
    burned before this result landed: 0 for a first-pass success, N for
    a job that succeeded on (or terminally failed after) retry N.
    """

    __slots__ = ("index", "job_id", "outcome", "error", "worker_pid",
                 "trace_path", "retries")

    def __init__(self, index: int, job_id: str,
                 outcome: Optional[object] = None,
                 error: Optional[dict] = None,
                 worker_pid: int = 0,
                 trace_path: str = "",
                 retries: int = 0) -> None:
        self.index = index
        self.job_id = job_id
        self.outcome = outcome
        self.error = error
        self.worker_pid = worker_pid
        self.trace_path = trace_path
        self.retries = retries

    @property
    def failed(self) -> bool:
        """Whether this job died instead of producing a verdict."""
        return self.error is not None

    @property
    def declined(self) -> bool:
        """Whether the injector declined the job (the kind does not apply)."""
        return self.error is None and self.outcome is None

    @property
    def status(self) -> str:
        """Canonical one-word outcome: ``failed``/``declined``/``ok``.

        The label vocabulary of the ``fleet.job`` metric series.
        """
        if self.failed:
            return "failed"
        return "declined" if self.declined else "ok"

    def __repr__(self) -> str:
        if self.failed:
            status = f"FAILED({self.error['type']})"
        elif self.declined:
            status = "declined"
        else:
            status = repr(self.outcome)
        return f"<JobResult #{self.index} {self.job_id} {status}>"


def enumerate_campaign_jobs(
    system_factory: Callable,
    monitor_factory: Callable,
    watch_factory: Callable,
    design_kinds: Sequence[str],
    impl_kinds: Sequence[str],
    seeds: Sequence[int],
    duration_us: int,
    plan: InstrumentationPlan,
    master_seed: Optional[int] = None,
    seeds_per_kind: Optional[int] = None,
    trace_dir: Optional[str] = None,
    comm_kinds: Sequence[str] = (),
) -> List[JobSpec]:
    """The campaign corpus as an ordered job list (control first).

    Enumeration order is the canonical result order: control, then
    design kinds x seeds, then implementation kinds x seeds, then comm
    (transport-fault) kinds x seeds, independent of how jobs are later
    scheduled. Per-kind seeds come from
    :func:`~repro.faults.campaign.campaign_seeds`, which raises on a
    bad ``master_seed``/``seeds_per_kind`` pairing before any job runs.
    """
    if not callable(watch_factory):
        raise FleetError(
            "a campaign needs code watches as an importable "
            "zero-argument factory (e.g. traffic_light_code_watches), "
            f"not a pre-built list; got {type(watch_factory).__name__}"
        )
    from repro.faults.campaign import campaign_seeds  # deferred: cycle
    system_ref = callable_ref(system_factory)
    monitor_ref = callable_ref(monitor_factory)
    watch_ref = callable_ref(watch_factory)

    def spec(index: int, category: str, kind: str, seed: int) -> JobSpec:
        return JobSpec(index, category, kind, seed, duration_us,
                       system_ref, monitor_ref, watch_ref, plan,
                       trace_dir=trace_dir or "")

    specs = [spec(CONTROL_INDEX, "control", "", 0)]
    index = CONTROL_INDEX + 1
    for category, kinds in (("design", design_kinds),
                            ("implementation", impl_kinds),
                            ("comm", comm_kinds)):
        for kind in kinds:
            for seed in campaign_seeds(category, kind, seeds,
                                       master_seed, seeds_per_kind):
                specs.append(spec(index, category, kind, seed))
                index += 1
    return specs
