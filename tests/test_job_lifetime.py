"""A campaign job's debugger rigs are freed by reference counting.

Every job builds two rigs (simulator, DTM kernel, boards, channels, GDM
engine, monitors, source debuggers) and closes them when its verdict is
known. These tests run one job of each category, plus one whose model
run settles on a monitor report and one whose code run settles on a
watch hit (both end on :class:`~repro.errors.RunSettled` mid-run), with
the cyclic garbage collector disabled, then ask a ``DEBUG_SAVEALL``
collection what it found: nothing the rigs are made of may be in it.

The one allowed residual is the model containment graph that
:func:`~repro.comdes.reflect.system_to_model` builds per job (model
objects point at their container). It is a few dozen objects and holds
no rig object; the allowlist below names its one type. The COMDES
metamodel is built once per process and shared, so no metaclass or
metamodel may be in the residual.
"""

import gc
import types

import pytest

from repro.codegen.instrument import InstrumentationPlan
from repro.comdes.examples import (
    cruise_control_system,
    production_cell_system,
    traffic_light_system,
)
from repro.experiments.requirements import (
    cruise_code_watches,
    cruise_monitor_suite,
    production_cell_code_watches,
    production_cell_monitor_suite,
    traffic_light_code_watches,
    traffic_light_monitor_suite,
)
from repro.faults.campaign import run_fault_experiment
from repro.meta.model import ModelObject
from repro.tracedb.store import TraceStore
from repro.util.timeunits import sec

DURATION_US = sec(3)

#: modules whose objects a finished job must not leave in cycles
RIG_MODULES = ("repro.target", "repro.sim", "repro.rtos", "repro.comm",
               "repro.engine", "repro.debugger", "repro.gdm.reactions")

#: the per-job model graph: the only cycle a job leaves behind
MODEL_RESIDUAL = (ModelObject,)

#: system factories; the implementation fault (kind, seed) whose
#: model-debugger run ends in a TargetFault on that system; the fault
#: (category, kind, seed) whose model run settles on a monitor report;
#: and the one whose code run settles on a watch hit
SYSTEMS = {
    "traffic": (traffic_light_system, traffic_light_monitor_suite,
                traffic_light_code_watches, ("jump_offby", 3),
                ("design", "wrong_initial", 1),
                ("design", "action_constant", 5)),
    "cruise": (cruise_control_system, cruise_monitor_suite,
               cruise_code_watches, ("jump_offby", 1),
               ("implementation", "jump_offby", 2),
               ("implementation", "const_corrupt", 7)),
    "cell": (production_cell_system, production_cell_monitor_suite,
             production_cell_code_watches, ("jump_offby", 2),
             ("design", "wrong_target", 1),
             ("design", "action_constant", 1)),
}


def _module_of(obj) -> str:
    """The module an object belongs to (a bound method: its owner's)."""
    if isinstance(obj, types.MethodType):
        obj = obj.__self__
    if isinstance(obj, types.FunctionType):
        return obj.__module__
    return type(obj).__module__


def cyclic_garbage(job):
    """Run *job* with the collector off; return what a collection finds."""
    gc.collect()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        result = job()
        gc.collect()
        found = list(gc.garbage)
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        gc.enable()
    return result, found


def rig_objects(found):
    return sorted({f"{_module_of(obj)}.{type(obj).__qualname__}"
                   for obj in found
                   if _module_of(obj).startswith(RIG_MODULES)})


def unexpected_types(found):
    """Non-builtin garbage outside the model allowlist."""
    return sorted({f"{type(obj).__module__}.{type(obj).__qualname__}"
                   for obj in found
                   if type(obj).__module__ != "builtins"
                   and not isinstance(obj, MODEL_RESIDUAL)})


def jobs(name):
    """(label, job, check) per category; *check* asserts the job ran the
    path it is meant to cover."""
    (system, monitors, watches, (trap_kind, trap_seed), monitor_job,
     watch_job) = SYSTEMS[name]
    plan = InstrumentationPlan.full()
    specs = watches()

    def fault(category, kind, seed):
        return lambda: run_fault_experiment(
            system, monitors, specs, category, kind, seed, DURATION_US, plan)

    ran = lambda outcome: outcome is not None
    return [
        ("control", fault("control", "", 0),
         lambda outcome: outcome.fault is None),
        ("design", fault("design", "wrong_target", 1), ran),
        ("implementation", fault("implementation", "inverted_branch", 1), ran),
        ("implementation-trap", fault("implementation", trap_kind, trap_seed),
         lambda outcome: outcome.model_how == "crash"),
        ("comm", fault("comm", "frame_loss", 1), ran),
        ("model-settled", fault(*monitor_job),
         lambda outcome: outcome.model_how == "monitor"),
        ("code-settled", fault(*watch_job),
         lambda outcome: outcome.code_how == "watch"),
    ]


@pytest.mark.parametrize("name", sorted(SYSTEMS))
def test_every_job_category_frees_its_rigs(name):
    for label, job, check in jobs(name):
        result, found = cyclic_garbage(job)
        assert check(result), (name, label, result)
        assert rig_objects(found) == [], (name, label)
        assert unexpected_types(found) == [], (name, label)


def test_traced_job_frees_its_rigs(tmp_path):
    """The spilling trace path (ExecutionTrace over a TraceStore) too."""
    store = TraceStore(str(tmp_path / "job"))

    def job():
        try:
            return run_fault_experiment(
                cruise_control_system, cruise_monitor_suite,
                cruise_code_watches(), "control", "", 0, DURATION_US,
                InstrumentationPlan.full(), trace_store=store)
        finally:
            store.close()

    _, found = cyclic_garbage(job)
    assert store.event_count > 0
    assert rig_objects(found) == []
    # the index save leaves no encoder closure cycle either
    assert unexpected_types(found) == []
