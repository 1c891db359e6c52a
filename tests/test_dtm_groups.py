"""The DTM kernel's per-instant group entry against the per-job reference.

``DtmKernel`` releases a same-period actor group through one heap entry
and, when the instant is quiet, completes and publishes it without a
completion event per job. ``tests/event_reference.py`` keeps the path
with a periodic release entry, a scheduler job and a publication entry
per actor job. Here both run generated task sets and must agree on the
job records (at two horizons), the bus views and counters, the jitter
samples and every node scheduler's counters:

* 1-3 nodes, actors drawn onto 1-3 timing profiles (so groups of
  several actors form beside groups of one), equal and unequal
  priorities, demands that differ in small steps (so completions on
  different nodes tie);
* deadlines short enough to miss, load tasks, ``latched=False`` and a
  zero network delay;
* a halt that stalls a board and a resume, each scheduled from a job
  hook onto a later release instant, so the halt lands between two
  members of a group.
"""

from __future__ import annotations

import pytest
from hypothesis import event, example, given, settings, strategies as st

from event_reference import reference_event_paths
from repro.codegen.instrument import InstrumentationPlan
from repro.codegen.pipeline import generate_firmware
from repro.comdes.actor import Actor, TaskSpec
from repro.comdes.blocks import DelayFB, GainFB, SequenceFB, SubFB
from repro.comdes.dataflow import ComponentNetwork, Connection, PortRef
from repro.comdes.examples import cruise_control_system
from repro.comdes.signals import Signal
from repro.comdes.system import System
from repro.rtos.kernel import DtmKernel
from repro.rtos.task import JobRecord, LoadTask
from repro.util.timeunits import ms


def counter_actor(index, node, task, source, weight):
    """Actor ``a<index>``: a step sequence minus *source* (if any),
    through a unit delay and *weight* unit gains, published as signal
    ``s<index>``. Each gain adds a few cycles, so demands differ in
    small steps and completions on different nodes often tie."""
    blocks = [SequenceFB("seq", values=[index + 1, 2 * index + 3, 1],
                         repeat=True)]
    connections = []
    input_ports = {}
    last = "seq"
    if source is not None:
        blocks += [SubFB("mix"), DelayFB("z")]
        connections += [Connection.wire("seq.y", "mix.b"),
                        Connection.wire("mix.y", "z.u")]
        input_ports = {"x": [PortRef("mix", "a")]}
        last = "z"
    for stage in range(weight):
        blocks.append(GainFB(f"g{stage}", num=1))
        connections.append(Connection.wire(f"{last}.y", f"g{stage}.u"))
        last = f"g{stage}"
    network = ComponentNetwork(
        name=f"net{index}", blocks=blocks, connections=connections,
        input_ports=input_ports, output_ports={"y": PortRef(last, "y")})
    return Actor(name=f"a{index}", network=network, task=task,
                 inputs={} if source is None else {"x": source},
                 outputs={"y": f"s{index}"}, node=node)


def build_system(profiles, actors):
    """A system from timing *profiles* ``(period, offset, deadline)``
    and actor rows ``(node, profile, priority, source, weight)``;
    *source* indexes an earlier actor's signal."""
    built = []
    for index, (node, profile, priority, source,
                weight) in enumerate(actors):
        period, offset, deadline = profiles[profile % len(profiles)]
        task = TaskSpec(period_us=period, deadline_us=min(deadline, period),
                        offset_us=offset, priority=priority)
        feed = None if source is None or index == 0 \
            else f"s{source % index}"
        built.append(counter_actor(index, f"node{node}", task, feed,
                                   weight))
    return System("generated",
                  signals=[Signal(f"s{i}") for i in range(len(built))],
                  actors=built)


def job_fields(record):
    return tuple(getattr(record, name) for name in JobRecord.__slots__)


def kernel_run(case):
    """Everything one kernel run shows, at two horizons."""
    profiles, actors, latched, delay, loads, halt, horizons = case
    system = build_system(profiles, actors)
    firmware = generate_firmware(system, InstrumentationPlan.none())
    kernel = DtmKernel(system, firmware, latched=latched)
    kernel.bus.net_delay_us = delay
    nodes = system.nodes()
    for name, (node, period, demand, priority, offset) in enumerate(loads):
        if node < len(nodes):
            kernel.add_load_task(LoadTask(f"load{name}", nodes[node], period,
                                          min(demand, period), priority,
                                          offset))
    if halt is not None:
        hook_node, call, halt_after, resume_after, stalled_node = halt
        sim = kernel.sim
        board = kernel.board_of(nodes[stalled_node % len(nodes)])
        calls = [0]

        def set_stall(value):
            board.stalled = value

        def hook(t_release):
            calls[0] += 1
            if calls[0] == call:
                # a later release instant of the same grid, reached from
                # inside this release: the halt holds a position between
                # the members released there
                sim.schedule_at(t_release + halt_after, set_stall, True)
                sim.schedule_at(t_release + halt_after + resume_after,
                                set_stall, False)

        kernel.add_job_hook(nodes[hook_node % len(nodes)], hook)
    shown = []
    for horizon in horizons:
        kernel.run(horizon)
        shown.append({
            "records": [job_fields(r) for r in kernel.records],
            "views": {node: kernel.bus.snapshot(node) for node in nodes},
            "bus": (kernel.bus.messages_sent, kernel.bus.cross_node_messages),
            "jitter": kernel.jitter.export_records(),
            "schedulers": [(kernel._nodes[node].scheduler.preemptions,
                            kernel._nodes[node].scheduler.jobs_completed)
                           for node in nodes],
            "kernel": (kernel.deadline_misses, kernel.jobs_skipped,
                       kernel.releases, kernel.sim.now),
        })
    return shown, kernel.sim.executed_events


#: short periods let a node's jobs end exactly at the next release or
#: miss; long ones leave quiet windows
PERIODS = [12, 16, 20, 200, 300, 400]

_profile = st.tuples(
    st.sampled_from(PERIODS),
    st.sampled_from([0, 0, 4, 9, 50]),         # offset
    st.one_of(st.just(10_000),                 # deadline = period
              st.integers(1, 40)),             # short enough to miss
)
_actor = st.tuples(
    st.integers(0, 2),                         # node
    st.integers(0, 2),                         # timing profile
    st.sampled_from([1, 1, 1, 2]),             # priority
    st.one_of(st.none(), st.integers(0, 8)),   # consumed signal
    st.integers(0, 2),                         # extra gain stages
)
_load = st.tuples(st.integers(0, 2), st.sampled_from([15, 150, 350]),
                  st.integers(1, 12), st.integers(0, 3),
                  st.sampled_from([0, 5]))
_halt = st.tuples(st.integers(0, 2), st.integers(1, 12),
                  st.sampled_from(PERIODS + [100, 50]),
                  st.sampled_from(PERIODS), st.integers(0, 2))
_case = st.tuples(
    st.lists(_profile, min_size=1, max_size=3),
    st.lists(_actor, min_size=1, max_size=6),
    st.sampled_from([True, True, True, False]),           # latched
    st.sampled_from([100, 100, 0, 7]),                    # net delay
    st.one_of(st.just([]), st.lists(_load, max_size=2)),
    st.one_of(st.none(), _halt),
    st.tuples(st.integers(300, 1200), st.integers(1200, 2500)),
)


# Demands: 5, 7 and 10 us for an actor with no input and 0, 1 or 2
# gain stages; 6, 9 and 12 us for one with an input.
_ONE = [(200, 0, 10_000)]
_QUIET = (True, 100, [], None, (500, 1000))


class TestGeneratedTaskSets:
    @settings(max_examples=150, deadline=None)
    @given(_case)
    # a node's second completion ties another node's first: the first
    # was scheduled at its release, the second only at the completion
    # before it, so the first goes first
    @example((_ONE, [(0, 0, 1, None, 0), (0, 0, 1, None, 0),
                     (1, 0, 1, None, 2)]) + _QUIET)
    # two nodes' first completions tie: node0's was scheduled at its
    # last release (a2), after node1's (a1)
    @example((_ONE, [(0, 0, 1, None, 0), (1, 0, 1, None, 0),
                     (0, 0, 1, 0, 0)]) + _QUIET)
    # deadline = period = the node's whole demand: the low-priority job
    # would end exactly at the next release, which preempts it
    @example(([(10, 0, 10_000)], [(0, 0, 1, None, 0),
                                  (0, 0, 2, None, 0)],
              True, 100, [], None, (95, 200)))
    # node0's job that outranks the other ends exactly at the next
    # release, between the two members: the first member's release must
    # reach the scheduler at once (its node is busy) and push that
    # completion behind every release of the instant
    @example(([(10, 0, 10_000)], [(0, 0, 2, None, 0),
                                  (0, 0, 1, None, 2)],
              True, 100, [], None, (95, 200)))
    # another group is released inside the window, and its job ties
    # the window's last completion
    @example(([(200, 0, 10_000), (200, 5, 10_000)],
              [(0, 0, 1, None, 0), (0, 0, 1, None, 0),
               (1, 1, 1, None, 0)]) + _QUIET)
    # a missed job held by a scheduler ties an inline completion
    @example(([(200, 0, 3), (200, 2, 10_000)],
              [(1, 0, 1, None, 1), (0, 1, 1, None, 0)]) + _QUIET)
    # a halt scheduled from a0's first release lands between a0 and a1
    # one period later
    @example((_ONE, [(0, 0, 1, None, 0), (0, 0, 1, None, 0),
                     (1, 0, 1, None, 0)],
              True, 100, [], (0, 1, 200, 400, 0), (500, 1000)))
    def test_group_entries_match_per_job_reference(self, case):
        fast, fast_events = kernel_run(case)
        with reference_event_paths():
            ref, ref_events = kernel_run(case)
        assert fast == ref
        assert fast_events <= ref_events
        event("inline" if fast_events < ref_events else "per-job")


class TestSameInstantOrders:
    def test_consumer_sees_value_published_at_t_only_at_t_plus_period(self):
        """Producer and consumer share one node and one period, with
        deadline = period: the producer's value of the job released at
        0 is published at P, after the consumer's release at P latched
        its input, so the consumer reads it at 2P."""
        period = 1000
        profiles = [(period, 0, period)]
        actors = [(0, 0, 1, None, 0),    # a0 produces s0
                  (0, 0, 1, 0, 0)]       # a1 consumes s0
        system = build_system(profiles, actors)
        firmware = generate_firmware(system, InstrumentationPlan.none())
        for paths in (None, reference_event_paths):
            if paths is None:
                kernel = DtmKernel(system, firmware)
            else:
                with paths():
                    kernel = DtmKernel(system, firmware)
                    kernel.start()
            latched = []
            cell = firmware.symbols.addr_of("a1.in.x")
            board = kernel.board_of("node0")
            kernel.add_job_hook("node0", lambda t, m=board.memory:
                                latched.append((t, m.peek(cell))))
            kernel.run(3 * period)
            published = {(rel, pub) for rel, pub in
                         kernel.jitter.export_records()["s0"]}
            # a0's first job (released at 0) publishes at P
            assert (0, period) in published
            # a1's hook runs after its latch: 0 at 0 and at P, the
            # value published at P only from 2P on
            a1 = latched[1::2]
            assert [t for t, _ in a1] == [0, period, 2 * period,
                                          3 * period]
            assert a1[0][1] == 0 and a1[1][1] == 0
            assert a1[2][1] != 0

    def test_inline_completion_past_the_horizon_stays_out_of_records(self):
        """Stopped one microsecond before and at each completion of the
        jobs released at 20 ms, the records hold exactly the jobs done by
        then, and the schedulers count exactly those."""
        system = cruise_control_system()
        firmware = generate_firmware(system, InstrumentationPlan.none())
        full = DtmKernel(system, firmware)
        full.run(ms(40) - 1)
        completions = sorted({r.completion for r in full.records
                              if r.release == ms(20)})
        assert completions and completions[-1] < ms(40)
        kernel = DtmKernel(system, firmware)
        for horizon in [c + d for c in completions for d in (-1, 0)]:
            kernel.run(horizon)
            expected = [job_fields(r) for r in full.records
                        if r.completion <= horizon]
            assert [job_fields(r) for r in kernel.records] == expected
            assert sum(kernel._nodes[node].scheduler.jobs_completed
                       for node in system.nodes()) == len(expected)

    @pytest.mark.parametrize("latched", [True, False])
    def test_cruise_matches_reference_with_a_node_busy(self, latched):
        """A load task on node1 shares a node with the cruise group, so
        every instant releases each member to its node scheduler."""
        def run():
            system = cruise_control_system()
            firmware = generate_firmware(system, InstrumentationPlan.none())
            kernel = DtmKernel(system, firmware, latched=latched)
            kernel.add_load_task(LoadTask("noise", "node1", 3000, 700, 0))
            kernel.run(ms(20) * 20)
            return ([job_fields(r) for r in kernel.records],
                    kernel.jitter.export_records(),
                    [(kernel._nodes[n].scheduler.preemptions,
                      kernel._nodes[n].scheduler.jobs_completed)
                     for n in system.nodes()])
        fast = run()
        with reference_event_paths():
            ref = run()
        assert fast == ref
