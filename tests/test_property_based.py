"""Property-based tests (hypothesis) on the core invariants.

* compiled expressions == interpreted expressions, on random ASTs;
* the TAP controller obeys the IEEE 1149.1 reset property;
* frame codec round-trips under arbitrary chunking and survives noise;
* random chain machines: firmware == interpreter;
* model serialization round-trips;
* the preemptive scheduler conserves demand.
"""

from hypothesis import given, settings, strategies as st

from repro.codegen.instrument import InstrumentationPlan
from repro.codegen.lower_expr import lower_expr
from repro.codegen.pipeline import generate_firmware, run_firmware_lockstep
from repro.comdes.expr import Binary, Const, Unary, Var
from repro.comm.frames import FrameDecoder, encode_frame
from repro.comm.jtag import TAP_TRANSITIONS, TapController, TapState
from repro.experiments.workloads import chain_system
from repro.rtos.scheduler import NodeScheduler
from repro.rtos.task import ActiveJob
from repro.sim.kernel import Simulator
from repro.target.assembler import Assembler
from repro.target.board import Board, DebugPort
from repro.target.cpu import Cpu
from repro.target.memory import MemoryMap, RAM_BASE

VAR_NAMES = ("a", "b", "c")

# Division/modulo excluded from generated ops: random operands hit the
# divide-by-zero trap (interpreter raises ZeroDivisionError, CPU TargetFault
# — both refuse, but the equivalence test wants total functions).
SAFE_BINARY_OPS = ("add", "sub", "mul", "min", "max", "and", "or",
                   "eq", "ne", "lt", "le", "gt", "ge")


def expr_strategy(depth: int = 3):
    leaf = st.one_of(
        st.integers(min_value=-2**31, max_value=2**31 - 1).map(Const),
        st.sampled_from(VAR_NAMES).map(Var),
    )
    if depth == 0:
        return leaf
    sub = expr_strategy(depth - 1)
    return st.one_of(
        leaf,
        st.tuples(st.sampled_from(SAFE_BINARY_OPS), sub, sub)
          .map(lambda t: Binary(*t)),
        st.tuples(st.sampled_from(("neg", "not")), sub)
          .map(lambda t: Unary(*t)),
    )


class TestExpressionEquivalence:
    @given(expr=expr_strategy(),
           env_values=st.tuples(*[st.integers(min_value=-2**31, max_value=2**31 - 1)
                                  for _ in VAR_NAMES]))
    @settings(max_examples=200, deadline=None)
    def test_compiled_equals_interpreted(self, expr, env_values):
        env = dict(zip(VAR_NAMES, env_values))
        memory = MemoryMap(64)
        addresses = {}
        for i, name in enumerate(VAR_NAMES):
            addresses[name] = RAM_BASE + i
            memory.poke(RAM_BASE + i, env[name])
        asm = Assembler()
        lower_expr(asm, expr, lambda n: addresses[n])
        asm.emit("STORE", RAM_BASE + 60)
        asm.emit("HALT")
        cpu = Cpu(memory, stack_depth=256)
        cpu.load(asm.assemble())
        cpu.reset_task(0)
        cpu.run()
        assert memory.peek(RAM_BASE + 60) == expr.eval(env)


class TestTapProperties:
    @given(walk=st.lists(st.tuples(st.integers(0, 1), st.integers(0, 1)),
                         max_size=120))
    @settings(max_examples=150, deadline=None)
    def test_five_tms_ones_always_reach_reset(self, walk):
        tap = TapController(DebugPort(Board()))
        for tms, tdi in walk:
            tap.drive(tms, tdi)
        for _ in range(5):
            tap.drive(1)
        assert tap.state is TapState.TEST_LOGIC_RESET

    @given(walk=st.lists(st.integers(0, 1), max_size=200))
    @settings(max_examples=100, deadline=None)
    def test_transition_table_is_total(self, walk):
        tap = TapController(DebugPort(Board()))
        for tms in walk:
            previous = tap.state
            tap.drive(tms)
            assert tap.state is TAP_TRANSITIONS[previous][tms]

    def test_every_state_reachable(self):
        # BFS over the transition relation covers all 16 states.
        seen = {TapState.TEST_LOGIC_RESET}
        frontier = [TapState.TEST_LOGIC_RESET]
        while frontier:
            state = frontier.pop()
            for nxt in TAP_TRANSITIONS[state]:
                if nxt not in seen:
                    seen.add(nxt)
                    frontier.append(nxt)
        assert seen == set(TapState)

    @given(values=st.lists(st.integers(min_value=-2**31, max_value=2**31 - 1),
                           min_size=1, max_size=24),
           start=st.integers(0, 8))
    @settings(max_examples=60, deadline=None)
    def test_block_read_equals_per_word_reads(self, values, start):
        # A BLOCKREAD of N words is observationally identical to N
        # MEMADDR+MEMREAD round trips: same values, same final address.
        from repro.comm.jtag import JtagProbe
        board = Board()
        base = RAM_BASE + start
        for offset, value in enumerate(values):
            board.memory.poke(base + offset, value)
        block_probe = JtagProbe(TapController(DebugPort(board)))
        block_values, _ = block_probe.read_scatter_timed(
            [base + offset for offset in range(len(values))])
        word_probe = JtagProbe(TapController(DebugPort(board)))
        word_values = [word_probe.read_word_timed(base + offset)[0]
                       for offset in range(len(values))]
        assert block_values == word_values == values

    @given(addrs=st.lists(st.integers(0, 40), min_size=1, max_size=32))
    @settings(max_examples=60, deadline=None)
    def test_scatter_read_aligns_with_request_order(self, addrs):
        from repro.comm.jtag import JtagProbe
        board = Board()
        for offset in range(41):
            board.memory.poke(RAM_BASE + offset, offset * 7 - 140)
        probe = JtagProbe(TapController(DebugPort(board)))
        request = [RAM_BASE + a for a in addrs]
        values, _ = probe.read_scatter_timed(request)
        assert values == [board.memory.peek(a) for a in request]

    @given(walk=st.lists(st.tuples(st.integers(0, 1), st.integers(0, 1)),
                         max_size=60))
    @settings(max_examples=100, deadline=None)
    def test_five_tms_reset_holds_mid_block_read(self, walk):
        # The reset property must survive the new DR: load BLOCKREAD,
        # wander anywhere (mid-shift included), then 5x TMS=1 resets.
        from repro.comm.jtag import Instruction, JtagProbe
        board = Board()
        tap = TapController(DebugPort(board))
        probe = JtagProbe(tap)
        probe.shift_ir(Instruction.BLOCKREAD)
        for tms, tdi in walk:
            tap.drive(tms, tdi)
        for _ in range(5):
            tap.drive(1)
        assert tap.state is TapState.TEST_LOGIC_RESET
        assert tap.ir == int(Instruction.IDCODE)


class TestFrameProperties:
    @given(commands=st.lists(
        st.tuples(st.integers(1, 255), st.integers(0, 0xFFFF),
                  st.integers(-2**31, 2**31 - 1)),
        min_size=1, max_size=20,
    ), chunk=st.integers(1, 7))
    @settings(max_examples=100, deadline=None)
    def test_roundtrip_under_arbitrary_chunking(self, commands, chunk):
        stream = b"".join(encode_frame(*c) for c in commands)
        decoder = FrameDecoder()
        decoded = []
        for i in range(0, len(stream), chunk):
            decoded.extend(decoder.feed(stream[i:i + chunk]))
        assert decoded == list(commands)
        assert decoder.checksum_errors == 0

    @given(noise=st.binary(max_size=30),
           command=st.tuples(st.integers(1, 255), st.integers(0, 0xFFFF),
                             st.integers(-2**31, 2**31 - 1)))
    @settings(max_examples=100, deadline=None)
    def test_decoder_resynchronizes_after_noise(self, noise, command):
        decoder = FrameDecoder()
        decoder.feed(noise)
        # Flush ambiguity: a partial noise prefix may swallow up to one
        # frame's worth of bytes, so send the real frame twice.
        frame = encode_frame(*command)
        decoded = decoder.feed(frame + frame)
        assert command in decoded


class TestChainSystemsProperty:
    @given(n_states=st.integers(2, 12), dwell=st.integers(1, 3),
           rounds=st.integers(1, 40))
    @settings(max_examples=25, deadline=None)
    def test_firmware_equals_interpreter_on_random_chains(self, n_states,
                                                          dwell, rounds):
        system = chain_system(n_states, dwell=dwell)
        firmware = generate_firmware(system, InstrumentationPlan.full())
        assert (run_firmware_lockstep(system, firmware, rounds)
                == system.lockstep_run(rounds))


class TestSchedulerProperties:
    @given(jobs=st.lists(
        st.tuples(st.integers(0, 500),      # release offset
                  st.integers(1, 50),       # demand
                  st.integers(0, 3)),       # priority
        min_size=1, max_size=12,
    ))
    @settings(max_examples=60, deadline=None)
    def test_demand_is_conserved_and_completions_ordered(self, jobs):
        sim = Simulator()
        scheduler = NodeScheduler(sim, "n")
        completions = []
        for index, (offset, demand, priority) in enumerate(jobs):
            def make(idx, dem):
                return lambda t: completions.append((idx, dem, t))
            def release(idx=index, dem=demand, prio=priority):
                job = ActiveJob(f"j{idx}", prio, sim.now, sim.now + 10_000,
                                dem, on_complete=make(idx, dem))
                scheduler.release(job)
            sim.schedule_at(offset, release)
        sim.run_until(100_000)
        # Every job completes exactly once.
        assert len(completions) == len(jobs)
        # Total busy time equals total demand: the last completion can be
        # no earlier than the max of (release + own demand) and no earlier
        # than total demand after the first release.
        total_demand = sum(d for _, d, _ in jobs)
        first_release = min(o for o, _, _ in jobs)
        last_completion = max(t for _, _, t in completions)
        assert last_completion >= first_release + max(
            0, total_demand - 1)  # contiguous backlog lower bound is loose
        for idx, demand, t in completions:
            offset = jobs[idx][0]
            assert t >= offset + demand  # nobody finishes before its demand
