"""Property: telemetry never perturbs the system under observation.

The zero-interference invariant of ``repro.obs``: running any workload
with the registry enabled must leave every *observable* output
bit-identical to the disabled run — CPU machine state, emit logs,
fault pcs, session transcripts and campaign fingerprints. Telemetry is
read-only bookkeeping on the side; the moment it changes an outcome it
has become part of the experiment.

Randomized programs reuse the codegen-shaped snippet generator from
``test_superinstructions`` (the same corpus the block rows are proven
against).
"""

from hypothesis import given, settings, strategies as st

from test_superinstructions import (
    RAM_WORDS,
    RUN_LIMIT,
    assemble_program,
    build,
    snap,
    snippets,
)

from repro.comdes.examples import traffic_light_system
from repro.engine.session import DebugSession
from repro.errors import TargetFault
from repro.experiments import (
    traffic_light_code_watches,
    traffic_light_monitor_suite,
)
from repro.faults import run_campaign
from repro.obs import disable, observed
from repro.util.timeunits import ms, sec

cell_value = st.integers(-(2 ** 31), 2 ** 31 - 1)


def run_program(snips, fills):
    """One serial run: final machine state + any fault, per lane."""
    code = assemble_program(snips)
    outcomes = []
    for cells in fills:
        cpu = build(code, fuse=True)
        cpu.memory.cells[:len(cells)] = list(cells)
        try:
            cpu.run(max_instructions=RUN_LIMIT)
            fault = None
        except TargetFault as exc:
            fault = (str(exc), exc.pc)
        outcomes.append((snap(cpu), fault))
    return outcomes


def session_transcript():
    session = DebugSession(traffic_light_system(), channel_kind="passive",
                           poll_period_us=500).setup()
    session.run(ms(600))  # long enough for the polls to see state changes
    return (session.engine.trace.to_dicts(),
            {node: link.stats() for node, link in session.links.items()})


class TestCpuIdentity:
    @settings(max_examples=30, deadline=None)
    @given(snips=snippets, data=st.data())
    def test_observed_run_is_bit_identical(self, snips, data):
        fills = data.draw(st.lists(
            st.lists(cell_value, min_size=RAM_WORDS, max_size=RAM_WORDS),
            min_size=1, max_size=3))
        disable()
        bare = run_program(snips, fills)
        with observed():
            watched = run_program(snips, fills)
        assert watched == bare


class TestSessionIdentity:
    def test_passive_session_transcript_identical(self):
        disable()
        bare = session_transcript()
        with observed():
            watched = session_transcript()
        assert bare[0]  # the poll path delivered commands
        assert watched == bare


class TestCampaignIdentity:
    def test_campaign_fingerprint_identical(self):
        kw = dict(design_kinds=("wrong_target",),
                  impl_kinds=("inverted_branch",), seeds=(1,),
                  duration_us=sec(1))

        def fingerprint():
            result = run_campaign(
                traffic_light_system, traffic_light_monitor_suite,
                traffic_light_code_watches, **kw)
            return result.summary_rows()

        disable()
        bare = fingerprint()
        with observed():
            watched = fingerprint()
        assert watched == bare

