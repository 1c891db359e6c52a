"""Tests for the fluent system builder."""

import pytest

from repro.codegen.instrument import InstrumentationPlan
from repro.codegen.pipeline import generate_firmware
from repro.comdes.blocks import GainFB, SequenceFB
from repro.comdes.builder import SystemBuilder
from repro.comdes.examples import traffic_light_machine, traffic_light_system
from repro.errors import ModelError, ValidationError
from repro.util.timeunits import ms


def built_traffic_light():
    return (SystemBuilder("built_light")
            .signal("btn")
            .signal("light")
            .actor("pedestrian", period_us=ms(100))
                .block(SequenceFB("script", values=[0] * 6 + [1]))
                .writes("btn", from_="script.y")
            .done()
            .actor("lights", period_us=ms(100))
                .machine("lamp", traffic_light_machine())
                .reads("btn", into="lamp.btn")
                .writes("light", from_="lamp.light")
            .done()
            .build())


class TestSystemBuilder:
    def test_builder_system_matches_handwritten(self):
        built = built_traffic_light()
        handwritten = traffic_light_system()
        assert (built.lockstep_run(30)
                == handwritten.lockstep_run(30))

    def test_priorities_default_to_declaration_order(self):
        system = built_traffic_light()
        assert system.actor("pedestrian").task.priority == 1
        assert system.actor("lights").task.priority == 2

    def test_wire_and_fan_out(self):
        system = (SystemBuilder("fan")
                  .signal("u").signal("a").signal("b")
                  .actor("stim", period_us=1000)
                      .block(SequenceFB("s", values=[5]))
                      .writes("u", from_="s.y")
                  .done()
                  .actor("proc", period_us=1000)
                      .block(GainFB("g1", num=2))
                      .block(GainFB("g2", num=3))
                      .reads("u", into="g1.u")
                      .reads("u", into="g2.u")
                      .writes("a", from_="g1.y")
                      .writes("b", from_="g2.y")
                  .done()
                  .build())
        history = system.lockstep_run(3)
        assert history[-1]["a"] == 10 and history[-1]["b"] == 15

    def test_duplicate_output_rejected(self):
        builder = (SystemBuilder("dup").signal("x")
                   .actor("a", period_us=1000)
                   .block(SequenceFB("s", values=[1]))
                   .writes("x", from_="s.y"))
        with pytest.raises(ModelError):
            builder.writes("x", from_="s.y")

    def test_build_validates(self):
        builder = SystemBuilder("bad").signal("orphan")
        with pytest.raises(ValidationError):
            builder.build()

    def test_generated_firmware_equivalence(self):
        from repro.codegen.pipeline import run_firmware_lockstep
        system = built_traffic_light()
        firmware = generate_firmware(system, InstrumentationPlan.full())
        assert (run_firmware_lockstep(system, firmware, 40)
                == system.lockstep_run(40))
