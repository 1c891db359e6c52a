"""Pins the sha256 of every paper artifact.

Each experiment test writes its tables and figures through
:func:`~repro.experiments.harness.save_artifact`; wall-clock timings are
printed, never saved, so every artifact regenerates byte for byte. Here
every such test is run again into a fresh directory, with a benchmark
fixture that calls its subject once, and each file it writes is
compared with its pin. Each test runs at most once per module, on first
demand, so the check does not depend on which tests ran before it, and
a change that moves any byte of a figure or a modeled-time table fails
here. (``test_obs_artifacts.py`` pins the two observability exemplars.)
A deliberate change to an artifact re-pins it here.
"""

import hashlib
import importlib
import os

import pytest

#: artifact file -> (``module::test`` that writes it, sha256 of its bytes)
PINS = {
    "ablation_classifier.txt": (
        "test_ablation_classifier::test_ablation_bug_classification",
        "73e988e77b688098e20d576cc857af908f1ee070946991490efb84b332dc17af"),
    "ablation_noise.txt": (
        "test_ablation_noise::test_ablation_line_noise",
        "0504ea29a3f335360c81ee6a5b7c7a49b63f5c3f31e71965f988f5efc6efb5f1"),
    "e10_replay.txt": (
        "test_e10_replay::test_e10_trace_replay_timing_diagram",
        "514332decbcea4ce56d844f65d5f4a059e916f3a7dee1578e502255d7d64961a"),
    "e10_timing_diagram.svg": (
        "test_e10_replay::test_e10_trace_replay_timing_diagram",
        "d6b6a30651c71e224abf2b599f368858c9663adcfbe3ce3fd9351b75771c54c4"),
    "e10_timing_diagram.txt": (
        "test_e10_replay::test_e10_trace_replay_timing_diagram",
        "e1bafc62f759ca04e74eb970a8c4c29157ee845ee3ba38a67400c76205f522f2"),
    "e1_pipeline.txt": (
        "test_e1_pipeline::test_e1_pipeline_stages",
        "97365871241caa2086afd0835b285ac212d264192c4d5586d9dee150d7ba7273"),
    "e2_channels.txt": (
        "test_e2_command_channels::test_e2_channel_latency",
        "94d2c8ff251bdffc65da7f4af136f39d31f609aa66b844628813f2b1b836d6ea"),
    "e3_gdm_engine.txt": (
        "test_e3_gdm_engine::test_e3_engine_dispatch_scaling",
        "9ba3ac10d2ae10459de033c8e40d5fcbb81f68e78358cb0559bda328ecf46c11"),
    "e4_abstraction.txt": (
        "test_e4_abstraction::test_e4_abstraction_scaling",
        "bb903fef4790daeb700dd155803086d977f85ccd832bb1b56f68bbd15442fdfe"),
    "e5_animation.txt": (
        "test_e5_animation::test_e5_animation_and_rendering",
        "03ff698ce592ef7e16d69119bf2a240d2902c3e001d64253f1549d134890e434"),
    "e6_command_setup.txt": (
        "test_e6_workflow::test_e6_full_workflow",
        "4dc14a79163de71e2bd261eb3d944d11cf419e5608a00731f496064daf8151c4"),
    "e6_workflow.txt": (
        "test_e6_workflow::test_e6_full_workflow",
        "0cb306ea4bce96677525ae52a0ecd1cdbb6780d657c2e223738f8101df864c26"),
    "e7_overhead.txt": (
        "test_e7_overhead::test_e7_instrumentation_overhead",
        "e50da8d2abf15f2e3475f354d2be9aaf45e80a0ba7e9ea8ecdad6247ad038b4f"),
    "e7_watch_scaling.txt": (
        "test_e7_overhead::test_e7_watch_count_scaling",
        "3b148ea37fec524f618c5831acedca337a2a7bd7ca1a6847416323c18ee3d55d"),
    "e8_jitter.txt": (
        "test_e8_jitter::test_e8_jitter_elimination",
        "b6f90eaf322999f0be217127967eb68e9740546963b05bf8544de0b157c2776b"),
    "e9_detection.txt": (
        "test_e9_detection::test_e9_detection_campaign",
        "dc35fe9cc2bd38466ce88e0f227bdb332d764482e7be4753854eafb59f7ddacf"),
    "fig1_mdd_role.txt": (
        "test_e1_pipeline::test_e1_pipeline_stages",
        "262a53bdc2a06d7cc2422aa041c6e97537424e11daed650586c784f95d8eed81"),
    "fig2_structural_view.txt": (
        "test_e2_command_channels::test_e2_channel_latency",
        "5034beef00f53753bad1647238522f09b050528dffbdbdbb99188c41d1a9525e"),
    "fig3_gdm_metamodel.svg": (
        "test_e3_gdm_engine::test_e3_engine_dispatch_scaling",
        "71825495e4d22dc27ed1b0efc67d995a4cb0678ffe56fee6a2dcd60320daecae"),
    "fig3_gdm_metamodel.txt": (
        "test_e3_gdm_engine::test_e3_engine_dispatch_scaling",
        "5b45271881046c2bfd18d469493013bfa198ea4593ce12b6fcc8448eb456d924"),
    "fig4_abstraction_guide.txt": (
        "test_e4_abstraction::test_e4_abstraction_scaling",
        "0adc5622e3496dbbc689b9d914ee552c8d3a4352edcf1f63a085fa0d90554542"),
    "fig5_animation.svg": (
        "test_e5_animation::test_e5_animation_and_rendering",
        "3453bf4c8cb90fd90e9ae7ef423388a3d0879bc58644a7176d2d1ac5f318c009"),
    "fig5_animation.txt": (
        "test_e5_animation::test_e5_animation_and_rendering",
        "a1ccdbabfdb074b620375505cb5adc7c19e7569afaf3e1dc61a63c08e7cb3313"),
    "fig6_execution_flow.txt": (
        "test_e6_workflow::test_e6_full_workflow",
        "57ab2e5f2a876b0e37134bb0514e43edd6957e93591031b99beda6de6594651b"),
}


def run_once(fn, *args, **kwargs):
    """A ``benchmark`` fixture that calls its subject once."""
    return fn(*args, **kwargs)


@pytest.fixture(scope="module")
def regenerate(tmp_path_factory):
    """``regenerate(producer)``: the directory *producer* wrote its
    artifacts to, running it there on first demand."""
    directories = {}

    def directory(producer):
        if producer not in directories:
            path = tmp_path_factory.mktemp("artifacts")
            module_name, test_name = producer.split("::")
            with pytest.MonkeyPatch.context() as patch:
                patch.setenv("REPRO_ARTIFACTS", str(path))
                test = getattr(importlib.import_module(module_name), test_name)
                test(run_once)
            directories[producer] = path
        return directories[producer]

    return directory


@pytest.mark.parametrize("name", sorted(PINS))
def test_artifact_bytes_are_pinned(name, regenerate):
    producer, expected = PINS[name]
    with open(os.path.join(regenerate(producer), name), "rb") as handle:
        assert hashlib.sha256(handle.read()).hexdigest() == expected
