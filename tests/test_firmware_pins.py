"""Pins every example system's generated firmware image by sha256.

The digest covers everything the model-to-code transformation produces:
the code as ``(op, arg)`` pairs, the task entries, the initialised-data
image, the symbols in allocation order and the wire-id path table. A change
to block lowering, symbol allocation or instrumentation that moves any byte
of any example image fails here, so deleting lowering code that no example
reaches can be shown to leave every image identical.
"""

import hashlib
import json

import pytest

from repro.codegen import InstrumentationPlan, generate_firmware
from repro.comdes.examples import (
    blinker_system, cruise_control_system, production_cell_system,
    traffic_light_system,
)

SYSTEMS = {
    "blinker": blinker_system,
    "traffic": traffic_light_system,
    "cruise": cruise_control_system,
    "cell": production_cell_system,
}

PLANS = {
    "full": InstrumentationPlan.full,
    "none": InstrumentationPlan.none,
}

EXPECTED = {
    ("blinker", "full"):
        "3ff92b323cb90fefda1ab1cbaad68cacbd1e7fb5e5c6e2a97b544c90771e7f59",
    ("blinker", "none"):
        "9392efda911b28200feb419b65ee535bcf2420d4dfe218a264e7b3831a749e31",
    ("traffic", "full"):
        "1ea199cd80f6f6f3c289c14d3d324759414c8cdd4a18bd773f18533257a07d7e",
    ("traffic", "none"):
        "0444d519ae210521912c352348d33756fcc9cd70c495d465988368b330d03d8a",
    ("cruise", "full"):
        "44ed5d808763a0162b660df6ab0073543386834a4cacc274fc741360fdc3b892",
    ("cruise", "none"):
        "694dc6b1b69a366f47de300059a908105ca492f4df78aedbfb33bf465c75f78b",
    ("cell", "full"):
        "e8514b1b61cd9c3571dc2faebdb385a1a9e1803d2aa192f7f07893fcae0d8aa2",
    ("cell", "none"):
        "498a083709c2102c85454b673a1c54c7eccabf9e246ece85afad1d6b4c9a5c51",
}


def image_digest(firmware) -> str:
    """sha256 of a canonical JSON encoding of *firmware*'s contents."""
    image = {
        "code": [[instr.op, instr.arg] for instr in firmware.code],
        "entries": sorted(firmware.entries.items()),
        "data_init": sorted(firmware.data_init.items()),
        "symbols": [[s.name, s.addr, s.kind]
                    for s in firmware.symbols.symbols()],
        "path_table": sorted(firmware.path_table.items()),
    }
    encoded = json.dumps(image, separators=(",", ":")).encode()
    return hashlib.sha256(encoded).hexdigest()


@pytest.mark.parametrize("system,plan", sorted(EXPECTED))
def test_example_firmware_is_pinned(system, plan):
    firmware = generate_firmware(SYSTEMS[system](), PLANS[plan]())
    assert image_digest(firmware) == EXPECTED[(system, plan)]
