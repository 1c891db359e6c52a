"""Gate: fail if any benchmark fell below its recorded floor.

Reads ``FLOORS.json`` and checks each entry against the matching
``BENCH_*.json`` scoreboard (or ``BENCH_*_quick.json`` with ``--quick``,
the CI smoke files). Floors assert a minimum on a measured rate;
ceilings assert a maximum on a modeled cost. Exits non-zero listing
every violation, so CI turns a perf regression into a red build.

Every entry names its ``kind``: ``"deterministic"`` (a count or a
modeled figure, the same on any host: calls per job, dispatches per
activation, parity flags) or ``"wall"`` (timed, so host noise moves
it). An entry without one fails the gate, and every verdict prints its
kind, so a red build says at once whether noise could be the cause.

Usage::

    python benchmarks/check_floors.py           # check full-run scoreboards
    python benchmarks/check_floors.py --quick   # check CI smoke files
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))

#: what an entry's ``kind`` may say
KINDS = ("deterministic", "wall")


def dig(data, dotted_path: str):
    """Walk a dotted path ('watches.64.polls_per_sec') through dicts."""
    node = data
    for part in dotted_path.split("."):
        node = node[part]
    return node


def check(here: str, quick: bool):
    """Evaluate every FLOORS.json entry; returns (ok_lines, failures).

    Every failure mode is a *clean* entry in ``failures`` — including a
    scoreboard metric that is not a number (``null``, a string, a
    nested object...), which used to escape as an uncaught ``TypeError``
    at the comparison and crash the gate instead of reporting it.
    """
    with open(os.path.join(here, "FLOORS.json"), encoding="utf-8") as handle:
        floors = json.load(handle)

    ok_lines = []
    failures = []
    for name, spec in floors.items():
        kind = spec.get("kind")
        if kind not in KINDS:
            failures.append(f"{name}: kind {kind!r} is not one of "
                            f"{', '.join(KINDS)}")
            continue
        stem = spec.get("file", name)
        filename = f"{stem}_quick.json" if quick else f"{stem}.json"
        path = os.path.join(here, filename)
        if not os.path.exists(path):
            failures.append(f"{name}: scoreboard {filename} missing")
            continue
        with open(path, encoding="utf-8") as handle:
            data = json.load(handle)
        try:
            value = dig(data, spec["metric"])
        except (KeyError, TypeError):
            failures.append(f"{name}: metric {spec['metric']!r} "
                            f"not found in {filename}")
            continue
        if not isinstance(value, (int, float)):
            # bool is numeric enough (parity flags compare fine); None,
            # strings and containers would TypeError at the comparisons
            failures.append(f"{name}: metric {spec['metric']} is "
                            f"non-numeric ({value!r})")
            continue
        if "floor" not in spec and "ceiling" not in spec:
            failures.append(f"{name}: spec has neither floor nor ceiling")
            continue
        violated = False
        if "floor" in spec and value < spec["floor"]:
            failures.append(f"{name} [{kind}]: {spec['metric']} = {value} "
                            f"below floor {spec['floor']}")
            violated = True
        if "ceiling" in spec and value > spec["ceiling"]:
            failures.append(f"{name} [{kind}]: {spec['metric']} = {value} "
                            f"above ceiling {spec['ceiling']}")
            violated = True
        if not violated:
            bounds = ", ".join(f"{key} {spec[key]}"
                               for key in ("floor", "ceiling") if key in spec)
            ok_lines.append(f"ok: {name} [{kind}] {spec['metric']} = "
                            f"{value} ({bounds})")
    return ok_lines, failures


def main() -> int:
    quick = "--quick" in sys.argv
    ok_lines, failures = check(HERE, quick)
    for line in ok_lines:
        print(line)
    if failures:
        for failure in failures:
            print(f"FLOOR VIOLATION - {failure}", file=sys.stderr)
        return 1
    print("all benchmark floors hold")
    return 0


if __name__ == "__main__":
    sys.exit(main())
