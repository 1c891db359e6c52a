"""GMDF: Graphical Model Debugger Framework for embedded systems.

A full reproduction of Zeng, Guo & Angelov (DATE 2010): model-driven
debugging of embedded software at the *model* level. Each subpackage's
docstring maps its part of the paper to code (``repro.comdes`` the
modeling language, ``repro.gdm`` the debug model, ``repro.engine`` the
runtime engine, ``repro.comm`` the command channels, ``repro.debugger``
the code-level baseline); PAPER.md holds the paper's abstract.

Package ``__init__``s hold only their docstring: import each name from
the module that defines it, so importing one module loads only what it
needs.

Quickstart::

    from repro.comdes.examples import traffic_light_system
    from repro.engine.session import DebugSession
    from repro.util.timeunits import ms

    session = DebugSession(traffic_light_system(), channel_kind="active")
    session.setup().run(ms(100) * 20)
    print(session.snapshot_ascii())      # active state highlighted
    print(session.timing_diagram().render_ascii())
"""

__version__ = "1.0.0"
