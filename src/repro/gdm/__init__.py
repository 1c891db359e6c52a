"""The Graphical Debugger Model (GDM) — GMDF's core.

From the paper: the GDM is built from the user's input (meta)model through
an **abstraction** step (a user-specified mapping from metamodel elements to
graphical patterns, Fig 4), carries **command bindings** (which command
triggers which reaction, Fig 6 step 4), and is animated by the runtime
engine as an event-driven state machine (Fig 3).
"""
