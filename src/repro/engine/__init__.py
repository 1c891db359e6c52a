"""The runtime debugger engine.

"A runtime engine first takes a debug model as input and displays it
graphically. Next, the engine implemented as an event-driven state machine
waits for commands sent by the target embedded code. Once an event arrives,
it performs corresponding actions (e.g. an animation) and other graphical
model debugger functionalities." (paper §II)

This package adds the surrounding functionality the paper lists: model-level
breakpoints and step-wise execution, execution-trace recording, replay with
a timing diagram, and requirement monitors that turn "actions not consistent
with system requirements" into bug reports.
"""
