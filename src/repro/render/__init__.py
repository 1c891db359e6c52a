"""Headless rendering: scene graph, layouts, SVG and ASCII backends.

Stands in for the Eclipse GEF canvas of the prototype. Every figure-like
artifact in the reproduction (model diagrams, animation frames, timing
diagrams, the abstraction-guide "screenshot") is produced through this
package, so experiments can both save SVGs and assert on ASCII output.
"""
