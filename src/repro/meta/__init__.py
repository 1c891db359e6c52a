"""A reflective metamodeling framework (EMF/Ecore stand-in).

The paper requires GMDF to "accept all types of system model that follow the
MOF specification": the abstraction engine never sees COMDES classes
directly, only this package's reflective API — metamodels made of
metaclasses with attributes and references, and model objects navigable
through them. COMDES (:mod:`repro.comdes`) and the GDM itself
(:mod:`repro.gdm`) both define their metamodels here.
"""
