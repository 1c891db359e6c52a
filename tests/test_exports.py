"""Every name a ``repro`` module lists in ``__all__`` must resolve.

A stale entry breaks ``from <module> import *`` at import time, and no
test that imports names one by one would notice it.
"""

import importlib
import pkgutil

import repro


def _modules():
    yield repro
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        yield importlib.import_module(info.name)


def test_every_exported_name_resolves():
    stale = []
    checked = 0
    for module in _modules():
        for name in getattr(module, "__all__", ()):
            checked += 1
            if not hasattr(module, name):
                stale.append(f"{module.__name__}.{name}")
    assert checked > 0
    assert stale == []

