"""The package's public names resolve.

A function deleted from its module but left in ``mvdr.__all__`` would
otherwise fail only when a caller imports it.
"""

import importlib


def test_every_export_resolves():
    mvdr = importlib.import_module("mvdr")
    assert len(set(mvdr.__all__)) == len(mvdr.__all__)
    assert [name for name in mvdr.__all__ if not hasattr(mvdr, name)] == []


def test_star_import():
    namespace: dict = {}
    exec("from mvdr import *", namespace)
    assert set(importlib.import_module("mvdr").__all__) <= namespace.keys()
