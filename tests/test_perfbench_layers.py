"""Every package function that the benchmark's tracer wraps still exists.

``perfbench/tracing.py`` wraps functions by (module, name) from outside the
package. A renamed or deleted function would otherwise only fail a
``--trace 1`` benchmark run.
"""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _layers() -> dict:
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.LAYERS


def test_every_traced_function_resolves():
    layers = _layers()
    assert layers
    missing = [
        f"{module_name}.{function}"
        for module_name, entries in layers.items()
        for function, *_ in entries
        if not callable(getattr(importlib.import_module(module_name), function, None))
    ]
    assert missing == []
