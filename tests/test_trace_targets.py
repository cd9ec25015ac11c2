"""The benchmark's tracer wraps polyspec functions and methods by name.

A rename in polyspec would otherwise break only the traced benchmark runs,
so this reads the tracer's target tables, without changing them, and
checks that every named attribute still exists where the tracer looks.
"""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def tracing_module():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_functions_and_methods_exist():
    tracing = tracing_module()
    assert tracing.FUNCTIONS and tracing.METHODS
    missing = [f"{module}.{name}" for module, name in tracing.FUNCTIONS
               if not callable(getattr(importlib.import_module(module), name, None))]
    for module, cls_name, attr in tracing.METHODS:
        cls = getattr(importlib.import_module(module), cls_name, None)
        # the tracer replaces the entry of the class's own namespace
        if cls is None or attr not in vars(cls):
            missing.append(f"{module}.{cls_name}.{attr}")
    assert missing == []
