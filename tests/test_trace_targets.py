"""The benchmark's tracer wraps polyspec functions and methods by name.

A rename in polyspec would otherwise break only the traced benchmark runs,
so this reads the tracer's target tables, without changing them, and
checks that every named attribute still exists where the tracer looks,
and that the pipeline reaches the traced functions through those names.
"""

import importlib
import importlib.util
from pathlib import Path

from polyspec.grids import DomainSpec
from polyspec.harness import RunConfig, evaluate_bounds_on_list, run
from polyspec.oracles import interval_eigenvalues

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


def test_pipeline_calls_traced_functions_through_their_module(monkeypatch):
    # the tracer swaps module attributes, so a function object captured at
    # import time would run without its span
    tracing = tracing_module()
    targets = [(module, name) for module, name in tracing.FUNCTIONS
               if module in ("polyspec.identities", "polyspec.bounds")]
    called = set()

    def spy(key, func):
        def wrapper(*args, **kwargs):
            called.add(key)
            return func(*args, **kwargs)
        return wrapper

    for module, name in targets:
        owner = importlib.import_module(module)
        monkeypatch.setattr(owner, name, spy((module, name), getattr(owner, name)))
    run(RunConfig(domain=DomainSpec.with_points("rectangle", [1.0, 1.0], [20, 20]),
                  k=3, seed=1))
    evaluate_bounds_on_list(interval_eigenvalues(12), l=1, n=1)
    # has_zero_gap is public API; the pipeline reads its shared list's mask
    assert set(targets) - called == {("polyspec.bounds", "has_zero_gap")}
