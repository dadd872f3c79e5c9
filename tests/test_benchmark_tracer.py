"""The benchmark tracer wraps pada functions by name; every name must exist."""

import importlib
import importlib.util
import os

TRACER = os.path.join(os.path.dirname(__file__), "..", "benchmarks", "tracer.py")


def test_every_traced_function_is_an_attribute_of_its_layer():
    spec = importlib.util.spec_from_file_location("benchmark_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = [
        f"pada.{layer}.{name}"
        for layer, names in tracer.TRACED.items()
        for name in names
        if not hasattr(importlib.import_module(f"pada.{layer}"), name)
    ]
    assert missing == []
