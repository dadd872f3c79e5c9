"""The benchmark tracer wraps pada functions by name, and the harness reads
pada attributes by name; every name must exist."""

import ast
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


HARNESS = os.path.join(os.path.dirname(__file__), "..", "benchmarks", "harness.py")
HARNESS_LAYERS = ("cli", "config", "metrics", "params", "pruning")


def test_every_layer_attribute_the_harness_reads_exists():
    # the harness reads these outside the tracer, so only a benchmark run would notice a rename
    with open(HARNESS, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    read = {
        (node.value.id, node.attr)
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id in HARNESS_LAYERS
    }
    assert {layer for layer, _ in read} == set(HARNESS_LAYERS)
    missing = [
        f"pada.{layer}.{name}"
        for layer, name in sorted(read)
        if not hasattr(importlib.import_module(f"pada.{layer}"), name)
    ]
    assert missing == []
