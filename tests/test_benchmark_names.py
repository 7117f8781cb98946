"""Every harmgerm name that the benchmark in `perfbench/` reads still exists,
so a library change that drops one fails here, not as a failed benchmark
run. The names come from the benchmark's sources: what they import from
harmgerm, each attribute they read off a `harmgerm` name, and the modules
and functions that `perfbench/spans.py` wraps and counts."""

import ast
import importlib
import importlib.util
import types
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def resolve(dotted):
    """The object a dotted harmgerm name stands for, importing submodules on the way."""
    parts = dotted.split(".")
    obj = importlib.import_module(parts[0])
    for i, part in enumerate(parts[1:], 2):
        if isinstance(obj, types.ModuleType) and not hasattr(obj, part):
            importlib.import_module(".".join(parts[:i]))
        obj = getattr(obj, part)
    return obj


def missing(names):
    absent = []
    for name in sorted(names):
        try:
            resolve(name)
        except (ImportError, AttributeError):
            absent.append(name)
    return absent


def attribute_chain(node):
    """The dotted name of an expression harmgerm.a.b, or None for any other node."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name) and node.id == "harmgerm" and parts:
        return ".".join(["harmgerm", *reversed(parts)])
    return None


def test_imports_and_attributes_exist():
    names = set()
    for path in sorted(PERFBENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "harmgerm":
                names.update(f"{node.module}.{alias.name}" for alias in node.names)
            elif isinstance(node, ast.Import):
                names.update(alias.name for alias in node.names if alias.name.split(".")[0] == "harmgerm")
            elif isinstance(node, ast.Attribute) and attribute_chain(node):
                names.add(attribute_chain(node))
    # the workloads' reads through the package and the CLI shim's entry point
    assert {"harmgerm.reduce_germ", "harmgerm.cli.main"} <= names
    assert missing(names) == []


def test_wrapped_and_counted_functions_exist():
    spec = importlib.util.spec_from_file_location("spans", PERFBENCH / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    layers = {layer: f"harmgerm.{layer}" for layer in spans.LAYER_MODULES}
    layers["kernels"] = spans.KERNEL_MODULE
    names = set(layers.values())
    for key in [*spans.COUNTERS, *spans.CACHED]:
        layer, _, fname = key.partition(".")
        names.add(f"{layers[layer]}.{fname}")
    assert missing(names) == []
    for layer, fname in spans.CACHED.values():
        assert callable(resolve(f"harmgerm.{layer}.{fname}").cache_info)
    # spans.py rebinds WitnessChain.__dict__["verify"]
    assert "verify" in resolve("harmgerm.equivalence.WitnessChain").__dict__
