"""The benchmark's traced run wraps gstdesign functions by name
(``perfbench/layers.py``); every name it lists must still resolve, so a
refactor that deletes or renames a traced function fails here too."""

import importlib
import importlib.util
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load_layers(monkeypatch):
    # layers.py imports its sibling ``tracer`` as a top-level module
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave perfbench/ untouched
    spec = importlib.util.spec_from_file_location("perfbench_layers", PERFBENCH / "layers.py")
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    return layers


def test_every_benchmark_span_resolves(monkeypatch):
    layers = load_layers(monkeypatch)
    assert layers.FUNCTION_SPANS and layers.METHOD_SPANS
    for module, attr, *_ in layers.FUNCTION_SPANS:
        assert callable(getattr(importlib.import_module(module), attr, None)), f"{module}.{attr}"
    for module, qualname, *_ in layers.METHOD_SPANS:
        cls_name, attr = qualname.split(".")
        cls = getattr(importlib.import_module(module), cls_name, None)
        assert cls is not None and attr in vars(cls), f"{module}.{qualname}"
