"""The benchmark's tracer (``perfbench/tracing.py``) replaces package
functions by name in the namespace of the module that calls them.  Every
name it lists must still be a function of that module, or traced runs would
break."""

import importlib
import runpy
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
# run_path compiles the source without writing a bytecode cache next to it
LAYERS = runpy.run_path(str(TRACING))["LAYERS"]


@pytest.mark.parametrize("module, name, layer", LAYERS)
def test_traced_name_resolves(module, name, layer):
    assert callable(getattr(importlib.import_module(module), name, None)), (
        f"{module}.{name} (layer {layer}) is gone"
    )
