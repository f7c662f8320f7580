"""The benchmark tracer wraps polynet functions by name; every name it
lists must still exist, or a renamed function would silently read as an
empty layer."""

import importlib
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import tracer  # noqa: E402


@pytest.mark.parametrize("module, attr", [(m, a) for m, a, _, _ in tracer.FUNCTIONS])
def test_traced_function_resolves(module, attr):
    assert callable(getattr(importlib.import_module(module), attr))


@pytest.mark.parametrize("module, cls, attr", [(m, c, a) for m, c, a, _ in tracer.METHODS])
def test_traced_method_resolves(module, cls, attr):
    assert callable(getattr(importlib.import_module(module), cls).__dict__[attr])
