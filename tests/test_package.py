"""Tests for the package's public names."""

import importlib

import pytest

MODULES_WITH_ALL = (
    "analytics", "annotation", "corpus", "features", "forest",
    "graph", "metrics", "pipeline", "synth",
)


@pytest.mark.parametrize("name", MODULES_WITH_ALL)
def test_every_exported_name_resolves(name):
    # a name left in __all__ after its definition is gone breaks
    # ``from polistance.<module> import *``
    module = importlib.import_module(f"polistance.{name}")
    missing = [n for n in module.__all__ if not hasattr(module, n)]
    assert missing == []
