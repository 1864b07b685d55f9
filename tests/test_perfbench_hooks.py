"""The traced benchmark run (perfbench/tracing.py) wraps program functions by
name. A refactor that renames or moves one fails here, not in the benchmark."""

from __future__ import annotations

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def traced_functions() -> list[tuple[str, str]]:
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve annotations through sys.modules
    spec.loader.exec_module(module)
    return [(mod, attr) for mod, attr, *_ in module.PATCHES]


@pytest.mark.parametrize("module, attr", traced_functions())
def test_traced_function_resolves(module, attr):
    owner = importlib.import_module("telerag." + module)
    cls_name, _, name = attr.rpartition(".")
    if cls_name:
        owner = getattr(owner, cls_name)
    assert vars(owner).get(name) is not None, f"telerag.{module}.{attr} is gone"
