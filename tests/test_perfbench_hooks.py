"""The traced benchmark run (perfbench/tracing.py) wraps program functions by
name and reads item and problem ids from their arguments. A refactor that
renames or moves one, or changes how it is called, fails here, not in the
benchmark."""

from __future__ import annotations

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve annotations through sys.modules
    spec.loader.exec_module(module)
    return module


def traced_functions() -> list[tuple[str, str]]:
    return [(mod, attr) for mod, attr, *_ in load_tracing().PATCHES]


@pytest.mark.parametrize("module, attr", traced_functions())
def test_traced_function_resolves(module, attr):
    owner = importlib.import_module("telerag." + module)
    cls_name, _, name = attr.rpartition(".")
    if cls_name:
        owner = getattr(owner, cls_name)
    assert vars(owner).get(name) is not None, f"telerag.{module}.{attr} is gone"


def test_traced_spans_carry_item_and_problem_ids():
    from telerag import rag, userassoc
    from telerag.evalharness import McqItem
    from telerag.modelclient import ConstantBackend

    items = [McqItem(f"q{i}", "Lexicon", f"What is X{i}?", ("A", "B"), 1) for i in range(2)]
    tracer = load_tracing().Tracer()
    with tracer.patched():
        rag.run_evaluation(ConstantBackend("1. A"), items, concurrency=2)
        userassoc.run_curve(userassoc.OracleBackend(), [2, 3], trials_per_n=2, seed=1)
    spans = tracer.take()

    def ids(name: str) -> list[str | None]:
        return [span.item for span in spans if span.name == name]

    assert ids("rag.answer_with_rag") == ["q0", "q1"]
    problems = [p.problem_id for p in userassoc._problem_set([2, 3], 2, 1)]
    assert ids("userassoc.render_problem_prompt") == problems
    assert ids("userassoc.check_answer") == problems
