"""The traced benchmark run wraps tenred functions by name; every name must resolve."""

import ast
import importlib
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def _traced():
    """The TRACED list of bench/tracer.py, read without importing it."""
    for node in ast.parse(TRACER.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "TRACED" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError("bench/tracer.py defines no TRACED list")


def test_every_traced_name_resolves():
    traced = _traced()
    assert traced
    for metric, module, attr in traced:
        owner = importlib.import_module(f"tenred.{module}")
        for part in attr.split("."):
            owner = getattr(owner, part)  # AttributeError names what went missing
        assert callable(owner), metric
