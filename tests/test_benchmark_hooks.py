"""The benchmark's tracer wraps library functions by name; a renamed or
deleted name must fail here, not only in a later traced benchmark run."""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_wrap_points_resolve_on_the_package():
    points = _load_spans().WRAP_POINTS
    assert points
    missing = [(mod, attr) for mod, attr, _ in points
               if not callable(getattr(importlib.import_module(
                   f"hurwitz_real_zeros.{mod}"), attr, None))]
    assert missing == []
