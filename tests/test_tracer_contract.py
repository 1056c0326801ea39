"""The library names the benchmark tracer (perfbench/tracer.py) wraps still exist.

The traced benchmark run looks these names up by string, so a refactor that
renames or removes one breaks it without failing any other test.
"""

import dataclasses
import importlib
import importlib.util
import inspect
from pathlib import Path

from sparsecurves.bounds import CrossingInequalityVerdict

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_names_resolve_to_functions():
    tracer = _load_tracer()
    assert tracer.TRACED
    for name in tracer.TRACED:
        module_name, func_name = name.split(".")
        module = importlib.import_module(f"sparsecurves.{module_name}")
        assert inspect.isfunction(getattr(module, func_name, None)), name


def test_inequality_verdict_reports_settled_digits():
    # the tracer's settled_digits counter reads verdict.digits
    fields = {field.name for field in dataclasses.fields(CrossingInequalityVerdict)}
    assert "digits" in fields
