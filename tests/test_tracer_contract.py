"""The library names the benchmark tracer (perfbench/tracer.py) wraps still exist.

The traced benchmark run looks these names up by string, so a refactor that
renames or removes one breaks it without failing any other test.  A short
traced run checks the counters it reads as well.
"""

import dataclasses
import importlib
import importlib.util
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

from sparsecurves.bounds import CrossingInequalityVerdict

ROOT = Path(__file__).resolve().parents[1]
TRACER_PATH = ROOT / "perfbench" / "tracer.py"


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


def _traced(work: Path, spans: str, *cli_args: str) -> list[dict]:
    # a subprocess, because the tracer patches module globals
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, str(TRACER_PATH), spans, "0", "--", *cli_args],
        cwd=work, env=env, capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    return json.loads((work / spans).read_text())


def test_tracer_runs_construct_and_verify(tmp_path):
    _traced(tmp_path, "c16.json", "construct", "--g", "16", "--alpha", "0/1", "--out", "g16.json")
    spans = _traced(tmp_path, "v16.json", "verify", "g16.json")
    _traced(tmp_path, "c64.json", "construct", "--g", "64", "--alpha", "1/1", "--analytic", "--out", "a.json")
    # identical necklaces share one word set, as perfbench/selftest.py checks
    explicit = [s for s in spans if s["name"] == "intersections.total_crossings_explicit"]
    assert sum(s["word_sets"] for s in explicit) == 1
