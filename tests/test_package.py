"""The package's export list, and the names the benchmark's tracer wraps."""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

import nswforge
from nswforge import oracle, relaxation

ROOT = Path(__file__).resolve().parents[1]
TRACER = ROOT / "perfbench" / "tracer.py"


def test_every_export_resolves_once():
    assert len(set(nswforge.__all__)) == len(nswforge.__all__)
    missing = [name for name in nswforge.__all__ if not hasattr(nswforge, name)]
    assert missing == []


def test_benchmark_tracer_installs_and_removes():
    # perfbench/tracer.py wraps module attributes by name: a renamed one
    # fails here rather than in a traced benchmark run
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer_mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer_mod)
    modules = (relaxation, oracle)  # the two names of `_lp.maximize`
    maximize, tracer = [mod.maximize for mod in modules], tracer_mod.Tracer()
    try:
        tracer_mod.install(tracer)
        assert all(mod.maximize is not f for mod, f in zip(modules, maximize))
    finally:
        tracer.remove()
    assert all(mod.maximize is f for mod, f in zip(modules, maximize))


@pytest.mark.parametrize("module", ["nswforge", "nswforge.cli"])
def test_import_leaves_out_scipy_optimize(module):
    # importing scipy.optimize costs about 0.2 s and 20 MB in every process
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    code = (f"import sys, {module}\n"
            "print(sorted(m for m in sys.modules if m.split('.')[:2] == ['scipy', 'optimize']))")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=120)
    assert out.stdout.strip() == "[]"
