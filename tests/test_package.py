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


def _perfbench(name):
    """A module of the benchmark, loaded from its file."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  ROOT / "perfbench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


def test_every_export_resolves_once():
    assert len(set(nswforge.__all__)) == len(nswforge.__all__)
    missing = [name for name in nswforge.__all__ if not hasattr(nswforge, name)]
    assert missing == []


def test_benchmark_tracer_installs_and_removes():
    # perfbench/tracer.py wraps module attributes by name: a renamed one
    # fails here rather than in a traced benchmark run
    tracer_mod = _perfbench("tracer")
    modules = (relaxation, oracle)  # the two names of `_lp.maximize`
    maximize, tracer = [mod.maximize for mod in modules], tracer_mod.Tracer()
    try:
        tracer_mod.install(tracer)
        assert all(mod.maximize is not f for mod, f in zip(modules, maximize))
    finally:
        tracer.remove()
    assert all(mod.maximize is f for mod, f in zip(modules, maximize))


def test_benchmark_tracer_sees_every_pipeline_stage():
    # the tracer wraps each stage at the name the pipeline calls it by: a
    # stage bound at import time would go unseen and empty its metric
    tracer_mod, workloads = _perfbench("tracer"), _perfbench("workloads")
    shapes = {s.key: s for pool in workloads.WORKLOADS.values() for s in pool}
    tracer = tracer_mod.Tracer()
    tracer_mod.install(tracer)
    try:
        for key in ("xos_3x6", "near_uniform_2x16"):
            op = workloads.Op(shapes[key], 0)
            workloads.run_op(op, op.shape.instance(0))
    finally:
        tracer.remove()
    assert {"pipeline.run_xos", "pipeline.run_subadditive", "matching.initial_matching",
            "relaxation.solve_eg", "splitting.split", "rounding.welfare_factor",
            "rounding.round", "rounding.procedure"} <= {span[0] for span in tracer.spans}


@pytest.mark.parametrize("module", ["nswforge", "nswforge.cli"])
def test_import_leaves_out_scipy_optimize(module):
    # importing scipy.optimize costs about 0.2 s and 20 MB in every process
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    code = (f"import sys, {module}\n"
            "print(sorted(m for m in sys.modules if m.split('.')[:2] == ['scipy', 'optimize']))")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=120)
    assert out.stdout.strip() == "[]"
