"""The package's export list, and the names the benchmark's tracer wraps."""

import importlib.util
from pathlib import Path

import nswforge
from nswforge import oracle, relaxation

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


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
