"""The package's export list, the names the benchmark's tracer wraps,
which modules may enumerate subsets or import the checkers, the
package's exception classes, and the steps that run without scipy."""

import ast
import builtins
import hashlib
import importlib.util
import json
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


# NSW (`float.hex`) and allocation of every pipeline op of the benchmark
# pool; they agree under one and two BLAS threads
POOL_OUTPUTS = {
    "xos_3x6#0": ("0x1.0589590eebeebp+0", {0: [4], 1: [0], 2: [3, 5]}),
    "xos_3x6#1": ("0x1.c913a968c30cdp-1", {0: [1], 1: [3], 2: [5]}),
    "additive_3x10#0": ("0x1.3ce56dd3ad30cp+0", {0: [4], 1: [5, 6], 2: [0, 3]}),
    "additive_3x10#1": ("0x1.d2dce9ffd3644p-1", {0: [7], 1: [9], 2: [8]}),
    "xos_4x12#0": ("0x1.083807d7f63e2p+0", {0: [4], 1: [6], 2: [2, 10], 3: [8]}),
    "near_uniform_2x16#0": ("0x1.ad2b98b9e0170p+1", {0: [6, 11, 13], 1: [5, 7, 12, 14]}),
    "near_uniform_3x24#1": ("0x1.3fbb430b18262p+0", {0: [22], 1: [15], 2: [8, 13]}),
    "table_3x10#0": ("0x1.f32a46dea5919p-1", {0: [8], 1: [6], 2: [2]}),
    "budgeted_additive_3x14#1": ("0x1.d2dce9ffd3644p-1", {0: [7], 1: [9], 2: [8]}),
}


@pytest.fixture(scope="module")
def workloads():
    return _perfbench("workloads")


def _pool_ops(workloads):
    return {op.label: op for shapes in workloads.WORKLOADS.values()
            for op in (workloads.Op(s, k) for s in shapes for k in s.seeds)}


def _solve_and_check(workloads, op):
    """The op run as the benchmark runs it, and its output checks against
    `perfbench/reference.json`."""
    inst = op.shape.instance(op.k)
    result = workloads.run_op(op, inst)
    reference = workloads.load_references()[op.shape.key]
    assert workloads.check(op, inst, result, None if reference is None
                           else reference[op.k]) == []
    return result


@pytest.mark.parametrize("label", sorted(POOL_OUTPUTS))
def test_benchmark_pool_outputs_are_pinned(workloads, label):
    ops = _pool_ops(workloads)
    assert sorted(label for label, op in ops.items()
                  if op.shape.op.startswith("run_")) == sorted(POOL_OUTPUTS)
    report = _solve_and_check(workloads, ops[label])
    nsw, bundles = POOL_OUTPUTS[label]
    assert report.nsw.hex() == nsw
    assert {i: sorted(b) for i, b in report.allocation.bundles.items()} == bundles


# SHA-1 of `workloads.fingerprint` (optimum, nodes and witness) of every
# exact-oracle op of the benchmark pool; they agree under one and two BLAS
# threads
EXACT_OUTPUTS = {
    "config_lp_xos_3x10#0": "3d2f21b1f85a2db120f8edb17d422be904dade43",
    "config_lp_xos_3x10#1": "f384207b0a19eba879af7f73ac93e81a333a8efc",
    "config_lp_xos_3x10#2": "0e4f038f856c316f2c44d068bdaecefc82cc7628",
    "exact_nsw_xos_3x12#0": "11ecf0070c69ac1e950b8113773f19e3078324cf",
    "exact_nsw_xos_3x12#1": "b6d9643aaedde93587e1d3d35ec20378274084b4",
    "exact_nsw_xos_3x12#2": "c943c82c6095388d376d2c27846e61629f6fd798",
    "exact_nsw_xos_4x10#0": "21ee5ecf71921c2066fa2d6c2fa16330365c3423",
}


def test_each_exact_oracle_shape_solves_as_the_benchmark_calls_it(workloads):
    # a signature change to `exact_nsw` or `exact_config_lp` fails here
    # rather than in a benchmark run, and a change in an oracle's last bit
    # fails its op's pinned fingerprint
    fingerprints = {}
    for shape in workloads.WORKLOADS["exact_oracles"]:
        for k in shape.seeds:
            op = workloads.Op(shape, k)
            result = _solve_and_check(workloads, op)
            assert result.nodes == (shape.n << shape.m if shape.op == "exact_config_lp"
                                    else shape.n ** shape.m)
            fingerprint = workloads.fingerprint(op, op.shape.instance(k), result)
            fingerprints[op.label] = hashlib.sha1(fingerprint.encode()).hexdigest()
    assert fingerprints == EXACT_OUTPUTS


def test_only_valuations_enumerates_subsets():
    # the subset tables' mask layout lives in `valuations`; every other
    # module tabulates through `subset_values` and prices sets through
    # `mask_sums`, and no module keeps a subset-table class
    users = []
    for path in sorted((ROOT / "src" / "nswforge").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom):
                names = [alias.name for alias in node.names]
            elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            else:
                names = [node.attr] if isinstance(node, ast.Attribute) else (
                    [node.id] if isinstance(node, ast.Name) else [])
            if "SubsetTable" in names:
                users.append((path.stem, "SubsetTable"))
            if path.stem == "valuations":
                continue
            if "_all_subset_rows" in names:
                users.append((path.stem, "_all_subset_rows"))
            if isinstance(node, ast.FunctionDef) and "mask_sum" in node.name:
                users.append((path.stem, node.name))
    assert users == []


def test_only_the_checkers_import_the_oracle_and_fuzz():
    # the exact oracles and the fuzz cases check the pipeline's stages, so
    # no stage imports them; the CLI and the package's exports may
    users = set()
    for path in sorted((ROOT / "src" / "nswforge").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom):
                base = node.module or ""
                names = [base] + [f"{base}.{alias.name}" for alias in node.names]
            elif isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            else:
                continue
            if {name.rsplit(".", 1)[-1] for name in names} & {"oracle", "fuzz"}:
                users.add(path.stem)
    assert sorted(users - {"oracle", "fuzz", "cli", "__init__"}) == []


def test_no_nested_function_refers_to_itself():
    # a nested function that names itself reaches itself through its own
    # closure cell: a reference cycle that keeps all it closes over alive
    # until the cycle collector runs
    found = set()
    for path in sorted((ROOT / "src" / "nswforge").glob("*.py")):
        for outer in ast.walk(ast.parse(path.read_text())):
            if not isinstance(outer, ast.FunctionDef):
                continue
            for inner in ast.walk(outer):
                if inner is not outer and isinstance(inner, ast.FunctionDef) and any(
                        isinstance(node, ast.Name) and node.id == inner.name
                        for node in ast.walk(inner)):
                    found.add(f"{path.stem}.{outer.name}.{inner.name}")
    assert sorted(found) == []


def test_two_typed_errors_carry_every_failure():
    # the CLI maps a failure to its exit code by type alone: `SchemaError`
    # 1, `InvariantViolation` 2 and `CapExceeded` 3, so no class carries a
    # `capped` flag to tell a cap from a fault
    bases, capped = {}, []
    for path in sorted((ROOT / "src" / "nswforge").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ClassDef):
                bases[node.name] = {ast.unparse(base).rsplit(".", 1)[-1] for base in node.bases}
            elif (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
                  and node.attr == "capped"):
                capped.append(path.stem)
    errors = {name for name, obj in vars(builtins).items()
              if isinstance(obj, type) and issubclass(obj, BaseException)}
    while grown := {name for name, of in bases.items() if name not in errors and of & errors}:
        errors |= grown
    assert errors - set(vars(builtins)) == {"SchemaError", "InvariantViolation", "CapExceeded"}
    assert capped == []


@pytest.mark.parametrize("module", ["nswforge", "nswforge.cli"])
def test_import_leaves_out_scipy_optimize(module):
    # importing scipy.optimize costs about 0.2 s and 20 MB in every process
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    code = (f"import sys, {module}\n"
            "print(sorted(m for m in sys.modules if m.split('.')[:2] == ['scipy', 'optimize']))")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=120)
    assert out.stdout.strip() == "[]"


def test_steps_that_take_no_newton_step_leave_out_scipy(tmp_path):
    # scipy.linalg costs about 0.2 s and 20 MB in every process that
    # imports it; only the relaxation's Newton steps need it, so importing
    # the package, generating, the exact oracles, the concave extension
    # and the CLI's help, gen and exact load numpy alone
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    code = f"""
import json, sys
import numpy as np
loaded = {{}}
def step(name):
    loaded[name] = sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')
import nswforge
step('import nswforge')
from nswforge import cli
step('import nswforge.cli')
inst = nswforge.generate(nswforge.GenSpec('xos', 3, 6, seed=0))
step('generate')
nswforge.exact_nsw(inst)
step('exact_nsw')
nswforge.exact_config_lp(inst)
step('exact_config_lp')
nswforge.concave_ext(inst.valuations[0], np.full(inst.m, 0.5))
step('concave_ext')
assert cli.main(['--help']) == 0
step('cli --help')
assert cli.main(['gen', '--family', 'xos', '--n', '3', '--m', '6', '--count', '1',
                 '--out', {str(tmp_path)!r}]) == 0
step('cli gen')
assert cli.main(['exact', '--instance', {str(tmp_path / "xos_3x6_0000.json")!r},
                 '--out', {str(tmp_path / "exact.json")!r}]) == 0
step('cli exact')
print(json.dumps(loaded))
"""
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=120)
    loaded = json.loads(out.stdout.splitlines()[-1])
    assert len(loaded) == 9
    assert loaded == {step: [] for step in loaded}
