"""Smoke test of the benchmark: one op per workload, untraced and traced.

Run from the root of the repository:

    python3 perfbench/smoke.py

It checks that every metric BENCHMARK.json names is emitted with a finite
value, that the seed code passes every output check, and that the checks
fire on corrupted results. Takes about a minute.
"""

from __future__ import annotations

import copy
import json
import math
import os
import sys

import run
import workloads

BENCHMARK = os.path.join(run.ROOT, "BENCHMARK.json")


def expect(cond: bool, message: str) -> None:
    if not cond:
        raise SystemExit(f"smoke: {message}")


def check_emitted(result: dict, declared: list[dict], where: str) -> None:
    expect(result["correct"] and result["failed"] == 0, f"{where}: output checks failed")
    expect(result["attempted"] >= 1, f"{where}: no op attempted")
    names = [m["name"] for m in declared]
    expect(sorted(result["metrics"]) == sorted(names),
           f"{where}: emitted {sorted(result['metrics'])}, declared {sorted(names)}")
    for m in declared:
        got = result["metrics"][m["name"]]
        expect(got["unit"] == m["unit"], f"{where}: {m['name']} unit {got['unit']}")
        expect(math.isfinite(got["value"]), f"{where}: {m['name']} = {got['value']}")


def check_corruption(workload: str) -> None:
    """Each output check must flag a result corrupted the way it guards."""
    setup = run.set_up(workload)
    for shape in workloads.WORKLOADS[workload]:
        op = workloads.Op(shape, shape.seeds[0])
        inst = setup.instances[shape.key][op.k]
        refs = setup.references[shape.key]
        ref = None if refs is None else refs[op.k]
        result = workloads.run_op(op, inst)
        expect(not workloads.check(op, inst, result, ref), f"{op.label}: clean result flagged")
        bad = copy.deepcopy(result)
        if shape.op.startswith("run_"):
            bad.nsw *= 1.5  # report no longer matches its allocation
            expect(workloads.check(op, inst, bad, ref), f"{op.label}: wrong nsw passed")
            bad = copy.deepcopy(result)
            bad.allocation.bundles = {i: frozenset() for i in inst.agents}
            bad.nsw = 0.0
            if ref is not None:
                expect(workloads.check(op, inst, bad, ref), f"{op.label}: zero nsw passed")
            expect(workloads.fingerprint(op, inst, bad) != workloads.fingerprint(op, inst, result),
                   f"{op.label}: determinism check blind to a changed allocation")
        else:
            bad.optimum *= 1.0 + 1e-6  # off the reference, and off its witness
            expect(len(workloads.check(op, inst, bad, ref)) == 2,
                   f"{op.label}: perturbed optimum not flagged twice")
        print(f"smoke: checks fire on corrupted {op.label}")


def main() -> None:
    with open(BENCHMARK) as fh:
        bench = json.load(fh)
    for wl in bench["workloads"]:
        name = wl["name"]
        check_corruption(name)
        for trace, declared in ((False, bench["end_to_end"]), (True, bench["per_layer"])):
            result = run.run(name, seed=1, seconds=0.0, trace=trace, max_ops=1, min_rounds=1)
            check_emitted(result, declared, f"{name} trace={int(trace)}")
            expect(result["attempted"] == (2 if trace else 1), f"{name}: not one op per round")
        print(f"smoke: {name} ok")
    print("smoke: all workloads ok")


if __name__ == "__main__":
    main()
