"""Workloads of the benchmark: instance pools, ops and output checks.

A workload is a fixed set of shapes. A shape names one kind of op (a
pipeline lane or an exact oracle) and a pool of seeded instances: instance
`k` is generated from seed `k` and solved with pipeline seed `k`, so an op
is fully defined by (shape, k) and gives the same result in every run. One
round of a workload solves every pool instance of every shape once; the
benchmark seed sets the order of the ops within each round.

The pools are small on purpose. With 32 instances per shape and the seed
picking a subset, the spread of ops_per_s across seeds was 10-16%
(one budgeted_additive 3x14 solve takes 5.3 to 9.4 s depending on the
instance), too wide next to the host's own timing noise. A fixed suite in
seeded order leaves only that noise, which the runner damps by timing each
op in several rounds and keeping its fastest solve.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass

import numpy as np

REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")

# Headline factors of the two lanes against the exact optimum.
LANE_FACTOR = {"run_xos": 1.0 / 1440.0, "run_subadditive": 1.0 / 375000.0}
REL_TOL = 1e-9


@dataclass(frozen=True)
class Shape:
    key: str
    op: str  # run_xos | run_subadditive | exact_nsw | exact_config_lp
    family: str  # a generator family, or "near_uniform"
    n: int
    m: int
    seeds: tuple[int, ...]  # the pool: instance and pipeline seeds

    def instance(self, k: int):
        from nswforge.generators import GenSpec, generate
        from nswforge.model import Instance
        from nswforge.valuations import Additive

        if self.family != "near_uniform":
            return generate(GenSpec(self.family, n=self.n, m=self.m, seed=k))
        # Additive weights from U(0.9, 1.0): the only cheap instances on which
        # the subadditive lane's 6*nu filter passes, so splitting and
        # iterated rounding run.
        gen = np.random.default_rng([self.n, self.m, k])
        return Instance(tuple(f"agent{i}" for i in range(self.n)),
                        tuple(f"item{j}" for j in range(self.m)),
                        tuple(Additive(gen.uniform(0.9, 1.0, self.m))
                              for _ in range(self.n)))

    @property
    def has_reference(self) -> bool:
        return self.op == "exact_config_lp" or self.n ** self.m <= 10**7


# The first shape of each workload is its cheapest; its first instance is
# the warm-up op. Pools are sized so that one round (every op once) takes 4-10 s
# on a 2-core host, so that a run can time every op three times, and so
# that the median op of a round falls on the same op in every run.
WORKLOADS: dict[str, tuple[Shape, ...]] = {
    "xos_lane": (
        Shape("xos_3x6", "run_xos", "xos", 3, 6, (0, 1)),
        Shape("additive_3x10", "run_xos", "additive", 3, 10, (0, 1)),
        Shape("xos_4x12", "run_xos", "xos", 4, 12, (0,)),
    ),
    "subadd_engaged": (
        Shape("near_uniform_2x16", "run_subadditive", "near_uniform", 2, 16, (0,)),
        Shape("near_uniform_3x24", "run_subadditive", "near_uniform", 3, 24, (1,)),
    ),
    "subadd_colgen": (
        Shape("table_3x10", "run_subadditive", "table", 3, 10, (0,)),
        Shape("budgeted_additive_3x14", "run_subadditive", "budgeted_additive", 3, 14, (1,)),
    ),
    "exact_oracles": (
        Shape("config_lp_xos_3x10", "exact_config_lp", "xos", 3, 10, (0, 1, 2)),
        Shape("exact_nsw_xos_3x12", "exact_nsw", "xos", 3, 12, (0, 1, 2)),
        Shape("exact_nsw_xos_4x10", "exact_nsw", "xos", 4, 10, (0,)),
    ),
}


@dataclass(frozen=True)
class Op:
    shape: Shape
    k: int

    @property
    def label(self) -> str:
        return f"{self.shape.key}#{self.k}"


def warm_up_op(workload: str) -> Op:
    shape = WORKLOADS[workload][0]
    return Op(shape, shape.seeds[0])


def rounds(workload: str, seed: int):
    """Endless sequence of rounds, each every op of the workload once, in
    an order drawn from the seed."""
    ops = [Op(s, k) for s in WORKLOADS[workload] for k in s.seeds]
    rng = np.random.default_rng(seed)
    while True:
        yield [ops[i] for i in rng.permutation(len(ops))]


def load_references() -> dict[str, dict[int, float] | None]:
    """Exact optimum per shape and instance seed; None past the exact cap."""
    with open(REFERENCE_PATH) as fh:
        optimum = json.load(fh)["optimum"]
    return {key: None if refs is None else {int(k): v for k, v in refs.items()}
            for key, refs in optimum.items()}


def run_op(op: Op, inst):
    """One timed op. Looks the callee up on its module at call time, so the
    tracer's wrappers see the call."""
    from nswforge import oracle, pipeline

    if op.shape.op == "run_xos":
        return pipeline.run_xos(inst, pipeline.PipelineParams(seed=op.k))
    if op.shape.op == "run_subadditive":
        return pipeline.run_subadditive(inst, pipeline.PipelineParams(seed=op.k, proc="oracle"))
    if op.shape.op == "exact_nsw":
        return oracle.exact_nsw(inst)
    return oracle.exact_config_lp(inst)


def fingerprint(op: Op, inst, result) -> str:
    """Canonical serialization of an op's result, compared across solves."""
    if op.shape.op.startswith("run_"):
        return result.to_json(inst)
    if op.shape.op == "exact_nsw":
        witness = {str(i): sorted(b) for i, b in sorted(result.witness.bundles.items())}
    else:
        witness = {str(i): sorted([sorted(s), w] for s, w in cols)
                   for i, cols in sorted(result.witness.columns.items())}
    return json.dumps({"optimum": result.optimum, "nodes": result.nodes,
                       "witness": witness}, sort_keys=True)


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=1e-12)


def check(op: Op, inst, result, reference: float | None) -> list[str]:
    """Output checks of one op; returns the failures found."""
    from nswforge.model import nsw_value

    errors = []
    if op.shape.op.startswith("run_"):
        recomputed = nsw_value(result.allocation, inst)
        if not _close(result.nsw, recomputed):
            errors.append(f"report nsw {result.nsw!r} != recomputed {recomputed!r}")
        floor = LANE_FACTOR[op.shape.op]
        if reference is not None and result.nsw < floor * reference:
            errors.append(f"nsw {result.nsw!r} below {floor:.3g} x optimum {reference!r}")
        return errors
    if reference is None or not _close(result.optimum, reference):
        errors.append(f"optimum {result.optimum!r} != reference {reference!r}")
    if op.shape.op == "exact_nsw":
        witnessed = nsw_value(result.witness, inst)
    else:
        result.witness.validate(inst.m)
        witnessed = sum(w * inst.valuations[i].value(s)
                        for i, cols in result.witness.columns.items() for s, w in cols)
    if not _close(witnessed, result.optimum):
        errors.append(f"witness worth {witnessed!r} != optimum {result.optimum!r}")
    return errors


def nsw_of(op: Op, result) -> float:
    """The NSW an op delivers: the pipeline's report, or the exact optimum.
    The configuration LP delivers a welfare, not an NSW, and has none."""
    if op.shape.op.startswith("run_"):
        return result.nsw
    if op.shape.op == "exact_nsw":
        return result.optimum
    return math.nan
