"""End-to-end NSW pipelines: matching, relaxation, splitting, rounding, rematch.

Both lanes share the same skeleton, which one function runs: reserve one
high-value item per agent by a product matching, solve the Eisenberg-Gale
relaxation on the rest, equalize the support-set values, round, and
finally re-optimize the reserved items on top of the rounded bundles.
Each stage's documented bounds are asserted inline, so a pipeline run
with assertions enabled is itself a test.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import asdict, dataclass, field
from typing import Callable

from .matching import final_matching, initial_matching, rematch_rho
from .model import Allocation, Instance, InvariantViolation, Matching, nsw_value
from .relaxation import EgResult, solve_eg
from .rounding import (
    OracleTables,
    RngStream,
    RoundOutcome,
    cr_procedure,
    iterated_round,
    measured_welfare_factor,
    oracle_procedure,
    round_xos,
    scaled_targets,
)
from .splitting import SubaddSplitOutput, XosSplitOutput, split_subadditive, split_xos
from .valuations import Xos, singleton_max

PROCEDURES: dict[str, Callable] = {
    "cr": cr_procedure,
    "oracle": oracle_procedure,
}
# None: a deterministic procedure, whose d is measured on the instance
NOMINAL_D = {"cr": 4.0, "oracle": None}


@dataclass(frozen=True)
class PipelineParams:
    """A run's options, checked once on construction and frozen, so that
    no field set later skips the checks."""

    alpha: float = 0.25
    epsilon: float | None = None
    delta: float | None = None
    d: float | None = None
    proc: str = "oracle"
    seed: int = 0
    append_residual: bool = False
    check_rematch: bool = False

    def __post_init__(self):
        # the relaxation's floor is epsilon, or alpha / (2 + (1 + alpha) n);
        # whether eps * n < 1 depends on n, so `solve_eg` checks that
        if not 0.0 < self.alpha < math.inf:
            raise ValueError("alpha must be finite and positive")
        if self.epsilon is not None and not 0.0 < self.epsilon < math.inf:
            raise ValueError("epsilon must be finite and positive")
        # iterated rounding keeps a delta-slice, delta = 1/(7d) unless given
        if self.delta is not None and not 0.0 < self.delta < 1.0:
            raise ValueError("delta must lie in (0, 1)")
        if self.d is not None and not 1.0 < 7.0 * self.d < math.inf:
            raise ValueError("d must exceed 1/7, so that delta = 1/(7d) lies in (0, 1)")
        if self.proc not in PROCEDURES:
            raise ValueError(f"unknown rounding procedure {self.proc!r}")


@dataclass
class PipelineReport:
    pipeline: str
    allocation: Allocation
    nsw: float
    params: PipelineParams
    tau: Matching
    sigma: Matching
    reserved: frozenset[int]
    remaining: frozenset[int]
    active: frozenset[int]
    eg: EgResult | None = None
    split: XosSplitOutput | SubaddSplitOutput | None = None
    outcome: RoundOutcome | None = None
    filtered: frozenset[int] | None = None
    nu: dict[int, float] | None = None
    delta_used: float | None = None
    d_used: float | None = None
    residual_appended: dict[int, list[int]] | None = None
    timings: dict[str, float] = field(default_factory=dict)

    def to_json(self, inst: Instance, include_timings: bool = False) -> str:
        """Deterministic JSON serialization (timings excluded by default,
        since wall clocks never reproduce byte-for-byte)."""
        doc: dict = {
            "pipeline": self.pipeline,
            "params": asdict(self.params),
            "nsw": self.nsw,
            "allocation": {
                inst.agent_names[i]: sorted(inst.item_names[j] for j in items)
                for i, items in sorted(self.allocation.bundles.items())
            },
            "stages": {
                "tau": {str(i): j for i, j in sorted(self.tau.assignment.items())},
                "sigma": {str(i): j for i, j in sorted(self.sigma.assignment.items())},
                "reserved": sorted(self.reserved),
                "remaining": sorted(self.remaining),
                "active": sorted(self.active),
            },
        }
        if self.eg is not None:
            doc["stages"]["relaxation"] = {
                "objective": self.eg.objective,
                "epsilon": self.eg.epsilon,
                "gap": self.eg.gap,
                "iterations": self.eg.iterations,
                "converged": self.eg.converged,
                "values": {str(i): v for i, v in sorted(self.eg.values().items())},
                "x": {str(i): {str(j): m for j, m in sorted(row.items())}
                      for i, row in sorted(self.eg.x.mass.items())},
            }
        if self.split is not None:
            doc["stages"]["split"] = {
                str(i): [{"items": sorted(c.items), "weight": c.weight,
                          "source": sorted(c.source), "large": c.large_item}
                         for c in cols]
                for i, cols in sorted(self.split.columns.items())
            }
        if self.outcome is not None:
            doc["stages"]["rounding"] = json.loads(self.outcome.to_json())
        if self.filtered is not None:
            doc["stages"]["filtered"] = sorted(self.filtered)
        if self.nu is not None:
            doc["stages"]["nu"] = {str(i): v for i, v in sorted(self.nu.items())}
        if self.delta_used is not None:
            doc["stages"]["delta"] = self.delta_used
        if self.d_used is not None:
            doc["stages"]["d"] = self.d_used
        if self.residual_appended is not None:
            doc["residual_appended"] = {str(i): items for i, items
                                        in sorted(self.residual_appended.items())}
        if include_timings:
            doc["timings"] = dict(sorted(self.timings.items()))
        return json.dumps(doc, sort_keys=True, separators=(",", ":"))


class _Clock:
    def __init__(self):
        self.timings: dict[str, float] = {}
        self._lap_start = time.perf_counter()

    def lap(self, name: str) -> None:
        now = time.perf_counter()
        self.timings[name] = now - self._lap_start
        self._lap_start = now


def _append_residual(alloc: Allocation, inst: Instance) -> dict[int, list[int]]:
    """Greedy hand-out of unallocated items by best marginal value."""
    leftovers = sorted(set(inst.items) - alloc.allocated_items())
    appended: dict[int, list[int]] = {}
    for j in leftovers:
        best_agent, best_gain = 0, -1.0
        for i in inst.agents:
            base = alloc.bundle(i)
            gain = inst.valuations[i].value(base | {j}) - inst.valuations[i].value(base)
            if gain > best_gain + 1e-15:
                best_agent, best_gain = i, gain
        alloc.bundles[best_agent] = alloc.bundle(best_agent) | {j}
        appended.setdefault(best_agent, []).append(j)
    return appended


def _check_rematch_dominated(report: PipelineReport, inst: Instance) -> None:
    """The final sigma must beat the constructive rematching of tau."""
    bundles = {i: report.allocation.bundle(i) - report.reserved for i in inst.agents}
    big_w = [inst.valuations[i].value(bundles[i]) for i in inst.agents]
    nu = [singleton_max(inst.valuations[i], report.remaining) for i in inst.agents]
    rho = rematch_rho(report.tau, report.tau, big_w, nu, inst)
    rho_alloc = Allocation({i: bundles[i] | {rho.assignment[i]} for i in inst.agents})
    if nsw_value(report.allocation, inst) < nsw_value(rho_alloc, inst) - 1e-9:
        raise InvariantViolation("final matching lost to the rematch baseline")


def _run_instance(inst: Instance) -> Instance:
    """`inst` with a `Valuation.run_copy` of each valuation: every stage
    that values sets through it shares one memo per agent, so each
    (agent, set) is evaluated once per run. The copies, and so the memos,
    are dropped when the run returns, or, when it raises, once the
    exception is released; nothing the run builds holds them in a cycle."""
    return Instance(inst.agent_names, inst.item_names,
                    tuple(v.run_copy() for v in inst.valuations))


def run_xos(inst: Instance, params: PipelineParams | None = None) -> PipelineReport:
    """XOS lane: match, relax, split, contention-resolve, rematch.

    Valuations must be XOS (additive counts as one-clause XOS) and there
    must be at least as many items as agents.
    """
    return _run("xos", inst, params or PipelineParams())


def run_subadditive(inst: Instance, params: PipelineParams | None = None) -> PipelineReport:
    """Subadditive lane: match, relax, filter, split, iterated-round, rematch.

    Works for any monotone subadditive family. Agents whose relaxation
    target stays below six times their best remaining singleton are served
    by the final matching alone. A deterministic procedure searches each
    agent group once: iterated rounding reuses the sets it found while d
    was measured.
    """
    return _run("subadditive", inst, params or PipelineParams())


def _run(lane: str, inst: Instance, params: PipelineParams) -> PipelineReport:
    """The skeleton both lanes share: reserve the matching's items, relax the
    rest, hand the relaxation to the lane's own split and rounding, rematch
    and check. Every stage is looked up on this module when it is called,
    and the procedure in `PROCEDURES`, so a wrapper installed there sees
    each call.

    The subadditive lane values the split's scaled targets once and passes
    them to both the measurement of d and iterated rounding. For the
    deterministic oracle they are the run's one `OracleTables`, which keeps
    each agent group's choice: iterated rounding reuses the sets the
    measurement of d found.
    """
    if inst.m < inst.n:
        raise ValueError("pipeline needs at least as many items as agents")
    if lane == "xos" and not all(isinstance(v, Xos) for v in inst.valuations):
        raise ValueError("pipeline requires XOS valuations")
    rng, clock, run = RngStream(params.seed), _Clock(), _run_instance(inst)
    tau, reserved, remaining, active = initial_matching(run)
    clock.lap("matching")
    eg = split = outcome = nu = delta_used = d_used = None
    filtered = None if lane == "xos" else frozenset()
    if active:
        eg = solve_eg(run, active, remaining, params.alpha, params.epsilon)
        clock.lap("relaxation")
        values = eg.values()
        if lane == "xos":
            split = split_xos(eg.columns, run.valuations, values)
        else:
            nu = {i: singleton_max(run.valuations[i], remaining) for i in active}
            filtered = frozenset(i for i in active if values[i] >= 6.0 * nu[i])
            if filtered:
                split = split_subadditive({i: eg.columns[i] for i in filtered}, run.valuations,
                                          {i: values[i] for i in filtered},
                                          {i: nu[i] for i in filtered})
    if split is not None:
        clock.lap("splitting")
        if lane == "xos":
            outcome = round_xos(split, rng)
        else:
            proc, nominal = PROCEDURES[params.proc], NOMINAL_D[params.proc]
            targets = scaled_targets(split, run.valuations)
            if nominal is None:
                targets = OracleTables(run.valuations, targets)
            d_used = params.d if params.d is not None else nominal
            if d_used is None:
                d_used = measured_welfare_factor(split, run.valuations, targets, proc, rng)
            delta_used = params.delta if params.delta is not None else 1.0 / (7.0 * d_used)
            outcome = iterated_round(split, run.valuations, targets, sorted(remaining),
                                     delta_used, proc, rng)
        clock.lap("rounding")
    alloc, sigma = final_matching(outcome.allocation.bundles if outcome else {}, run, reserved)
    clock.lap("rematching")
    report = PipelineReport(
        pipeline=lane, allocation=alloc, nsw=0.0, params=params, tau=tau,
        sigma=sigma, reserved=reserved, remaining=remaining, active=active,
        eg=eg, split=split, outcome=outcome, filtered=filtered, nu=nu,
        delta_used=delta_used, d_used=d_used, timings=clock.timings)
    _finish(report, run, params, clock)
    return report


def _finish(report: PipelineReport, inst: Instance, params: PipelineParams,
            clock: _Clock) -> None:
    report.allocation.validate(inst)
    for i in inst.agents:
        bundle = report.allocation.bundle(i)
        if len(bundle & report.reserved) != 1:
            raise InvariantViolation(f"agent {i} holds {len(bundle & report.reserved)} "
                                     f"reserved items, expected exactly one")
    if params.check_rematch:
        _check_rematch_dominated(report, inst)
    if params.append_residual:
        report.residual_appended = _append_residual(report.allocation, inst)
        clock.lap("residual")
    report.nsw = nsw_value(report.allocation, inst)
