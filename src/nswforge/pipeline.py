"""End-to-end NSW pipelines: matching, relaxation, splitting, rounding, rematch.

Both lanes share the same skeleton: reserve one high-value item per agent
by a product matching, solve the Eisenberg-Gale relaxation on the rest,
equalize the support-set values, round, and finally re-optimize the
reserved items on top of the rounded bundles. Each stage's documented
bounds are asserted inline, so a pipeline run with assertions enabled is
itself a test.
"""

from __future__ import annotations

import json
import time
from dataclasses import asdict, dataclass, field
from typing import Callable

from .matching import initial_matching, rematch_rho
from .model import Allocation, Instance, InvariantViolation, Matching, nsw_value
from .relaxation import EgParams, EgResult, solve_eg
from .rounding import (
    OracleTables,
    RngStream,
    RoundOutcome,
    cr_procedure,
    final_matching,
    iterated_round,
    measured_welfare_factor,
    oracle_procedure,
    round_xos,
)
from .splitting import SubaddSplitOutput, XosSplitOutput, split_subadditive, split_xos
from .valuations import Additive, Xos, singleton_max

PROCEDURES: dict[str, Callable] = {
    "cr": cr_procedure,
    "oracle": oracle_procedure,
}
# None: a deterministic procedure, whose d is measured on the instance
NOMINAL_D = {"cr": 4.0, "oracle": None}


@dataclass
class PipelineParams:
    alpha: float = 0.25
    epsilon: float | None = None
    delta: float | None = None
    d: float | None = None
    proc: str = "oracle"
    seed: int = 0
    append_residual: bool = False
    check_rematch: bool = False

    def eg_params(self) -> EgParams:
        return EgParams(alpha=self.alpha, epsilon=self.epsilon)

    def as_dict(self) -> dict:
        return asdict(self)


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
            "params": self.params.as_dict(),
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


def _searched_once(proc: Callable) -> Callable:
    """`proc` run at most once per agent group, for a deterministic
    procedure that ignores its stream and round index: within one run a
    group's columns and targets never change, and so its sets do not.
    The first call's targets become the run's one `OracleTables`, passed
    on as `targets`, so the exact oracle builds each agent's search table
    and values each (agent, kept set) once per run, not once per group."""
    found: dict[tuple[int, ...], dict[int, frozenset[int]]] = {}
    tables: OracleTables | None = None

    def search(columns, valuations, targets, rng, round_index=1):
        nonlocal tables
        if tables is None:
            tables = OracleTables(valuations, targets)
        group = tuple(sorted(columns))
        if group not in found:
            found[group] = proc(columns, valuations, tables, rng, round_index)
        return found[group]
    return search


def run_xos(inst: Instance, params: PipelineParams | None = None) -> PipelineReport:
    """XOS lane: match, relax, split, contention-resolve, rematch.

    Valuations must be XOS (additive counts as one-clause XOS) and there
    must be at least as many items as agents.
    """
    params = params or PipelineParams()
    if inst.m < inst.n:
        raise ValueError("pipeline needs at least as many items as agents")
    for i in inst.agents:
        if not isinstance(inst.valuations[i], (Additive, Xos)):
            raise ValueError("pipeline requires XOS valuations")
    rng = RngStream(params.seed)
    clock = _Clock()
    tau, reserved, remaining, active = initial_matching(inst)
    clock.lap("matching")
    eg = split = outcome = None
    if active:
        eg = solve_eg(inst, active, remaining, params.eg_params())
        clock.lap("relaxation")
        split = split_xos(eg.config(), inst.valuations, eg.values())
        clock.lap("splitting")
        outcome = round_xos(split, inst.valuations, rng)
        clock.lap("rounding")
        alloc, sigma = final_matching(outcome.allocation.bundles, inst, reserved)
    else:
        alloc, sigma = final_matching({}, inst, reserved)
    clock.lap("rematching")
    report = PipelineReport(
        pipeline="xos", allocation=alloc, nsw=0.0, params=params, tau=tau,
        sigma=sigma, reserved=reserved, remaining=remaining, active=active,
        eg=eg, split=split, outcome=outcome, timings=clock.timings)
    _finish(report, inst, params, clock)
    return report


def run_subadditive(inst: Instance, params: PipelineParams | None = None) -> PipelineReport:
    """Subadditive lane: match, relax, filter, split, iterated-round, rematch.

    Works for any monotone subadditive family. Agents whose relaxation
    target stays below six times their best remaining singleton are served
    by the final matching alone. A deterministic procedure searches each
    agent group once: iterated rounding reuses the sets it found while d
    was measured.
    """
    params = params or PipelineParams()
    if inst.m < inst.n:
        raise ValueError("pipeline needs at least as many items as agents")
    if params.proc not in PROCEDURES:
        raise ValueError(f"unknown rounding procedure {params.proc!r}")
    proc = PROCEDURES[params.proc]
    if NOMINAL_D[params.proc] is None:
        proc = _searched_once(proc)
    rng = RngStream(params.seed)
    clock = _Clock()
    tau, reserved, remaining, active = initial_matching(inst)
    clock.lap("matching")
    eg = split = outcome = None
    filtered: frozenset[int] = frozenset()
    nu: dict[int, float] = {}
    delta_used = d_used = None
    bundles: dict[int, frozenset[int]] = {}
    if active:
        eg = solve_eg(inst, active, remaining, params.eg_params())
        clock.lap("relaxation")
        targets = eg.values()
        nu = {i: singleton_max(inst.valuations[i], remaining) for i in active}
        filtered = frozenset(i for i in active if targets[i] >= 6.0 * nu[i])
        if filtered:
            config = eg.config()
            config.columns = {i: config.columns[i] for i in filtered}
            split = split_subadditive(config, inst.valuations,
                                      {i: targets[i] for i in filtered},
                                      {i: nu[i] for i in filtered})
            clock.lap("splitting")
            d_used = params.d
            if d_used is None:
                nominal = NOMINAL_D[params.proc]
                d_used = nominal if nominal is not None else measured_welfare_factor(
                    split, inst.valuations, proc, rng)
            delta_used = params.delta if params.delta is not None else 1.0 / (7.0 * d_used)
            outcome = iterated_round(split, inst.valuations, sorted(remaining),
                                     delta_used, proc, rng)
            clock.lap("rounding")
            bundles = {i: outcome.allocation.bundle(i) for i in filtered}
    alloc, sigma = final_matching(bundles, inst, reserved)
    clock.lap("rematching")
    report = PipelineReport(
        pipeline="subadditive", allocation=alloc, nsw=0.0, params=params,
        tau=tau, sigma=sigma, reserved=reserved, remaining=remaining,
        active=active, eg=eg, split=split, outcome=outcome, filtered=filtered,
        nu=nu or None, delta_used=delta_used, d_used=d_used,
        timings=clock.timings)
    _finish(report, inst, params, clock)
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
