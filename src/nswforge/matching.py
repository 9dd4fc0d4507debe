"""Product-maximizing bipartite matchings and the constructive rematching step.

`product_matching` maximizes lexicographically: first the number of matched
pairs with positive score, then the sum of log scores over those pairs.
This extends the plain product objective to instances where some singleton
values are zero (a fully positive matching is found whenever one exists).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment

from .model import Allocation, Instance, InvariantViolation, Matching


@dataclass(frozen=True)
class MatchingProblem:
    """Scores (agents x items) whose product is to be maximized."""

    scores: np.ndarray

    def __post_init__(self):
        s = self.scores
        if s.ndim != 2:
            raise ValueError("scores must be a 2-d array")
        if not np.all(np.isfinite(s)) or s.min(initial=0.0) < 0:
            raise ValueError("scores must be finite and nonnegative")


def matching_objective(scores: np.ndarray, matching: Matching) -> tuple[int, float]:
    """(count of positive-score pairs, sum of their log scores)."""
    count, logsum = 0, 0.0
    for agent, item in matching.assignment.items():
        s = scores[agent, item]
        if s > 0:
            count += 1
            logsum += math.log(s)
    return count, logsum


def product_matching(prob: MatchingProblem | np.ndarray) -> Matching:
    """Injective assignment with lexicographically maximal (count, log-sum).

    Zero-score pairs are allowed but never preferred over positive ones;
    agents with no positive option receive an arbitrary unused item.
    """
    scores = prob.scores if isinstance(prob, MatchingProblem) else np.asarray(prob, dtype=float)
    n, m = scores.shape
    if m < n:
        raise ValueError(f"fewer items ({m}) than agents ({n})")
    positive = scores > 0
    weights = np.zeros_like(scores)
    if positive.any():
        logs = np.log(scores[positive])
        lo, hi = logs.min(), logs.max()
        # Shift so that any extra positive pair dominates any log-sum change.
        shift = n * (hi - lo) + abs(lo) + 1.0
        weights[positive] = np.log(scores[positive]) + shift
    row, col = linear_sum_assignment(weights, maximize=True)
    matching = Matching({int(i): int(j) for i, j in zip(row, col)})
    matching.validate()
    return matching


def initial_matching(inst: Instance) -> tuple[Matching, frozenset[int], frozenset[int], frozenset[int]]:
    """Reserve one high-value item per agent via the singleton product matching.

    Returns (tau, matched items H, remaining items I', agents A' with
    positive value on I'). Verifies the swap property: no remaining item
    beats an agent's matched item whenever that matched item has positive
    value.
    """
    if inst.m < inst.n:
        raise ValueError(f"need at least as many items ({inst.m}) as agents ({inst.n})")
    scores = np.stack([inst.valuations[i].singleton_values() for i in inst.agents])
    tau = product_matching(scores)
    matched = tau.items()
    remaining = frozenset(inst.items) - matched
    active = frozenset(i for i in inst.agents
                       if inst.valuations[i].value(remaining) > 0.0)
    for i in inst.agents:
        own = scores[i, tau.assignment[i]]
        if own <= 0:
            continue
        for j in remaining:
            if scores[i, j] > own + 1e-9:
                raise InvariantViolation(
                    f"agent {i}: remaining item {j} beats matched item "
                    f"{tau.assignment[i]} ({scores[i, j]} > {own})")
    return tau, matched, remaining, active


def _fill_unmatched(assignment: dict[int, int], agents: range,
                    pool: frozenset[int]) -> None:
    used = set(assignment.values())
    free = sorted(pool - used)
    for i in agents:
        if i not in assignment:
            assignment[i] = free.pop(0)


def rematch_rho(tau: Matching, pi: Matching, big_w, nu, inst: Instance,
                tol: float = 1e-9) -> Matching:
    """Constructive matching that dominates max(W_i, v_i(pi(i)), nu_i).

    `tau` must be the product-optimal singleton matching and `pi` must map
    into tau's item range. Agents already covered by their W_i are left
    aside; the rest are routed to either their tau-item or pi-item along
    the alternating chains that end at an agent whose nu beats pi. The
    product guarantee is re-checked numerically after construction.
    """
    big_w = np.asarray(big_w, dtype=float)
    nu = np.asarray(nu, dtype=float)
    matched = tau.items()
    if not pi.items() <= matched:
        raise ValueError("pi must map into the initial matching's item set")

    def val(i: int, j: int) -> float:
        return float(inst.valuations[i].value((j,)))

    undecided = [i for i in inst.agents
                 if big_w[i] < max(val(i, pi.assignment[i]), nu[i])]
    undecided_set = set(undecided)
    from_nu = {i for i in undecided if nu[i] > val(i, pi.assignment[i])}

    tau_owner = {tau.assignment[i]: i for i in undecided}  # item -> agent edge

    reach: dict[int, bool] = {}

    def reaches(agent: int) -> bool:
        path = []
        cur: int | None = agent
        hit = False
        while cur is not None and cur not in reach:
            if cur in from_nu:
                hit = True
                break
            if cur in path:
                break  # cycle never reaches a nu-agent
            path.append(cur)
            nxt = tau_owner.get(pi.assignment[cur])
            cur = nxt if nxt in undecided_set else None
        if cur is not None and not hit:
            hit = reach.get(cur, False)
        for node in path:
            reach[node] = hit
        return reach.get(agent, hit)

    take_tau = {i for i in undecided if i in from_nu or reaches(i)}
    assignment: dict[int, int] = {}
    for i in undecided:
        assignment[i] = tau.assignment[i] if i in take_tau else pi.assignment[i]
    if len(set(assignment.values())) != len(assignment):
        raise InvariantViolation("tau/pi assignments collided in rematching")
    _fill_unmatched(assignment, inst.agents, matched)
    rho = Matching(assignment)
    rho.validate()

    achieved = math.prod(max(big_w[i], val(i, rho.assignment[i])) for i in inst.agents)
    target = math.prod(max(big_w[i], val(i, pi.assignment[i]), nu[i])
                       for i in inst.agents)
    if achieved < target * (1.0 - tol) - tol:
        raise InvariantViolation(
            f"rematching product guarantee failed: {achieved} < {target}")
    return rho


def extension_pi(best_alloc: Allocation, targets, tau: Matching,
                 inst: Instance) -> Matching:
    """Matching that keeps each agent's most valuable reserved item.

    From an allocation, each agent keeps the highest-singleton-value item
    of its bundle intersected with tau's item range; agents with none get
    an arbitrary unused reserved item. Used by the verification harness to
    certify the matching-extension bound.
    """
    del targets  # constrain the caller, not the construction itself
    matched = tau.items()
    assignment: dict[int, int] = {}
    for i in inst.agents:
        held = sorted(best_alloc.bundle(i) & matched)
        if held:
            values = [inst.valuations[i].value((j,)) for j in held]
            assignment[i] = held[int(np.argmax(values))]
    _fill_unmatched(assignment, inst.agents, matched)
    pi = Matching(assignment)
    pi.validate()
    return pi
