"""Product-maximizing bipartite matchings: the initial reservation, the
constructive rematching step and the final rematch.

`product_matching` maximizes lexicographically: first the number of matched
pairs with positive score, then the sum of log scores over those pairs.
This extends the plain product objective to instances where some singleton
values are zero (a fully positive matching is found whenever one exists).

The assignment is solved by `_max_weight_assignment`, the shortest
augmenting path method of Crouse (2016, "On implementing 2D rectangular
assignment algorithms", IEEE TAES) in the order scipy's
`linear_sum_assignment` runs it: rows are augmented in turn, each Dijkstra
pass scans the remaining columns from the last one, and a tie on the
lowest path cost goes to an unassigned column. Every assignment, ties
included, is therefore the one scipy returns, without the import cost of
scipy's optimization package.
"""

from __future__ import annotations

import math
from typing import Mapping

import numpy as np

from .model import Allocation, Instance, InvariantViolation, Matching

RHO_TOL = 1e-9  # relative and absolute slack of rematch_rho's product check


def matching_objective(scores: np.ndarray, matching: Matching) -> tuple[int, float]:
    """(count of positive-score pairs, sum of their log scores)."""
    count, logsum = 0, 0.0
    for agent, item in matching.assignment.items():
        s = scores[agent, item]
        if s > 0:
            count += 1
            logsum += math.log(s)
    return count, logsum


def product_matching(scores) -> Matching:
    """Injective assignment with lexicographically maximal (count, log-sum).

    `scores` is an agents x items array of finite nonnegative values.
    Zero-score pairs are allowed but never preferred over positive ones;
    agents with no positive option receive an arbitrary unused item.
    """
    scores = np.asarray(scores, dtype=float)
    if scores.ndim != 2:
        raise ValueError("scores must be a 2-d array")
    if not np.all(np.isfinite(scores)) or scores.min(initial=0.0) < 0:
        raise ValueError("scores must be finite and nonnegative")
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
        weights[positive] = logs + shift
    matching = Matching(dict(enumerate(_max_weight_assignment(weights))))
    matching.validate()
    return matching


def _max_weight_assignment(weights: np.ndarray) -> list[int]:
    """Column of each row in a maximum-weight assignment of an n x m array,
    n <= m, finite weights: Crouse's method on the negated weights."""
    n, m = weights.shape
    cost = (-weights).tolist()
    u, v = [0.0] * n, [0.0] * m
    col4row, row4col, path = [-1] * n, [-1] * m, [-1] * m
    for cur in range(n):
        # Dijkstra over reduced costs from row `cur` to an unassigned column
        spc = [math.inf] * m  # shortest path cost to each column
        remaining = list(range(m - 1, -1, -1))
        rows, cols = [cur], []
        i, low = cur, 0.0
        while True:
            row, ui, reached = cost[i], u[i], low
            low, index = math.inf, -1
            for it, j in enumerate(remaining):
                r = reached + row[j] - ui - v[j]  # scipy's order of operations
                if r < spc[j]:
                    path[j], spc[j] = i, r
                else:
                    r = spc[j]
                if r < low or (r == low and row4col[j] < 0):
                    low, index = r, it
            j = remaining[index]
            remaining[index] = remaining[-1]
            remaining.pop()
            cols.append(j)
            if row4col[j] < 0:
                break
            i = row4col[j]
            rows.append(i)
        u[cur] += low
        for i in rows[1:]:
            u[i] += low - spc[col4row[i]]
        for k in cols:
            v[k] -= low - spc[k]
        while True:  # augment along the path ending at sink column j
            i = path[j]
            row4col[j] = i
            col4row[i], j = j, col4row[i]
            if i == cur:
                break
    return col4row


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
    rest = np.array(sorted(remaining), dtype=int)
    for i in inst.agents:
        own = scores[i, tau.assignment[i]]
        if own <= 0:
            continue
        beats = scores[i, rest] > own + 1e-9
        if beats.any():
            j = int(rest[beats.argmax()])
            raise InvariantViolation(
                f"agent {i}: remaining item {j} beats matched item "
                f"{tau.assignment[i]} ({scores[i, j]} > {own})")
    return tau, matched, remaining, active


def final_matching(bundles: Mapping[int, frozenset[int]], inst: Instance,
                   reserved: frozenset[int]):
    """Product-optimal assignment of the reserved items on top of bundles."""
    reserved_list = sorted(reserved)
    scores = np.zeros((inst.n, len(reserved_list)))
    for i in inst.agents:
        base = bundles.get(i, frozenset())
        for k, h in enumerate(reserved_list):
            scores[i, k] = inst.valuations[i].value(base | {h})
    local = product_matching(scores)
    sigma_map = {i: reserved_list[k] for i, k in local.assignment.items()}
    sigma = Matching(sigma_map)
    sigma.validate()
    out = Allocation({i: bundles.get(i, frozenset()) | {sigma_map[i]}
                      for i in inst.agents})
    out.validate(inst)
    return out, sigma


def _fill_unmatched(assignment: dict[int, int], agents: range,
                    pool: frozenset[int]) -> None:
    used = set(assignment.values())
    free = sorted(pool - used)
    for i in agents:
        if i not in assignment:
            assignment[i] = free.pop(0)


def rematch_rho(tau: Matching, pi: Matching, big_w, nu, inst: Instance) -> Matching:
    """Constructive matching that dominates max(W_i, v_i(pi(i)), nu_i).

    `tau` must be the product-optimal singleton matching and `pi` must map
    into tau's item range. Agents already covered by their W_i are left
    aside; the rest take either their tau-item or their pi-item. An agent
    whose nu beats pi takes its tau-item, and so, until no agent joins,
    does every agent whose pi-item is the tau-item of one that takes its
    own: exactly the agents whose alternating chain ends at an agent whose
    nu beats pi. The product guarantee is re-checked numerically after
    construction.
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
    from_nu = {i for i in undecided if nu[i] > val(i, pi.assignment[i])}

    tau_owner = {tau.assignment[i]: i for i in undecided}  # item -> agent edge

    take_tau = set(from_nu)
    while joining := {i for i in undecided
                      if i not in take_tau and tau_owner.get(pi.assignment[i]) in take_tau}:
        take_tau |= joining
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
    if achieved < target * (1.0 - RHO_TOL) - RHO_TOL:
        raise InvariantViolation(
            f"rematching product guarantee failed: {achieved} < {target}")
    return rho


def extension_pi(best_alloc: Allocation, tau: Matching, inst: Instance) -> Matching:
    """Matching that keeps each agent's most valuable reserved item.

    From an allocation, each agent keeps the highest-singleton-value item
    of its bundle intersected with tau's item range; agents with none get
    an arbitrary unused reserved item. Used by the verification harness to
    certify the matching-extension bound.
    """
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
