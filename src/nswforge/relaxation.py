"""Concave extension with dual certificates, and the Eisenberg-Gale solver.

The concave extension v+(x) of a valuation at fractional item masses x is
the LP value of the best distribution over item sets consistent with x.
It is computed by column generation: the demand oracle is exactly the
separation oracle of the dual, so each round either certifies optimality
(no set beats its price) or contributes a new column. The returned dual
pair (q, p) satisfies q + p(S) >= v(S) for every set over the universe,
which is what makes the log-supergradient construction sound.

The restricted LP of column generation lives in a `RestrictedMaster`:
the columns found so far, their values (each computed once, when the
column joins) and the last LP result. Between two solves with the same
master only the item masses x change, which is the right-hand side of the
LP, so each solve warm-starts `_lp.maximize` from the previous result (the
restricted master of Gilmore and Gomory's column generation). A basis
that x left primal-feasible is still optimal, and until a column joins
its held factorization gives x and the duals with one product; otherwise
it stays dual-feasible and a few dual simplex pivots repair it. The first
solve starts from the empty-set column and the capacity slacks.

The pricing step reuses the master too. Budgeted-additive and table
valuations have no analytic demand, so the master holds the subset table
of its universe (every subset's indicator row, value and lexicographic
rank), enumerated on its first demand query. Each later query costs one
product with the prices, and the table goes when the master does.

`solve_eg` maximizes sum_i log v+_i(x_i) over the per-item capacity
polytope with an interior floor x >= eps. The floor is what converts
approximate optimality into the scaled-optimum contract checked by
`scaled_optimum_check`. Two paths solve it:

- An all-additive agent set has v+_i(x) = w_i.x exactly, so the program is
  the smooth Eisenberg-Gale convex program (Eisenberg and Gale 1959). A
  damped-Newton log barrier (Boyd and Vandenberghe 2004, ch. 11) solves
  it, and the Lagrangian bound D(p) at the barrier's capacity prices,
  whose per-agent subproblems have a closed form, certifies it. Each
  extension is closed-form too: the certificate q = 0, p = w, and the
  systematic-sampling decomposition of x, a function of x alone. No
  restricted LP, demand query or simplex runs.
- Any other agent set runs projected supergradient ascent with diminishing
  steps, keeping one restricted master per agent for all of its
  iterations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from ._lp import LpResult, maximize
from .model import ConfigSolution, Instance, ItemFractional
from .oracle import exact_config_lp
from .valuations import Additive, SubsetTable, Valuation, demand

COLGEN_TOL = 1e-9  # relative gap at which column generation stops
COLGEN_MAX_ROUNDS = 500  # column generation rounds before ConvergenceError
STEP_SCALE = 0.4  # EG step at iteration t is STEP_SCALE / sqrt(t)
PATIENCE = 80  # EG stops after this many iterations without improvement
OBJECTIVE_TOL = 1e-10  # smallest EG objective gain that counts as one
BARRIER_GROWTH = 64.0  # factor of the barrier weight t once an iterate is centred
CENTERING_TOL = 1e-6  # half the squared Newton decrement of a centred iterate


class ConvergenceError(RuntimeError):
    """Column generation failed: a stall or a failed duality certificate,
    or its round cap (`capped`)."""

    def __init__(self, message: str, gap: float, capped: bool = False):
        super().__init__(f"{message} (remaining gap {gap:.3e})")
        self.gap = gap
        self.capped = capped


@dataclass
class ConcaveExtValue:
    """v+(x) with its primal decomposition and dual certificate.

    Invariants on every return: value equals both the column mixture value
    and q + p.x (strong duality), every column respects the item masses,
    and the weights sum to one.
    """

    value: float
    q: float
    prices: np.ndarray
    columns: list[tuple[frozenset[int], float]]
    rounds: int


class RestrictedMaster:
    """The restricted master LP of one valuation's concave extension.

    It holds the columns in the order they joined, each column's value
    (computed once, when the column joins), the 0/1 item incidence matrix
    over the universe and the last LP result. Across solves only the item
    masses x change, so each solve restarts the LP from that result. It
    also holds the `SubsetTable` its demand queries search, enumerated on
    the first query that needs it (none does for additive or XOS).
    """

    def __init__(self, v: Valuation, universe: np.ndarray):
        self.v = v
        self.universe = universe
        self._row = {int(j): r for r, j in enumerate(universe)}
        self.columns: list[frozenset[int]] = []
        self._seen: set[frozenset[int]] = set()
        self.values = np.zeros(0)
        self.incidence = np.zeros((universe.size, 0))
        self._last: LpResult | None = None
        self.subsets = SubsetTable(v, universe)
        self.extend([frozenset()] + [frozenset({int(j)}) for j in universe])

    def __contains__(self, col: frozenset[int]) -> bool:
        return col in self._seen

    def extend(self, cols: Iterable[frozenset[int]]) -> None:
        """Append the columns that are new and lie inside the universe."""
        new = []
        for col in cols:
            if col not in self._seen and all(j in self._row for j in col):
                new.append(col)
                self._seen.add(col)
        if not new:
            return
        block = np.zeros((self.universe.size, len(new)))
        for k, col in enumerate(new):
            block[[self._row[j] for j in col], k] = 1.0
        self.columns.extend(new)
        self.values = np.concatenate([self.values, [self.v.value(col) for col in new]])
        self.incidence = np.hstack([self.incidence, block])

    def solve(self, x_universe: np.ndarray):
        """max sum_k value_k y_k over y >= 0 with incidence.y <= x and
        sum y = 1, warm-started from the previous solve."""
        self._last = maximize(self.values, a_ub=self.incidence, b_ub=x_universe,
                              a_eq=np.ones((1, len(self.columns))), b_eq=np.ones(1),
                              warm=self._last)
        return self._last


def concave_ext(v: Valuation, x, items: Iterable[int] | None = None,
                method: str = "colgen", *,
                master: RestrictedMaster | None = None) -> ConcaveExtValue:
    """Concave extension of v at item masses x over the given universe.

    method="colgen" runs demand-oracle column generation and certifies the
    dual over every subset of the universe. It stops once no set's
    utility at the prices exceeds q by more than `COLGEN_TOL` (relative
    to the value), and raises `ConvergenceError` after
    `COLGEN_MAX_ROUNDS` rounds. method="enumerate" solves the LP over all
    subsets of the support of x in one shot (desk-scale fallback; its dual
    is only certified on the enumerated sets).

    `master` carries the restricted master of an earlier call with the
    same valuation, so that its columns and basis are reused and the new
    columns stay in it; its universe is the default for `items`. Without
    one a fresh master starts from the empty set and the singletons.
    """
    x = np.asarray(x, dtype=float)
    if items is None:
        universe = np.arange(v.m, dtype=np.int64) if master is None else master.universe
    else:
        universe = np.unique(np.fromiter(items, dtype=np.int64))
    x_univ = x[universe]
    if x_univ.min() < -COLGEN_TOL or x_univ.max() > 1 + COLGEN_TOL:
        raise ValueError("item masses must lie in [0, 1]")
    if method not in ("colgen", "enumerate"):
        raise ValueError(f"unknown method {method!r}")
    if master is None:
        master = RestrictedMaster(v, universe)
    elif master.v is not v or (items is not None
                               and not np.array_equal(master.universe, universe)):
        raise ValueError("restricted master of another valuation or universe")
    if method == "enumerate":
        support = [int(j) for j in universe if x[j] > 0]
        if len(support) > 20:
            raise ValueError("enumeration fallback supports at most 20 support items")
        master.extend(frozenset(support[t] for t in range(len(support)) if mask >> t & 1)
                      for mask in range(1, 1 << len(support)))

    rounds = 0
    while True:
        res = master.solve(x_univ)
        q = float(res.dual_eq[0])
        p_univ = np.maximum(res.dual_ub, 0.0)
        prices = np.zeros(v.m)
        prices[universe] = p_univ
        if method == "enumerate":
            break
        rounds += 1
        hit = demand(v, prices, items=universe, table=master.subsets)
        gap = hit.utility - q
        if gap <= COLGEN_TOL * max(1.0, abs(res.value)):
            break
        if hit.items in master:
            # the dual already prices this column; residual gap is numerical
            if gap <= 1e-7 * max(1.0, abs(res.value)):
                break
            raise ConvergenceError("column generation stalled", gap)
        if rounds >= COLGEN_MAX_ROUNDS:
            raise ConvergenceError("column generation round cap exceeded", gap, capped=True)
        master.extend([hit.items])

    columns = [(master.columns[k], float(res.x[k])) for k in np.flatnonzero(res.x > 1e-12)]
    total = sum(w for _, w in columns)
    columns = [(s, w / total) for s, w in columns]
    value = float(res.value)
    dual_value = q + float(p_univ @ x_univ)
    if abs(value - dual_value) > 1e-6 * (1.0 + abs(value)):
        raise ConvergenceError("duality certificate failed", abs(value - dual_value))
    return ConcaveExtValue(value=value, q=q, prices=prices, columns=columns,
                           rounds=rounds)


@dataclass
class LogSupergradient:
    base: float
    grad: np.ndarray

    def linearization(self, y: np.ndarray, x: np.ndarray) -> float:
        return self.base + float(self.grad @ (y - x))


def supergradient_log(v: Valuation, x,
                      ext: ConcaveExtValue | None = None) -> LogSupergradient:
    """Supergradient of log v+ at x: grad = p / (q + p.x).

    The linearization touches log v+ at x and dominates it everywhere on
    the universe, including at the kinks where the dual is not unique.
    """
    x = np.asarray(x, dtype=float)
    if ext is None:
        ext = concave_ext(v, x)
    denom = ext.q + float(ext.prices @ x)
    if ext.value <= 0 or denom <= 0:
        raise ValueError("supergradient undefined where the extension is zero")
    return LogSupergradient(base=math.log(denom), grad=ext.prices / denom)


# ---------------------------------------------------------------------------
# Eisenberg-Gale relaxation


def default_epsilon(alpha: float, n_agents: int) -> float:
    """Interior floor that turns eps^4-approximate optima into the
    (1 + alpha) scaled-optimum contract."""
    return alpha / (2.0 + (1.0 + alpha) * n_agents)


@dataclass
class EgParams:
    alpha: float = 0.25
    epsilon: float | None = None
    max_iterations: int = 600

    def floor(self, n_agents: int) -> float:
        eps = self.epsilon if self.epsilon is not None else default_epsilon(self.alpha, n_agents)
        if not 0 < eps * n_agents < 1:
            raise ValueError(f"interior floor {eps} infeasible for {n_agents} agents")
        return eps


def trace_csv(trace: Iterable[tuple[int, float, float, float]]) -> str:
    """CSV of an EG trace, one row per iteration (a Newton step for an
    all-additive agent set, whose step is the step length); no rows for no
    trace."""
    lines = ["# schema=1", "iteration,objective,gap,step"]
    lines.extend(f"{t},{obj!r},{gap!r},{step!r}" for t, obj, gap, step in trace)
    return "\n".join(lines) + "\n"


@dataclass
class EgResult:
    agents: list[int]
    items: list[int]
    x: ItemFractional
    extensions: dict[int, ConcaveExtValue]
    objective: float
    gap: float
    epsilon: float
    iterations: int
    converged: bool
    trace: list[tuple[int, float, float, float]] = field(default_factory=list, repr=False)

    def values(self) -> dict[int, float]:
        return {i: self.extensions[i].value for i in self.agents}

    def config(self) -> ConfigSolution:
        return ConfigSolution({i: list(self.extensions[i].columns) for i in self.agents})


def _project_capped(mat: np.ndarray, eps: float) -> np.ndarray:
    """Euclidean projection of each item's agent-masses (a column of the
    agents x items matrix) onto {z >= eps, sum z <= 1}.

    Works on the transpose, so that every item's sums run along a
    contiguous axis in numpy's pairwise order, as a 1-D sum would.
    """
    w = np.ascontiguousarray(mat.T) - eps
    n_a = mat.shape[0]
    budget = 1.0 - eps * n_a
    w0 = np.maximum(w, 0.0)
    inside = w0.sum(axis=1) <= budget + 1e-15
    u = np.sort(w, axis=1)[:, ::-1]
    css = np.cumsum(u, axis=1) - budget
    positive = u - css / np.arange(1, n_a + 1) > 0
    rho = n_a - 1 - np.argmax(positive[:, ::-1], axis=1)
    theta = css[np.arange(css.shape[0]), rho] / (rho + 1.0)
    out = np.where(inside[:, None], w0, np.maximum(w - theta[:, None], 0.0)) + eps
    return np.ascontiguousarray(out.T)


def additive_subproblems(weights: np.ndarray, prices: np.ndarray, eps: float) -> np.ndarray:
    """max over x in [eps, 1]^m of log(w_i.x) - p.x for each row w_i of
    `weights`, at prices p >= 0, in closed form.

    The maximizer raises items from eps to 1 in decreasing order of w_j/p_j
    (ties by index) while that ratio exceeds the value reached. With the
    first k items at 1 the value is V_k = eps W + (1 - eps) A_k, where A_k
    is their weight and W the total. The sweep takes the first k with
    V_k >= w/p of item k + 1; if V_k passes the ratio of item k, that item
    stops part way, where the value meets its ratio.
    """
    n_a, m_i = weights.shape
    ratio = np.divide(weights, prices, out=np.where(weights > 0, np.inf, 0.0),
                      where=prices > 0)
    order = np.lexsort((np.broadcast_to(np.arange(m_i), (n_a, m_i)), -ratio), axis=1)
    r = np.take_along_axis(ratio, order, axis=1)
    zero = np.zeros((n_a, 1))
    value = eps * weights.sum(axis=1, keepdims=True) + (1.0 - eps) * np.hstack(
        [zero, np.cumsum(np.take_along_axis(weights, order, axis=1), axis=1)])
    cost = eps * prices.sum() + (1.0 - eps) * np.hstack([zero, np.cumsum(prices[order], axis=1)])
    k = np.argmax(value >= np.hstack([r, zero]), axis=1)  # V_m >= 0 always holds
    rows = np.arange(n_a)
    best, spent = value[rows, k], cost[rows, k]
    edge = np.where(k > 0, r[rows, k - 1], np.inf)
    part = np.flatnonzero(best > edge)
    below = k[part] - 1
    best[part] = edge[part]
    # item k stops at mass eps + (V - V_{k-1}) / w, costing (V - V_{k-1}) p / w
    spent[part] = cost[part, below] + (edge[part] - value[part, below]) / edge[part]
    return np.log(best) - spent


def lagrangian_bound(weights: np.ndarray, prices: np.ndarray, eps: float) -> float:
    """D(p) = sum_j p_j + sum_i max_{x in [eps,1]^m} (log w_i.x - p.x).

    It dualizes only the capacity rows sum_i x_ij <= 1, so at any prices
    p >= 0 it bounds the floored Eisenberg-Gale optimum of additive agents
    from above (weak duality), however p was found.
    """
    return float(prices.sum() + additive_subproblems(weights, prices, eps).sum())


def systematic_columns(x: np.ndarray,
                       items: Iterable[int]) -> list[tuple[frozenset[int], float]]:
    """Systematic-sampling decomposition of item masses x in [0, 1].

    Lay the masses end to end in item order and, for u in [0, 1), take the
    items whose segment holds a point u + k for an integer k. The set only
    changes at the fractional parts of the partial sums, so there are at
    most len(x) + 1 sets, each of floor or ceil of sum(x) items. Each set
    weighs the length of its range of u, and item j's marginal is x_j. The
    decomposition is a function of x alone.
    """
    ends = np.concatenate([[0.0], np.cumsum(x)])
    cuts = np.append(np.unique(ends - np.floor(ends)), 1.0)
    mid = (cuts[:-1] + cuts[1:]) / 2.0
    ranks = np.ceil(ends[None, :] - mid[:, None])
    labels = np.fromiter(items, dtype=np.int64)
    columns: dict[frozenset[int], float] = {}
    # float partial sums can leave slivers of u that repeat a set; pool them
    for member, width in zip(ranks[:, 1:] > ranks[:, :-1], np.diff(cuts)):
        key = frozenset(labels[member].tolist())
        columns[key] = columns.get(key, 0.0) + float(width)
    return list(columns.items())


def _barrier_eg(weights: np.ndarray, eps: float, max_iterations: int):
    """Damped-Newton log barrier for max sum_i log(w_i.x_i) over x >= eps
    and sum_i x_ij <= 1, with `weights` agents x items.

    Each Newton step minimizes -t sum_i log(w_i.x_i) - sum log(x - eps)
    - sum_j log s_j, where s are the capacity slacks, and t grows by
    `BARRIER_GROWTH` after each step that starts near the central path.
    After every step each item's slack is filled, which can only raise the
    objective: mass an agent holds above the floor on an item it values at
    zero goes back to the floor, and the item's agents that value it (all
    of its agents, if none does) take the free capacity in proportion to
    their masses. The Lagrangian bound D(p) at the barrier's capacity
    prices p_j = 1/(t s_j) certifies that filled point, and the solve stops
    once D(p) - objective <= eps^4 n. Returns the last filled point, its
    agents' values w_i.x_i, the trace (one row per Newton step, with its
    step length) and whether the certificate was met.
    """
    n_a, m_i = weights.shape
    target = eps ** 4 * n_a
    x = np.full((n_a, m_i), eps + (1.0 - n_a * eps) / (n_a + 1))
    t = 1.0
    size, agents, cols = n_a * m_i, np.arange(n_a), np.arange(m_i)
    outer = weights[:, :, None] * weights[:, None, :]
    valued = weights > 0
    takers = valued | ~valued.any(axis=0)  # who takes an item's slack

    def barrier(y):
        with np.errstate(divide="ignore", invalid="ignore"):
            return (-t * np.log((weights * y).sum(axis=1)).sum() - np.log(y - eps).sum()
                    - np.log(1.0 - y.sum(axis=0)).sum())

    trace: list[tuple[int, float, float, float]] = []
    converged = False
    for it in range(1, max_iterations + 1):
        v = (weights * x).sum(axis=1)
        z = x - eps
        s = 1.0 - x.sum(axis=0)
        grad = (-t * weights / v[:, None] - 1.0 / z + 1.0 / s).ravel()
        hess = np.zeros((size, size))
        blocks = hess.reshape(n_a, m_i, n_a, m_i)
        blocks[:, cols, :, cols] = (s ** -2.0)[:, None, None]  # capacity rows couple agents
        blocks[agents, :, agents, :] += (t / v ** 2)[:, None, None] * outer
        hess.flat[::size + 1] += (z ** -2.0).ravel()
        try:
            step = np.linalg.solve(hess, -grad)
        except np.linalg.LinAlgError:  # t has outgrown double precision
            break
        decrement = float(-grad @ step)
        dx = step.reshape(n_a, m_i)
        # the longest step that stays interior (x > eps keeps w.x > 0),
        # then Armijo backtracking
        ds = -dx.sum(axis=0)
        limits = np.concatenate([-z[dx < 0] / dx[dx < 0], -s[ds < 0] / ds[ds < 0], [np.inf]])
        alpha = min(1.0, 0.99 * float(limits.min()))
        f0 = barrier(x)
        while not barrier(x + alpha * dx) <= f0 - 0.25 * alpha * decrement and alpha > 1e-12:
            alpha *= 0.5
        x = x + alpha * dx
        s = 1.0 - x.sum(axis=0)
        held = np.where(valued, x, eps)
        filled = held + (1.0 - held.sum(axis=0)) * (held * takers) / (held * takers).sum(axis=0)
        values = (weights * filled).sum(axis=1)
        obj = float(np.log(values).sum())
        gap = lagrangian_bound(weights, 1.0 / (t * s), eps) - obj
        trace.append((it, obj, gap, alpha))
        if gap <= target:
            converged = True
            break
        if decrement <= 2.0 * CENTERING_TOL:
            t *= BARRIER_GROWTH
    return filled, values, trace, converged


def _supergradient_eg(inst: Instance, agent_list: list[int], item_idx: np.ndarray,
                      eps: float, max_iterations: int):
    """Projected supergradient ascent on sum_i log v+_i(x_i) from the even
    split, with one `RestrictedMaster` per agent for all iterations.
    Returns the best iterate, its extensions and objective, the trace and
    whether the vertex gap met eps^4 n."""
    n_a, m_i = len(agent_list), item_idx.size
    gap_target = eps ** 4 * n_a
    x_mat = np.full((n_a, m_i), 1.0 / n_a)
    masters = {i: RestrictedMaster(inst.valuations[i], item_idx) for i in agent_list}

    def evaluate(mat):
        exts, grads, obj = {}, np.zeros_like(mat), 0.0
        for k, i in enumerate(agent_list):
            x_full = np.zeros(inst.m)
            x_full[item_idx] = mat[k]
            ext = concave_ext(inst.valuations[i], x_full, master=masters[i])
            sg = supergradient_log(inst.valuations[i], x_full, ext=ext)
            exts[i] = ext
            grads[k] = sg.grad[item_idx]
            obj += sg.base
        return exts, grads, obj

    best_obj, best_mat, best_exts = -np.inf, None, None
    gap = np.inf
    trace: list[tuple[int, float, float, float]] = []
    stale = 0
    converged = False
    for t in range(1, max_iterations + 1):
        exts, grads, obj = evaluate(x_mat)
        if obj > best_obj + OBJECTIVE_TOL:
            best_obj, best_mat, best_exts = obj, x_mat.copy(), exts
            stale = 0
        else:
            stale += 1
        vertex = np.full_like(x_mat, eps)
        winners = np.argmax(grads, axis=0)
        vertex[winners, np.arange(m_i)] += 1.0 - n_a * eps
        gap = float((grads * (vertex - x_mat)).sum())
        step = STEP_SCALE / math.sqrt(t)
        trace.append((t, obj, gap, step))
        if gap <= gap_target:
            converged = True
            if obj >= best_obj - OBJECTIVE_TOL:
                best_obj, best_mat, best_exts = obj, x_mat.copy(), exts
            break
        if stale >= PATIENCE:
            break
        x_mat = _project_capped(x_mat + step * grads, eps)

    if best_mat is None:  # pragma: no cover - first evaluate always records
        raise ConvergenceError("no iterate evaluated", gap)
    return best_mat, best_exts, best_obj, trace, converged


def solve_eg(inst: Instance, agents: Iterable[int], items: Iterable[int],
             params: EgParams | None = None) -> EgResult:
    """Maximize sum_i log v+_i(x_i) over the eps-floored capacity polytope.

    When every agent is `Additive`, v+_i(x) = w_i.x and the program is
    smooth: `_barrier_eg` solves it by Newton steps and certifies it with
    the Lagrangian bound D(p), and each extension is closed-form, with the
    systematic-sampling columns of its x. No restricted LP, demand query
    or simplex runs. `iterations` counts Newton steps, and `converged`
    means D(p) - objective <= eps^4 n.

    Any other agent set runs projected supergradient ascent with steps
    `STEP_SCALE`/sqrt(t), tracking the best iterate with its dual
    certificates. It stops on a duality-gap certificate of eps^4 per agent
    (against the best vertex of the linearization), when the objective has
    not gained `OBJECTIVE_TOL` for `PATIENCE` iterations, or after
    `params.max_iterations`. Each agent keeps one `RestrictedMaster` for
    the whole solve: columns found by column generation stay in it with
    their values, and since an iteration changes only the item masses,
    every restricted LP restarts from the previous iteration's basis.

    On both paths every trace row's objective plus gap bounds the optimum
    from above, and the reported `gap` bounds the returned point: the
    smallest objective-plus-gap over the trace, less its objective.
    `params.max_iterations` caps the iterations or Newton steps.
    """
    params = params or EgParams()
    agent_list = sorted(set(agents))
    item_list = sorted(set(items))
    if not agent_list:
        raise ValueError("need at least one agent")
    item_idx = np.array(item_list, dtype=np.int64)
    for i in agent_list:
        if inst.valuations[i].value(item_list) <= 0:
            raise ValueError(f"agent {i} derives no value from the item pool")

    eps = params.floor(len(agent_list))
    if all(isinstance(inst.valuations[i], Additive) for i in agent_list):
        weights = np.stack([inst.valuations[i].weights for i in agent_list])
        best_mat, values, trace, converged = _barrier_eg(
            weights[:, item_idx], eps, params.max_iterations)
        best_exts = {}
        for k, i in enumerate(agent_list):
            prices = np.zeros(inst.m)
            prices[item_idx] = weights[k, item_idx]
            best_exts[i] = ConcaveExtValue(
                value=float(values[k]), q=0.0, prices=prices,
                columns=systematic_columns(best_mat[k], item_list), rounds=0)
        best_obj = trace[-1][1]
    else:
        best_mat, best_exts, best_obj, trace, converged = _supergradient_eg(
            inst, agent_list, item_idx, eps, params.max_iterations)
    mass = {i: {int(j): float(best_mat[k, jj]) for jj, j in enumerate(item_list)}
            for k, i in enumerate(agent_list)}
    frac = ItemFractional(mass)
    frac.validate(inst.m)
    # OPT <= obj_t + gap_t at every evaluated t, so the tightest of these
    # bounds the returned iterate's own gap
    bound = min(o + g for _, o, g, _ in trace)
    return EgResult(agents=agent_list, items=item_list, x=frac,
                    extensions=best_exts, objective=best_obj, gap=bound - best_obj,
                    epsilon=eps, iterations=len(trace), converged=converged,
                    trace=trace)


def scaled_optimum_check(inst: Instance, eg: EgResult, alpha: float,
                         tol: float = 1e-6) -> tuple[float, bool]:
    """Exact contract check: the scaled configuration-LP optimum against
    the solver's own targets must stay below (1 + alpha) * |agents|."""
    targets = eg.values()
    res = exact_config_lp(inst, objective="scaled", targets=targets,
                          agents=eg.agents, items=eg.items)
    ratio = res.optimum
    return ratio, ratio <= (1.0 + alpha) * len(eg.agents) + tol
