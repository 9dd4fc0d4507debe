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

- An agent set of additive and XOS agents is one convex program. An
  additive or one-clause agent has v+_i(x) = c.x. An agent with several
  clauses takes each set's value from its best clause, so v+_i is a
  mixture of clauses: one mass vector y_k per clause, with
  0 <= y_k <= beta_k, sum_k beta_k = 1 and x_i = sum_k y_k, gives exactly
  v+_i(x) = max sum_k c_k.y_k (the compact form of the configuration LP;
  Feige 2009). A damped-Newton log barrier (Boyd and Vandenberghe 2004,
  ch. 11) solves the Eisenberg-Gale program over these blocks (Eisenberg
  and Gale 1959), and the Lagrangian bound D(p) at the barrier's capacity
  prices certifies it: each agent's subproblem is bounded in closed form.
  A one-clause agent's extension is closed-form too (the certificate
  q = 0, p = c and the systematic-sampling decomposition of x), and a
  several-clause agent's is one cold `concave_ext` at the returned x.
  No restricted LP, demand query or simplex runs on an all-additive set.
- An agent set with a budgeted-additive or table agent runs projected
  supergradient ascent with diminishing steps, keeping one restricted
  master per agent for all of its iterations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from ._lp import LpResult, maximize
from .model import ConfigSolution, Instance, ItemFractional
from .oracle import exact_config_lp
from .valuations import Additive, SubsetTable, Valuation, Xos, demand

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
    additive and XOS agent set, whose step is the step length; the last
    row's objective is at the returned extensions); no rows for no
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


def xos_subproblem_bound(clauses: np.ndarray, prices: np.ndarray, eps: float,
                         v0, lam: np.ndarray):
    """An upper bound on max over x in [eps, 1]^m of log v+(x) - p.x for
    the XOS valuation with rows `clauses`, at prices p >= 0, for any
    v0 > 0 and any lam in [0, p]:

        log v0 - 1 - eps sum_j (p_j - lam_j) + max_k sum_j (c_kj/v0 - lam_j)^+

    Since log V <= log v0 + V/v0 - 1, x >= eps and p - lam >= 0, the
    objective is at most log v0 - 1 - eps sum (p - lam) + v+(x)/v0 - lam.x,
    and v+(x)/v0 - lam.x is at most the best v(S)/v0 - lam(S) over sets S:
    the XOS demand at prices v0 lam, whose best clause keeps exactly its
    items with c_kj/v0 > lam_j. A zero clause changes nothing, so agents
    stack along leading axes (clauses ... x K x m, v0 ..., lam ... x m)
    padded with zero clauses.
    """
    v0 = np.asarray(v0, dtype=float)
    return (np.log(v0) - 1.0 - eps * (prices - lam).sum(axis=-1)
            + np.maximum(clauses / v0[..., None, None] - lam[..., None, :], 0.0)
            .sum(axis=-1).max(axis=-1))


def _barrier_eg(clauses: list[np.ndarray], eps: float, max_iterations: int):
    """Damped-Newton log barrier for max sum_i log v+_i(x_i) over x >= eps
    and sum_i x_ij <= 1, for XOS agents given by their clause matrices
    (K_i x items; an additive agent is one clause).

    A one-clause agent's variables are its masses x_i, and v+_i(x) = c.x.
    An agent with K >= 2 clauses c_k is lifted: one mass vector y_k per
    clause and clause weights beta, with 0 <= y_kj <= beta_k,
    sum_k beta_k = 1 (an equality row of the Newton system) and
    x_i = sum_k y_k, and its term is log sum_k c_k.y_k. A set takes its
    value from its best clause, so this program equals v+ (with c >= 0 and
    sum beta = 1 >= x, no mass is ever left unplaced).

    Each Newton step minimizes -t sum_i log v_i - sum log(x - eps)
    - sum_j log s_j - sum (log y + log(beta - y)), where s are the
    capacity slacks, and t grows by `BARRIER_GROWTH` after each step that
    starts near the central path. After every step each item's slack is
    filled, which can only raise the objective: mass an agent holds above
    the floor on an item it values at zero goes back to the floor, and the
    item's agents that value it (all of its agents, if none does) take the
    free capacity in proportion to their masses; a lifted agent spreads
    what it takes over its clauses in proportion to their room
    beta_k - y_kj. The Lagrangian bound D(p) at the barrier's capacity
    prices p_j = 1/(t s_j) certifies that filled point: `additive_subproblems`
    bounds the one-clause agents, and `xos_subproblem_bound` each lifted
    agent at its value and at the prices net of its floor multipliers
    1/(t (x_j - eps)). The solve stops once D(p) - objective <= eps^4 n. It
    breaks off, unconverged, when the Newton system turns singular or a
    slack or the bound stops being finite (t has outgrown double
    precision). Returns the last certified filled point, its agents' values
    (a lifted agent's at its filled y), the trace (one row per Newton step,
    with its step length) and the last row's D(p).
    """
    n_a, m_i = len(clauses), clauses[0].shape[1]
    target = eps ** 4 * n_a
    rows = np.array([c.shape[0] for c in clauses])
    lifted = np.flatnonzero(rows > 1)
    weights = np.stack([c[0] if c.shape[0] == 1 else np.zeros(m_i) for c in clauses])
    singles = weights[rows == 1]
    valued = np.stack([c.max(axis=0) > 0 for c in clauses])
    takers = valued | ~valued.any(axis=0)  # who takes an item's slack

    # The Newton variables, agent by agent: a one-clause agent's masses, or
    # a lifted agent's y (clause-major) and then its beta. `var` lists the
    # mass variables in (agent, clause, item) order.
    widths = np.where(rows > 1, rows * (m_i + 1), m_i)
    base = np.concatenate([[0], np.cumsum(widths)])
    size, n_eq = int(base[-1]), lifted.size
    var = np.concatenate([base[k] + np.arange(rows[k] * m_i) for k in range(n_a)])
    var_agent = np.repeat(np.arange(n_a), rows * m_i)
    var_item = np.tile(np.arange(m_i), int(rows.sum()))
    var_x = var_agent * m_i + var_item  # the flat (agent, item) each one adds to
    var_coef = np.concatenate([c.ravel() for c in clauses])
    # Hessian pattern: pairs on one item (capacity), pairs of one agent
    # (objective) and pairs on one item of one agent (floor)
    a, b = np.meshgrid(np.arange(var.size), np.arange(var.size), indexing="ij")
    a, b = a.ravel(), b.ravel()
    same_item, same_agent = var_item[a] == var_item[b], var_agent[a] == var_agent[b]
    keep = same_item | same_agent
    a, b, same_item, same_agent = a[keep], b[keep], same_item[keep], same_agent[keep]
    pat_r, pat_c = var[a], var[b]
    pat_cap = np.where(same_item, var_item[a], m_i)  # m_i: a zero
    pat_agent = var_agent[a]
    pat_outer = np.where(same_agent, var_coef[a] * var_coef[b], 0.0)
    pat_floor = np.where(same_item & same_agent, var_x[a], n_a * m_i)
    # lifted agents, padded to the most clauses: y and beta indices into u
    # with one zero appended (index `size`), and their clauses
    k_max = int(rows.max())
    y_idx = np.full((n_eq, k_max, m_i), size)
    b_idx = np.full((n_eq, k_max), size)
    c_pad = np.zeros((n_eq, k_max, m_i))
    for r, k in enumerate(lifted):
        y_idx[r, :rows[k]] = base[k] + np.arange(rows[k] * m_i).reshape(rows[k], m_i)
        b_idx[r, :rows[k]] = base[k] + rows[k] * m_i + np.arange(rows[k])
        c_pad[r, :rows[k]] = clauses[k]
    real = y_idx < size
    box_y = y_idx[real]
    box_b = np.broadcast_to(b_idx[:, :, None], y_idx.shape)[real]
    beta_var = b_idx[b_idx < size]
    eq_row = np.broadcast_to(np.arange(n_eq)[:, None], b_idx.shape)[b_idx < size]
    box_beta = np.searchsorted(beta_var, box_b)
    eq_start = np.searchsorted(eq_row, np.arange(n_eq))

    def state(u):
        """The masses, agent values, floor and capacity slacks at u, the
        lifted agents' box slacks y and beta - y, and the barrier's terms:
        sum log v, then the rest."""
        x = np.bincount(var_x, weights=u[var], minlength=n_a * m_i).reshape(n_a, m_i)
        v = (weights * x).sum(axis=1)
        if n_eq:
            v[lifted] = (c_pad * np.append(u, 0.0)[y_idx]).sum(axis=(1, 2))
        z, s = x - eps, 1.0 - x.sum(axis=0)
        lo, hi = u[box_y], u[box_b] - u[box_y]
        with np.errstate(divide="ignore", invalid="ignore"):
            terms = [np.log(v).sum(), np.log(z).sum(), np.log(s).sum()]
            if n_eq:
                terms.append(np.log(lo).sum() + np.log(hi).sum())
        return x, v, z, s, lo, hi, terms

    def barrier(terms):
        f = -t * terms[0]
        for term in terms[1:]:
            f -= term
        return f

    u = np.zeros(size)
    u[var] = (eps + (1.0 - n_a * eps) / (n_a + 1)) / rows[var_agent]
    u[beta_var] = 1.0 / rows[lifted][eq_row]
    x, v, z, s, lo, hi, terms = state(u)
    t = 1.0
    trace: list[tuple[int, float, float, float]] = []
    result = None
    for it in range(1, max_iterations + 1):
        grad = np.zeros(size)
        grad[var] = -t * var_coef / v[var_agent] - (1.0 / z).ravel()[var_x] + (1.0 / s)[var_item]
        system = np.zeros((size + n_eq, size + n_eq))
        # capacity rows couple agents; then each agent's objective, then the floor
        system[pat_r, pat_c] = ((np.append(s ** -2.0, 0.0)[pat_cap]
                                 + (t / v ** 2)[pat_agent] * pat_outer)
                                + np.append(z ** -2.0, 0.0)[pat_floor])
        rhs = -grad
        if n_eq:
            grad[box_y] += 1.0 / hi - 1.0 / lo
            grad[beta_var] = -np.bincount(box_beta, weights=1.0 / hi, minlength=beta_var.size)
            system[box_y, box_y] += lo ** -2.0 + hi ** -2.0
            system[box_y, box_b] = system[box_b, box_y] = -hi ** -2.0
            system[beta_var, beta_var] = np.bincount(box_beta, weights=hi ** -2.0,
                                                     minlength=beta_var.size)
            system[size + eq_row, beta_var] = system[beta_var, size + eq_row] = 1.0
            # the equality rows make the system indefinite, and once t is
            # large its diagonal spans many orders: solve it Jacobi-scaled
            d = np.ones(size + n_eq)
            d[:size] = np.diag(system)[:size] ** -0.5
            d[size:] = 1.0 / np.maximum.reduceat(d[beta_var], eq_start)
            system *= d[:, None] * d
            rhs = d * np.concatenate([-grad, np.zeros(n_eq)])
        try:
            step = np.linalg.solve(system, rhs)
        except np.linalg.LinAlgError:  # t has outgrown double precision
            break
        if n_eq:
            step = (d * step)[:size]
        decrement = float(-grad @ step)
        dx = np.bincount(var_x, weights=step[var], minlength=n_a * m_i).reshape(n_a, m_i)
        # the longest step that stays interior (x > eps keeps every value
        # positive), then Armijo backtracking
        ds = -dx.sum(axis=0)
        limits = [-z[dx < 0] / dx[dx < 0], -s[ds < 0] / ds[ds < 0], [np.inf]]
        if n_eq:
            dlo, dhi = step[box_y], step[box_b] - step[box_y]
            limits += [-lo[dlo < 0] / dlo[dlo < 0], -hi[dhi < 0] / dhi[dhi < 0]]
        alpha = min(1.0, 0.99 * float(np.concatenate(limits).min()))
        f0 = barrier(terms)
        while True:
            x, v, z, s, lo, hi, terms = state(u + alpha * step)
            if barrier(terms) <= f0 - 0.25 * alpha * decrement or alpha <= 1e-12:
                break
            alpha *= 0.5
        u = u + alpha * step
        held = np.where(valued, x, eps)
        filled = held + (1.0 - held.sum(axis=0)) * (held * takers) / (held * takers).sum(axis=0)
        values = (weights * filled).sum(axis=1)
        with np.errstate(divide="ignore", invalid="ignore"):
            prices = 1.0 / (t * s)
            bound = lagrangian_bound(singles, prices, eps) if len(singles) else float(prices.sum())
            if n_eq:
                y = np.append(u, 0.0)[y_idx] * (held[lifted] / x[lifted])[:, None, :]
                room = np.append(u, 0.0)[b_idx][:, :, None] - y
                y += (filled - held)[lifted][:, None, :] * room / room.sum(axis=1, keepdims=True)
                values[lifted] = (c_pad * y).sum(axis=(1, 2))
                lam = np.clip(prices - 1.0 / (t * z[lifted]), 0.0, prices)
                bound += float(xos_subproblem_bound(c_pad, prices, eps, v[lifted], lam).sum())
            obj = float(np.log(values).sum())
        gap = bound - obj
        slack = min(z.min(), s.min(), lo.min(initial=1.0), hi.min(initial=1.0))
        if not (slack > 0 and math.isfinite(gap)):
            break  # t has outgrown double precision
        result = filled, values, bound
        trace.append((it, obj, gap, alpha))
        if gap <= target:
            break
        if decrement <= 2.0 * CENTERING_TOL:
            t *= BARRIER_GROWTH
    if result is None:
        raise ConvergenceError("no Newton step was certified", math.inf)
    filled, values, bound = result
    return filled, values, trace, bound


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

    When every agent is `Additive` or `Xos`, `_barrier_eg` solves the
    program by Newton steps and certifies it with the Lagrangian bound
    D(p). An additive or one-clause agent is one block of masses, with
    v+_i(x) = c.x. An agent with several clauses is lifted to one mass
    vector per clause plus clause weights, a program whose value is
    exactly v+. A one-clause agent's extension is closed-form, with the
    systematic-sampling columns of its x; a lifted agent's is one cold
    `concave_ext` at the returned x, which gives its exact v+, certificate
    and columns. The last trace row carries sum_i log v+_i at the returned
    point and D(p) less that. No restricted LP, demand query or simplex
    runs on an all-additive agent set. `iterations` counts Newton steps,
    and `converged` means D(p) - objective <= eps^4 n.

    Any other agent set (one with a budgeted-additive or table agent)
    runs projected supergradient ascent with steps `STEP_SCALE`/sqrt(t),
    tracking the best iterate with its dual certificates. It stops on a
    duality-gap certificate of eps^4 per agent (against the best vertex
    of the linearization), when the objective has not gained
    `OBJECTIVE_TOL` for `PATIENCE` iterations, or after
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
    vals = [inst.valuations[i] for i in agent_list]
    if all(isinstance(v, (Additive, Xos)) for v in vals):
        clauses = [(v.weights[None, :] if isinstance(v, Additive) else v.clauses)[:, item_idx]
                   for v in vals]
        best_mat, values, trace, last_bound = _barrier_eg(clauses, eps, params.max_iterations)
        best_exts = {}
        for k, i in enumerate(agent_list):
            if clauses[k].shape[0] == 1:
                prices = np.zeros(inst.m)
                prices[item_idx] = clauses[k][0]
                best_exts[i] = ConcaveExtValue(
                    value=float(values[k]), q=0.0, prices=prices,
                    columns=systematic_columns(best_mat[k], item_list), rounds=0)
            else:
                x_full = np.zeros(inst.m)
                x_full[item_idx] = best_mat[k]
                best_exts[i] = concave_ext(vals[k], x_full, items=item_list)
                values[k] = best_exts[i].value
        if any(c.shape[0] > 1 for c in clauses):
            it, _, _, step = trace[-1]
            obj = float(np.log(values).sum())
            trace[-1] = (it, obj, last_bound - obj, step)
        best_obj = trace[-1][1]
        converged = trace[-1][2] <= eps ** 4 * len(agent_list)
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
