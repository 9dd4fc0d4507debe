"""The concave extension, and the Eisenberg-Gale relaxation with its
decomposition.

The concave extension v+(x) of a valuation at fractional item masses x is
the LP value of the best distribution over item sets consistent with x.
`concave_ext` computes it by column generation (Gilmore and Gomory): the
demand oracle is exactly the separation oracle of the dual, so each round
either certifies optimality (no set beats its price) or contributes a new
column, and each round solves its restricted master cold with
`_lp.maximize`. The oracle is `demand` for an XOS valuation and otherwise
`table_demand` over the valuation's one `subset_values` row. The
returned dual pair (q, p) satisfies q + p(S) >= v(S) for every set over
the universe. The relaxation does not call it: it is the standalone,
certified reference that the tests, `fuzz` and the demos check the
relaxation against.

`solve_eg` maximizes sum_i log v+_i(x_i) over the per-item capacity
polytope with an interior floor x >= eps. The floor is what converts
approximate optimality into the scaled-optimum contract checked by
`oracle.scaled_optimum_check`. One primal-dual interior-point loop,
`_interior_point`, solves it over one of two compact forms of the
configuration LP (Feige 2009) in the Eisenberg-Gale program (Eisenberg
and Gale 1959), and the Lagrangian bound D(p) at its capacity duals
certifies every step. A form supplies only closures over its own index
arrays (its slacks, Newton system and subproblem bound), and hands out,
for every agent, the distribution over sets that rounding needs: loads
within the agent's masses, mixture value at least the certified value.

- An agent set of additive and XOS agents runs `_barrier_eg`, over
  clause blocks. An additive or one-clause agent has v+_i(x) = c.x. An
  agent with several clauses takes each set's value from its best
  clause, so v+_i is a mixture of clauses: one mass vector y_k per
  clause, with 0 <= y_k <= beta_k, sum_k beta_k = 1 and
  x_i = sum_k y_k, gives exactly v+_i(x) = max sum_k c_k.y_k. Every
  agent's subproblem is bounded by an XOS demand query at prices v0 lam
  (`xos_subproblem_bound`), an additive or one-clause agent as one
  clause. A one-clause agent's columns are the systematic-sampling
  decomposition of its masses (`systematic_columns`); a lifted agent's
  are an optimal vertex over its clauses' systematic-sampling sets
  (`clause_columns`).
- An agent set with a budgeted-additive or table agent runs
  `_config_barrier_eg`, over the configuration program itself: each
  agent puts mass on sets of the remaining items, priced over its values
  of every such set, which also bound its subproblem
  (`table_subproblem_bound`, which prices every set with
  `valuations.mask_sums`) and pick the sets that join its columns. One
  `subset_values` call values every agent's sets, an additive or XOS
  agent's too. Each agent's columns are an optimal vertex over the sets
  it holds.

Each step is one `_predictor_corrector` call, which factors the
Jacobi-scaled Newton system with LAPACK's `dgetrf` and solves with
`dgetrs`. Those two routines are loaded from `scipy.linalg.lapack` at the
first factorization of a process, not at import, so a process that never
takes a Newton step (the exact oracles, `concave_ext`, instance
generation) loads numpy alone. `_barrier_eg` assembles its system from a
fixed pattern over its variables; `_config_barrier_eg` builds its system,
masses, values and slack changes from one incidence matrix of the held
columns. Every vertex is one cold `_lp.maximize` in `vertex_columns`,
which keeps at most k + 1 sets over k items.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from ._lp import maximize
from .model import CHECK_TOL, Instance, InvariantViolation, ItemFractional
from .valuations import (
    CapExceeded,
    Valuation,
    Xos,
    demand,
    item_universe,
    mask_incidence,
    mask_sums,
    subset_values,
    table_demand,
)

COLGEN_TOL = 1e-9  # relative gap at which column generation stops
COLGEN_MAX_ROUNDS = 500  # column generation rounds before CapExceeded
ADMIT_PER_STEP = 4  # most sets one agent admits to its columns in one step
ADMIT_SHARE = 0.03  # an admitted set beats the best held one by this share of the gap
ADMIT_MISS = 1e-6  # most an admission ray with x_i fixed may move x_i or the agent's mass
MAX_ITERATIONS = 600  # most Newton steps of one relaxation

_lapack = None  # (dgetrf, dgetrs) from scipy.linalg.lapack, bound at the first factorization


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


def concave_ext(v: Valuation, x, items: Iterable[int] | None = None) -> ConcaveExtValue:
    """Concave extension of v at item masses x over the given universe
    (every item by default), by demand-oracle column generation.

    The restricted master starts from the empty set and the singletons,
    and each round solves it cold. The dual is certified over every subset
    of the universe: the solve stops once no set's utility at the prices
    exceeds q by more than `COLGEN_TOL` (relative to the value), and
    raises `CapExceeded` after `COLGEN_MAX_ROUNDS` rounds; a stall or a
    failed duality certificate raises `InvariantViolation`. An `Xos`
    valuation's rounds send `demand` queries; any other valuation's
    rounds price its one `subset_values` row of the universe, enumerated
    once per call, with `table_demand`, so its universe must have at most
    `EXHAUSTIVE_CAP` items. The LP over every subset is `vertex_columns`
    on the universe's whole table. Masses that are not
    one per item of v, or outside [0, 1] on the universe, and a universe
    that `item_universe` rejects raise ValueError.
    """
    x = np.asarray(x, dtype=float)
    if x.shape != (v.m,):
        raise ValueError(f"item masses must hold {v.m} entries, one per item")
    universe = item_universe(v, items)
    x_univ = x[universe]
    if not np.all((x_univ >= -COLGEN_TOL) & (x_univ <= 1 + COLGEN_TOL)):  # NaN fails
        raise ValueError("item masses must lie in [0, 1]")
    columns = [frozenset()] + [frozenset({int(j)}) for j in universe]
    values = [v.value(col) for col in columns]
    table = None if isinstance(v, Xos) else subset_values([v], universe)[0]

    rounds = 0
    while True:
        # max sum_k value_k y_k over y >= 0 with incidence.y <= x and sum y = 1
        incidence = np.array([[j in col for col in columns] for j in universe.tolist()],
                             float).reshape(universe.size, len(columns))
        res = maximize(np.array(values), a_ub=incidence, b_ub=x_univ,
                       a_eq=np.ones((1, len(columns))), b_eq=np.ones(1))
        q = float(res.dual_eq[0])
        p_univ = np.maximum(res.dual_ub, 0.0)
        prices = np.zeros(v.m)
        prices[universe] = p_univ
        rounds += 1
        hit = (demand(v, prices, items=universe) if table is None
               else table_demand(table, prices, universe))
        gap = hit.utility - q
        if gap <= COLGEN_TOL * max(1.0, abs(res.value)):
            break
        if hit.items in columns:
            # the dual already prices this column; residual gap is numerical
            if gap <= 1e-7 * max(1.0, abs(res.value)):
                break
            raise InvariantViolation(f"column generation stalled (remaining gap {gap:.3e})")
        if rounds >= COLGEN_MAX_ROUNDS:
            raise CapExceeded(f"column generation round cap exceeded (remaining gap {gap:.3e})")
        columns.append(hit.items)
        values.append(v.value(hit.items))

    picked = [(columns[k], float(res.x[k])) for k in np.flatnonzero(res.x > 1e-12)]
    total = sum(w for _, w in picked)
    picked = [(s, w / total) for s, w in picked]
    value = float(res.value)
    dual_value = q + float(p_univ @ x_univ)
    if abs(value - dual_value) > 1e-6 * (1.0 + abs(value)):
        raise InvariantViolation(f"duality certificate failed "
                                 f"(remaining gap {abs(value - dual_value):.3e})")
    return ConcaveExtValue(value=value, q=q, prices=prices, columns=picked, rounds=rounds)


# ---------------------------------------------------------------------------
# Eisenberg-Gale relaxation


def default_epsilon(alpha: float, n_agents: int) -> float:
    """Interior floor that turns eps^4-approximate optima into the
    (1 + alpha) scaled-optimum contract."""
    return alpha / (2.0 + (1.0 + alpha) * n_agents)


def trace_csv(trace: Iterable[tuple[int, float, float, float]]) -> str:
    """CSV of an EG trace, one row per Newton step, whose step is the step
    length (the last row's objective is at the returned agent values); no
    rows for no trace."""
    lines = ["# schema=1", "iteration,objective,gap,step"]
    lines.extend(f"{t},{obj!r},{gap!r},{step!r}" for t, obj, gap, step in trace)
    return "\n".join(lines) + "\n"


@dataclass
class EgResult:
    """Masses x, each agent's target and its columns (weights summing to
    one, loads within its masses, mixture value its target)."""

    agents: list[int]
    items: list[int]
    x: ItemFractional
    agent_values: dict[int, float]
    columns: dict[int, list[tuple[frozenset[int], float]]] = field(repr=False)
    objective: float
    gap: float
    epsilon: float
    iterations: int
    trace: list[tuple[int, float, float, float]] = field(default_factory=list, repr=False)

    @property
    def converged(self) -> bool:
        """The certified gap meets the target eps^4 n."""
        return self.gap <= self.epsilon ** 4 * len(self.agents)

    def values(self) -> dict[int, float]:
        return dict(self.agent_values)


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


def clause_columns(clauses: np.ndarray, y: np.ndarray, beta: np.ndarray, x: np.ndarray,
                   items: list[int]) -> list[tuple[frozenset[int], float]]:
    """The columns of a lifted XOS agent with clause matrix `clauses` at
    masses x: `vertex_columns` over the empty set and, for each clause k,
    the systematic-sampling sets of y_k / beta_k, each set worth its best
    clause's sum. Those sets, weighted beta_k times their systematic
    weights, load item j with sum_k y_kj and are worth at least
    sum_k c_k.y_k, so with x = sum_k y_k the vertex is worth at least that
    too.
    """
    pool = dict.fromkeys([frozenset()])
    for y_k, b_k in zip(y, beta):
        pool.update((s, None) for s, _ in systematic_columns(np.clip(y_k / b_k, 0.0, 1.0), items))
    position = {j: t for t, j in enumerate(items)}
    inc = np.zeros((len(pool), len(items)), dtype=bool)
    for r, s in enumerate(pool):
        inc[r, [position[j] for j in s]] = True
    return vertex_columns((inc @ clauses.T).max(axis=1), inc, x, items)


def vertex_columns(worth: np.ndarray, inc: np.ndarray, x: np.ndarray,
                   items) -> list[tuple[frozenset[int], float]]:
    """An optimal vertex of max sum_S worth_S z_S over the candidate sets
    S, given by their incidence rows `inc` over `items`, with z >= 0,
    sum_S z_S 1_S <= x and sum_S z_S = 1: one cold `maximize`, which keeps
    at most k + 1 of the sets over k items. The sets must hold the empty
    set."""
    inc = np.asarray(inc, dtype=bool)
    res = maximize(worth, a_ub=inc.T, b_ub=x, a_eq=np.ones((1, inc.shape[0])),
                   b_eq=np.ones(1))
    keep = np.flatnonzero(res.x > 1e-12)
    weights = res.x[keep] / res.x[keep].sum()
    labels = np.asarray(items)
    return [(frozenset(labels[inc[c]].tolist()), float(w)) for c, w in zip(keep, weights)]


def _mixture(v: Valuation, columns: list[tuple[frozenset[int], float]],
             item_idx: np.ndarray) -> tuple[float, np.ndarray]:
    """The mixture value of columns under v, and their load on each item."""
    rows = np.zeros((len(columns), v.m), dtype=bool)
    for r, (s, _) in enumerate(columns):
        rows[r, list(s)] = True
    weights = np.array([w for _, w in columns])
    return float(weights @ v.value_rows(rows)), weights @ rows[:, item_idx]


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


def table_subproblem_bound(values: np.ndarray, prices: np.ndarray, eps: float, v0,
                           lam: np.ndarray):
    """An upper bound on max over x in [eps, 1]^m of log v+(x) - p.x for
    the monotone valuation whose values of every subset of a universe of
    k items, indexed by mask as `subset_values` gives them, are `values`,
    at prices p >= 0 over the universe, for any v0 > 0 and any lam <= p:

        log v0 - 1 - eps sum_j (p_j - lam_j) + max_S (v(S)/v0 - lam(S))

    The argument of `xos_subproblem_bound` carries over, and lam may go
    below zero: a monotone v+(x) mixes sets whose marginals are exactly x
    (pad the sets with the slack), so v+(x)/v0 - lam.x is at most the best
    v(S)/v0 - lam(S) over the universe's sets. For an XOS valuation and
    lam in [0, p] the best set keeps one clause's items with
    c_kj/v0 > lam_j, and the two bounds agree. Agents stack along leading
    axes of `values` (... x 2^k), v0 (...) and lam (... x k). Returns the
    bounds and the utilities v(S)/v0 - lam(S) of every set, indexed as
    `values` is.
    """
    v0 = np.asarray(v0, dtype=float)
    utility = mask_sums(-lam)
    utility += values / v0[..., None]
    return (np.log(v0) - 1.0 - eps * (prices - lam).sum(axis=-1) + utility.max(axis=-1),
            utility)


def _reach(g: np.ndarray, dg: np.ndarray) -> float:
    """The longest step along dg that keeps g positive."""
    down = dg < 0
    return float((-g[down] / dg[down]).min(initial=np.inf))


def _predictor_corrector(system: np.ndarray, size: int, gain: np.ndarray, lift, along,
                         g: np.ndarray, lam: np.ndarray):
    """One step of Mehrotra's predictor-corrector (Mehrotra 1992; Wright
    1997) for max f(u) over linear rows with slacks g(u) > 0 and duals
    lam > 0, and equality rows that the iterate already meets.

    `system` holds the Newton system: -f's Hessian plus lam/g on each
    row's pattern over the first `size` unknowns, then the equality rows
    (ones, and zeros in their own block); `gain` is f's gradient, padded
    with zeros. `along(du)` gives every row's slack change along du and
    `lift(w)` is its transpose. The diagonal spans many orders once the
    slacks of binding rows shrink, and the equality rows make the system
    indefinite, so it is Jacobi-scaled in place, with each equality row
    scaled by its largest variable's scale, and factored by LAPACK's
    `dgetrf` (partial pivoting; in place when `system` is in Fortran
    order); the first call in a process loads both routines from
    `scipy.linalg.lapack` (about 0.2 s) and binds them to `_lapack`. The
    factor serves two `dgetrs` solves: the affine step (target lam g = 0)
    predicts mu_aff at its longest interior step, and the corrector
    targets sigma mu with sigma = (mu_aff/mu)^3, where mu is
    the mean of lam g, less the affine step's second-order term. Returns
    the primal step, the duals' step and the step length, 0.99 of the
    longest that keeps every slack and dual positive, at most 1; None
    when the factorization meets an exactly zero pivot (`info > 0`).
    """
    global _lapack
    if _lapack is None:
        from scipy.linalg.lapack import dgetrf, dgetrs
        _lapack = dgetrf, dgetrs
    dgetrf, dgetrs = _lapack
    w = lam / g
    d = np.ones(system.shape[0])
    d[:size] = np.diag(system)[:size] ** -0.5
    d[size:] = 1.0 / (system[size:, :size] * d[:size]).max(axis=1)
    system *= np.outer(d, d).T  # symmetric, and in Fortran order as `system` is
    lu, piv, info = dgetrf(system, overwrite_a=True)
    if info > 0:
        return None

    def solve(rhs):
        """The primal step and the rows' slack changes for a right-hand
        side over the unscaled unknowns."""
        du = (d * dgetrs(lu, piv, d * rhs, overwrite_b=True)[0])[:size]
        return du, along(du)

    # the affine step drives every lam g to 0: lift(0 / g) is +0 and
    # 0 / g - lam is -lam, so neither is formed
    mu = float(lam @ g) / g.size
    _, dg = solve(gain)
    dlam = -lam - w * dg
    primal, dual = min(1.0, _reach(g, dg)), min(1.0, _reach(lam, dlam))
    sigma = (float((g + primal * dg) @ (lam + dual * dlam)) / g.size / mu) ** 3
    # the corrector drives every lam g to sigma mu less the affine step's
    # second-order term
    target = (sigma * mu - dg * dlam) / g
    du, dg_c = solve(gain + lift(target))
    dlam_c = target - lam - w * dg_c
    reach = _reach(np.concatenate([g, lam]), np.concatenate([dg_c, dlam_c]))
    return du, dlam_c, min(1.0, 0.99 * reach)


def _interior_point(u: np.ndarray, state, along, lift, newton, certify, eps: float,
                    grow=None):
    """Primal-dual interior-point method with Mehrotra's predictor-corrector
    steps (Mehrotra 1992; Wright 1997) for max sum_i log v_i(u) over one
    compact form of the Eisenberg-Gale program, from the interior point u.

    The form supplies closures over its own index arrays. `state(u)` gives
    the masses x, the agent values v and every inequality row's slack
    g > 0; each row has a dual lam > 0, started at 1/g, and the capacity
    rows' duals are the prices p. `newton(w, v)` assembles the Newton
    system at the rows' weights w = lam/g, with the duals eliminated, and
    the objective's gradient; `along` and `lift` map a step to the slacks'
    changes and back. Each step is `_predictor_corrector` on them, taken
    by its step length in u and lam. `certify(u, x, v, lam)` then gives
    the Lagrangian bound D(p) at the capacity duals, the objective of the
    feasible point the form returns, and that point. Every D(p) bounds the
    optimum, so the smallest one so far, but not below the objective (a
    bound below it is rounding), certifies the step; the solve stops once
    that bound less the objective is at most eps^4 n. It breaks off,
    unconverged, when the factorization meets an exactly zero pivot, or
    when a slack or a dual stops being positive or the bound stops being
    finite, as when the duals have outgrown double precision. Otherwise
    `grow(u, x, g, lam, row_gap)`, given the gap of this step's D(p), may
    add variables and their duals and return the grown u and lam, or
    None. Returns the last certified point, the trace (one row per Newton
    step: iteration, objective, gap and step length) and the
    smallest D(p); raises `InvariantViolation` when no step was certified.
    It takes at most `MAX_ITERATIONS` steps, read when it is called.
    """
    x, v, g = state(u)
    target, lam = eps ** 4 * v.size, 1.0 / g
    bound = math.inf
    trace: list[tuple[int, float, float, float]] = []
    result = None
    for it in range(1, MAX_ITERATIONS + 1):
        system, gain = newton(lam / g, v)
        step = _predictor_corrector(system, u.size, gain, lift, along, g, lam)
        if step is None:
            break
        du, dlam, alpha = step
        u = u + alpha * du
        lam = lam + alpha * dlam
        x, v, g = state(u)
        row_bound, obj, point = certify(u, x, v, lam)
        row_gap = row_bound - obj
        if not (g.min() > 0 and lam.min() > 0 and math.isfinite(row_gap)):
            break
        bound = max(min(bound, row_bound), obj)
        gap = bound - obj
        result = point
        trace.append((it, obj, gap, alpha))
        if gap <= target:
            break
        if grow is not None and (grown := grow(u, x, g, lam, row_gap)) is not None:
            u, lam = grown
            x, v, g = state(u)
    if result is None:
        raise InvariantViolation("no Newton step was certified (remaining gap inf)")
    return result, trace, bound


def _barrier_eg(clauses: list[np.ndarray], eps: float):
    """`_interior_point` over clause blocks: max sum_i log v+_i(x_i) over
    x >= eps and sum_i x_ij <= 1 for XOS agents given by their clause
    matrices (K_i x items; an additive agent is one clause).

    A one-clause agent's variables are its masses x_i, and v+_i(x) = c.x.
    An agent with K >= 2 clauses c_k is lifted: one mass vector y_k per
    clause and clause weights beta, with 0 <= y_kj <= beta_k,
    sum_k beta_k = 1 (an equality row of the Newton system) and
    x_i = sum_k y_k, and its term is log sum_k c_k.y_k. A set takes its
    value from its best clause, so this program equals v+ (with c >= 0 and
    sum beta = 1 >= x, no mass is ever left unplaced).

    Four families of inequality rows carry slacks: the capacity slacks
    s_j, the floor slacks x - eps, and a lifted agent's box slacks y and
    beta - y. The Newton system is the objective's Hessian c c^T / v^2 per
    agent plus lam/g on each row's pattern, with the beta equality rows.

    The certified point is the iterate with each item's slack filled,
    which can only raise the objective: mass an agent holds above the
    floor on an item it values at zero goes back to the floor, and the
    item's agents that value it (all of its agents, if none does) take the
    free capacity in proportion to their masses; a lifted agent spreads
    what it takes over its clauses in proportion to their room
    beta_k - y_kj. One `xos_subproblem_bound` call bounds every agent's
    subproblem there, over its clauses padded with zero ones to the most
    clauses (a one-clause agent has K = 1), at its value and at the prices
    net of its floor duals, clipped to [0, p]. Returns the filled point,
    its agents' values (a lifted agent's at its filled y), each lifted
    agent's filled clause masses y (K x items) and clause weights beta
    there, keyed by its position, the trace and the smallest D(p).
    """
    n_a, m_i = len(clauses), clauses[0].shape[1]
    rows = np.array([c.shape[0] for c in clauses])
    lifted = np.flatnonzero(rows > 1)
    weights = np.stack([c[0] if c.shape[0] == 1 else np.zeros(m_i) for c in clauses])
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
    pat_agent = var_agent[a]
    pat_outer = np.where(same_agent, var_coef[a] * var_coef[b], 0.0)
    # every agent's clauses, padded to the most clauses with zero ones;
    # then the lifted agents' y and beta indices into u with one zero
    # appended (index `size`)
    k_max = int(rows.max())
    c_pad = np.zeros((n_a, k_max, m_i))
    for k, c in enumerate(clauses):
        c_pad[k, :rows[k]] = c
    c_lifted = c_pad[lifted]
    y_idx = np.full((n_eq, k_max, m_i), size)
    b_idx = np.full((n_eq, k_max), size)
    for r, k in enumerate(lifted):
        y_idx[r, :rows[k]] = base[k] + np.arange(rows[k] * m_i).reshape(rows[k], m_i)
        b_idx[r, :rows[k]] = base[k] + rows[k] * m_i + np.arange(rows[k])
    real = y_idx < size
    box_y = y_idx[real]
    box_b = np.broadcast_to(b_idx[:, :, None], y_idx.shape)[real]
    beta_var = b_idx[b_idx < size]
    eq_row = np.broadcast_to(np.arange(n_eq)[:, None], b_idx.shape)[b_idx < size]
    box_beta = np.searchsorted(beta_var, box_b)
    # the inequality rows, family by family: capacity, floor, box-lo, box-hi
    cap, floor = slice(0, m_i), slice(m_i, m_i + n_a * m_i)
    lo_rows = slice(floor.stop, floor.stop + box_y.size)
    hi_rows = slice(lo_rows.stop, lo_rows.stop + box_y.size)
    # each pattern entry's capacity and floor rows, as indices into the row
    # weights with one zero appended (index `hi_rows.stop`)
    pat_cap = np.where(same_item, var_item[a], hi_rows.stop)
    pat_floor = np.where(same_item & same_agent, floor.start + var_x[a], hi_rows.stop)
    # the Newton system's entries as flat indices in Fortran order: the
    # pattern, a lifted agent's box rows on its y diagonal and between y and
    # beta, beta's diagonal, and the beta equality rows
    dim = size + n_eq
    pat_flat = pat_r + pat_c * dim
    box_diag = box_y * (dim + 1)
    box_off = np.concatenate([box_y + box_b * dim, box_b + box_y * dim])
    beta_diag = beta_var * (dim + 1)
    eq_flat = np.concatenate([size + eq_row + beta_var * dim, beta_var + (size + eq_row) * dim])

    def state(u):
        """The masses, the agent values and every row's slack at u."""
        x = np.bincount(var_x, weights=u[var], minlength=n_a * m_i).reshape(n_a, m_i)
        v = (weights * x).sum(axis=1)
        if n_eq:
            v[lifted] = (c_lifted * np.append(u, 0.0)[y_idx]).sum(axis=(1, 2))
        return x, v, np.concatenate([1.0 - x.sum(axis=0), (x - eps).ravel(), u[box_y],
                                     u[box_b] - u[box_y]])

    def along(du):
        """The change of every row's slack along a step du."""
        dx = np.bincount(var_x, weights=du[var], minlength=n_a * m_i)
        return np.concatenate([-dx.reshape(n_a, m_i).sum(axis=0), dx, du[box_y],
                               du[box_b] - du[box_y]])

    def lift(w):
        """Row weights w summed onto the variables through each row's
        slack: the transpose of `along`."""
        out = np.zeros(size + n_eq)
        out[var] = w[floor][var_x] - w[cap][var_item]
        if n_eq:
            out[box_y] += w[lo_rows] - w[hi_rows]
            out[beta_var] = np.bincount(box_beta, weights=w[hi_rows], minlength=beta_var.size)
        return out

    def newton(w, v):
        """The Newton system at row weights w and values v, and the
        gradient of sum_i log v_i."""
        flat = np.zeros(dim * dim)
        wz = np.append(w, 0.0)
        # capacity rows couple agents; then each agent's objective, then the floor
        flat[pat_flat] = (wz[pat_cap] + (1.0 / v ** 2)[pat_agent] * pat_outer) + wz[pat_floor]
        if n_eq:
            w_lo, w_hi = wz[lo_rows], wz[hi_rows]
            flat[box_diag] += w_lo + w_hi
            flat[box_off] = np.tile(-w_hi, 2)
            flat[beta_diag] = np.bincount(box_beta, weights=w_hi, minlength=beta_var.size)
            flat[eq_flat] = 1.0
        gain = np.zeros(dim)
        gain[var] = var_coef / v[var_agent]
        return flat.reshape(dim, dim, order="F"), gain

    def certify(u, x, v, lam):
        """D(p), the objective and the filled point with its values and,
        for the lifted agents, its clause masses and weights."""
        held = np.where(valued, x, eps)
        share = held * takers
        filled = held + (1.0 - held.sum(axis=0)) * share / share.sum(axis=0)
        values = (weights * filled).sum(axis=1)
        prices = lam[cap]
        with np.errstate(divide="ignore", invalid="ignore"):
            lam_net = np.clip(prices - lam[floor].reshape(n_a, m_i), 0.0, prices)
            row_bound = float(prices.sum()) + float(
                xos_subproblem_bound(c_pad, prices, eps, v, lam_net).sum())
            y = beta = None
            if n_eq:
                uz = np.append(u, 0.0)
                y = uz[y_idx] * (held[lifted] / x[lifted])[:, None, :]
                beta = uz[b_idx]
                room = beta[:, :, None] - y
                y += (filled - held)[lifted][:, None, :] * room / room.sum(axis=1, keepdims=True)
                values[lifted] = (c_lifted * y).sum(axis=(1, 2))
            return row_bound, float(np.log(values).sum()), (filled, values, y, beta)

    u = np.zeros(size)
    u[var] = (eps + (1.0 - n_a * eps) / (n_a + 1)) / rows[var_agent]
    u[beta_var] = 1.0 / rows[lifted][eq_row]
    (filled, values, y, beta), trace, bound = _interior_point(
        u, state, along, lift, newton, certify, eps)
    clause_masses = {int(k): (y[r, :rows[k]], beta[r, :rows[k]]) for r, k in enumerate(lifted)}
    return filled, values, clause_masses, trace, bound


def _config_barrier_eg(table_values: np.ndarray, eps: float):
    """`_interior_point` over the configuration program: max
    sum_i log v+_i(x_i) over x >= eps and sum_i x_ij <= 1, for agents
    given by their values of every set of one universe of k items, one
    row per agent indexed by mask (agents x 2^k, as `subset_values`
    gives them).

    Agent i puts mass z_iS > 0 on sets S of the universe, with
    sum_S z_iS = 1 (an equality row of the Newton system); its masses are
    the marginals x_i = sum_S z_iS 1_S and its term is
    log sum_S v_i(S) z_iS. Over every set this program equals v+. Each
    agent holds a restricted column set, from the empty set, the
    singletons and the whole universe, so a step's solve does not grow
    with 2^k. Three families of inequality rows carry slacks: the capacity
    slacks s_j, the floor slacks x - eps and the columns' masses z. The
    Newton system is the objective's Hessian (val val^T / v^2 per agent)
    plus dual/slack on each row's pattern, with the agents' equality rows.
    All of it comes from one incidence matrix U = [inc | rinc | own], a
    row per column: its set over the universe (the capacity rows), the
    same set in its agent's block of k (that agent's floor rows) and its
    agent's one-hot row. With own scaled by val/v, the system is
    (U m) U^T for m = [dual/slack on capacity, on floor, 1], plus
    dual/slack of the column rows on the diagonal and own as the equality
    rows; the masses are z rinc, the values (val z) own, and the slacks'
    changes and their transpose are products with inc and rinc as well.

    `table_subproblem_bound` bounds every agent at its value and at the
    prices net of its floor duals, over its whole row. Those net prices
    may fall below zero; cut to zero, as `xos_subproblem_bound` needs,
    they stalled the certificate at 21 times its target on budgeted 8x12
    (seed 207). The same utilities price the columns. Where an agent's
    best set beats the best column it holds, the difference (its deficit)
    is part of the gap that no step on the held columns removes; the rest
    of the gap is the restricted program's. An agent admits the sets, at
    most `ADMIT_PER_STEP` and best first, that beat its best column by
    more than `ADMIT_SHARE` of its share of that rest. They join with mass
    delta taken from the agent's own columns with its masses x_i fixed,
    the least change in the metric z^2, or, if that system is singular or
    its solve misses x_i or the agent's mass by more than `ADMIT_MISS`,
    mixed in with z_i -> (1 - delta) z_i. delta is 0.9 of the interior
    limit of the move the ray makes, and each new column's dual is mu over
    its mass, so it starts on the central path. Agents share only the
    capacity slacks, so all of them admit in one pass, each against the
    slacks its predecessors left, and the sets join the columns, agent
    by agent, after the last. Returns the last certified masses with each
    item's slack spread over its agents in proportion to their masses,
    the values of the certified configurations, the columns held there
    (each one's mask and agent, in the order they joined), the trace and
    the smallest D(p).
    """
    n_a, k = table_values.shape[0], table_values.shape[1].bit_length() - 1
    bit = np.arange(k)

    # the columns of every agent, in the order they joined: each one's set,
    # as its mask over the universe, and its agent
    start = np.unique(np.concatenate([[0], 1 << bit, [(1 << k) - 1]]))
    col_mask = np.tile(start, n_a)
    col_agent = np.repeat(np.arange(n_a), start.size)
    # masses x0 between the floor and an even share, from mass b on each
    # singleton, x0 - b on the whole universe and the rest on the empty set
    x0 = eps + (1.0 - n_a * eps) / (n_a + 1)
    b = min(x0, (1.0 - x0) / k) / 2.0
    one = np.zeros(start.size)
    one[np.searchsorted(start, 1 << bit)] += b
    one[-1] += x0 - b
    one[0] = 1.0 - one.sum()
    # the inequality rows, family by family: capacity, floor, columns; the
    # first two also index the blocks of the incidence below
    cap, floor = slice(0, k), slice(k, k + n_a * k)
    column, agent = slice(floor.stop, None), slice(floor.stop, floor.stop + n_a)

    def layout(masks, agents):
        """The columns' rows of the incidence U = [inc | rinc | own]: inc
        over the universe, rinc the same in its agent's block of k, and
        own the one-hot row of its agent; and their values."""
        inc = mask_incidence(masks, k).astype(float)
        own = (agents[:, None] == np.arange(n_a)).astype(float)
        rinc = (own[:, :, None] * inc[:, None, :]).reshape(-1, n_a * k)
        return np.hstack([inc, rinc, own]), table_values[agents, masks]

    # a slack's change per unit of a column's incidence on its row
    sign = np.repeat([-1.0, 1.0], [k, n_a * k])

    def state(z):
        """The masses, the agent values and every row's slack at z."""
        load = z @ U[:, :floor.stop]
        return (load[floor].reshape(n_a, k), (val * z) @ U[:, agent],
                np.concatenate([1.0 - load[cap], load[floor] - eps, z]))

    def along(dz):
        """The change of every row's slack along a step dz."""
        return np.append(sign * (dz @ U[:, :floor.stop]), dz)

    def lift(w):
        """Row weights w summed onto the columns through each row's slack:
        the transpose of `along`."""
        return np.append(U[:, :floor.stop] @ (sign * w[:floor.stop]) + w[column], np.zeros(n_a))

    def newton(w, v):
        """The Newton system at row weights w and values v, and the
        gradient of sum_i log v_i."""
        size = val.size
        scaled = val / v[col_agent]
        # one product (U m) U^T with m = [w_cap, w_floor, 1] and own scaled
        # by val / v of each column's agent: the capacity rows couple
        # agents, the floor rows and the objective act within one agent;
        # the column rows sit on the diagonal
        us = U.copy()
        us[:, agent] *= scaled[:, None]
        system = np.zeros((size + n_a, size + n_a), order="F")
        system[:size, :size] = (us * np.append(w[:floor.stop], np.ones(n_a))) @ us.T
        system[:size, size:] = U[:, agent]
        system[size:, :size] = U[:, agent].T
        diag = np.arange(size)
        system[diag, diag] += w[column]
        return system, np.append(scaled, np.zeros(n_a))

    def certify(z, x, v, lam):
        """D(p), the objective and the masses with their values and the
        held columns; keeps every set's utility for `grow`."""
        nonlocal utility
        prices = lam[cap]
        with np.errstate(divide="ignore", invalid="ignore"):
            sub, utility = table_subproblem_bound(table_values, prices, eps, v,
                                                  prices - lam[floor].reshape(n_a, k))
            return (float(prices.sum() + sub.sum()), float(np.log(v).sum()),
                    (x, v, (col_mask, col_agent)))

    def grow(z, x, g, lam, row_gap):
        """Admit the sets that beat their agent's held columns; returns the
        grown z and lam, or None when no set joins."""
        nonlocal U, val, col_mask, col_agent
        best = utility.max(axis=1)
        held_best = np.full(n_a, -np.inf)
        np.maximum.at(held_best, col_agent, utility[col_agent, col_mask])
        bar = held_best + ADMIT_SHARE * max(row_gap - (best - held_best).sum(), 0.0) / n_a
        mu = float(lam @ g) / g.size
        # agents admit one after another; they share only the capacity
        # slacks s, kept current in place, and the sets join after the last
        s, joined = g[cap], []
        for i in np.flatnonzero(best > bar):
            # the best sets (a held set never passes) join together, mass
            # delta/r on each of the r sets
            tops = np.flatnonzero(utility[i] > bar[i])
            if tops.size > ADMIT_PER_STEP:  # thousands of sets can pass
                kth = np.partition(utility[i, tops], -ADMIT_PER_STEP)[-ADMIT_PER_STEP]
                tops = tops[utility[i, tops] >= kth]
            tops = np.sort(tops[np.argsort(-utility[i, tops], kind="stable")[:ADMIT_PER_STEP]])
            held, r = np.flatnonzero(col_agent == i), tops.size
            zh, inside = z[held], mask_incidence(tops, k).mean(axis=0)
            # take the sets' mass from the agent's own columns with x_i
            # fixed, the least change in the metric z^2 (the empty set and
            # the singletons span the masses, unless some column has shrunk
            # past precision); else mix them in, z_i -> (1 - delta) z_i,
            # which moves x_i toward mean 1_S
            spread = np.vstack([U[held, cap].T, np.ones(held.size)])
            metric = (zh / zh.max()) ** 2
            try:
                dz = -metric * (spread.T @ np.linalg.solve((spread * metric) @ spread.T,
                                                           np.append(inside, 1.0)))
            except np.linalg.LinAlgError:
                dz = np.full(held.size, np.nan)
            # the ray's move of x_i and of the agent's total mass, zero only
            # as far as the solve is accurate: at a condition number near
            # 1e16 x_i moves, so the room comes from the move itself, and a
            # solve that misses by more than ADMIT_MISS (NaN included)
            # counts as singular, since the missed mass would stay
            miss = spread @ dz + np.append(inside, 1.0)
            if np.abs(miss).max() <= ADMIT_MISS:
                dx = miss[:-1]
            else:
                dz, dx = -zh, inside - x[i]
            zf = g[floor].reshape(n_a, k)[i]
            room = np.concatenate([-zh[dz < 0] / dz[dz < 0], -zf[dx < 0] / dx[dx < 0],
                                   s[dx > 0] / dx[dx > 0], [1.0]])
            delta = 0.9 * float(room.min())
            z[held] += delta * dz
            s -= delta * dx
            joined.append((tops, np.full(r, i), np.full(r, delta / r), np.full(r, mu * r / delta)))
        if not joined:
            return None
        tops, owner, mass, dual = (np.concatenate(part) for part in zip(*joined))
        col_mask, col_agent = np.append(col_mask, tops), np.append(col_agent, owner)
        rows, worth = layout(tops, owner)
        U, val = np.vstack([U, rows]), np.append(val, worth)
        return np.append(z, mass), np.append(lam, dual)

    U, val = layout(col_mask, col_agent)
    utility = None
    (x, values, held), trace, bound = _interior_point(
        np.tile(one, n_a), state, along, lift, newton, certify, eps, grow)
    # v+ is monotone, so filling each item's slack in proportion to the
    # masses can only raise every agent's extension at the returned point
    return x + (1.0 - x.sum(axis=0)) * x / x.sum(axis=0), values, held, trace, bound


def solve_eg(inst: Instance, agents: Iterable[int], items: Iterable[int],
             alpha: float = 0.25, epsilon: float | None = None) -> EgResult:
    """Maximize sum_i log v+_i(x_i) over the eps-floored capacity polytope,
    and decompose each agent's masses into the sets that rounding draws.

    The floor eps is `epsilon`, or `default_epsilon(alpha, n)` for the n
    agents; a floor with eps n outside (0, 1) raises ValueError.

    `_interior_point` solves the program and the Lagrangian bound D(p) at
    its capacity prices certifies it. When every agent is `Xos` (an
    `Additive` agent is one, whose one clause is its weights), it runs
    over clause blocks (`_barrier_eg`), on each agent's `clauses` over the
    items. A one-clause agent has v+_i(x) = c.x, and its columns are the
    systematic-sampling decomposition of its x. An agent with several
    clauses is lifted to clause masses and clause weights, and its
    columns are `clause_columns` of the filled ones at the returned x. Any
    other agent set (one with a budgeted-additive or table agent) runs it
    over the configuration program (`_config_barrier_eg`), on every
    agent's values of every subset of the items, from one `subset_values`
    call (past `EXHAUSTIVE_CAP` items it raises `CapExceeded` before
    enumerating), and each agent's columns are `vertex_columns` of the
    columns it held at the certified point, at the returned x. No column
    generation or demand query runs; one LP runs per lifted or
    configuration agent, and none for a one-clause agent.

    A lifted or configuration agent's value is the mixture value of its
    columns; it must reach the barrier's certified value with loads
    within the agent's masses, or `InvariantViolation` is raised. The
    last trace row then carries sum_i log of the values and D(p) less
    that. `iterations` counts Newton steps. Every trace row's objective
    plus gap bounds the optimum from above, and `gap` bounds the returned
    point: the smallest objective-plus-gap over the trace, less its
    objective. `converged` means gap <= eps^4 n. `MAX_ITERATIONS` caps
    the Newton steps.
    """
    agent_list = sorted(set(agents))
    item_list = sorted(set(items))
    if not agent_list:
        raise ValueError("need at least one agent")
    item_idx = np.array(item_list, dtype=np.int64)
    for i in agent_list:
        if inst.valuations[i].value(item_list) <= 0:
            raise ValueError(f"agent {i} derives no value from the item pool")

    eps = epsilon if epsilon is not None else default_epsilon(alpha, len(agent_list))
    if not 0 < eps * len(agent_list) < 1:
        raise ValueError(f"interior floor {eps} infeasible for {len(agent_list)} agents")
    vals = [inst.valuations[i] for i in agent_list]
    if all(isinstance(v, Xos) for v in vals):
        clauses = [v.clauses[:, item_idx] for v in vals]
        x_mat, values, clause_masses, trace, last_bound = _barrier_eg(clauses, eps)
        columns = [clause_columns(clauses[k], *clause_masses[k], x_mat[k], item_list)
                   if k in clause_masses else systematic_columns(x_mat[k], item_list)
                   for k in range(len(vals))]
        mixture_agents = sorted(clause_masses)
    else:
        table_values = np.stack(subset_values(vals, item_idx))
        x_mat, values, (col_mask, col_agent), trace, last_bound = _config_barrier_eg(
            table_values, eps)
        columns = []
        for k, row in enumerate(table_values):
            masks = col_mask[col_agent == k]
            columns.append(vertex_columns(row[masks], mask_incidence(masks, item_idx.size),
                                          x_mat[k], item_idx))
        mixture_agents = list(range(len(vals)))
    for k in mixture_agents:
        value, load = _mixture(vals[k], columns[k], item_idx)
        if (value < values[k] - CHECK_TOL * max(1.0, values[k])
                or (load > x_mat[k] + CHECK_TOL).any()):
            raise InvariantViolation(f"decomposition falls short: agent {agent_list[k]}'s "
                                     f"columns are worth {value!r} of {float(values[k])!r} "
                                     f"or load items past its masses")
        values[k] = value
    if mixture_agents:
        it, _, _, step = trace[-1]
        obj = float(np.log(values).sum())
        trace[-1] = (it, obj, last_bound - obj, step)
    best_obj = trace[-1][1]
    mass = {i: {int(j): float(x_mat[k, jj]) for jj, j in enumerate(item_list)}
            for k, i in enumerate(agent_list)}
    frac = ItemFractional(mass)
    frac.validate(inst.m)
    # OPT <= obj_t + gap_t at every evaluated t, so the tightest of these
    # bounds the returned iterate's own gap
    bound = min(o + g for _, o, g, _ in trace)
    return EgResult(agents=agent_list, items=item_list, x=frac,
                    agent_values={i: float(values[k]) for k, i in enumerate(agent_list)},
                    columns={i: columns[k] for k, i in enumerate(agent_list)},
                    objective=best_obj, gap=bound - best_obj, epsilon=eps,
                    iterations=len(trace), trace=trace)
