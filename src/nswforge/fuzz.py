"""Randomized invariant suites, shared by `nswforge fuzz` and the acceptance gates.

Each suite draws one case from its seed, runs a stage on it and checks the
stage's documented bounds itself, raising `InvariantViolation` with the
measured values. The gates in `tests/test_acceptance.py` call them with
their own seed bases: `grid_instance` draws the instances of criteria 1,
2 and 4, `split_case` serves criterion 3, `contract_case` criterion 4,
`extension_case` criterion 5, `demand_case` criterion 6, `match_case`
criterion 9 and `tail_function` criterion 10 (whose checks are
`concentration.tail_checks`). `cli.FUZZERS` runs `split_case`,
`match_case`, `relax_case` (criteria 4 and 5 on one seed) and `round_case`.
"""

from __future__ import annotations

import itertools

import numpy as np

from .concentration import TailExperiment
from .generators import FAMILIES, GenSpec, generate
from .matching import initial_matching, matching_objective, rematch_rho
from .model import Instance, InvariantViolation, Matching
from .oracle import scaled_optimum_check
from .pipeline import PipelineParams, run_xos
from .relaxation import concave_ext, solve_eg, vertex_columns
from .splitting import check_subadditive_split, check_xos_split, split_subadditive, split_xos
from .valuations import (
    Additive,
    BudgetedAdditive,
    ExplicitTable,
    Valuation,
    Xos,
    demand,
    mask_incidence,
    subset_values,
)

SPLIT_VARIANTS = ("xos", "subadditive")
ALPHA = 0.25
TOL = 1e-6  # slack of colgen against enumeration


def grid_instance(seed: int, family: str) -> Instance:
    """2-3 agents, 4-6 items."""
    rng = np.random.default_rng(seed)
    n, m = int(rng.integers(2, 4)), int(rng.integers(4, 7))
    return generate(GenSpec(family, n, m, seed=seed))


def _xos_table(clauses: np.ndarray) -> ExplicitTable:
    m = clauses.shape[1]
    (values,) = subset_values([Xos(clauses)], range(m))
    return ExplicitTable(values, m)


def _columns(rng: np.random.Generator, m: int, n_sets: int, min_size: int):
    weights = rng.dirichlet(np.ones(n_sets))
    cols = []
    for k in range(n_sets):
        size = int(rng.integers(min_size, m + 1))
        cols.append((frozenset(int(j) for j in rng.choice(m, size, replace=False)),
                     float(weights[k])))
    return cols


def split_case(seed: int, variants=SPLIT_VARIANTS) -> list[str]:
    """One agent's random columns over 6-12 items, split by each variant in
    `variants`; returns those that ran (XOS needs a positive target, the
    subadditive variant one of at least 6 nu). Both draw from one
    generator, XOS first, so dropping XOS changes the subadditive case."""
    rng = np.random.default_rng(seed)
    m = int(rng.integers(6, 13))
    ran = []
    if "xos" in variants:
        v = Xos(rng.uniform(0, 1, (int(rng.integers(1, 4)), m)))
        cols = _columns(rng, m, int(rng.integers(1, 5)), 1)
        target = sum(v.value(s) * w for s, w in cols)
        if target > 0:
            check_xos_split(split_xos({0: cols}, [v], {0: target}), [v])
            ran.append("xos")
    if "subadditive" in variants:
        w = rng.uniform(0.5, 1.0, m)
        v = BudgetedAdditive(w, cap=float(rng.uniform(0.7, 1.0) * w.sum()))
        cols = _columns(rng, m, int(rng.integers(1, 4)), max(2, m - 3))
        target = sum(v.value(s) * wt for s, wt in cols)
        nu = float(v.singleton_values().max())
        if target >= 6.0 * nu:
            out = split_subadditive({0: cols}, [v], {0: target}, {0: nu})
            check_subadditive_split(out, [v])
            ran.append("subadditive")
    return ran


def contract_case(seed: int, family: str) -> float | None:
    """Scaled config-LP optimum over its (1+alpha) n bound on a grid
    instance; None when no agent is active after the reservation."""
    inst = grid_instance(seed, family)
    _, _, remaining, active = initial_matching(inst)
    if not active:
        return None
    eg = solve_eg(inst, active, remaining, ALPHA)
    ratio, ok = scaled_optimum_check(inst, eg, alpha=ALPHA)
    bound = (1.0 + ALPHA) * len(eg.agents)
    if not ok:
        raise InvariantViolation(f"scaled config-LP optimum {ratio} exceeds {bound}")
    return ratio / bound


def extension_case(seed: int, family: str) -> tuple[float, float]:
    """v+ by column generation against the LP over every subset
    (`vertex_columns` on every subset's incidence row and `subset_values`
    value) at a random point on 2-10 items: returns their difference and
    colgen's dual gap."""
    rng = np.random.default_rng(seed)
    m = int(rng.integers(2, 11))
    if family == "additive":
        v = Additive(rng.uniform(0, 1, m))
    elif family == "xos":
        v = Xos(rng.uniform(0, 1, (3, m)))
    elif family == "budgeted_additive":
        v = BudgetedAdditive(rng.uniform(0, 1, m), cap=float(rng.uniform(0.5, 2)))
    else:
        v = _xos_table(rng.uniform(0, 1, (2, m)))
    x = rng.uniform(0, 1, m) * (rng.uniform(size=m) < 0.85)
    a = concave_ext(v, x)
    rows, (values,) = mask_incidence(np.arange(1 << m), m), subset_values([v], range(m))
    b = sum(w * v.value(s) for s, w in vertex_columns(values, rows, x, range(m)))
    diff = abs(a.value - b)
    gap = abs(a.value - (a.q + float(a.prices @ x)))
    if diff > TOL or gap > TOL * (1 + abs(a.value)):
        raise InvariantViolation(f"colgen {a.value} (dual gap {gap}) != enumeration {b}")
    return diff, gap


def demand_case(seed: int, family: str) -> None:
    """The demand oracle against a brute force over all subsets of 2-12
    items (at most 10 for tables), to 1e-12; the brute force prices every
    subset by a matrix product, apart from the mask sums that price an
    enumerated family's sets in `table_demand`."""
    rng = np.random.default_rng(seed)
    m = int(rng.integers(2, 13))
    if family == "additive":
        v = Additive(rng.uniform(0, 1, m))
    elif family == "xos":
        v = Xos(rng.uniform(0, 1, (int(rng.integers(1, 4)), m)))
    elif family == "budgeted_additive":
        v = BudgetedAdditive(rng.uniform(0, 1, m), cap=float(rng.uniform(0.3, 2)))
    else:
        m = min(m, 10)
        v = _xos_table(rng.uniform(0, 1, (2, m)))
    prices = rng.uniform(-0.3, 1.2, m)
    res = demand(v, prices)
    rows, (values,) = mask_incidence(np.arange(1 << m), m), subset_values([v], range(m))
    best = float((values - rows @ prices).max())
    realized = v.value(res.items) - prices[sorted(res.items)].sum()
    if abs(res.utility - best) > 1e-12 or abs(realized - res.utility) > 1e-12:
        raise InvariantViolation(f"demand utility {res.utility} (its bundle gives "
                                 f"{realized}) != brute-force maximum {best}")


def relax_case(seed: int) -> None:
    family = FAMILIES[seed % len(FAMILIES)]
    contract_case(seed, family)
    extension_case(seed, family)


def round_case(seed: int) -> None:
    """`run_xos` on an additive or XOS grid instance keeps each agent
    inside its tentative set and repeats bit for bit."""
    inst = grid_instance(seed, ("additive", "xos")[seed % 2])
    outcome = run_xos(inst, PipelineParams(seed=seed)).outcome
    if outcome is None:
        return
    for i, kept in outcome.allocation.bundles.items():
        if not kept <= outcome.tentative[i]:
            raise InvariantViolation(f"agent {i} kept {sorted(kept - outcome.tentative[i])} "
                                     f"outside its tentative set")
    if run_xos(inst, PipelineParams(seed=seed)).outcome.to_json() != outcome.to_json():
        raise InvariantViolation("rounding is not deterministic under a fixed seed")


def match_case(seed: int) -> None:
    """2-4 agents, 1-3 spare items: the initial matching equals a brute
    force over all injective maps (log-sum to 1e-9), and rematching a
    random matching gives a matching (rematch_rho raises when the product
    inequality fails)."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 5))
    m = n + int(rng.integers(1, 4))
    vals = tuple(Additive(rng.uniform(0, 1, m)) if rng.random() < 0.5
                 else Xos(rng.uniform(0, 1, (3, m))) for _ in range(n))
    inst = Instance(tuple(f"agent{i}" for i in range(n)),
                    tuple(f"item{j}" for j in range(m)), vals)
    tau, matched, remaining, _ = initial_matching(inst)
    scores = np.stack([v.singleton_values() for v in vals])
    count, logsum = matching_objective(scores, tau)
    best = max(matching_objective(scores, Matching(dict(enumerate(items))))
               for items in itertools.permutations(range(m), n))
    if count < best[0] or (count == best[0] and logsum < best[1] - 1e-9):
        raise InvariantViolation(f"initial matching ({count}, {logsum}) is not "
                                 f"product-optimal: brute force finds {best}")
    items = sorted(matched)
    pi = Matching({i: items[k] for k, i in enumerate(rng.permutation(n))})
    big_w = rng.uniform(0, 1, n)
    nu = np.array([rng.uniform(0, 1) * max((v.value((j,)) for j in remaining), default=0.0)
                   for v in vals])
    rematch_rho(tau, pi, big_w, nu, inst).validate()


def tail_function(seed: int, family: str) -> Valuation:
    """A budgeted-additive, XOS or (at most 10-item) table function on
    8-14 items, with values bounded away from zero."""
    rng = np.random.default_rng(seed)
    m = int(rng.integers(8, 15))
    if family == "budgeted_additive":
        return BudgetedAdditive(rng.uniform(0.3, 1, m), cap=float(rng.uniform(1, 4)))
    if family == "xos":
        return Xos(rng.uniform(0.2, 1, (3, m)))
    return _xos_table(rng.uniform(0.2, 1, (2, min(m, 10))))


def conc_experiment(seed: int, family: str, trials: int, q: int, k: int) -> TailExperiment:
    """`nswforge conc`'s experiment: one generated function on 8-14 items
    (6-10 for tables), each item sampled with probability 1/2."""
    rng = np.random.default_rng(seed)
    m = int(rng.integers(6, 11)) if family == "table" else int(rng.integers(8, 15))
    v = generate(GenSpec(family=family, n=1, m=m, seed=seed)).valuations[0]
    return TailExperiment.bernoulli(v, range(m), 0.5, trials=trials, q=q, k=k, seed=seed)
