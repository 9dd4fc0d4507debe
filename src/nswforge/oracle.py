"""Exact solvers used as ground truth by the verification suite.

Integral optima come from a subset DP over agents (Held and Karp's
layering): `f_i[mask] = max over sub of f_(i-1)[mask ^ sub] (x) v_i[sub]`,
with (x) the product for NSW and the sum of target-scaled values for
welfare. A layer visits all 3^k (mask, submask) pairs of k items and the
last one only the 2^k submasks of the full mask, so n agents cost
`(n-2)*3^k + 2^k` combinations. Values combine in agent order and rounding
is monotone, so optima are bit-identical to enumerating all n^k
assignments. The fractional optimum is an explicit `n*2^k`-column LP.
Caps (at most `EXHAUSTIVE_CAP` items for the DP's 2^k value tables, `cap`
on its combinations, a column cap for the LP) are hard errors, never
silent truncation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from ._lp import maximize
from .model import Allocation, ConfigSolution, Instance
from .valuations import EXHAUSTIVE_CAP, CapExceeded

NSW_DP_CAP = 10**8
CONFIG_LP_CAP = 10**6
_CHUNK_ITEMS = 8  # a chunk of 3^8 (mask, submask) pairs leaves peak memory unmoved


@dataclass
class ExactResult:
    optimum: float
    witness: Allocation | ConfigSolution
    nodes: int


def _item_list(inst: Instance, items: Iterable[int] | None) -> list[int]:
    return sorted(inst.items if items is None else set(items))


def _value_tables(inst: Instance, agents: Sequence[int],
                  items: Sequence[int]) -> list[np.ndarray]:
    """Per-agent value of every subset of `items`, indexed by local mask."""
    k = len(items)
    masks = np.arange(1 << k, dtype=np.int64)
    rows = np.zeros((1 << k, inst.m), dtype=bool)
    for pos, j in enumerate(items):
        rows[:, j] = ((masks >> pos) & 1).astype(bool)
    return [inst.valuations[i].value_rows(rows) for i in agents]


def _disjoint_pairs(bits: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """All 3^bits pairs (rest, sub) of disjoint masks, sorted by rest | sub,
    and the offset at which each mask's run starts."""
    rest = sub = np.zeros(1, dtype=np.int64)
    for t in range(bits):
        rest, sub = (np.concatenate([rest, rest | 1 << t, rest]),
                     np.concatenate([sub, sub, sub | 1 << t]))
    order = np.argsort(rest | sub, kind="stable")
    rest, sub = rest[order], sub[order]
    return rest, sub, np.flatnonzero(np.diff(rest | sub, prepend=-1))


def _subset_dp(tables: list[np.ndarray], combine) -> tuple[float, list[int]]:
    """Best `combine`-fold, in agent order, of one table entry per agent over
    all partitions of the full mask, and each agent's mask in it. On ties
    the later agent takes the smallest mask, so an all-zero instance gives
    everything to agent 0."""
    n, k = len(tables), len(tables[0]).bit_length() - 1
    layers = [tables[0]]
    if n > 2:
        lo = min(k, _CHUNK_ITEMS)
        width = 1 << lo
        rest_lo, sub_lo, starts = _disjoint_pairs(lo)
        rest_hi, sub_hi, _ = _disjoint_pairs(k - lo)
        chunks = list(zip((rest_hi << lo).tolist(), (sub_hi << lo).tolist()))
        for table in tables[1:-1]:
            prev, layer = layers[-1], np.full(1 << k, -np.inf)
            for r, s in chunks:
                vals = combine(prev[r:r + width][rest_lo], table[s:s + width][sub_lo])
                seg = layer[r | s:(r | s) + width]
                np.maximum(seg, np.maximum.reduceat(vals, starts), out=seg)
            layers.append(layer)

    all_masks = np.arange(1 << k, dtype=np.int64)
    mask = (1 << k) - 1
    masks, best = [0] * n, float(tables[0][mask])
    for i in range(n - 1, 0, -1):
        subs = all_masks[(all_masks & mask) == all_masks]
        cand = combine(layers[i - 1][mask ^ subs], tables[i][subs])
        pick = int(np.argmax(cand))
        if i == n - 1:
            best = float(cand[pick])
        masks[i] = int(subs[pick])
        mask ^= masks[i]
    masks[0] = mask
    return best, masks


def _best_partition(inst: Instance, agents: list[int], items: list[int], cap: int,
                    combine, scales=None) -> tuple[float, Allocation]:
    n, k = len(agents), len(items)
    if k > EXHAUSTIVE_CAP:
        raise CapExceeded(f"{k} items exceed the value-table cap of {EXHAUSTIVE_CAP}")
    products = max(n - 2, 0) * 3 ** k + 2 ** k
    if products > cap:
        raise CapExceeded(f"{products} subset-DP products exceed the cap of {cap}")
    tables = _value_tables(inst, agents, items)
    if scales is not None:
        tables = [table * scale for table, scale in zip(tables, scales)]
    best, masks = _subset_dp(tables, combine)
    witness = Allocation({i: frozenset(j for t, j in enumerate(items) if mask >> t & 1)
                          for i, mask in zip(agents, masks)})
    witness.validate(inst)
    return best, witness


def exact_nsw(inst: Instance, items: Iterable[int] | None = None,
              cap: int = NSW_DP_CAP) -> ExactResult:
    """Maximum NSW over all assignments of `items` (default: all items).
    `nodes` counts those assignments, n^k."""
    item_list = _item_list(inst, items)
    product, witness = _best_partition(inst, list(inst.agents), item_list, cap,
                                       np.multiply)
    optimum = product ** (1.0 / inst.n) if product > 0 else 0.0
    return ExactResult(optimum=float(optimum), witness=witness,
                       nodes=inst.n ** len(item_list))


def exact_scaled_welfare(inst: Instance, targets, agents: Iterable[int] | None = None,
                         items: Iterable[int] | None = None,
                         cap: int = NSW_DP_CAP) -> ExactResult:
    """max over allocations of sum_i v_i(T_i) / V_i, integral witness."""
    agent_list = sorted(inst.agents if agents is None else set(agents))
    item_list = _item_list(inst, items)
    targets = {i: float(targets[i]) for i in agent_list}
    for i, v in targets.items():
        if v <= 0:
            raise ValueError(f"target for agent {i} must be positive")
    welfare, witness = _best_partition(inst, agent_list, item_list, cap, np.add,
                                       [1.0 / targets[i] for i in agent_list])
    return ExactResult(optimum=welfare, witness=witness,
                       nodes=len(agent_list) ** len(item_list))


def exact_config_lp(inst: Instance, objective: str = "welfare", targets=None,
                    agents: Iterable[int] | None = None,
                    items: Iterable[int] | None = None,
                    cap: int = CONFIG_LP_CAP) -> ExactResult:
    """Full configuration LP by explicit column enumeration.

    Columns are all (agent, subset) pairs over `items`, with unit per-agent
    mass and unit per-item capacity. `objective="scaled"` divides each
    agent's values by its target, which yields the exact contract constant
    for the relaxation-solver check.
    """
    if objective not in ("welfare", "scaled"):
        raise ValueError(f"unknown objective {objective!r}")
    agent_list = sorted(inst.agents if agents is None else set(agents))
    item_list = _item_list(inst, items)
    n, k = len(agent_list), len(item_list)
    n_cols = n << k
    if n_cols > cap:
        raise CapExceeded(f"{n_cols} LP columns exceed the cap of {cap}")
    tables = _value_tables(inst, agent_list, item_list)

    c = np.empty(n_cols)
    for pos, i in enumerate(agent_list):
        vals = tables[pos]
        if objective == "scaled":
            t = float(targets[i])
            if t <= 0:
                raise ValueError(f"target for agent {i} must be positive")
            vals = vals / t
        c[pos << k:(pos + 1) << k] = vals

    local_masks = np.arange(1 << k, dtype=np.int64)
    a_ub = np.zeros((k, n_cols))
    for t in range(k):
        contains = ((local_masks >> t) & 1).astype(float)
        a_ub[t] = np.tile(contains, n)
    a_eq = np.zeros((n, n_cols))
    for pos in range(n):
        a_eq[pos, pos << k:(pos + 1) << k] = 1.0
    res = maximize(c, a_ub=a_ub, b_ub=np.ones(k), a_eq=a_eq, b_eq=np.ones(n))

    columns: dict[int, list[tuple[frozenset[int], float]]] = {i: [] for i in agent_list}
    for idx in np.flatnonzero(res.x > 1e-12):
        pos, mask = divmod(int(idx), 1 << k)
        subset = frozenset(item_list[t] for t in range(k) if mask >> t & 1)
        columns[agent_list[pos]].append((subset, float(res.x[idx])))
    witness = ConfigSolution(columns)
    return ExactResult(optimum=float(res.value), witness=witness, nodes=n_cols)
