"""Randomized rounding: contention resolution, iterated rounding, procedures.

All randomness flows through `RngStream`, which derives one independent
substream per (purpose, entity) pair. Sampling an item's round or an
agent's tentative set therefore never depends on iteration order, and an
identical seed reproduces every outcome bit for bit.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

import numpy as np

from . import matching  # called as matching.product_matching, so wrappers of it see this caller
from .model import Allocation, Instance, InvariantViolation, Matching
from .splitting import SubaddSplitOutput, XosSplitOutput
from .valuations import Additive, BudgetedAdditive, CapExceeded, Valuation, Xos

# substream purposes
_ITEM_ROUNDS = 0
_TENTATIVE = 1
_WINNERS = 2
STREAM_GENERATE = 3
STREAM_TRIALS = 4

ORACLE_CHOICE_CAP = 10**6
ORACLE_NODE_CAP = 10**7
WELFARE_SUBSET_CAP = 12  # most agents whose every subset is measured for d
_ORACLE_BLOCK = 1 << 14  # (profile, agent, item) cells per block of the oracle's node count


class RngStream:
    """Seeded random streams with deterministic substream derivation.

    Substreams are PCG64 generators keyed by SeedSequence(seed, spawn_key),
    where the spawn key is the integer path passed in. The same (seed,
    path) pair yields the same bit stream on every platform.
    """

    def __init__(self, seed: int):
        self.seed = int(seed) & (2**64 - 1)

    def substream(self, *path: int) -> np.random.Generator:
        return np.random.Generator(
            np.random.PCG64(np.random.SeedSequence(self.seed, spawn_key=tuple(path))))

    def uniform(self, *path: int) -> float:
        return float(self.substream(*path).random())


#: signature of a pluggable rounding procedure: given per-agent columns
#: (weights summing to at most one each), valuations, scaled targets and a
#: stream, return one set per agent, each a subset of a support column.
RoundingProcedure = Callable[
    [dict[int, list[tuple[frozenset[int], float]]], Sequence[Valuation],
     Mapping[int, float], RngStream, int],
    dict[int, frozenset[int]],
]


@dataclass
class RoundStats:
    index: int
    active: int
    scaled_welfare: float
    exited: tuple[int, ...]


@dataclass
class RoundOutcome:
    allocation: Allocation
    tentative: dict[int, frozenset[int]]
    contention: dict[int, tuple[int, ...]]
    large_items: dict[int, int] = field(default_factory=dict)
    normalizers: dict[int, float] = field(default_factory=dict)
    exit_rounds: dict[int, int] = field(default_factory=dict)
    item_rounds: dict[int, int] = field(default_factory=dict)
    round_log: list[RoundStats] = field(default_factory=list)
    rounds_capped: bool = False

    def to_json(self) -> str:
        doc = {
            "bundles": {str(i): sorted(s) for i, s in sorted(self.allocation.bundles.items())},
            "tentative": {str(i): sorted(s) for i, s in sorted(self.tentative.items())},
            "contention": {str(j): list(a) for j, a in sorted(self.contention.items())},
            "large_items": {str(i): j for i, j in sorted(self.large_items.items())},
            "normalizers": {str(i): c for i, c in sorted(self.normalizers.items())},
            "exit_rounds": {str(i): t for i, t in sorted(self.exit_rounds.items())},
            "item_rounds": {str(j): t for j, t in sorted(self.item_rounds.items())},
            "round_log": [[r.index, r.active, r.scaled_welfare, list(r.exited)]
                          for r in self.round_log],
            "rounds_capped": self.rounds_capped,
        }
        return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def _pick_index(weights: Sequence[float], u: float) -> int:
    """Inverse-CDF draw over normalized weights."""
    acc = 0.0
    for k, w in enumerate(weights):
        acc += w
        if u < acc:
            return k
    return len(weights) - 1


def _contention_round(columns: Mapping[int, Sequence[tuple[frozenset[int], float]]],
                      rng: RngStream, *prefix: int):
    """Each agent samples one tentative set in proportion to the weights,
    from substream (_TENTATIVE, *prefix, agent); each requested item j goes
    to a uniform requester, from (*prefix, _WINNERS, j). Returns the picked
    column indices, each item's requesters and the items each agent won."""
    picks: dict[int, int] = {}
    requests: dict[int, list[int]] = {}
    for agent in sorted(columns):
        cols = columns[agent]
        total = sum(w for _, w in cols)
        u = rng.uniform(_TENTATIVE, *prefix, agent)
        picks[agent] = _pick_index([w / total for _, w in cols], u)
        for j in cols[picks[agent]][0]:
            requests.setdefault(j, []).append(agent)
    won: dict[int, set[int]] = {i: set() for i in picks}
    contention: dict[int, tuple[int, ...]] = {}
    for j in sorted(requests):
        agents = requests[j]  # in agent order
        contention[j] = tuple(agents)
        u = rng.uniform(*prefix, _WINNERS, j)
        won[agents[min(int(u * len(agents)), len(agents) - 1)]].add(j)
    return picks, contention, won


def round_xos(split: XosSplitOutput, valuations: Sequence[Valuation],
              rng: RngStream) -> RoundOutcome:
    """One-shot contention-resolution rounding of an XOS split solution.

    Each agent samples a tentative part with probability proportional to
    its split weight (the normalizer c_i lands in [1/3, 1]); every
    requested item then goes to a uniformly random requester.
    """
    normalizers = {}
    for agent in sorted(split.columns):
        total = sum(c.weight for c in split.columns[agent])
        if not 1.0 - 1e-9 <= total <= 3.0 + 1e-9:
            raise InvariantViolation(
                f"agent {agent}: split mass {total} outside [1, 3]")
        normalizers[agent] = 1.0 / total
    picks, contention, won = _contention_round(
        {i: [(c.items, c.weight) for c in cols] for i, cols in split.columns.items()}, rng)
    tentative_cols = {i: split.columns[i][k] for i, k in picks.items()}
    bundles = {i: frozenset(won[i]) for i in picks}
    for i, col in tentative_cols.items():
        if not bundles[i] <= col.items:
            raise InvariantViolation("an agent won an item it never requested")
    return RoundOutcome(
        allocation=Allocation(bundles),
        tentative={i: col.items for i, col in tentative_cols.items()},
        contention=contention,
        large_items={i: col.large_item for i, col in tentative_cols.items()},
        normalizers=normalizers,
    )


def cr_procedure(columns: dict[int, list[tuple[frozenset[int], float]]],
                 valuations: Sequence[Valuation], targets: Mapping[int, float],
                 rng: RngStream, round_index: int = 1) -> dict[int, frozenset[int]]:
    """Contention-resolution rounding procedure (nominal welfare factor 4).

    Samples one tentative support set per agent and resolves every
    contested item uniformly among the requesters.
    """
    del targets
    _, _, won = _contention_round(columns, rng, round_index)
    return {i: frozenset(items) for i, items in won.items()}


def _count_nodes(held: Sequence[np.ndarray], limit: float = math.inf) -> float:
    """(profile, winner) nodes over every profile of the agents whose
    support incidence rows are `held` (one (supports, items) boolean array
    per agent), as a float; the sum stops early once it passes `limit`.

    A profile whose items have holder counts c has prod_j max(c_j, 1)
    nodes. Only the profiles of all agents but the last are enumerated, in
    `_ORACLE_BLOCK`-bounded chunks, and the last agent is contracted in one
    matrix product: its support k multiplies a profile's nodes by the
    product over the items it holds of (c_j + 1) / max(c_j, 1), so a chunk
    adds sum_k exp(sum_j log max(c_j, 1) + held_last[k] @ (log(c + 1) -
    log max(c, 1))). The true count is an integer and the float's relative
    error stays near 1e-14, so comparing it with an integer cap plus 0.5
    decides as the integer would; a count past the float range is `inf`.
    """
    *first, last = held
    counts = [rows.shape[0] for rows in first]
    n_first = math.prod(counts)
    stride = [math.prod(counts[pos + 1:]) for pos in range(len(first))]
    chunk = max(1, _ORACLE_BLOCK // max(len(first) * last.shape[1], 1))
    last_cols = last.T.astype(float)
    nodes = 0.0
    with np.errstate(over="ignore"):
        for q0 in range(0, n_first, chunk):
            q = np.arange(q0, min(q0 + chunk, n_first))
            holders = np.zeros((q.size, last.shape[1]))
            for pos, rows in enumerate(first):
                holders += rows[q // stride[pos] % counts[pos]]
            log_nodes = np.log(np.maximum(holders, 1.0))
            gain = np.log(holders + 1.0) - log_nodes
            nodes += float(np.exp(log_nodes.sum(axis=1)[:, None] + gain @ last_cols).sum())
            if nodes > limit:
                break
    return nodes


class _AgentSearch:
    """One agent's search table: its distinct supports sorted by their
    sorted items, their incidence rows over the item axis, and a memo of
    v(K) / V per kept set K. The bound arrays (scaled set values and
    singletons, and the best single-agent bound) are filled on first use,
    so building a table calls no valuation."""

    def __init__(self, valuation: Valuation, target: float,
                 columns: Sequence[tuple[frozenset[int], float]], width: int):
        self.valuation = valuation
        self.target = target
        # items as Python ints, whatever integer type the columns carry
        self.supports = sorted({frozenset(map(int, s)) for s, _ in columns},
                               key=lambda s: tuple(sorted(s)))
        self.held = np.zeros((len(self.supports), width), dtype=bool)
        for k, s in enumerate(self.supports):
            self.held[k, list(s)] = True
        self.memo: dict[frozenset[int], float] = {}
        self.set_values: np.ndarray | None = None
        self.singles = self.best = None

    def scaled(self, items: frozenset[int]) -> float:
        if items not in self.memo:
            self.memo[items] = self.valuation.value(items) / self.target
        return self.memo[items]

    def fill_bounds(self) -> None:
        if self.set_values is None:
            self.set_values = np.array([self.scaled(s) for s in self.supports], dtype=float)
            # singles[k, j]: v({j}) / V if support k holds item j, else 0
            self.singles = self.held * (self.valuation.singleton_values() / self.target)
            self.best = float(np.minimum(self.set_values, self.singles.sum(axis=1)).max())


class OracleTables(dict):
    """Scaled targets V'_i, as a dict, that also keep the exact oracle's
    search table of each agent it has seen (see `_AgentSearch`).

    Passed to `oracle_procedure` as `targets`, one instance shares every
    agent's sorted supports, incidence rows, bound arrays and kept-set
    values across the calls that reuse it. That is sound while each agent's
    columns, valuation and target stay fixed, as they do within one run of
    the subadditive lane, where `pipeline._searched_once` holds one.
    """

    def __init__(self, valuations: Sequence[Valuation], targets: Mapping[int, float]):
        super().__init__(targets)
        self.valuations = valuations
        self.width = max((v.m for v in valuations), default=0)
        self.agents: dict[int, _AgentSearch] = {}

    def search_table(self, agent: int,
                     columns: Sequence[tuple[frozenset[int], float]]) -> _AgentSearch:
        if agent not in self.agents:
            self.agents[agent] = _AgentSearch(self.valuations[agent], self[agent],
                                              columns, self.width)
        return self.agents[agent]


def oracle_procedure(columns: dict[int, list[tuple[frozenset[int], float]]],
                     valuations: Sequence[Valuation], targets: Mapping[int, float],
                     rng: RngStream | None = None, round_index: int = 1,
                     ) -> dict[int, frozenset[int]]:
    """Exact scaled-welfare-maximizing rounding procedure.

    Scans every choice of one support set per agent (a profile, in
    `itertools.product` order over each agent's distinct supports sorted by
    their sorted items) and, for each profile, every way of awarding each
    contested item to one of its holders (contested items ascending, the
    last one fastest; holders in agent order). A node's welfare is
    sum_i v_i(K_i) / V_i over the kept sets K_i, added in agent order from
    0.0. The scan keeps a record, not an argmax: a node replaces the best
    only when its welfare exceeds the best by more than 1e-15.
    Deterministic.

    The scan is a depth-first branch and bound over agents (Land and Doig
    1960). The bound of a partial profile is the smaller of two sums over
    its chosen sets S_i, one of v_i(S_i) / V_i and one, over the items they
    hold, of each item's largest v_i({j}) / V_i among its holders; each
    later agent adds its best min(v(S) / V, sum of v({j}) / V over S). It
    holds for monotone subadditive valuations with v(empty) = 0, so only
    `Additive`, `Xos` and `BudgetedAdditive` agent sets are bounded; any
    other set is scanned in full. A subtree is skipped only when its bound,
    times 1 + 1e-12 for float reordering, is at most the best plus 1e-15:
    no node in it could be a record, so the choice is the full scan's bit
    for bit. `v_i` is called once per distinct (agent, kept set).

    Both caps are checked before any `v_i` call: more than
    `ORACLE_CHOICE_CAP` profiles, or more than `ORACLE_NODE_CAP`
    (profile, winner) nodes over every profile, raises `CapExceeded`. The
    node count enumerates only the profiles of all agents but the last and
    contracts the last in one matrix product (`_count_nodes`). On the
    benchmark's near-uniform 3x24 seed 1 the seven agent groups hold 18,899
    profiles and 55,150 nodes; a count that walked every profile cost more
    than the search, which visits 68 profiles and 95 nodes, while the
    contraction walks 729 partial profiles.

    `targets` may be an `OracleTables`, whose per-agent tables and memo the
    call then reuses and extends; any other mapping gets fresh tables.
    Within one run of the subadditive lane, one `OracleTables` serves every
    group and round, so each agent's supports are valued once per run, not
    once per group that holds them.
    """
    del rng, round_index
    if not isinstance(targets, OracleTables):
        targets = OracleTables(valuations, targets)
    agents = sorted(columns)
    n = len(agents)
    if not n:
        return {}
    tables = [targets.search_table(i, columns[i]) for i in agents]
    n_choices = math.prod(len(t.supports) for t in tables)
    if n_choices > ORACLE_CHOICE_CAP:
        raise CapExceeded(f"{n_choices} support combinations exceed the cap")
    if _count_nodes([t.held for t in tables], ORACLE_NODE_CAP + 0.5) > ORACLE_NODE_CAP + 0.5:
        raise CapExceeded("winner enumeration exceeded the node cap")

    width = targets.width
    if all(type(valuations[i]) in (Additive, Xos, BudgetedAdditive) for i in agents):
        for t in tables:
            t.fill_bounds()
        set_values = [t.set_values for t in tables]
        singles = [t.singles for t in tables]
        later = [sum(t.best for t in tables[pos:]) for pos in range(n + 1)]
    else:  # unbounded: every subtree is searched
        set_values = [np.zeros(len(t.supports)) for t in tables]
        singles = [np.zeros((len(t.supports), width)) for t in tables]
        later = [math.inf] * (n + 1)

    best_welfare = -1.0
    best: dict[int, frozenset[int]] | None = None

    def scan(profile: list[frozenset[int]]) -> None:
        nonlocal best_welfare, best
        holders: dict[int, list[int]] = {}
        for pos, chosen in enumerate(profile):
            for j in chosen:
                holders.setdefault(j, []).append(pos)
        contested = sorted(j for j, who in holders.items() if len(who) > 1)
        sole = [chosen.difference(contested) for chosen in profile]
        for winners in itertools.product(*(holders[j] for j in contested)):
            won: list[list[int]] = [[] for _ in agents]
            for j, winner in zip(contested, winners):
                won[winner].append(j)
            kept = [s.union(w) for s, w in zip(sole, won)]
            welfare = 0.0
            for t, items in zip(tables, kept):
                welfare += t.scaled(items)
            if welfare > best_welfare + 1e-15:
                best_welfare = welfare
                best = dict(zip(agents, kept))

    def search(profile: list[frozenset[int]], top: np.ndarray, total: float) -> None:
        """Visit the children of a partial profile in order; `top` holds each
        item's largest scaled singleton among the chosen holders and `total`
        the chosen sets' scaled values."""
        pos = len(profile)
        if pos == n:
            scan(profile)
            return
        bounds = np.minimum(np.maximum(top, singles[pos]).sum(axis=1),
                            total + set_values[pos]) + later[pos + 1]
        for k, chosen in enumerate(tables[pos].supports):
            if bounds[k] * (1 + 1e-12) <= best_welfare + 1e-15:
                continue
            search(profile + [chosen], np.maximum(top, singles[pos][k]),
                   total + set_values[pos][k])

    search([], np.zeros(width), 0.0)
    assert best is not None
    return best


def measured_welfare_factor(split: SubaddSplitOutput, valuations: Sequence[Valuation],
                            proc: RoundingProcedure, rng: RngStream) -> float:
    """Measured d of a rounding procedure on a split solution.

    The iterated-rounding analysis needs the welfare guarantee on every
    subset of agents it may recurse on, so d is the worst |B| / welfare(B)
    over all nonempty agent subsets B. Beyond `WELFARE_SUBSET_CAP` agents
    only the full set is measured and a 1.25 safety factor is applied
    instead. The largest groups go first, so a procedure that raises
    `CapExceeded` on the full set does so before any smaller search.

    With the exact `oracle_procedure` this measurement is most of the
    rounding stage. The subadditive lane hands every group one
    `OracleTables` for the run, so each agent's search table is built once
    and each (agent, kept set) valued once: on the benchmark's near-uniform
    3x24 seed 1 the seven groups make 85 oracle `value` calls, down from
    327 with tables built per group.
    """
    agents = sorted(split.columns)
    if not agents:
        return 1.0
    targets = scaled_targets(split, valuations)

    def factor(group: tuple[int, ...]) -> float:
        columns = {i: [(c.items, c.weight) for c in split.columns[i]] for i in group}
        sets = proc(columns, valuations, targets, rng, 0)
        welfare = sum(valuations[i].value(sets[i]) / targets[i] for i in group)
        if welfare <= 0:
            raise InvariantViolation("rounding procedure produced zero scaled welfare")
        return len(group) / welfare

    if len(agents) > WELFARE_SUBSET_CAP:
        return 1.25 * factor(tuple(agents))
    worst = 0.0
    for size in range(len(agents), 0, -1):
        for group in itertools.combinations(agents, size):
            worst = max(worst, factor(group))
    return worst


def scaled_targets(split: SubaddSplitOutput,
                   valuations: Sequence[Valuation]) -> dict[int, float]:
    """V'_i: each agent's expected value under the split distribution."""
    return {i: sum(valuations[i].value(c.items) * c.weight for c in cols)
            for i, cols in split.columns.items()}


def geometric_round(u: float, delta: float) -> int:
    """Inverse-CDF geometric draw: P(t) = delta * (1 - delta)^(t-1)."""
    w = 1.0 - u
    if w >= 1.0:
        return 1
    return max(1, math.ceil(math.log(w) / math.log(1.0 - delta)))


def iterated_round(split: SubaddSplitOutput, valuations: Sequence[Valuation],
                   items: Sequence[int], delta: float, proc: RoundingProcedure,
                   rng: RngStream, extra_rounds: int = 10) -> RoundOutcome:
    """Iterated rounding: satisfied agents keep a geometric slice of items.

    Every item independently draws the round r_j in which it is handed
    out. Each round runs the rounding procedure on the remaining agents;
    agents whose set reaches delta times their target exit with the items
    of their set that drew the current round. The loop is capped at the
    expected depth plus `extra_rounds`; hitting the cap marks the outcome
    (it indicates the procedure is not meeting its welfare contract) and
    leaves the stragglers with empty sets.
    """
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta must lie in (0, 1), got {delta}")
    targets = scaled_targets(split, valuations)
    agents0 = sorted(split.columns)
    item_rounds = {int(j): geometric_round(rng.uniform(_ITEM_ROUNDS, int(j)), delta)
                   for j in items}

    n0 = max(len(agents0), 1)
    cap = max(1, math.ceil(math.log(max(n0, 2)) / -math.log1p(-delta))) + extra_rounds
    active = list(agents0)
    bundles: dict[int, frozenset[int]] = {}
    tentative: dict[int, frozenset[int]] = {}
    exit_rounds: dict[int, int] = {}
    log: list[RoundStats] = []
    for t in range(1, cap + 1):
        if not active:
            break
        columns = {i: [(c.items, c.weight) for c in split.columns[i]] for i in active}
        sets = proc(columns, valuations, targets, rng, t)
        welfare = sum(valuations[i].value(sets[i]) / targets[i] for i in active)
        slice_t = frozenset(j for j, r in item_rounds.items() if r == t)
        exited = []
        for i in active:
            tentative[i] = sets[i]
            if valuations[i].value(sets[i]) >= delta * targets[i] - 1e-12:
                bundles[i] = sets[i] & slice_t
                exit_rounds[i] = t
                exited.append(i)
        log.append(RoundStats(t, len(active), welfare, tuple(exited)))
        active = [i for i in active if i not in exit_rounds]
    capped = bool(active)
    for i in active:
        bundles[i] = frozenset()
    return RoundOutcome(
        allocation=Allocation(bundles),
        tentative=tentative,
        contention={},
        exit_rounds=exit_rounds,
        item_rounds=item_rounds,
        round_log=log,
        rounds_capped=capped,
    )


def final_matching(bundles: Mapping[int, frozenset[int]], inst: Instance,
                   reserved: frozenset[int]):
    """Product-optimal assignment of the reserved items on top of bundles."""
    reserved_list = sorted(reserved)
    scores = np.zeros((inst.n, len(reserved_list)))
    for i in inst.agents:
        base = bundles.get(i, frozenset())
        for k, h in enumerate(reserved_list):
            scores[i, k] = inst.valuations[i].value(base | {h})
    local = matching.product_matching(scores)
    sigma_map = {i: reserved_list[k] for i, k in local.assignment.items()}
    sigma = Matching(sigma_map)
    sigma.validate()
    out = Allocation({i: bundles.get(i, frozenset()) | {sigma_map[i]}
                      for i in inst.agents})
    out.validate(inst)
    return out, sigma
