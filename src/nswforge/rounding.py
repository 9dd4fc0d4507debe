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

from .model import Allocation, InvariantViolation
from .splitting import SubaddSplitOutput, XosSplitOutput
from .valuations import BudgetedAdditive, CapExceeded, Valuation, Xos

# substream purposes
_ITEM_ROUNDS = 0
_TENTATIVE = 1
_WINNERS = 2
STREAM_GENERATE = 3
STREAM_TRIALS = 4

ORACLE_NODE_CAP = 10**6  # most partial profiles and winner nodes one oracle search visits
WELFARE_SUBSET_CAP = 12  # most agents whose every subset is measured for d
EXTRA_ROUNDS = 10  # rounds iterated rounding runs past its expected depth


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
#: (tuples of (items, weight), the weights summing to at most one each),
#: valuations, scaled targets and a stream, return one set per agent, each
#: a subset of a support column.
Columns = dict[int, Sequence[tuple[frozenset[int], float]]]
RoundingProcedure = Callable[
    [Columns, Sequence[Valuation], Mapping[int, float], RngStream, int],
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
    to a uniform requester, from (_WINNERS, *prefix, j). Returns the picked
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
        u = rng.uniform(_WINNERS, *prefix, j)
        won[agents[min(int(u * len(agents)), len(agents) - 1)]].add(j)
    return picks, contention, won


def round_xos(split: XosSplitOutput, rng: RngStream) -> RoundOutcome:
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


def cr_procedure(columns: Columns, valuations: Sequence[Valuation],
                 targets: Mapping[int, float],
                 rng: RngStream, round_index: int = 1) -> dict[int, frozenset[int]]:
    """Contention-resolution rounding procedure (nominal welfare factor 4).

    Samples one tentative support set per agent and resolves every
    contested item uniformly among the requesters.
    """
    del targets
    _, _, won = _contention_round(columns, rng, round_index)
    return {i: frozenset(items) for i, items in won.items()}


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
    search table of each agent it has seen (see `_AgentSearch`), and the
    choice and visit count of each agent group it has searched (the
    visits of its search, not of the dive before it).

    Passed to `oracle_procedure` as `targets`, one instance shares every
    agent's sorted supports, incidence rows, bound arrays and kept-set
    values across the calls that reuse it. It searches each group once,
    returning the recorded choice when the group comes again, and starts
    each group's search from the best choice of a searched group that
    contains it (`floor`); a bounded group that none contains, as the
    first and full group of a run is, starts from a greedy dive (`_dive`).
    That is sound while each agent's columns, valuation and target stay
    fixed, as they do within one run of the subadditive lane, which wraps
    the split's scaled targets in one for the oracle procedure.
    """

    def __init__(self, valuations: Sequence[Valuation], targets: Mapping[int, float]):
        super().__init__(targets)
        self.valuations = valuations
        self.width = max((v.m for v in valuations), default=0)
        self.agents: dict[int, _AgentSearch] = {}
        self.choices: dict[frozenset[int], dict[int, frozenset[int]]] = {}
        self.visits: dict[frozenset[int], int] = {}

    def search_table(self, agent: int,
                     columns: Sequence[tuple[frozenset[int], float]]) -> _AgentSearch:
        if agent not in self.agents:
            self.agents[agent] = _AgentSearch(self.valuations[agent], self[agent],
                                              columns, self.width)
        return self.agents[agent]

    def floor(self, agents: Sequence[int]) -> float:
        """A scaled welfare below the group's optimum: the best welfare, over
        the searched groups that contain it, of their choices' kept sets
        restricted to the group, less 1e-9 times the larger of it and 1;
        -inf if no searched group contains it. Dropping agents only frees
        items, so a restricted choice is feasible, and an `Xos` (an
        `Additive` agent among them) or `BudgetedAdditive` agent's value
        cannot fall as its set grows, so the group's optimum is at least
        that welfare."""
        group = frozenset(agents)
        best = -math.inf
        for other, kept in self.choices.items():
            if group <= other:
                welfare = 0.0
                for i in agents:
                    welfare += self.agents[i].scaled(kept[i])
                best = max(best, welfare)
        return _below(best)


def _below(welfare: float) -> float:
    """A floor just under a reached scaled welfare: it less 1e-9 times the
    larger of it and 1, far above the 1e-15 record rule and the 1e-12
    bound widening."""
    return welfare - 1e-9 * max(welfare, 1.0)


def _dive(supports: Sequence[Sequence[frozenset[int]]], children: Callable,
          nodes: Callable, width: int) -> float:
    """The best scaled welfare among the winner nodes of one profile: the
    one reached by taking, at each agent, the support whose child has the
    largest bound (the first on ties). A greedy first record, as the diving
    heuristics of MIP solvers find one (Achterberg 2007); `children` and
    `nodes` are the search's own, so the dive's visits count toward its
    budget."""
    profile: list[frozenset[int]] = []
    top, total = np.zeros(width), 0.0
    for pos, sets in enumerate(supports):
        tops, totals, wide = children(pos, top, total)
        k = int(np.argmax(wide))
        profile.append(sets[k])
        top, total = tops[k], totals[k]
    return max(welfare for _, welfare in nodes(profile))


def oracle_procedure(columns: Columns, valuations: Sequence[Valuation],
                     targets: Mapping[int, float],
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
    agent sets of `Xos` (`Additive` agents included) and `BudgetedAdditive`
    agents are bounded; any other set is scanned in full. A subtree is skipped only when its bound,
    times 1 + 1e-12 for float reordering, is at most the best plus 1e-15:
    no node in it could be a record, so the choice is the full scan's bit
    for bit. Each partial profile widens all its children's bounds in one
    vector product and enters, in order, only those above that cut,
    testing each again as records found below an earlier child raise it.
    `v_i` is called once per distinct (agent, kept set).

    A bounded search also skips a subtree whose bound, so widened, is at
    most its floor (`OracleTables.floor`): what the choice of an already
    searched group that contains this one reaches on it, less 1e-9 times
    the larger of that and 1. Records are still accepted by the 1e-15
    rule in scan order. Only nodes below the floor go unvisited, and two
    scans that differ in those keep records within 1e-15 of each other;
    they meet again at the first node that beats every welfare seen by
    more than 1e-15. Ending apart would take a million such highs in a
    row, each at most 1e-15 above the last, between the floor and the
    optimum, so the choice stays the full scan's. A search whose best
    welfare is not above its floor, as a floor above the optimum would
    leave it, raises `InvariantViolation`.

    A bounded search that no searched group floors first dives (`_dive`):
    it follows, from the root, the child of largest bound at each agent,
    scans that one profile's winner nodes, and takes their best welfare,
    less the same margin, as its floor. The dive accepts no record, so
    the argument above keeps the choice the full scan's. Within the lane
    only the full group dives; so does a direct call with a plain mapping.

    The search budgets what it visits, not what it could visit: each
    partial profile it enters counts 1, and a full profile adds its
    (profile, winner) nodes, the product of its contested items' holder
    counts, before any of them is enumerated. Once the count passes
    `ORACLE_NODE_CAP` the call raises `CapExceeded`, so one profile too
    large to enumerate refuses at once, while a refusal may come after some
    `v_i` calls. The dive's partial profiles and winner nodes count too,
    but `OracleTables.visits` records only the search's. Near-uniform
    additive 4x40 seed 0 holds 3.1 million profiles, and its largest
    search counts 344 visits after a dive of 9; xos 3x36 seed 0's counts
    24,283 after 52. A search that nothing prunes costs a few
    microseconds per node.

    `targets` may be an `OracleTables`, whose per-agent tables, memo and
    group choices the call then reuses and extends: a group it has already
    searched gets its recorded choice back, with no search. Any other
    mapping gets fresh tables, and so no floor. Within one run of the
    subadditive lane, one `OracleTables` serves every group and round, so
    each group is searched once, each agent's supports are valued once per
    run, not once per group that holds them, and each group starts from
    the choices of the larger groups, searched before it, that contain it.

    The search is one loop over an explicit stack of partial profiles, so
    its depth is not bounded by the interpreter's recursion limit, and none
    of its local functions refers to itself: reference counting frees its
    tables and the run's copies as the call returns or raises.
    """
    del rng, round_index
    if not isinstance(targets, OracleTables):
        targets = OracleTables(valuations, targets)
    group = frozenset(columns)
    if group in targets.choices:
        return targets.choices[group]
    agents = sorted(columns)
    n = len(agents)
    if not n:
        return {}
    tables = [targets.search_table(i, columns[i]) for i in agents]
    width = targets.width
    bounded = all(isinstance(valuations[i], (Xos, BudgetedAdditive)) for i in agents)
    if bounded:
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
    floor = -math.inf
    cut = best_welfare + 1e-15  # a subtree must beat this to be searched
    best: dict[int, frozenset[int]] | None = None
    visited = 0

    def visit(nodes: int) -> None:
        nonlocal visited
        visited += nodes
        if visited > ORACLE_NODE_CAP:
            raise CapExceeded("the search visited more than the node cap")

    def children(pos: int, top: np.ndarray, total: float):
        """Count a visit to a partial profile of `pos` chosen sets, and
        return, per support of the next agent, its child's `top` row and
        `total` and its bound widened for float reordering."""
        visit(1)
        tops = np.maximum(top, singles[pos])
        totals = total + set_values[pos]
        bounds = np.minimum(tops.sum(axis=1), totals) + later[pos + 1]
        return tops, totals, bounds * (1 + 1e-12)

    def nodes(profile: list[frozenset[int]]):
        """Count a visit to a full profile and its winner nodes, then yield
        each node's kept sets and welfare in scan order."""
        holders: dict[int, list[int]] = {}
        for pos, chosen in enumerate(profile):
            for j in chosen:
                holders.setdefault(j, []).append(pos)
        contested = sorted(j for j, who in holders.items() if len(who) > 1)
        visit(1 + math.prod(len(holders[j]) for j in contested))
        sole = [chosen.difference(contested) for chosen in profile]
        for winners in itertools.product(*(holders[j] for j in contested)):
            won: list[list[int]] = [[] for _ in agents]
            for j, winner in zip(contested, winners):
                won[winner].append(j)
            kept = [s.union(w) for s, w in zip(sole, won)]
            welfare = 0.0
            for t, items in zip(tables, kept):
                welfare += t.scaled(items)
            yield kept, welfare

    if bounded:
        floor = targets.floor(agents)
        if floor == -math.inf:
            floor = _below(_dive([t.supports for t in tables], children, nodes, width))
        cut = max(cut, floor)
    dive_visits = visited
    # entries: a partial profile, its `top` row (each item's largest scaled
    # singleton among the chosen holders), `total` (the chosen sets' scaled
    # values) and its widened bound, entered only if that still beats the cut
    stack = [([], np.zeros(width), 0.0, math.inf)]
    while stack:
        profile, top, total, bound = stack.pop()
        if not bound > cut:  # a record found below an earlier sibling raised the cut
            continue
        pos = len(profile)
        if pos == n:
            for kept, welfare in nodes(profile):
                if welfare > best_welfare + 1e-15:
                    best_welfare = welfare
                    best = dict(zip(agents, kept))
                    cut = max(best_welfare + 1e-15, floor)
            continue
        tops, totals, wide = children(pos, top, total)
        supports = tables[pos].supports
        for k in reversed((wide > cut).nonzero()[0].tolist()):  # entered in support order
            stack.append((profile + [supports[k]], tops[k], totals[k], wide[k]))
    if best is None or best_welfare <= floor:
        raise InvariantViolation("the oracle's floor exceeds the group's best welfare")
    targets.choices[group] = best
    targets.visits[group] = visited - dive_visits
    return best


def _agent_columns(split: SubaddSplitOutput) -> Columns:
    """Each agent's split columns as the tuple of (items, weight) pairs a
    rounding procedure takes, built once per call and shared, read-only,
    by every group and round that holds the agent."""
    return {i: tuple((c.items, c.weight) for c in cols) for i, cols in split.columns.items()}


def measured_welfare_factor(split: SubaddSplitOutput, valuations: Sequence[Valuation],
                            targets: Mapping[int, float], proc: RoundingProcedure,
                            rng: RngStream) -> float:
    """Measured d of a rounding procedure on a split solution, whose scaled
    targets V'_i (`scaled_targets`) are `targets`.

    The iterated-rounding analysis needs the welfare guarantee on every
    subset of agents it may recurse on, so d is the worst |B| / welfare(B)
    over all nonempty agent subsets B. Beyond `WELFARE_SUBSET_CAP` agents
    only the full set is measured and a 1.25 safety factor is applied
    instead. The largest groups go first, so a procedure that raises
    `CapExceeded` on the full set does so before any smaller search.

    With the exact `oracle_procedure` this measurement is most of the
    rounding stage. The subadditive lane passes one `OracleTables` for the
    run as `targets`, so each agent's search table is built once
    and each (agent, kept set) valued once: on the benchmark's near-uniform
    3x24 seed 1 the seven groups make 85 oracle `value` calls, down from
    327 with tables built per group. Largest first also lets each smaller
    group's search start from the choices of the groups that contain it
    (`OracleTables.floor`), and the full group's from a greedy dive: there
    the seven searches visit 31 nodes after a dive of 5 (119 with the full
    group from an empty record, 214 with every group), and on default xos
    6x60 seed 0 the 63 searches visit 58,141 after a dive of 135 (90,840
    and 162,138).
    """
    agents = sorted(split.columns)
    if not agents:
        return 1.0
    agent_columns = _agent_columns(split)

    def factor(group: tuple[int, ...]) -> float:
        sets = proc({i: agent_columns[i] for i in group}, valuations, targets, rng, 0)
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
                   targets: Mapping[int, float], items: Sequence[int], delta: float,
                   proc: RoundingProcedure, rng: RngStream) -> RoundOutcome:
    """Iterated rounding: satisfied agents keep a geometric slice of items.

    Every item independently draws the round r_j in which it is handed
    out. Each round runs the rounding procedure on the remaining agents;
    agents whose set reaches delta times their target V'_i (`targets`, as
    `scaled_targets` gives them) exit with the items of their set that
    drew the current round. The loop is capped at the expected depth plus
    `EXTRA_ROUNDS`; hitting the cap marks the outcome (it indicates the
    procedure is not meeting its welfare contract) and leaves the
    stragglers with empty sets.
    """
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta must lie in (0, 1), got {delta}")
    agents0 = sorted(split.columns)
    item_rounds = {int(j): geometric_round(rng.uniform(_ITEM_ROUNDS, int(j)), delta)
                   for j in items}

    n0 = max(len(agents0), 1)
    cap = max(1, math.ceil(math.log(max(n0, 2)) / -math.log1p(-delta))) + EXTRA_ROUNDS
    active = list(agents0)
    agent_columns = _agent_columns(split)
    bundles: dict[int, frozenset[int]] = {}
    tentative: dict[int, frozenset[int]] = {}
    exit_rounds: dict[int, int] = {}
    log: list[RoundStats] = []
    for t in range(1, cap + 1):
        if not active:
            break
        sets = proc({i: agent_columns[i] for i in active}, valuations, targets, rng, t)
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
