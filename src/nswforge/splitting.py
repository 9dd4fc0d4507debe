"""Set splitting: equalize support-set values before randomized rounding.

Both variants rewrite a per-agent distribution over item sets so that every
surviving support set is worth a constant fraction of the agent's target,
which is what keeps the value of a sampled set from collapsing for some
agents. The XOS variant reserves each source's largest clause item and
splits the rest; the subadditive variant splits and then trims overweight
parts. Every documented bound is asserted on every run, by the same
`check_xos_split`/`check_subadditive_split` the fuzz suites call: a
violation means the inputs were inconsistent (or a valuation is not
actually subadditive) and is raised as InvariantViolation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

from .model import InvariantViolation
from .valuations import Valuation, xos_clause

_W_TOL = 1e-6   # tolerance on incoming per-agent weight sums
_B_TOL = 1e-9   # tolerance on the asserted output bounds


@dataclass(frozen=True)
class SplitColumn:
    items: frozenset[int]
    weight: float
    source: frozenset[int]
    large_item: int | None = None


@dataclass
class XosSplitOutput:
    columns: dict[int, list[SplitColumn]]
    v_plus: dict[int, float]


@dataclass
class SubaddSplitOutput:
    columns: dict[int, list[SplitColumn]]
    targets: dict[int, float]
    nu: dict[int, float]


def _check_weight_sum(agent: int, cols) -> None:
    total = sum(w for _, w in cols)
    if abs(total - 1.0) > _W_TOL:
        raise ValueError(f"agent {agent}: column weights sum to {total}, expected 1")


def _check_load(columns: Mapping[int, list[SplitColumn]], cap: float) -> None:
    load: dict[int, float] = {}
    for cols in columns.values():
        for col in cols:
            for j in col.items:
                load[j] = load.get(j, 0.0) + col.weight
    for j, mass in load.items():
        if mass > cap + _B_TOL:
            raise InvariantViolation(f"item {j}: split load {mass} exceeds {cap}")


def check_xos_split(out: XosSplitOutput, valuations: Sequence[Valuation]) -> None:
    """Each part lies in its source without the reserved item, and with it
    clears a quarter of v+; each agent's mass is in [1, 3] and each item's
    load at most 3/4."""
    for agent, cols in out.columns.items():
        threshold = out.v_plus[agent] / 4.0
        for col in cols:
            if col.large_item in col.items or not col.items <= col.source:
                raise InvariantViolation(
                    f"agent {agent}: part {sorted(col.items)} + {col.large_item} "
                    f"does not fit its source {sorted(col.source)}")
            value = valuations[agent].value(col.items | {col.large_item})
            if value < threshold - _B_TOL:
                raise InvariantViolation(f"agent {agent}: part worth {value} below "
                                         f"the quarter threshold {threshold}")
        total = sum(c.weight for c in cols)
        if not 1.0 - _B_TOL <= total <= 3.0 + _B_TOL:
            raise InvariantViolation(f"agent {agent}: split mass {total} outside [1, 3]")
    _check_load(out.columns, 0.75)


def check_subadditive_split(out: SubaddSplitOutput, valuations: Sequence[Valuation]) -> None:
    """Each part is worth between V/3 - nu and V; each agent's mass is 1
    and each item's load at most 1."""
    for agent, cols in out.columns.items():
        target = out.targets[agent]
        floor = target / 3.0 - out.nu[agent]
        total = sum(c.weight for c in cols)
        if abs(total - 1.0) > _B_TOL:
            raise InvariantViolation(f"agent {agent}: split mass {total} != 1")
        for col in cols:
            value = valuations[agent].value(col.items)
            if not floor - _B_TOL <= value <= target + _B_TOL:
                raise InvariantViolation(
                    f"agent {agent}: part worth {value} outside [{floor}, {target}]")
    _check_load(out.columns, 1.0)


def _greedy_parts(order: Sequence[int], pieces: int,
                  reached: Callable[[list[int]], bool]) -> list[list[int]]:
    """Cut `order` into `pieces` consecutive parts: each but the last takes
    items until `reached` holds of it or the items run out, and the last
    takes the rest, so trailing parts may be empty."""
    idx = 0
    parts: list[list[int]] = []
    for _ in range(pieces - 1):
        cur: list[int] = []
        while idx < len(order):
            cur.append(order[idx])
            idx += 1
            if reached(cur):
                break
        parts.append(cur)
    parts.append(list(order[idx:]))
    return parts


def split_xos(columns: Mapping[int, list[tuple[frozenset[int], float]]],
              valuations: Sequence[Valuation], v_plus: Mapping[int, float]) -> XosSplitOutput:
    """XOS set splitting of each agent's columns (sets and weights, as
    `EgResult.columns` holds them) against per-agent extension values v+.

    Sets below a quarter of v+ are discarded; each survivor S loses its
    largest clause item l, and S - l is split greedily (descending clause
    weight) into floor(4 v(S) / v+) parts whose clause value plus l clears
    the quarter threshold. Trailing parts may be empty: the reserved item
    alone can carry the threshold. Each part inherits 3/4 of the source
    weight.
    """
    out: dict[int, list[SplitColumn]] = {}
    for agent, cols in columns.items():
        _check_weight_sum(agent, cols)
        v = valuations[agent]
        target = v_plus[agent]
        if target <= 0:
            raise ValueError(f"agent {agent}: nonpositive extension value")
        threshold = target / 4.0
        parts_out: list[SplitColumn] = []
        for source, weight in cols:
            if weight <= 0:
                continue
            val = v.value(source)
            if val < threshold - _B_TOL:
                continue
            weights = xos_clause(v, source).weights.tolist()
            order = sorted(source, key=lambda j: (-weights[j], j))
            large = order[0]
            pieces = math.floor(4.0 * val / target + 1e-9)
            part_target = threshold - weights[large]
            parts = _greedy_parts(
                order[1:], pieces,
                lambda cur: sum(weights[j] for j in cur) >= part_target - 1e-12)
            parts_out.extend(SplitColumn(frozenset(part), 0.75 * weight, source, large)
                             for part in parts)
        if not parts_out:
            raise InvariantViolation(
                f"agent {agent}: no set cleared the quarter threshold; "
                f"weights and v+ are inconsistent")
        out[agent] = parts_out
    result = XosSplitOutput(columns=out, v_plus=dict(v_plus))
    check_xos_split(result, valuations)
    return result


def _trim(part: frozenset[int], v: Valuation, cap: float,
          singles: Sequence[float]) -> frozenset[int]:
    """`part` as it is if it is worth at most cap; else drop its items of
    least singleton value `singles[j]` (ties to the lower index) one at a
    time until it is."""
    if v.value(part) <= cap + _B_TOL:
        return part
    order = sorted(part, key=lambda j: (singles[j], j))
    while True:
        del order[0]
        kept = frozenset(order)
        if v.value(kept) <= cap + _B_TOL:
            return kept


def split_subadditive(columns: Mapping[int, list[tuple[frozenset[int], float]]],
                      valuations: Sequence[Valuation], targets: Mapping[int, float],
                      nu: Mapping[int, float]) -> SubaddSplitOutput:
    """Subadditive set splitting of each agent's columns (sets and
    weights, as `EgResult.columns` holds them) against per-agent targets V.

    Only agents with V >= 6 nu may participate. Sets below V/3 are
    discarded; survivors are split greedily in item order into
    floor(3 v(S) / V) nonempty parts worth at least V/3 - nu, then each
    part worth more than V is trimmed down to at most V (`_trim`, over
    the agent's singleton values, read once). Accumulated weights are
    renormalized to sum to exactly one per agent, which cannot increase
    any item's load because the pre-normalization mass is at least one.
    """
    out: dict[int, list[SplitColumn]] = {}
    for agent, cols in columns.items():
        _check_weight_sum(agent, cols)
        v = valuations[agent]
        target = float(targets[agent])
        single_cap = float(nu[agent])
        if target <= 0:
            raise ValueError(f"agent {agent}: nonpositive target")
        if target < 6.0 * single_cap - _B_TOL:
            raise ValueError(
                f"agent {agent}: target {target} below 6 nu = {6 * single_cap}; "
                f"filter such agents out before splitting")
        keep_threshold = target / 3.0
        part_target = target / 3.0 - single_cap
        singles = v.singleton_values().tolist()
        raw: list[tuple[frozenset[int], float, frozenset[int]]] = []
        for source, weight in cols:
            if weight <= 0:
                continue
            val = v.value(source)
            if val < keep_threshold - _B_TOL:
                continue
            pieces = math.floor(3.0 * val / target + 1e-9)
            parts = _greedy_parts(sorted(source), pieces,
                                  lambda cur: v.value(cur) >= part_target - 1e-12)
            for part in map(frozenset, parts):
                if not part or v.value(part) < part_target - _B_TOL:
                    raise InvariantViolation(
                        f"agent {agent}: greedy split of {sorted(source)} "
                        f"failed; valuation is not subadditive?")
                raw.append((_trim(part, v, target, singles), weight, source))
        mass = sum(weight for _, weight, _ in raw)
        if mass < 1.0 - _B_TOL:
            raise InvariantViolation(
                f"agent {agent}: pre-normalization mass {mass} below 1; "
                f"weights and targets are inconsistent")
        out[agent] = [SplitColumn(items, weight / mass, source)
                      for items, weight, source in raw]
    result = SubaddSplitOutput(columns=out, targets=dict(targets), nu=dict(nu))
    check_subadditive_split(result, valuations)
    return result
