"""Core data types, instance JSON serialization, and the NSW objective.

Instances, valuations, allocations and matchings are treated as immutable
after construction and may be shared freely across workers. Agents and
items use dense integer ids internally; external names ride along in the
instance and are only used at the serialization boundary.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .valuations import Additive, BudgetedAdditive, ExplicitTable, Valuation, Xos

#: absolute tolerance for <=/>= constraint checks on O(1)-normalized values
CHECK_TOL = 1e-9


class SchemaError(ValueError):
    """Instance document violates the schema; `path` points at the culprit."""

    def __init__(self, message: str, path: str):
        super().__init__(f"{path}: {message}")
        self.path = path


class InvariantViolation(AssertionError):
    """A stage-level guarantee failed at runtime; always a bug or bad input."""


@dataclass(frozen=True)
class Instance:
    """Agents, items, and exactly one valuation per agent."""

    agent_names: tuple[str, ...]
    item_names: tuple[str, ...]
    valuations: tuple[Valuation, ...]

    def __post_init__(self):
        if len(self.agent_names) < 1 or len(self.item_names) < 1:
            raise ValueError("need at least one agent and one item")
        if len(self.valuations) != len(self.agent_names):
            raise ValueError("exactly one valuation per agent required")
        for v in self.valuations:
            if v.m != len(self.item_names):
                raise ValueError("valuation universe does not match the item list")

    @property
    def n(self) -> int:
        return len(self.agent_names)

    @property
    def m(self) -> int:
        return len(self.item_names)

    @property
    def agents(self) -> range:
        return range(self.n)

    @property
    def items(self) -> range:
        return range(self.m)


@dataclass
class Allocation:
    """Disjoint bundles per agent; unallocated items are permitted."""

    bundles: dict[int, frozenset[int]] = field(default_factory=dict)

    def bundle(self, agent: int) -> frozenset[int]:
        return self.bundles.get(agent, frozenset())

    def validate(self, inst: Instance) -> None:
        seen: set[int] = set()
        for agent, items in self.bundles.items():
            if not 0 <= agent < inst.n:
                raise ValueError(f"unknown agent {agent}")
            for j in items:
                if not 0 <= j < inst.m:
                    raise ValueError(f"unknown item {j}")
                if j in seen:
                    raise ValueError(f"item {j} allocated twice")
                seen.add(j)

    def allocated_items(self) -> frozenset[int]:
        out: set[int] = set()
        for items in self.bundles.values():
            out |= items
        return frozenset(out)


@dataclass
class Matching:
    """Injective agent -> item map."""

    assignment: dict[int, int] = field(default_factory=dict)

    def validate(self) -> None:
        targets = list(self.assignment.values())
        if len(set(targets)) != len(targets):
            raise ValueError("matching is not injective")

    def items(self) -> frozenset[int]:
        return frozenset(self.assignment.values())


@dataclass
class ConfigSolution:
    """Sparse per-agent distributions over item sets (configuration columns)."""

    columns: dict[int, list[tuple[frozenset[int], float]]]

    def agent_total(self, agent: int) -> float:
        return sum(w for _, w in self.columns.get(agent, []))

    def item_load(self, m: int) -> np.ndarray:
        load = np.zeros(m)
        for cols in self.columns.values():
            for items, w in cols:
                for j in items:
                    load[j] += w
        return load

    def marginals(self, m: int) -> "ItemFractional":
        mass: dict[int, dict[int, float]] = {}
        for agent, cols in self.columns.items():
            row: dict[int, float] = {}
            for items, w in cols:
                for j in items:
                    row[j] = row.get(j, 0.0) + w
            mass[agent] = row
        return ItemFractional(mass)

    def validate(self, m: int, tol: float = CHECK_TOL) -> None:
        for agent, cols in self.columns.items():
            for _, w in cols:
                if w < -tol:
                    raise ValueError(f"negative column weight for agent {agent}")
        load = self.item_load(m)
        if load.size and load.max() > 1.0 + tol:
            j = int(np.argmax(load))
            raise ValueError(f"item {j} capacity exceeded: {load[j]:.12f}")


@dataclass
class ItemFractional:
    """Per-agent per-item mass x_ij in [0, 1], per-item totals at most 1."""

    mass: dict[int, dict[int, float]]

    def agent_vector(self, agent: int, m: int) -> np.ndarray:
        x = np.zeros(m)
        for j, val in self.mass.get(agent, {}).items():
            x[j] = val
        return x

    def validate(self, m: int, tol: float = CHECK_TOL) -> None:
        load = np.zeros(m)
        for agent, row in self.mass.items():
            for j, val in row.items():
                if val < -tol or val > 1.0 + tol:
                    raise ValueError(f"x[{agent},{j}] = {val} outside [0, 1]")
                load[j] += val
        if load.size and load.max() > 1.0 + tol:
            j = int(np.argmax(load))
            raise ValueError(f"item {j} mass exceeds capacity: {load[j]:.12f}")


def nsw_value(alloc: Allocation, inst: Instance) -> float:
    """Geometric mean of bundle values; exactly 0 when any bundle has value 0.

    Positive products are evaluated in log space to avoid overflow and to
    keep the result invariant under agent relabeling.
    """
    logs = []
    for i in inst.agents:
        val = inst.valuations[i].value(alloc.bundle(i))
        if val <= 0.0:
            return 0.0
        logs.append(math.log(val))
    return math.exp(sum(logs) / inst.n)


# ---------------------------------------------------------------------------
# Instance JSON schema


def _require(cond: bool, message: str, path: str) -> None:
    if not cond:
        raise SchemaError(message, path)


def _parse_weights(raw, m: int, path: str) -> np.ndarray:
    _require(isinstance(raw, list) and len(raw) == m,
             f"expected a list of {m} weights", path)
    out = np.empty(m)
    for k, w in enumerate(raw):
        _require(isinstance(w, (int, float)) and not isinstance(w, bool),
                 "weight must be a number", f"{path}/{k}")
        _require(math.isfinite(w), "weight must be finite", f"{path}/{k}")
        _require(w >= 0, "negative weight", f"{path}/{k}")
        out[k] = float(w)
    return out


def _parse_table(raw, m: int, path: str) -> ExplicitTable:
    _require(isinstance(raw, dict), "expected a subset-value map", path)
    if m > 16:
        raise SchemaError("table valuations support at most 16 items", path)
    table = np.zeros(1 << m)
    seen: set[int] = set()
    for key, val in raw.items():
        kpath = f"{path}/{key!r}"
        if key == "":
            _require(val == 0, "empty set must have value 0", kpath)
            continue
        parts = key.split(",")
        try:
            idx = [int(p) for p in parts]
        except ValueError:
            raise SchemaError("key must be comma-joined item indices", kpath)
        _require(idx == sorted(set(idx)), "indices must be sorted and unique", kpath)
        _require(all(0 <= j < m for j in idx), "item index out of range", kpath)
        _require(isinstance(val, (int, float)) and not isinstance(val, bool)
                 and math.isfinite(val), "value must be a finite number", kpath)
        _require(val >= 0, "negative weight", kpath)
        mask = sum(1 << j for j in idx)
        seen.add(mask)
        table[mask] = float(val)
    missing = (1 << m) - 1 - len(seen)
    _require(missing == 0, f"{missing} subset values missing", path)
    return ExplicitTable(table, m)


def _parse_valuation(raw, m: int, path: str) -> Valuation:
    _require(isinstance(raw, dict), "expected a valuation object", path)
    kind = raw.get("kind")
    if kind == "additive":
        return Additive(_parse_weights(raw.get("weights"), m, f"{path}/weights"))
    if kind == "xos":
        clauses = raw.get("clauses")
        _require(isinstance(clauses, list) and len(clauses) >= 1,
                 "expected a nonempty clause list", f"{path}/clauses")
        rows = [_parse_weights(c, m, f"{path}/clauses/{k}")
                for k, c in enumerate(clauses)]
        return Xos(np.stack(rows))
    if kind == "budgeted_additive":
        weights = _parse_weights(raw.get("weights"), m, f"{path}/weights")
        cap = raw.get("cap")
        _require(isinstance(cap, (int, float)) and not isinstance(cap, bool)
                 and math.isfinite(cap), "cap must be a finite number", f"{path}/cap")
        _require(cap >= 0, "negative weight", f"{path}/cap")
        return BudgetedAdditive(weights, float(cap))
    if kind == "table":
        return _parse_table(raw.get("values"), m, f"{path}/values")
    raise SchemaError(f"unknown valuation kind {kind!r}", f"{path}/kind")


def load_instance(text: str, validate_tables: bool = True) -> Instance:
    """Parse and validate an instance document.

    Identifiers are densified in file order. Explicit tables are checked
    for monotonicity and subadditivity unless `validate_tables` is False.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"not valid JSON: {exc}", "/")
    _require(isinstance(doc, dict), "expected a JSON object", "/")
    items = doc.get("items")
    _require(isinstance(items, list) and len(items) >= 1,
             "expected a nonempty item list", "/items")
    for k, name in enumerate(items):
        _require(isinstance(name, str), "item name must be a string", f"/items/{k}")
    _require(len(set(items)) == len(items), "duplicate identifier", "/items")
    agents = doc.get("agents")
    _require(isinstance(agents, list) and len(agents) >= 1,
             "expected a nonempty agent list", "/agents")
    m = len(items)
    names, vals = [], []
    for k, entry in enumerate(agents):
        path = f"/agents/{k}"
        _require(isinstance(entry, dict), "expected an agent object", path)
        name = entry.get("name")
        _require(isinstance(name, str), "agent name must be a string", f"{path}/name")
        names.append(name)
        vals.append(_parse_valuation(entry.get("valuation"), m, f"{path}/valuation"))
    _require(len(set(names)) == len(names), "duplicate identifier", "/agents")
    if validate_tables:
        for k, v in enumerate(vals):
            if isinstance(v, ExplicitTable):
                report = validate_valuation(v, m)
                _require(report.passed(),
                         f"table valuation invalid: {report.summary()}",
                         f"/agents/{k}/valuation/values")
    return Instance(tuple(names), tuple(items), tuple(vals))


def serialize_instance(inst: Instance) -> str:
    """Canonical JSON form; `load_instance` round-trips it exactly."""
    doc = {
        "agents": [
            {"name": inst.agent_names[i], "valuation": inst.valuations[i].to_config()}
            for i in inst.agents
        ],
        "items": list(inst.item_names),
    }
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


# ---------------------------------------------------------------------------
# Exhaustive valuation validation


@dataclass
class ValuationReport:
    zero_at_empty: bool
    monotone: bool | None
    subadditive: bool | None
    xos_consistent: bool | None
    subadditive_counterexample: tuple[frozenset[int], frozenset[int]] | None = None
    monotone_counterexample: tuple[frozenset[int], int] | None = None
    skipped: bool = False

    def passed(self) -> bool:
        checks = [self.zero_at_empty, self.monotone, self.subadditive,
                  self.xos_consistent]
        return all(c is not False for c in checks)

    def summary(self) -> str:
        def show(flag):
            return "skipped" if flag is None else ("ok" if flag else "FAIL")

        return (f"empty={show(self.zero_at_empty)} monotone={show(self.monotone)} "
                f"subadditive={show(self.subadditive)} xos={show(self.xos_consistent)}")


def _mask_set(mask: int, m: int) -> frozenset[int]:
    return frozenset(j for j in range(m) if mask >> j & 1)


def validate_valuation(v: Valuation, m: int, cap: int = 16,
                       tol: float = CHECK_TOL) -> ValuationReport:
    """Exhaustive monotonicity and subadditivity check over all subsets.

    Universes above `cap` items mark the exhaustive checks as skipped.
    The subadditive check covers all disjoint pairs (S, T), which suffices
    for monotone functions.
    """
    if v.m != m:
        raise ValueError("valuation universe does not match the item count")
    xos_ok = None
    if isinstance(v, (Xos, Additive)):
        clauses = v.clauses if isinstance(v, Xos) else v.weights[None, :]
        xos_ok = bool(np.all(np.isfinite(clauses)) and clauses.min() >= 0)
    if m > cap:
        return ValuationReport(zero_at_empty=v.value(()) <= tol, monotone=None,
                               subadditive=None, xos_consistent=xos_ok, skipped=True)

    masks = np.arange(1 << m, dtype=np.int64)
    rows = ((masks[:, None] >> np.arange(m)) & 1).astype(bool)
    vals = v.value_rows(rows)

    zero_ok = abs(vals[0]) <= tol
    mono_ok, mono_ce = True, None
    for j in range(m):
        without = masks[(masks >> j) & 1 == 0]
        bad = np.flatnonzero(vals[without] > vals[without | (1 << j)] + tol)
        if bad.size:
            mono_ok = False
            mono_ce = (_mask_set(int(without[bad[0]]), m), j)
            break

    sub_ok, sub_ce = True, None
    for t_mask in range(1, 1 << m):
        comp_bits = [j for j in range(m) if not t_mask >> j & 1]
        subs = np.zeros(1 << len(comp_bits), dtype=np.int64)
        for pos, j in enumerate(comp_bits):
            subs |= ((np.arange(subs.size) >> pos) & 1) << j
        bad = np.flatnonzero(vals[subs | t_mask] > vals[subs] + vals[t_mask] + tol)
        if bad.size:
            sub_ok = False
            sub_ce = (_mask_set(int(subs[bad[0]]), m), _mask_set(t_mask, m))
            break

    return ValuationReport(zero_at_empty=zero_ok, monotone=mono_ok,
                           subadditive=sub_ok, xos_consistent=xos_ok,
                           subadditive_counterexample=sub_ce,
                           monotone_counterexample=mono_ce)
