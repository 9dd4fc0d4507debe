"""Valuation families and their oracles: value, demand, XOS clause.

All families are monotone with value 0 on the empty set by construction
(explicit tables are checked separately by ``model.validate_valuation``).
Valuations are immutable and every oracle is a pure function, so they are
safe to share across concurrent workers.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple

import numpy as np

EXHAUSTIVE_CAP = 16  # largest universe enumerated by brute-force oracles


class CapExceeded(RuntimeError):
    """An enumeration-based oracle was asked to search too large a space."""


def _as_index_array(items: Iterable[int]) -> np.ndarray:
    arr = np.fromiter(items, dtype=np.int64)
    return arr


class Valuation:
    """Base class; subclasses provide vectorized evaluation over rows."""

    kind = "abstract"
    m: int

    def value(self, items: Iterable[int]) -> float:
        """v(S) for a set of item indices."""
        row = np.zeros((1, self.m), dtype=bool)
        idx = _as_index_array(items)
        if idx.size:
            row[0, idx] = True
        return float(self.value_rows(row)[0])

    def value_rows(self, rows: np.ndarray) -> np.ndarray:
        """Evaluate v on a (k, m) boolean indicator matrix, one set per row."""
        raise NotImplementedError

    def singleton_values(self) -> np.ndarray:
        return self.value_rows(np.eye(self.m, dtype=bool))

    def to_config(self) -> dict:
        raise NotImplementedError


class Additive(Valuation):
    kind = "additive"

    def __init__(self, weights):
        self.weights = np.asarray(weights, dtype=float)
        if self.weights.ndim != 1 or self.weights.size == 0:
            raise ValueError("weights must be a nonempty vector")
        if not np.all(np.isfinite(self.weights)) or self.weights.min() < 0:
            raise ValueError("weights must be finite and nonnegative")
        self.m = self.weights.size

    def value_rows(self, rows: np.ndarray) -> np.ndarray:
        return rows @ self.weights

    def singleton_values(self) -> np.ndarray:
        return self.weights.copy()

    def to_config(self) -> dict:
        return {"kind": "additive", "weights": self.weights.tolist()}

    def __eq__(self, other):
        return isinstance(other, Additive) and np.array_equal(self.weights, other.weights)


class Xos(Valuation):
    """Max over a nonempty list of nonnegative additive clauses."""

    kind = "xos"

    def __init__(self, clauses):
        self.clauses = np.atleast_2d(np.asarray(clauses, dtype=float))
        if self.clauses.shape[0] == 0:
            raise ValueError("at least one clause required")
        if not np.all(np.isfinite(self.clauses)) or self.clauses.min() < 0:
            raise ValueError("clauses must be finite and nonnegative")
        self.m = self.clauses.shape[1]

    def value_rows(self, rows: np.ndarray) -> np.ndarray:
        return (rows @ self.clauses.T).max(axis=1)

    def singleton_values(self) -> np.ndarray:
        return self.clauses.max(axis=0)

    def to_config(self) -> dict:
        return {"kind": "xos", "clauses": self.clauses.tolist()}

    def __eq__(self, other):
        return isinstance(other, Xos) and np.array_equal(self.clauses, other.clauses)


class BudgetedAdditive(Valuation):
    """min(cap, additive sum); subadditive but kept outside the XOS lane."""

    kind = "budgeted_additive"

    def __init__(self, weights, cap: float):
        self.weights = np.asarray(weights, dtype=float)
        self.cap = float(cap)
        if not np.all(np.isfinite(self.weights)) or self.weights.min() < 0:
            raise ValueError("weights must be finite and nonnegative")
        if not np.isfinite(self.cap) or self.cap < 0:
            raise ValueError("cap must be finite and nonnegative")
        self.m = self.weights.size

    def value_rows(self, rows: np.ndarray) -> np.ndarray:
        return np.minimum(rows @ self.weights, self.cap)

    def to_config(self) -> dict:
        return {"kind": "budgeted_additive", "weights": self.weights.tolist(),
                "cap": self.cap}

    def __eq__(self, other):
        return (isinstance(other, BudgetedAdditive) and self.cap == other.cap
                and np.array_equal(self.weights, other.weights))


class ExplicitTable(Valuation):
    """Full 2^m lookup table; only usable for universes of at most 16 items."""

    kind = "table"

    def __init__(self, table, m: int):
        if m > EXHAUSTIVE_CAP:
            raise CapExceeded(f"explicit tables support at most {EXHAUSTIVE_CAP} items")
        self.m = m
        self.table = np.asarray(table, dtype=float)
        if self.table.shape != (1 << m,):
            raise ValueError("table must hold one value per subset")
        if not np.all(np.isfinite(self.table)) or self.table.min() < 0:
            raise ValueError("table values must be finite and nonnegative")
        self._bits = (1 << np.arange(m)).astype(np.int64)

    @classmethod
    def from_dict(cls, values: dict[frozenset[int], float], m: int) -> "ExplicitTable":
        table = np.zeros(1 << m)
        for subset, val in values.items():
            mask = 0
            for j in subset:
                mask |= 1 << j
            table[mask] = val
        return cls(table, m)

    def value_rows(self, rows: np.ndarray) -> np.ndarray:
        masks = rows.astype(np.int64) @ self._bits
        return self.table[masks]

    def to_config(self) -> dict:
        values = {}
        for mask in range(1, 1 << self.m):
            key = ",".join(str(j) for j in range(self.m) if mask >> j & 1)
            values[key] = float(self.table[mask])
        return {"kind": "table", "values": values}

    def __eq__(self, other):
        return (isinstance(other, ExplicitTable) and self.m == other.m
                and np.array_equal(self.table, other.table))


class PriceVector(NamedTuple):
    """Per-item prices; any sign, finite entries."""

    prices: np.ndarray

    @classmethod
    def of(cls, prices) -> "PriceVector":
        arr = np.asarray(prices, dtype=float)
        if not np.all(np.isfinite(arr)):
            raise ValueError("prices must be finite")
        return cls(arr)


class DemandResult(NamedTuple):
    items: frozenset[int]
    utility: float


class XosClause(NamedTuple):
    index: int
    weights: np.ndarray


def _lex_key(items: frozenset[int]) -> tuple[int, ...]:
    return tuple(sorted(items))


def _all_subset_rows(universe: np.ndarray, m: int) -> np.ndarray:
    """Indicator rows for every subset of `universe`, in mask-counter order."""
    k = universe.size
    masks = np.arange(1 << k, dtype=np.int64)
    picked = (masks[:, None] >> np.arange(k)) & 1
    rows = np.zeros((1 << k, m), dtype=bool)
    rows[:, universe] = picked.astype(bool)
    return rows


def demand(v: Valuation, prices, items: Iterable[int] | None = None) -> DemandResult:
    """Utility-maximizing set for v(S) - p(S), restricted to `items`.

    Additive and XOS demands are analytic (strict inequality keeps the
    returned set minimal); other families enumerate all subsets of the
    allowed universe, which therefore must have at most 16 items. Ties in
    the enumerated families go to the lexicographically smallest set.
    """
    p = PriceVector.of(prices).prices
    universe = (np.arange(v.m, dtype=np.int64) if items is None
                else np.unique(_as_index_array(items)))
    if isinstance(v, Additive):
        gains = v.weights[universe] - p[universe]
        chosen = universe[gains > 0]
        return DemandResult(frozenset(int(j) for j in chosen), float(gains[gains > 0].sum()))
    if isinstance(v, Xos):
        best: DemandResult | None = None
        for clause in v.clauses:
            gains = clause[universe] - p[universe]
            chosen = frozenset(int(j) for j in universe[gains > 0])
            util = float(gains[gains > 0].sum())
            if best is None or util > best.utility or (
                    util == best.utility and _lex_key(chosen) < _lex_key(best.items)):
                best = DemandResult(chosen, util)
        return best
    if universe.size > EXHAUSTIVE_CAP:
        raise CapExceeded(
            f"no analytic demand for {v.kind}; universe of {universe.size} items "
            f"exceeds the enumeration cap of {EXHAUSTIVE_CAP}")
    rows = _all_subset_rows(universe, v.m)
    utilities = v.value_rows(rows) - rows @ p
    best_util = utilities.max()
    ties = np.flatnonzero(utilities == best_util)
    best_set = min((frozenset(int(j) for j in np.flatnonzero(rows[t])) for t in ties),
                   key=_lex_key)
    return DemandResult(best_set, float(best_util))


def xos_clause(v: Valuation, items: Iterable[int]) -> XosClause:
    """A clause achieving v(S) on S; lowest clause index wins ties.

    Additive valuations are treated as single-clause XOS.
    """
    if isinstance(v, Additive):
        return XosClause(0, v.weights.copy())
    if not isinstance(v, Xos):
        raise TypeError(f"XOS oracle called on a {v.kind} valuation")
    row = np.zeros(v.m, dtype=bool)
    idx = _as_index_array(items)
    if idx.size:
        row[idx] = True
    scores = v.clauses @ row
    best = int(np.argmax(scores))  # argmax returns the first maximizer
    return XosClause(best, v.clauses[best].copy())


def singleton_max(v: Valuation, items: Iterable[int]) -> float:
    """max of v({j}) over j in `items`; 0 on the empty collection."""
    idx = _as_index_array(items)
    if idx.size == 0:
        return 0.0
    return float(v.singleton_values()[idx].max())
